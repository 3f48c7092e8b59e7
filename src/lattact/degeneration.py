"""Degeneration of geometric actions at invariant root systems.

Saturate an invariant elliptic system R against the leftover part,
pick a camera of the saturated system R-bar, and split every generator
g = s_g . w_g with s_g preserving the camera and w_g a Weyl word. The
assignment g -> g . w_g^(-1) = s_g is a new action on the same lattice
(the degeneration), which agrees with the old one on the orthogonal
complement of R-bar, on its discriminant group, and on its component
set, and is again geometric. All of that is checked, not assumed: the
verification report carries exactly those five checks.
"""

from . import linalg as la
from ._record import record
from .errors import InputError, LattactError, VerificationError
from .group_actions import (
    EigenData,
    FundamentalData,
    LatticeAction,
    _along_table,
    _check_eigen_owner,
    dilated_complex_structure,
    fundamental_data,
    is_geometric,
    leftover_lattice,
)
from .lattice import (
    Sublattice,
    _trusted,
    orthogonal_complement,
    primitive_hull,
    signature,
    sublattice_from_rows,
    sublattice_sum,
)
from .root_systems import (
    Camera,
    RootSystem,
    _check_camera,
    camera_decompose,
    fundamental_camera,
    is_admissible,
    roots_of,
    _chamber_walls,
    _numeral_point,
)


@record
class SaturatedSystem:
    """An input system together with its saturation, a chosen camera and
    the fundamental data of the action it was saturated for."""

    r_input: Sublattice
    r_bar: RootSystem
    camera: Camera
    data: FundamentalData

    def __post_init__(self):
        if not (isinstance(self.r_input, Sublattice) and isinstance(self.r_bar, RootSystem)
                and isinstance(self.data, FundamentalData)):
            raise InputError("a saturated system takes a Sublattice, a RootSystem, a Camera and FundamentalData")
        _check_camera(self.r_bar, self.camera)


@record
class DegenerationResult:
    """Per-generator factorizations (name, s_g, w_g) and the new action."""

    system: SaturatedSystem
    factors: tuple
    action: LatticeAction

    def __post_init__(self):
        old = self.system.data.group.action if isinstance(self.system, SaturatedSystem) else None
        # g[::2] is a generator's (name, sign)
        if not (old is not None and isinstance(self.factors, tuple) and isinstance(self.action, LatticeAction)
                and self.action.ambient == old.ambient
                and [g[::2] for g in self.action.generators] == [g[::2] for g in old.generators]):
            raise InputError("a degeneration result takes a SaturatedSystem, a tuple of factors and an action "
                             "with the lattice, generator names and signs of the system's")


@record
class DegenerationReport:
    entries: tuple  # (label, passed, note)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)


# ---------------------------------------------------------------------------


def tau_saturation(a: LatticeAction, f: FundamentalData, r: Sublattice) -> SaturatedSystem:
    """Smallest root-generated overlattice of r closed under taking roots
    of the primitive hull of (system + leftover part).

    Iterates hull -> roots -> span until stable. Only the input is checked
    for invariance: the leftover part, the primitive hull of a sum of
    invariant lattices and the roots of one are invariant, so the saturated
    system is. The input itself need not be spanned by roots as long as its
    hull is: span(2*root) saturates to the root's span. Inputs in rootless
    directions are rejected because no saturation can recover them.
    """
    l = a.ambient
    if r.ambient != l:
        raise InputError("system lives in a different lattice")
    rsig = signature(r.as_lattice())
    if rsig.plus or rsig.null:
        raise InputError("input system must be elliptic")
    # on r's HNF basis the restriction is None exactly when r is not invariant
    for name, g, _ in a.generators:
        if la.restrict_to_span(g.matrix, r.basis) is None:
            raise InputError(f"input system is not invariant under generator {name}")
    ldot = leftover_lattice(a, f)
    current = r
    while True:
        hull = primitive_hull(l, sublattice_sum(l, current, ldot))
        hsig = signature(hull.as_lattice())
        if hsig.plus or hsig.null:
            raise InputError("hull of system and leftover part is not negative definite")
        # once the span of the hull's roots is current, the hull's roots
        # all lie in current, so they are current's roots: r_bar is kept
        r_bar = roots_of(hull)
        if r_bar.span == current:
            break
        current = r_bar.span
    if not r_bar.span.contains_sublattice(r):
        raise InputError("input system is not generated by roots of its hull")
    # a saturated system by construction: the camera is r_bar's own
    return _trusted(SaturatedSystem, r, r_bar, fundamental_camera(r_bar), f)


def _decompose(s: SaturatedSystem, m):
    try:
        return camera_decompose(s.r_bar, s.camera, m)
    except InputError as err:
        raise InputError(f"cannot factor through the saturated system: {err}") from None


def degenerate(a: LatticeAction, s: SaturatedSystem) -> DegenerationResult:
    """Replace each generator g by the camera-preserving factor of its
    decomposition g = s_g . w_g on the saturated system.

    The Weyl factors are products of ambient reflections, so they act
    identically on the orthogonal complement; signs are inherited. Each
    generator is decomposed once. The factors are then multiplied along
    the table of the closed group, which s carries in its fundamental
    data, and checked on every (element, generator) edge: the result is
    a homomorphism on the whole group.
    """
    group = s.data.group
    if group.action != a:
        raise InputError("system was saturated for a different action")
    geo, _ = is_geometric(a, s.data)
    if not geo:
        raise InputError("only geometric actions degenerate")
    decomposed = [_decompose(s, g) for _, g, _ in a.generators]
    # With g = s_g w_g and h = s_h w_h, gh = s_g s_h (s_h^-1 w_g s_h) w_h,
    # and the middle factor lies in the Weyl group, which every isometry
    # keeping the roots normalizes. The split into a camera-keeping factor
    # and a Weyl factor is unique, so the camera factor of gh is s_g s_h:
    # every element's factor is the product of its generators' factors.
    _along_table(group.table, la.identity(a.ambient.rank),
                 lambda m, j: la.mat_mul(m, decomposed[j][0].matrix),
                 "degeneration is not a homomorphism")
    factors = tuple((name, s_g, w_g) for (name, _, _), (s_g, w_g) in zip(a.generators, decomposed))
    gens = tuple((name, s_g, kappa) for (name, _, kappa), (s_g, _) in zip(a.generators, decomposed))
    # a result by construction: the new action keeps a's lattice, names and signs
    return _trusted(DegenerationResult, s, factors, LatticeAction(a.ambient, gens))


# ---------------------------------------------------------------------------
# verification report


def _induced_permutation(components, m) -> tuple:
    out = []
    mt = la.transpose(m)
    for comp in components:
        image = set(la.mat_mul(tuple(comp), mt))
        hits = [k for k, other in enumerate(components) if other == image]
        if len(hits) != 1:
            raise VerificationError("image of a component is not a component")
        out.append(hits[0])
    return tuple(out)


def verify_degeneration(a: LatticeAction, s: SaturatedSystem, d: DegenerationResult) -> DegenerationReport:
    """The five defining checks of a degeneration; failures are entries,
    never exceptions; a system or result of another action is an InputError."""
    if s.data.group.action != a or d.system != s:
        raise InputError("degeneration result and system must come from this action")
    names = [name for name, _, _ in a.generators]
    taus = {name: g.matrix for name, g, _ in a.generators}
    sigmas = {name: g for name, g, _ in d.action.generators}
    r_bar = s.r_bar
    l = a.ambient
    entries = []

    def run(label, fn):
        try:
            ok, note = fn()
        except LattactError as err:
            ok, note = False, str(err)
        entries.append((label, bool(ok), note))

    def admissible():
        ok, witness = is_admissible(r_bar, [sigmas[n] for n in names])
        return ok, ("camera preserved" if ok else
                    f"root {witness} orthogonal to the fixed part")

    def complement():
        comp = orthogonal_complement(l, r_bar.span)
        columns = la.transpose(comp.basis)
        for n in names:
            # tau - sigma vanishes off the root span's directions, so the
            # row-wise product skips most of its rows
            if any(map(any, la.mat_mul(la.mat_sub(taus[n], sigmas[n].matrix), columns))):
                return False, f"generator {n} differs on the complement"
        return True, f"agree on all {comp.rank} basis vectors"

    def components():
        comps = r_bar.component_roots
        for n in names:
            if _induced_permutation(comps, taus[n]) != _induced_permutation(comps, sigmas[n].matrix):
                return False, f"generator {n} permutes components differently"
        return True, f"same permutations of {len(comps)} components"

    def discriminant():
        if r_bar.span.rank == 0:
            return True, "trivial discriminant group"
        # (c_tau - c_sig) . G^-1 is integral exactly when each row of
        # c_tau - c_sig is an integer combination of the rows of the symmetric G
        rows = la.hnf(r_bar.span.gram())
        for n in names:
            c_tau = la.restrict_to_span(taus[n], r_bar.span.basis)
            c_sig = la.restrict_to_span(sigmas[n].matrix, r_bar.span.basis)
            if c_tau is None or c_sig is None:
                return False, f"generator {n} does not preserve the root span"
            if any(la.coords_in_rows(x, rows) is None for x in la.mat_sub(c_tau, c_sig)):
                return False, f"generator {n} acts differently on the discriminant group"
        return True, "same maps on the discriminant group"

    def geometric():
        # an unchanged action keeps the data it was saturated with
        f = s.data if d.action == a else fundamental_data(d.action)
        ok, witnesses = is_geometric(d.action, f)
        return ok, ("degenerate action is geometric" if ok else
                    f"{len(witnesses)} roots in the leftover part")

    run("admissible", admissible)
    run("complement", complement)
    run("components", components)
    run("discriminant", discriminant)
    run("geometric", geometric)
    return DegenerationReport(tuple(entries))


# ---------------------------------------------------------------------------
# camera selection and wall degeneration


def camera_adjacent(s: SaturatedSystem, r_prime: Sublattice) -> Camera:
    """A camera of the saturated system whose closure meets the common
    mirror of r_prime's roots.

    Decomposing an isometry through this camera keeps the Weyl factor in
    the face stabilizer generated by r_prime's reflections.
    """
    r_bar = s.r_bar
    l = r_bar.ambient
    if not r_bar.span.contains_sublattice(r_prime):
        raise InputError("face system must sit inside the saturated system")
    rp = roots_of(r_prime)
    if rp.span != r_prime:
        raise InputError("face system must be generated by its roots")
    # the face rows span the common mirror of the face roots (none when
    # there are no face roots: the fundamental camera meets the face).
    # Below them in the numeral sits the fundamental witness z: on a face
    # root the witness pairs as z, off every mirror, and on any other root
    # with the sign of the face rows' digits wherever one is nonzero. So
    # each wall, positive on the witness, is >= 0 on the generic face
    # point those digits make, which lies in the camera's closure.
    face_rows = la.kernel_int(la.freeze_mat([la.mat_vec(l.gram, v) for v in rp.roots]))
    z = fundamental_camera(r_bar).witness
    witness, _ = _numeral_point(l.gram, (z, *face_rows), r_bar.roots)
    # a camera by construction: the witness pairs with each root as a numeral
    # whose lowest digit, the pairing with z, is nonzero, and its walls are these
    return _trusted(Camera, r_bar, _chamber_walls(r_bar, la.mat_vec(l.gram, witness)), witness)


def degenerate_at_wall(a: LatticeAction, f: FundamentalData, e: EigenData, v) -> DegenerationResult:
    """Degenerate at the system of roots orthogonal to the wall a root cuts.

    The wall ray and its dilation image span the invariant plane the wall
    parametrizes; the generating roots are the roots of the orthogonal
    complement of the fixed part that kill that plane.
    """
    # imported here: saturation, degeneration and verification need no walls
    from .walls import wall_in_H_plus

    if all(kappa == 1 for _, _, kappa in a.generators):
        raise InputError("wall degeneration needs a sign-nontrivial action")
    j = dilated_complex_structure(a, f)
    _check_eigen_owner(f, e)
    wall = wall_in_H_plus(v, e, j)
    if wall is None:
        raise InputError("the defining root cuts no wall")
    ray_block = e.m_plus.to_ambient(wall.direction)
    jray_block = la.mat_vec(j.matrix, ray_block)
    ray = e.rho.to_ambient(ray_block)
    jray = e.rho.to_ambient(jray_block)
    l = a.ambient
    perp = orthogonal_complement(l, f.fixed)
    conditions = la.freeze_mat(
        [[la.dot(l.gram, b, ray) for b in perp.basis], [la.dot(l.gram, b, jray) for b in perp.basis]]
    )
    coords = la.kernel_int(conditions)
    face = sublattice_from_rows(l, la.mat_mul(coords, perp.basis))
    r = roots_of(face).span
    return degenerate(a, tau_saturation(a, f, r))
