"""Root systems, Weyl machinery, cameras, and equivariant folding.

Roots are square-(-2) vectors of a negative definite (sub)lattice, kept in
ambient coordinates. A root is positive when the last nonzero coordinate
of its expansion in the span basis is positive: a lexicographic order, so
a linear order compatible with addition. Cameras are chambers of the
mirror arrangement, each fixed by its witness: its walls are the simple
roots of the roots positive on the witness. The fundamental one pairs
strictly positively with every simple root.

Composition convention for words: word (i1, ..., ik) denotes the product
s_{r[i1]} . s_{r[i2]} ... s_{r[ik]} as matrices, so the rightmost reflection
acts first on vectors.
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations
from operator import add, mul, neg, sub

from . import linalg as la
from ._record import record
from .errors import InputError, VerificationError
from .lattice import (
    Isometry,
    Lattice,
    Sublattice,
    _trusted,
    full_sublattice,
    enumerate_vectors,
    orthogonal_complement,
    signature,
    standard_lattice,
    sublattice_from_rows,
)


# ---------------------------------------------------------------------------
# types


_DERIVED = ("_diagram", "_root_coords", "component_roots")


@record
class RootSystem:
    ambient: Lattice
    span: Sublattice  # Z-span of the root set inside ambient
    roots: tuple  # all square -2 vectors, ambient coordinates, sorted
    positive_roots: tuple
    simple_roots: tuple
    components: tuple  # ((letter, rank), ...), canonically sorted
    # roots_of sets the facts it derives with the fields (_DERIVED): _diagram,
    # the simple roots' _dynkin; _root_coords, each root's simple coordinates;
    # component_roots, the roots split into irreducible components, frozensets
    # sorted by their sorted members

    def __post_init__(self):
        # roots_of mints its systems with _trusted, so this runs on no other
        if not isinstance(self.span, Sublattice) or (derived := roots_of(self.span)) != self:
            raise InputError("a root system must be the one roots_of derives from its span")
        vars(self).update((name, vars(derived)[name]) for name in _DERIVED)

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    def root_index(self, v) -> int:
        rows = la.int_rows((v,))
        if rows is None or len(rows[0]) != self.ambient.rank:
            raise InputError("a root must be an integer vector of the lattice rank")
        try:
            return self.roots.index(rows[0])
        except ValueError:
            raise InputError(f"{v!r} is not a root of this system") from None

    def simple_coords(self, vectors) -> tuple:
        """Integer coordinates of each vector in the simple roots S, None
        outside their lattice: its coordinates in B = hnf(S) times K^-1 for
        the simple roots' own coordinates K there. S = K B with S and B
        bases of one lattice, so K is unimodular."""
        vectors = la.int_rows(vectors)
        if vectors is None or any(len(v) != self.ambient.rank for v in vectors):
            raise InputError("vectors must be integer vectors of the lattice rank")
        basis = la.hnf(self.simple_roots)
        columns = la.transpose(la.inverse_int([la.coords_in_rows(s, basis) for s in self.simple_roots]))
        out = []
        for v in vectors:
            y = la.coords_in_rows(v, basis)
            out.append(None if y is None else tuple(sum(map(mul, y, col)) for col in columns))
        return tuple(out)


@record
class Camera:
    """Connected chamber of the mirror complement, with an interior point."""

    root_system: RootSystem
    walls: tuple  # the camera's simple roots, ambient coordinates
    witness: tuple  # rational interior vector

    def __post_init__(self):
        rank = self.root_system.ambient.rank
        walls, witness = la.int_rows(self.walls), la.rational_vec(self.witness)
        if walls is None or witness is None or any(len(w) != rank for w in (witness, *walls)):
            raise InputError("camera walls must be integer vectors and its witness a rational one, all of the lattice rank")
        object.__setattr__(self, "walls", walls)
        object.__setattr__(self, "witness", witness)
        gw = la.mat_vec(self.root_system.ambient.gram, witness)
        if _on_a_mirror(self.root_system, gw):
            raise InputError("camera witness lies on a mirror")
        # a chamber is fixed by any interior point (Bourbaki, Lie Groups
        # VI, 1.5): its walls are the simple roots the witness defines
        if tuple(sorted(walls)) != _chamber_walls(self.root_system, gw):
            raise InputError("camera walls must be the simple roots of the witness's chamber")


@record
class WeylWord:
    root_system: RootSystem
    word: tuple  # indices into root_system.roots, rightmost acts first
    isometry: Isometry

    def __post_init__(self):
        word = la.int_rows((self.word,))
        if word is None or not all(0 <= i < len(self.root_system.roots) for i in word[0]):
            raise InputError("Weyl word must be a sequence of root indices")
        object.__setattr__(self, "word", word[0])
        m = _word_times(self.root_system, self.word, la.identity(self.root_system.ambient.rank))
        if m != self.isometry.matrix:
            raise VerificationError("Weyl word does not evaluate to its isometry")

    def __len__(self) -> int:
        return len(self.word)


# ---------------------------------------------------------------------------
# construction


def roots_of(s) -> RootSystem:
    """Complete root system of a negative definite sublattice (or lattice)."""
    if isinstance(s, Lattice):
        ambient, sl = s, s
    elif isinstance(s, Sublattice):
        ambient, sl = s.ambient, s.as_lattice()
    else:
        raise InputError("expected a Sublattice or Lattice")
    if s.rank == 0:
        return _system(ambient, full_sublattice(s) if sl is s else s, (), (), (), ([], []), ())
    sig = signature(sl)
    if sig.plus != 0 or sig.null != 0:
        raise InputError("root systems need a negative definite form")
    local = enumerate_vectors(sl, -2)
    roots = local if sl is s else tuple(sorted(la.mat_mul(local, s.basis)))
    # enumerate_vectors returns each vector with its negative, so the
    # sorted roots hold in their upper half the positive system of the
    # lexicographic order on ambient coordinates, total and compatible
    # with addition. Walking it by that order gives a base of r roots,
    # which spans the root lattice: its HNF is the span basis.
    upper = roots[len(roots) // 2:]
    lex_base, lex_summands = _simple_roots(upper, upper)
    basis = la.hnf(lex_base)
    span = _trusted(Sublattice, ambient, basis)
    # A root is positive when the last nonzero entry of its span
    # coordinates is (a root is nonzero, so some entry is). The base
    # roots' coordinates come by substitution on the pivots, each other
    # upper root's along the walk, c(p) = c(p - s) + c(s), and a lower
    # root's as minus its negative's. The reversed coordinates order the
    # positive roots by height.
    pivots = la._echelon_pivots(basis)
    coords = {b: la._echelon_coords(b, basis, pivots) for b in lex_base}
    for p, (rest, b) in lex_summands.items():
        coords[p] = tuple(map(add, coords[rest], coords[b]))
    positive, height = [], []
    for r in roots:
        c = coords[r] if r in coords else tuple(map(neg, coords[tuple(map(neg, r))]))
        if next(filter(None, reversed(c))) > 0:
            positive.append(r)
            height.append(c[::-1])
    simple, summands = _simple_roots(positive, height)
    diagram = _dynkin(ambient, simple)
    # each root's simple coordinates read off the walk, p = (p - s) + s
    # with p - s lower, so earlier in the walk; a negative root is minus a
    # positive one. The simple roots are positive and pair to 0 or 1
    # (_dynkin's check), so to 0 or -1 under the positive definite -G:
    # vectors on one side of a hyperplane at pairwise obtuse angles are
    # independent (Humphreys, GTM 9, 10.1), so these are the coordinates
    # that simple_coords would solve. Each is an integer vector of one sign
    # by construction, and the simple roots, a base (Bourbaki, Lie Groups
    # VI, 1.7), are as many as the span's rank.
    index = {s: i for i, s in enumerate(simple)}
    coords = dict(zip(simple, la.identity(len(simple))))
    for p, (rest, s) in summands.items():
        c = list(coords[rest])
        c[index[s]] += 1
        coords[p] = tuple(c)
    root_coords = tuple(coords[r] if r in coords else tuple(map(neg, coords[tuple(map(neg, r))])) for r in roots)
    return _system(ambient, span, roots, tuple(positive), simple, diagram, root_coords)


def _system(ambient, span, roots, positive, simple, diagram, root_coords) -> RootSystem:
    """The system of these fields with the facts derived from them set
    (_DERIVED). A root's simple coordinates use one diagram component
    only (Humphreys, GTM 9, 10.4), that of its first nonzero coordinate,
    and the components' types come from their ranks and root counts
    (_ade_type). With _dynkin's pairing check, that count is the
    certificate of the enumeration: a root set that lost or gained roots
    fails one of the two unless it is itself a whole root system."""
    groups = diagram[1]
    group_of = {i: k for k, group in enumerate(groups) for i in group}
    parts = [[] for _ in groups]
    for r, c in zip(roots, root_coords):
        parts[group_of[next(i for i, x in enumerate(c) if x)]].append(r)
    types = tuple(sorted(_ade_type(len(g), len(p)) for g, p in zip(groups, parts)))
    rs = _trusted(RootSystem, ambient, span, roots, positive, simple, types)
    component_roots = tuple(sorted(map(frozenset, parts), key=sorted))
    vars(rs).update(_diagram=diagram, _root_coords=root_coords, component_roots=component_roots)
    return rs


def _simple_roots(positive, height) -> tuple:
    """(the indecomposable roots among the positive ones, sorted; for each
    other positive root p, in the walk's order, a pair (p - s, s) of a
    positive root and a simple one).

    height[i] orders positive[i] like a linear functional defining the
    positivity (any key with that order). Walking the positive roots by
    increasing height, a root is simple unless subtracting an already
    kept simple root leaves a positive root: a decomposable root always
    has such a simple summand, of smaller height (Bourbaki, Lie Groups
    VI, 1.6). O(N r) set lookups for N positive roots of rank r.
    """
    pos_set = set(positive)
    simple = []
    summands = {}
    for _, p in sorted(zip(height, positive)):
        for s in simple:
            rest = tuple(map(sub, p, s))
            if rest in pos_set:
                summands[p] = (rest, s)
                break
        else:
            simple.append(p)
    return tuple(sorted(simple)), summands


def _dynkin(ambient: Lattice, simple) -> tuple:
    """(adjacency, components as sorted index lists) of the Dynkin diagram."""
    n = len(simple)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = la.dot(ambient.gram, simple[i], simple[j])
            if p not in (0, 1):
                raise VerificationError("simple roots with pairing outside {0,1}")
            if p == 1:
                adj[i][j] = adj[j][i] = True
    groups, seen = [], set()
    for start in range(n):
        if start not in seen:
            group, stack = {start}, [start]
            while stack:
                new = {j for j, edge in enumerate(adj[stack.pop()]) if edge} - group
                group |= new
                stack.extend(new)
            seen |= group
            groups.append(sorted(group))
    return adj, groups


def _ade_type(rank: int, count: int) -> tuple:
    """The type of an irreducible simply-laced root system of this rank
    with count roots. |Phi| = n h for the Coxeter number h (Bourbaki, Lie
    Groups VI, 1.11, Prop. 32 and Plates I-VII), which is n + 1 for A_n,
    2n - 2 for D_n (n >= 4) and 12, 18, 30 for E6, E7, E8: no two types
    of one rank share a count, and a count no type has is an enumeration
    that lost or gained roots."""
    if count == rank * (rank + 1):
        return "A", rank
    if rank >= 4 and count == rank * (2 * rank - 2):
        return "D", rank
    if rank in (6, 7, 8) and count == rank * (12, 18, 30)[rank - 6]:
        return "E", rank
    raise VerificationError(f"a component of rank {rank} with {count} roots fits no ADE type")


def ade_decompose(r: RootSystem) -> tuple:
    """Multiset of irreducible ADE types: the components roots_of derived
    and certified, from the rank and the root count of each component of
    the Dynkin diagram (_ade_type)."""
    return r.components


# ---------------------------------------------------------------------------
# reflections and chambers


def _reflect_rows(v, c, m) -> tuple:
    """s . m for the reflection s = I - v c^T, c = 2Gv / v^2, as the
    rank-1 update m - v (c^T m): O(n^2) instead of a matrix product."""
    cm = [sum(map(mul, c, col)) for col in zip(*m)]
    return tuple(
        tuple(x - vi * y for x, y in zip(row, cm)) if vi else row
        for row, vi in zip(m, v)
    )


def _word_times(r: RootSystem, word, m) -> tuple:
    """The product of the word's reflections times m, rightmost first.
    A root v has v^2 = -2, so c = 2Gv / v^2 is -Gv."""
    gram = r.ambient.gram
    for i in reversed(word):
        v = r.roots[i]
        m = _reflect_rows(v, tuple(-x for x in la.mat_vec(gram, v)), m)
    return m


def reflection(l: Lattice, v) -> Isometry:
    """Reflection x -> x - (2(Gv).x / v^2) v; must be integral on l.

    v is first scaled to a primitive integer vector, which leaves the
    reflection unchanged; the matrix I - v (2Gv)^T / v^2 is then integral
    exactly when v^2 divides every entry of 2Gv, and it is an isometry
    by construction.
    """
    v = la.rational_vec(v)
    if v is None or len(v) != l.rank:
        raise InputError("reflection vector must be a rational vector of the lattice rank")
    if la.sq(l.gram, v) == 0:
        raise InputError("cannot reflect in an isotropic vector")
    v = la.primitive_vector(v)
    gv = la.mat_vec(l.gram, v)
    vv = sum(map(mul, v, gv))
    coef = []
    for x in gv:
        q, r = divmod(2 * x, vv)
        if r:
            raise InputError("reflection is not integral on this lattice")
        coef.append(q)
    return _trusted(Isometry, l, _reflect_rows(v, coef, la.identity(l.rank)))


def fundamental_camera(r: RootSystem) -> Camera:
    """The camera cut out by the chosen simple roots.

    With A = S G S^T the Gram matrix of the simple roots S, the witness is
    the integer vector sign(det A) . sum_i (adj(A) . 1)_i S_i, a positive
    multiple of sum_i (A^-1 . 1)_i S_i, which pairs to 1 with every simple
    root.
    """
    simple = r.simple_roots
    if not simple:
        return _trusted(Camera, r, (), la.zero_vec(r.ambient.rank))
    adj, d = la.adjugate(la.mat_mul(la.mat_mul(simple, r.ambient.gram), la.transpose(simple)))
    sign = 1 if d > 0 else -1
    c = [sign * sum(row) for row in adj]
    witness = tuple(sum(map(mul, c, col)) for col in zip(*simple))
    # a camera by construction: the witness pairs |det A| > 0 with every
    # simple root, so it is off every mirror and its walls are the simple roots
    return _trusted(Camera, r, simple, witness)


def _on_a_mirror(r: RootSystem, gy) -> bool:
    """Whether y lies on a mirror, given gy = G . y."""
    return any(sum(map(mul, gy, root)) == 0 for root in r.roots)


def _chamber_walls(r: RootSystem, gy) -> tuple:
    """The simple roots of the chamber of y, sorted, given gy = G . y off
    every mirror: the roots positive on y are a positive system, and
    their pairing with y is a height for it."""
    height = [sum(map(mul, gy, root)) for root in r.roots]
    positive = [root for h, root in zip(height, r.roots) if h > 0]
    return _simple_roots(positive, [h for h in height if h > 0])[0]


def _numeral_point(gram, rows, roots) -> tuple:
    """(sum_i base^i rows[i], the first root orthogonal to every row or
    None), with base = 1 + max |row . root|.

    The point's pairing with a root is a signed base-`base` numeral whose
    digits are the root's pairings with the rows, all below base: it is 0
    only for a root orthogonal to every row, and otherwise takes the sign
    of the highest nonzero digit.
    """
    grows = la.mat_mul(rows, gram)
    digits = [[sum(map(mul, g, root)) for g in grows] for root in roots]
    orthogonal = next((root for root, d in zip(roots, digits) if not any(d)), None)
    base = 1 + max((abs(x) for d in digits for x in d), default=0)
    point = tuple(sum(base ** i * row[k] for i, row in enumerate(rows)) for k in range(len(gram)))
    return point, orthogonal


def _check_camera(r: RootSystem, c) -> None:
    """Refuse c unless it is a Camera of r (or of a system equal to r)."""
    if not isinstance(c, Camera) or c.root_system != r:
        raise InputError("camera is not a camera of the root system")


def to_fundamental_chamber(r: RootSystem, c: Camera, target) -> WeylWord:
    """Weyl word w with w(chamber of target) = c, via simple-wall reflections.

    target is a Camera or a rational interior vector; the walk reflects in
    the lowest-index violated wall of c first; each step crosses one mirror
    toward c (Humphreys, GTM 9, 10.2), so the walk ends inside c within the
    positive-root count. A rational target is cleared of denominators on
    entry (a positive multiple lies in the same chamber), so the walk runs
    in integers, and each step is a rank-1 update.
    """
    _check_camera(r, c)
    y = la.rational_vec(target.witness if isinstance(target, Camera) else target)
    if y is None or len(y) != r.ambient.rank:
        raise InputError("target vector must be a rational vector of the lattice rank")
    y = la.clear_denominators(y)
    gram = r.ambient.gram
    if _on_a_mirror(r, la.mat_vec(gram, y)):
        raise InputError("target vector lies on a mirror")
    gws = [la.mat_vec(gram, wall) for wall in c.walls]
    applied = []
    u = la.identity(r.ambient.rank)
    while True:
        pairings = [sum(map(mul, gw, y)) for gw in gws]
        bad = next((i for i, p in enumerate(pairings) if p < 0), None)
        if bad is None:
            break
        # walls are roots: the reflection is x -> x + (Gv.x) v
        v = c.walls[bad]
        applied.append(r.root_index(v))
        y = tuple(a + pairings[bad] * b for a, b in zip(y, v))
        u = _reflect_rows(v, tuple(-x for x in gws[bad]), u)
    # u is the product of the word, rightmost first, by construction
    return _trusted(WeylWord, r, tuple(reversed(applied)), _trusted(Isometry, r.ambient, u))


def _preserves_roots(r: RootSystem, m) -> bool:
    # row i of R . m^T is m . r_i
    return set(la.mat_mul(r.roots, la.transpose(m))) <= set(r.roots)


def camera_decompose(r: RootSystem, c: Camera, g) -> tuple:
    """Split g = s . w with s(c) = c and w in the Weyl group; unique.

    Returns (s: Isometry, w: WeylWord). The input must map the root set
    onto itself. g is verified here unless it is already an Isometry of
    r's lattice; s and w are then products of it and of reflections, so
    they are not verified again.
    """
    _check_camera(r, c)
    gm = _as_isometry(r.ambient, g).matrix
    if not _preserves_roots(r, gm):
        raise InputError("isometry does not preserve the root system")
    u = to_fundamental_chamber(r, c, la.mat_vec(gm, c.witness))
    s_mat = _word_times(r, u.word, gm)
    # s keeps the roots and the camera, so it permutes the camera's walls
    preimage = {tuple(la.mat_vec(s_mat, wall)): wall for wall in c.walls}
    # w = s^-1 g = s^-1 u^-1 s: the word of u reversed, each wall moved by s^-1
    w_word = tuple(r.root_index(preimage[r.roots[i]]) for i in reversed(u.word))
    w_mat = _word_times(r, w_word, la.identity(r.ambient.rank))
    if la.mat_mul(s_mat, w_mat) != gm:
        raise VerificationError("camera decomposition failed to recompose")
    w = _trusted(WeylWord, r, w_word, _trusted(Isometry, r.ambient, w_mat))
    return _trusted(Isometry, r.ambient, s_mat), w


# ---------------------------------------------------------------------------
# admissibility


def _as_isometry(l: Lattice, g) -> Isometry:
    """g (an Isometry or a raw matrix) as an Isometry of l, checked unless
    it already is one: a raw matrix is checked before anything reads it,
    so a non-integral entry is refused, not truncated."""
    if isinstance(g, Isometry) and g.lattice == l:
        return g
    return Isometry(l, g.matrix if isinstance(g, Isometry) else g)


def _action_matrices(action, l: Lattice) -> tuple:
    """Matrices of a LatticeAction's generators, or of a sequence of
    Isometry objects and raw matrices, each an isometry of l."""
    if hasattr(action, "generators"):
        action = [iso for _, iso, _ in action.generators]
    try:
        action = tuple(action)
    except TypeError:
        raise InputError("action must be a LatticeAction or a sequence of matrices") from None
    return tuple(_as_isometry(l, g).matrix for g in action)


def is_admissible(r: RootSystem, action) -> tuple:
    """(True, preserved-camera interior witness) or (False, orthogonal root).

    Admissibility: no root is orthogonal to the fixed subspace of the root
    span; equivalently the action preserves a camera, whose interior witness
    is returned.
    """
    mats = _action_matrices(action, r.ambient)
    for m in mats:
        if not _preserves_roots(r, m):
            raise InputError("action element does not preserve the root system")
    # each m keeps the roots (checked above), so it keeps their span
    span_mats = [la.restrict_to_span(m, r.span.basis) for m in mats]
    fixed_rows = la.fixed_kernel(span_mats, r.span.rank)
    # the witness is a sum of fixed vectors, so invariant, and generic
    # unless some root is orthogonal to every fixed vector
    witness, orthogonal = _numeral_point(r.ambient.gram, la.mat_mul(fixed_rows, r.span.basis), r.roots)
    if orthogonal is not None:
        return False, la.primitive_vector(orthogonal)
    return True, witness


# ---------------------------------------------------------------------------
# classification sweep


def _graph_automorphisms(adj) -> tuple:
    """All permutations of the simple nodes preserving adjacency."""
    n = len(adj)
    out = []
    for perm in permutations(range(n)):
        if all(adj[i][j] == adj[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            out.append(perm)
    return tuple(out)


def _perm_matrix(perm) -> tuple:
    """Matrix sending e_j to e_perm[j], so products compose permutations."""
    n = len(perm)
    return tuple(tuple(1 if i == perm[j] else 0 for j in range(n)) for i in range(n))


def _subgroups(perms) -> tuple:
    """All subgroups of a small permutation group, each as the sorted
    tuple of its permutation matrices."""
    mats = [_perm_matrix(p) for p in perms]
    n = len(perms[0])
    found = set()
    for bits in range(1 << len(mats)):
        gens = [m for i, m in enumerate(mats) if bits >> i & 1]
        found.add(tuple(sorted(la.group_closure(gens, n)[0])))
    return tuple(sorted(found))


_SUBGROUP_NAMES = {1: "trivial", 2: "Z2-swap", 3: "Z3-rotation", 6: "S3"}


def classify_admissible_b_transitive(max_rank: int) -> tuple:
    """Faithful admissible actions with a root orbit spanning the lattice.

    Sweeps every irreducible ADE type of rank <= max_rank and every subgroup
    of its diagram symmetry group acting by simple-root permutation.
    """
    if not la.is_bound(max_rank) or not 1 <= max_rank <= 6:
        raise InputError("max_rank must be an integer in 1..6")
    names = [f"A{n}" for n in range(1, max_rank + 1)]
    names += [f"D{n}" for n in range(4, max_rank + 1)]
    if max_rank >= 6:
        names.append("E6")
    results = []
    for name in names:
        lat = standard_lattice(name)
        rs = roots_of(lat)
        simple = rs.simple_roots
        autos = _graph_automorphisms(rs._diagram[0])
        # the simple roots are a basis of the root lattice, which is lat:
        # cols is unimodular, and each conjugate below maps simple root i to
        # simple root pm(i). A nontrivial pm moves a simple root, so the
        # action is faithful; it permutes the simple roots, so it keeps the
        # fundamental camera and is admissible.
        cols = la.transpose(la.freeze_mat(simple))  # columns are simple roots
        cols_inv = la.inverse_int(cols)
        for sub in _subgroups(autos):
            mats = [la.mat_mul(cols, la.mat_mul(pm, cols_inv)) for pm in sub]
            # conjugating the closed subgroup by the simple-root basis
            # keeps it closed, so mats is already the whole group
            spanning = False
            for root in rs.roots:
                orbit = {tuple(la.mat_vec(m, root)) for m in mats}
                if la.hnf(la.freeze_mat(sorted(orbit))) == la.identity(lat.rank):
                    spanning = True
                    break
            if not spanning:
                continue
            results.append((name, _SUBGROUP_NAMES[len(sub)]))
    return tuple(sorted(set(results)))


# ---------------------------------------------------------------------------
# equivariant folding


@record
class FoldResult:
    """Outcome of folding a reflection through a finite action.

    Exactly one of the fields is set: witness_root is a root orthogonal to
    the fixed lattice, weyl is the equivariant Weyl element restricting to
    the fixed part as the reflection against the summed orbit.
    """

    witness_root: tuple | None
    weyl: Isometry | None

    @property
    def folded(self) -> bool:
        return self.weyl is not None


def fold_reflection(n: Lattice, action, v) -> FoldResult:
    """Fold the reflection in root v through the action's group.

    Either returns a root of n orthogonal to the fixed lattice n^G (witness
    branch), or the product of reflections in the A1/A2 pieces of the orbit
    sum, an element of the Weyl group commuting with the action and acting
    on n^G as the reflection against the orbit sum.
    """
    mats = _action_matrices(action, n)
    rows = la.int_rows((v,))
    if rows is None or len(rows[0]) != n.rank or la.sq(n.gram, rows[0]) != -2:
        raise InputError("v must be a root of the lattice")
    v = rows[0]
    try:
        closure, _ = la.group_closure(mats, n.rank)
    except ValueError as e:
        raise InputError(str(e)) from None
    fixed_rows = la.fixed_kernel(mats, n.rank)
    fixed_sub = _trusted(Sublattice, n, fixed_rows)
    comp = orthogonal_complement(n, fixed_sub)
    comp_sig = signature(comp.as_lattice())
    if comp_sig.plus != 0 or comp_sig.null != 0:
        raise InputError("orthogonal complement of the fixed lattice must be negative definite")
    vbar = la.zero_vec(n.rank)
    orbit = set()
    for m in closure:
        img = tuple(la.mat_vec(m, v))
        orbit.add(img)
        vbar = la.vec_add(vbar, img)
    vv = la.sq(n.gram, vbar)
    if vv >= 0:
        raise InputError("orbit sum must be nonzero of negative square")
    # branch 1: a root orthogonal to the fixed lattice
    comp_roots = roots_of(comp)
    if comp_roots.roots:
        return FoldResult(witness_root=la.primitive_vector(comp_roots.roots[0]), weyl=None)
    # branch 2: fold over the orbit span's components
    rsub = sublattice_from_rows(n, tuple(sorted(orbit)))
    rs = roots_of(rsub)
    # The group permutes the components of rs transitively and each holds
    # orbit roots (they span rsub). vbar is |Stab v| times the orbit sum,
    # so its part in a component is that multiple of the sum of the orbit
    # roots there, nonzero as the parts map to each other and vbar != 0.
    pieces = []
    for part in rs.component_roots:
        a = la.primitive_vector(reduce(la.vec_add, orbit & part))
        if la.sq(n.gram, a) != -2:
            raise VerificationError("component part of the orbit sum is not a root line")
        pieces.append(a)
    w = la.identity(n.rank)
    for a in sorted(pieces):
        w = la.mat_mul(w, reflection(n, a).matrix)
    # the folded element must commute with the action
    for m in mats:
        if la.mat_mul(w, m) != la.mat_mul(m, w):
            raise VerificationError("folded element does not commute with the action")
    # and restrict to the fixed lattice as the reflection against vbar:
    # vbar^2 (w x) = vbar^2 x - 2 (x . vbar) vbar, in integers
    for x in fixed_rows:
        xv2 = 2 * la.dot(n.gram, x, vbar)
        if any(vv * g != vv * a - xv2 * b for g, a, b in zip(la.mat_vec(w, x), x, vbar)):
            raise VerificationError("folded element is not the fixed-part reflection")
    return FoldResult(witness_root=None, weyl=_trusted(Isometry, n, w))
