"""Walls cut by roots on the positive arc of the plus eigenlattice.

A root v of the rotation block imposes two linear conditions on the
plus part: x.v = 0 and Jx.v = 0, equivalently x.v+ = 0 and x.Jv- = 0.
With rank-2 eigenparts the locus is a single ray or empty: the two
conditions must be dependent and the cut direction must have positive
square. Candidate roots fall into finitely many projection value pairs
(Nv+)^2 + (Nv-)^2 = -2N^2; when every needed square can be enumerated
exactly (definite or split eigenforms) the candidate list is certified
complete, otherwise the caller supplies a box bound and the report is
flagged incomplete.

segment_vectors solves the companion one-dimensional problem: which
vectors of a fixed square cut the open arc between two isotropic rays
of a hyperbolic lattice.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING

from . import linalg as la
from ._record import record
from .errors import InputError, ScopeError, VerificationError
from .lattice import Lattice, Sublattice, enumerate_vectors, orthogonal_complement, signature

if TYPE_CHECKING:
    from .group_actions import DilatedComplexStructure, EigenData


@record
class Wall:
    """Nonempty wall data for one defining root.

    root: integer vector in rotation-block coordinates, square -2.
    v_plus / v_minus: rational eigenprojections, block coordinates.
    direction: primitive integer vector in plus-eigenlattice basis
    coordinates spanning the cut ray; positive square.
    """

    root: tuple
    v_plus: tuple
    v_minus: tuple
    direction: tuple | None = None


@record
class CandidateReport:
    """Roots compatible with the projection square constraint.

    groups: ((s_plus, s_minus), roots) per value pair, roots canonical
    up to sign and sorted. complete: certified-exhaustive enumeration.
    """

    groups: tuple
    complete: bool

    def all_roots(self) -> tuple:
        out = []
        for _, roots in self.groups:
            out.extend(roots)
        return tuple(out)


@record
class WallReport:
    candidate_count: int
    walls: tuple  # one Wall per distinct ray, candidate order
    components: int
    complete: bool


# ---------------------------------------------------------------------------


def _doubled_projections(v, e: EigenData) -> tuple:
    """(p, m) = (v + cv, v - cv) for the reflector c on the block: twice
    the eigenprojections, integral for an integral v."""
    cv = la.mat_vec(e.reflector_block, v)
    return tuple(a + b for a, b in zip(v, cv)), tuple(a - b for a, b in zip(v, cv))


def _halved(p) -> tuple:
    from fractions import Fraction

    return tuple(Fraction(x, 2) for x in p)


def project_to_eigenspaces(v, e: EigenData) -> tuple:
    """Eigenprojections v -> (v_plus, v_minus), rational vectors with
    v = v_plus + v_minus, in rotation-block coordinates."""
    v = la.rational_vec(v)
    if v is None or len(v) != e.rho.rank:
        raise InputError("vector must be a rational vector of the rotation block's rank")
    p, m = _doubled_projections(v, e)
    return _halved(p), _halved(m)


def _vectors_of_square(sub: Sublattice, s: int, bound) -> tuple:
    """Block-coordinate vectors of the sublattice with the given square,
    both signs; (vectors, certified_complete)."""
    if s == 0:
        return ((la.zero_vec(sub.ambient.rank),), True)
    lat = sub.as_lattice()
    try:
        coords = enumerate_vectors(lat, s)
        return (la.mat_mul(coords, sub.basis), True)
    except ScopeError:
        if bound is None:
            raise ScopeError(
                "eigenform needs a search bound: its nonzero values are not certified finite"
            ) from None
    hits = []
    rng = range(-bound, bound + 1)
    gram = lat.gram
    for x in rng:
        for y in rng:
            if (x or y) and la.sq(gram, (x, y)) == s:
                hits.append((x, y))
    return (la.mat_mul(hits, sub.basis), False)


def candidate_roots(e: EigenData, bound: int | None = None) -> CandidateReport:
    """All roots of the rotation block whose eigenprojections can cut a
    wall, grouped by the value pair ((Nv+)^2, (Nv-)^2).

    The pairs run over s_plus + s_minus = -2N^2 with both entries
    nonpositive; s = 0 stands for a vanishing projection (a nonzero
    isotropic projection never cuts the positive cone).
    """
    if e.m_plus.rank != 2 or e.m_minus.rank != 2:
        raise InputError("candidate enumeration needs rank-2 eigenlattices")
    if bound is not None and not la.is_bound(bound):
        raise InputError("search bound must be a nonnegative integer")
    n = e.exponent
    total = -2 * n * n
    groups = []
    complete = True
    for s_plus in range(0, total - 1, -2):
        s_minus = total - s_plus
        plus_vecs, ok_plus = _vectors_of_square(e.m_plus, s_plus, bound)
        minus_vecs, ok_minus = _vectors_of_square(e.m_minus, s_minus, bound)
        complete = complete and ok_plus and ok_minus
        found = set()
        for a in plus_vecs:
            for b in minus_vecs:
                w = tuple(x + y for x, y in zip(a, b))
                if any(x % n for x in w):
                    continue
                # the parts are orthogonal: v^2 = (s_plus + s_minus) / n^2 = -2
                found.add(la.primitive_vector(tuple(x // n for x in w)))
        groups.append(((s_plus, s_minus), tuple(sorted(found))))
    return CandidateReport(tuple(groups), complete)


def wall_in_H_plus(v, e: EigenData, j: DilatedComplexStructure) -> Wall | None:
    """The wall a root cuts on the positive cone of the plus part, or None.

    Nonempty exactly when the conditions x.v+ = 0 and x.Jv- = 0 are
    dependent on M+ (x) Q and the resulting ray has positive square.
    """
    if e.m_plus.rank != 2:
        raise InputError("wall computation needs a rank-2 plus eigenlattice")
    if j.rho != e.rho:
        raise InputError("the dilation acts on another rotation block")
    rows = la.int_rows((v,))
    block = e.rho.as_lattice()
    if rows is None or len(rows[0]) != e.rho.rank or la.sq(block.gram, rows[0]) != -2:
        raise InputError("defining vector must be an integral root of the rotation block")
    v = rows[0]
    # p = 2 v+ and m = 2 v-: the factor 2 changes no dependence, ray or sign
    p, m = _doubled_projections(v, e)
    gram = block.gram
    jm = la.mat_vec(j.matrix, m)
    alpha = tuple(la.dot(gram, row, p) for row in e.m_plus.basis)
    beta = tuple(la.dot(gram, row, jm) for row in e.m_plus.basis)
    if not any(alpha) and not any(beta):
        # the root sees nothing of the plus part: no codimension-1 cut
        return None
    if alpha[0] * beta[1] - alpha[1] * beta[0] != 0:
        return None
    gamma = alpha if any(alpha) else beta
    ray = la.primitive_vector((gamma[1], -gamma[0]))
    plus_gram = e.m_plus.gram()
    if la.sq(plus_gram, ray) <= 0:
        return None
    # the ray is orthogonal to gamma, so to alpha and beta (dependent). The
    # check below holds when J exchanges e's eigenparts, as the dilation of
    # e's action does; a J built by hand is checked for its shape only.
    if la.sq(gram, p) > 0 or la.sq(gram, m) > 0:
        raise VerificationError("a cutting root must have nonpositive projection squares")
    return Wall(v, _halved(p), _halved(m), ray)


def component_count(walls, e: EigenData) -> tuple:
    """Components of the positive arc after removing the wall rays:
    (walls kept, component count).

    Walls are deduplicated by ray (each line meets the arc once), the
    first of each ray kept; the component number is rays + 1, meaningful
    when the candidate list was certified complete.
    """
    if e.m_plus.rank != 2:
        raise InputError("component counting needs a rank-2 plus eigenlattice")
    kept = []
    for w in walls:
        if w.direction is None:
            raise InputError("component counting expects nonempty walls")
        if all(w.direction != k.direction for k in kept):
            kept.append(w)
    return tuple(kept), len(kept) + 1


def wall_report(e: EigenData, j: DilatedComplexStructure, bound: int | None = None) -> WallReport:
    """Candidate roots -> walls -> deduplicated component report."""
    if j.rho != e.rho:
        raise InputError("the dilation acts on another rotation block")
    cand = candidate_roots(e, bound)
    roots = cand.all_roots()
    walls = [w for w in (wall_in_H_plus(v, e, j) for v in roots) if w is not None]
    kept, components = component_count(walls, e)
    return WallReport(len(roots), kept, components, cand.complete)


# ---------------------------------------------------------------------------
# segment crossings in a hyperbolic lattice


def segment_vectors(m: Lattice, u1, u2, a: int) -> tuple:
    """All v in m with v^2 = a whose hyperplane meets the open segment of
    rays between two primitive isotropic vectors u1, u2.

    Crossing criterion: (v.u1)(v.u2) < 0. Writing D v = A u1 + B u2 + x
    with x in the orthogonal part and D the index of the orthogonal sum
    inside m, the product AB ranges over [a D^2 / (2 u1.u2), -1], and for
    each value the x-part has a fixed negative square, so the search is
    finite and complete. The rows S of u1, u2 and a basis of the
    orthogonal part have S G S^T = [[0, b], [b, 0]] + Gram(perp), b = u1.u2,
    so D = |det S| comes from the two cached Gram determinants:
    D^2 = b^2 det(perp) / -det(m).
    """
    rows = la.int_rows((u1, u2))
    if rows is None or any(len(u) != m.rank for u in rows):
        raise InputError("segment endpoints must be integral vectors of the lattice's rank")
    u1, u2 = rows
    rows = la.int_rows(((a,),))
    if rows is None:
        raise InputError("vector square must be an integer")
    a = rows[0][0]
    sig = signature(m)
    if sig.plus != 1 or sig.null != 0:
        raise InputError("ambient lattice must be hyperbolic")
    g = m.gram
    if la.sq(g, u1) != 0 or la.sq(g, u2) != 0:
        raise InputError("segment endpoints must be isotropic")
    if la.vec_gcd(u1) != 1 or la.vec_gcd(u2) != 1:
        raise InputError("segment endpoints must be primitive")
    b = la.dot(g, u1, u2)
    if b <= 0:
        raise InputError("endpoints must span a hyperbolic pair with positive pairing")
    # m has signature (1, n - 1) and the plane (1, 1), both nondegenerate,
    # so the orthogonal part is negative definite
    plane = Sublattice(m, (u1, u2))
    perp = orthogonal_complement(m, plane)
    perp_lat = perp.as_lattice()
    d = isqrt(b * b * perp_lat.det() // -m.det())
    out = set()
    k_min = -((-a * d * d) // (2 * b))  # ceil(a d^2 / (2 b)), >= 0 for a >= 0
    for k in range(k_min, 0):
        # k >= k_min makes t <= 0
        t = a * d * d - 2 * k * b
        if t == 0:
            xs = [la.zero_vec(m.rank)]
        else:
            xs = la.mat_mul(enumerate_vectors(perp_lat, t), perp.basis) if perp.rank else []
        for aa in la.divisors_signed(k):
            bb = k // aa
            for x in xs:
                w = tuple(aa * p + bb * q + r for p, q, r in zip(u1, u2, x))
                if any(y % d for y in w):
                    continue
                v = tuple(y // d for y in w)
                if la.sq(g, v) == a and la.dot(g, v, u1) * la.dot(g, v, u2) < 0:
                    out.add(v)
    return tuple(sorted(out))
