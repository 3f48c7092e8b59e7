"""Integral lattices with exact arithmetic.

A lattice is Z^n equipped with an integer symmetric Gram matrix. Vectors are
coordinate tuples. The negative-definite convention for the ADE root lattices
is used throughout: A_n, D_n, E6, E7, E8 all have diagonal -2, and a "root"
is a vector of square -2. U is the hyperbolic plane [[0,1],[1,0]].

All sublattice bases are canonicalized through the Hermite normal form so
equal sublattices compare equal and reports are reproducible byte for byte.
"""

from __future__ import annotations

import re
from functools import cached_property
from math import gcd, isqrt, lcm, prod
from operator import mul, neg

from . import linalg as la
from ._record import fields, record
from .errors import InputError, ScopeError


# ---------------------------------------------------------------------------
# types


def _trusted(cls, *values):
    """A record valid by construction, built from its fields (the rest keep
    their defaults) without __post_init__."""
    obj = object.__new__(cls)
    for name, value in zip(fields(cls), values):
        object.__setattr__(obj, name, value)
    return obj


@record
class Signature:
    plus: int
    minus: int
    null: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.plus, self.minus, self.null)

    def __str__(self) -> str:
        return f"({self.plus},{self.minus},{self.null})"


@record
class Lattice:
    gram: tuple

    def __post_init__(self):
        g = la.int_rows(self.gram)
        if g is None or not la.is_symmetric(g):
            raise InputError("Gram matrix must be a symmetric integer matrix")
        object.__setattr__(self, "gram", g)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def nondegenerate(self) -> bool:
        return self._det != 0

    def _vector(self, v):
        """v read as a rational vector of the lattice rank (the library's
        own loops pass checked vectors to la.dot and la.sq instead)."""
        v = la.rational_vec(v)
        if v is None or len(v) != len(self.gram):
            raise InputError("vectors must be rational vectors of the lattice rank")
        return v

    def dot(self, u, v):
        return la.dot(self.gram, self._vector(u), self._vector(v))

    def sq(self, v):
        v = self._vector(v)
        return la.dot(self.gram, v, v)

    def det(self):
        return self._det

    @cached_property
    def _jacobi(self) -> tuple:
        """The fraction-free Jacobi elimination steps of G (see
        la._jacobi_elimination), run once per lattice object: the
        signature and the determinant both read them."""
        return tuple(la._jacobi_elimination([list(r) for r in self.gram]))

    @cached_property
    def _det(self) -> int:
        """det G: the last pivot entry when every row pivots (the
        congruences of the elimination have determinant 1), 0 when a zero
        block is left, 1 at rank 0."""
        steps = self._jacobi
        if not steps:
            return 1
        piv, prow, _, _ = steps[-1]
        return prow[piv] if prow else 0

    @cached_property
    def _vectors(self) -> dict:
        """square -> every vector of that square, sorted: enumerate_vectors
        searches a definite lattice once per square and keeps the result."""
        return {}


@record
class Sublattice:
    """Finite-rank sublattice of an ambient lattice, basis rows in HNF."""

    ambient: Lattice
    basis: tuple  # rows: integer vectors in ambient coordinates, HNF
    index: int | None = None  # set by primitive_hull: [hull : input]

    def __post_init__(self):
        b = la.int_rows(self.basis)
        if b is None or any(len(row) != self.ambient.rank for row in b):
            raise InputError("sublattice basis rows must be integer vectors of the ambient rank")
        if self.index is not None and not (la.is_bound(self.index) and self.index > 0):
            raise InputError("sublattice index must be a positive integer or None")
        # int_rows' rows are ints already: no second conversion in la.hnf
        object.__setattr__(self, "basis", la._hermite(list(b)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self) -> tuple:
        return self._lattice.gram

    def as_lattice(self) -> Lattice:
        return self._lattice

    @cached_property
    def _lattice(self) -> Lattice:
        """B . G . B^T, derived once: integral and symmetric by construction.
        For the identity basis that is G, so the ambient itself is returned
        with whatever it has derived (its elimination). As G is symmetric,
        it is formed as B . (B . G)^T, both products scanning B, read once."""
        b = self.basis
        if b == la.identity(self.ambient.rank):
            return self.ambient
        nz = la.nonzeros(b)
        return _trusted(Lattice, la.mul_nonzeros(nz, la.transpose(la.mul_nonzeros(nz, self.ambient.gram))))

    def contains(self, v) -> bool:
        v = la.rational_vec(v)
        if v is None or len(v) != self.ambient.rank:
            raise InputError("vector must be a rational vector of the ambient rank")
        rows = la.int_rows((v,))
        return rows is not None and la.coords_in_rows(rows[0], self.basis) is not None

    def contains_sublattice(self, other: "Sublattice") -> bool:
        _check_ambient(self.ambient, other)
        return all(self.contains(row) for row in other.basis)

    def to_ambient(self, coords):
        """Map integer basis coordinates to an ambient vector."""
        rows = la.int_rows((coords,))
        if rows is None or len(rows[0]) != self.rank:
            raise InputError("coordinates must be integers, one per basis row")
        if not self.basis:
            return la.zero_vec(self.ambient.rank)
        return tuple(sum(map(mul, rows[0], col)) for col in zip(*self.basis))

    @property
    def primitive(self) -> bool:
        return la.saturate_rows(self.basis) == self.basis


@record
class Isometry:
    """Integer matrix m with m^T G m = G, acting on column vectors."""

    lattice: Lattice
    matrix: tuple

    def __post_init__(self):
        m = la.int_rows(self.matrix)
        error = _isometry_error(self.lattice, m)
        if error:
            raise InputError(error)
        object.__setattr__(self, "matrix", m)

    def __call__(self, v):
        return la.mat_vec(self.matrix, self.lattice._vector(v))

    def compose(self, other: "Isometry") -> "Isometry":
        if other.lattice.rank != self.lattice.rank:
            raise InputError("cannot compose isometries of lattices of different ranks")
        product = la.mat_mul(self.matrix, other.matrix)
        if other.lattice != self.lattice:
            return Isometry(self.lattice, product)
        return _trusted(Isometry, self.lattice, product)

    def inverse(self) -> "Isometry":
        # the inverse of an isometry is an isometry
        return _trusted(Isometry, self.lattice, la.inverse_int(self.matrix))

    @property
    def det(self) -> int:
        return la.det(self.matrix)


@record
class DiscriminantForm:
    """Finite discriminant group with torsion quadratic/bilinear data.

    invariant_factors: orders (d_1 | d_2 | ...) of the cyclic summands, all > 1.
    generators: rational coordinate vectors in L tensor Q representing the
    summand generators.
    q_values: self-values of the quadratic refinement, reduced into [0, 2).
    b_values: pairing matrix, values reduced into [0, 1).
    """

    invariant_factors: tuple
    generators: tuple
    q_values: tuple
    b_values: tuple

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


# ---------------------------------------------------------------------------
# constructors


def make_lattice(gram) -> Lattice:
    return Lattice(gram)


def direct_sum(*lattices: Lattice) -> Lattice:
    total = sum(l.rank for l in lattices)
    rows = [[0] * total for _ in range(total)]
    pos = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                rows[pos + i][pos + j] = l.gram[i][j]
        pos += l.rank
    return Lattice(la.freeze_mat(rows))


def _ade_gram(letter: str, n: int) -> tuple:
    """Negative-definite ADE Gram from the Dynkin diagram adjacency."""
    if letter == "A":
        if n < 1:
            raise InputError("A_n needs n >= 1")
        edges = [(i, i + 1) for i in range(n - 1)]
    elif letter == "D":
        if n < 4:
            raise InputError("D_n needs n >= 4")
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        # E6, E7 or E8, the only other names _TERM_RE admits: the chain
        # 0..n-2 with node n-1 attached to node 2 (arms 1, 2, n-4)
        edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
    for i, j in edges:
        g[i][j] = 1
        g[j][i] = 1
    return la.freeze_mat(g)


_TERM_RE = re.compile(
    r"^(?P<count>\d+)?(?P<name>U|A\d+|D\d+|E[678]|diag\((?P<diag>-?\d+(?:,-?\d+)*)\))"
    r"(?:\((?P<scale>-?\d+)\))?$"
)


def standard_lattice(spec: str) -> Lattice:
    """Build a lattice from a direct-sum expression.

    Grammar: terms joined by '+'; each term is [count]Name[(scale)] with Name
    one of U, A<n>, D<n>, E6, E7, E8, or diag(a,b,...). Examples: "3U+2E8",
    "U(2)", "A2(-1)", "diag(2,-2)". Whitespace is ignored.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise InputError("empty lattice expression")
    blocks = []
    # no term admits a '+', so every '+' separates two terms
    for term in spec.replace(" ", "").split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise InputError(f"cannot parse lattice term {term!r}")
        count = int(m.group("count") or 1)
        if count < 1:
            raise InputError(f"term multiplier must be positive in {term!r}")
        name = m.group("name")
        scale = int(m.group("scale")) if m.group("scale") else 1
        if scale == 0:
            raise InputError("scale 0 is not allowed")
        if name == "U":
            gram = la.freeze_mat([[0, 1], [1, 0]])
        elif name.startswith("diag("):
            entries = [int(x) for x in m.group("diag").split(",")]
            gram = la.freeze_mat(
                [[entries[i] if i == j else 0 for j in range(len(entries))]
                 for i in range(len(entries))]
            )
        else:
            gram = _ade_gram(name[0], int(name[1:]))
        if scale != 1:
            gram = la.mat_scale(scale, gram)
        for _ in range(count):
            blocks.append(Lattice(gram))
    return direct_sum(*blocks)


def full_sublattice(l: Lattice) -> Sublattice:
    return Sublattice(l, la.identity(l.rank))


def sublattice_from_rows(l: Lattice, rows) -> Sublattice:
    return Sublattice(l, rows)


# ---------------------------------------------------------------------------
# core operations


def signature(l: Lattice) -> Signature:
    """(+, -, 0) inertia: the signs of the fraction-free Jacobi pivots. The
    diagonal value of a pivot is prow[piv] / d, so its sign is that of
    prow[piv] * d; a row left in a zero block counts as null."""
    signs = [prow[piv] * d for piv, prow, d, _ in l._jacobi if prow]
    plus = sum(1 for v in signs if v > 0)
    minus = len(signs) - plus
    return Signature(plus, minus, l.rank - plus - minus)


def _check_ambient(l: Lattice, s: Sublattice) -> None:
    # identity first: the library's own calls pass the ambient object itself
    if s.ambient is not l and s.ambient != l:
        raise InputError("sublattice lives in a different lattice")


def orthogonal_complement(l: Lattice, s: Sublattice) -> Sublattice:
    """Primitive sublattice of all integer vectors orthogonal to s."""
    if not isinstance(s, Sublattice):
        raise InputError("expected a Sublattice")
    _check_ambient(l, s)
    if not s.basis:
        return full_sublattice(l)
    if s.rank == l.rank and l.nondegenerate:
        # B . G is invertible for a square B of full rank
        return _trusted(Sublattice, l, ())
    # one condition row per basis vector v: the covector v^T G
    return _trusted(Sublattice, l, la.kernel_int(la.mat_mul(s.basis, l.gram)))


def primitive_hull(l: Lattice, s: Sublattice) -> Sublattice:
    """Smallest primitive sublattice containing s; carries the finite index."""
    _check_ambient(l, s)
    sat = la.saturate_rows(s.basis)
    # s and sat are HNF bases of one rational span, so they share their
    # pivot columns; on those columns s = C . sat is a product of upper
    # triangular blocks, and the index |det C| is the product of s's
    # pivots over the product of sat's (both empty, so 1, at rank 0)
    s_pivots = prod(next(filter(None, row)) for row in s.basis)
    return _trusted(Sublattice, l, sat, s_pivots // prod(next(filter(None, row)) for row in sat))


def discriminant_form(l: Lattice) -> DiscriminantForm:
    """Discriminant group L*/L with torsion forms, from the Smith form.

    Even lattices only: on an odd lattice q is defined modulo Z, not 2Z,
    so the reduced values would not be canonical."""
    if not l.nondegenerate:
        raise InputError("discriminant form needs a nondegenerate lattice")
    if not l.even:
        raise ScopeError("discriminant form needs an even lattice; q is not canonical on an odd one")
    d, v = la.snf(l.gram)
    # U G V = D gives G^-1 U^-1 = V D^-1: column i of V over d_i
    # generates the i-th cyclic summand (Nikulin, 1979)
    factors = []
    gens = []
    for i in range(l.rank):
        di = d[i][i]
        if di > 1:
            from fractions import Fraction

            factors.append(di)
            gens.append(tuple(Fraction(row[i], di) for row in v))
    qs = []
    for g in gens:
        # quadratic refinement: self-pairing reduced into [0, 2); canonical
        # for even lattices, where q is well defined modulo 2Z
        qs.append(Fraction(la.sq(l.gram, g)) % 2)
    bs = tuple(
        tuple(Fraction(la.dot(l.gram, gi, gj)) % 1 for gj in gens) for gi in gens
    )
    # the order is prod d_i = |det G| (U and V are unimodular), and q
    # refines b because q and b are read off one bilinear form
    return DiscriminantForm(tuple(factors), tuple(gens), tuple(qs), bs)


def _binary_split_solutions(gram, t: int) -> tuple:
    """Integer solutions of a rank-2 form that factors into linear forms.

    Needs disc = B^2 - AC a positive perfect square s^2, t != 0. When
    A = 0, Q = y (2Bx + Cy), so y runs over the signed divisors of t and
    2Bx = t/y - Cy; every such (x, y) has Q = t. When A != 0 the form
    is first brought to that shape: v = (s - B, A)/g is a primitive
    isotropic vector, an extended gcd completes it to a unimodular
    H = (v; w), and H G H^T = [[0, B'], [B', C']] with B'^2 = s^2. The
    work depends on t only, not on the size of the Gram entries.
    """
    a_ = gram[0][0]
    h = None
    if a_ != 0:
        s = isqrt(gram[0][1] ** 2 - a_ * gram[1][1])
        g = gcd(s - gram[0][1], a_)
        p, q = (s - gram[0][1]) // g, a_ // g
        x = pow(p, -1, abs(q))  # p x + q y = 1, so det H = 1
        h = ((p, q), ((p * x - 1) // q, x))
        gram = la.mat_mul(la.mat_mul(h, gram), la.transpose(h))
    b_, c_ = gram[0][1], gram[1][1]
    sols = []
    for y in la.divisors_signed(t):
        rem = t // y - c_ * y
        if rem % (2 * b_) == 0:
            sols.append((rem // (2 * b_), y))
    return tuple(sorted(la.mat_mul(sols, h) if h and sols else sols))


def enumerate_vectors(l: Lattice, a: int, up_to_sign: bool = False) -> tuple:
    """All nonzero integer vectors of square a in a definite lattice.

    Exact Fincke-Pohst (Math. Comp. 44, 1985), fraction-free: see
    _definite_search. A basis whose orthogonality defect
    log2(prod |G_ii| / |det G|) exceeds 24 bits is LLL-reduced first, the
    reduced Gram searched and the vectors mapped back. Each lattice
    object searches once per square and keeps the sorted result. The
    result is sorted lexicographically; with up_to_sign=True only the
    representative with positive first nonzero coordinate is kept.
    Rank-2 indefinite forms whose discriminant is a perfect square
    (products of two linear forms, e.g. U(k) or diag(2,-2)) are solved
    instead in a basis that starts with a primitive isotropic vector,
    where the solutions come from the signed divisors of a alone: see
    _binary_split_solutions. Their work depends on a, not on the size of
    the Gram entries.
    """
    rows = la.int_rows(((a,),))
    if rows is None:
        raise InputError("vector square must be an integer")
    a = rows[0][0]
    n = l.rank
    if n == 0:
        return ()
    out = l._vectors.get(a)
    if out is None:
        sig = signature(l)
        negative = sig.minus > 0
        target = -a if negative else a
        if sig.null or (sig.plus and negative):
            if sig.null or n != 2 or not la.is_perfect_square(l.gram[0][1] ** 2 - l.gram[0][0] * l.gram[1][1]):
                raise ScopeError("vector enumeration needs a definite lattice")
            if a == 0:
                raise ScopeError("isotropic vectors of a split form are infinite in number")
            out = _binary_split_solutions(l.gram, a)
        elif target <= 0 or (l.even and target % 2 != 0):
            out = ()
        elif prod(abs(l.gram[i][i]) for i in range(n)) <= abs(l._det) << 24:
            out = _definite_search(l._jacobi, negative, target)
        else:
            h = _lll(la.mat_scale(-1, l.gram) if negative else l.gram)
            reduced = la.mat_mul(la.mat_mul(h, l.gram), la.transpose(h))
            steps = la._jacobi_elimination([list(r) for r in reduced])
            out = tuple(sorted(la.mat_mul(_definite_search(steps, negative, target), h)))
        l._vectors[a] = out
    if up_to_sign:
        return tuple(v for v in out if next(filter(None, v)) > 0)
    return out


def _definite_search(steps, negative: bool, target: int) -> tuple:
    """Every vector x with Q(x) = target > 0, sorted, for the positive
    definite form Q that the Jacobi steps of a definite Gram G eliminate:
    Q = G, or -G when negative.

    With a_l the Bareiss pivot rows of Q (a_ll = D_{l+1}, D_l the leading
    minors, D_0 = 1), Q(x) = sum_l (a_l . x)^2 / (D_l D_{l+1}). Scaled by
    W = lcm(D_l D_{l+1}), level l spends w_l t_l^2 of the integer budget
    W * target, t_l = D_{l+1} x_l + cen_l, and the centre
    cen_l = sum_{j>l} a_lj x_j is kept as a running sum: stepping x_j
    adds a_lj to every cen_l below it, and leaving level j takes the sum
    back (Schnorr-Euchner, Math. Programming 66, 1994). Each coordinate
    is bounded exactly by isqrt, and level 1's loop solves for x_0
    instead of descending to it. For a negative definite G the minors
    of -G of size s are (-1)^s times those of G: its pivot row l is
    (-1)^(l+1) times G's, and its d * pivot entry is minus G's.
    """
    rows = [prow for _, prow, _, _ in steps]  # definite: pivot l is row l
    dens = [d * prow[piv] for piv, prow, d, _ in steps]
    if negative:
        rows = [row if level % 2 else tuple(-x for x in row) for level, row in enumerate(rows)]
        dens = [-x for x in dens]
    scale = lcm(*dens)
    weights = [scale // x for x in dens]
    n = len(rows)
    lead0 = rows[0][0]
    if n == 1:
        # D_1 x_0^2 = target
        q, r = divmod(target, lead0)
        t = isqrt(q)
        return ((-t,), (t,)) if not r and t * t == q else ()
    w0, a01 = weights[0], rows[0][1]
    # below[j]: (l, a_lj) for the nonzero a_lj with l < j
    below = [[(l, rows[l][j]) for l in range(j) if rows[l][j]] for j in range(n)]
    cen = [0] * n
    x = [0] * n
    found = []

    def descend(level: int, budget: int, half: bool):
        # half: every coordinate above this level is 0 (so cen = 0) and
        # the last nonzero one is still to come, so x_level >= 0 here
        # and x_0 > 0 once every other coordinate is 0
        lead = rows[level][level]
        w = weights[level]
        s = cen[level]
        bound = isqrt(budget // w)  # |t_l| <= bound
        lo = 0 if half else -((bound + s) // lead)
        hi = (bound - s) // lead
        if level == 1:
            c = cen[0] + a01 * lo  # cen_0 at x_1 = lo
            for k in range(lo, hi + 1):
                t = lead * k + s
                # x_0 must spend the rest of the budget: solve for it
                q, r = divmod(budget - w * t * t, w0)
                u = isqrt(q)
                if not r and u * u == q:
                    x[1] = k
                    for uu in (u,) if half and not k else (u, -u) if u else (0,):
                        x0, r = divmod(uu - c, lead0)
                        if not r:
                            x[0] = x0
                            found.append(tuple(x))
                c += a01
            x[0] = x[1] = 0
            return
        col = below[level]
        for j, alj in col:
            cen[j] += alj * lo
        for k in range(lo, hi + 1):
            t = lead * k + s
            x[level] = k
            descend(level - 1, budget - w * t * t, half and not k)
            for j, alj in col:
                cen[j] += alj
        # hi + 1 >= lo: half sets lo = 0 with s = 0, and otherwise the
        # interval of k is nonempty over the reals
        for j, alj in col:
            cen[j] -= alj * (hi + 1)
        x[level] = 0

    descend(n - 1, scale * target, True)
    # the half ends in a positive coordinate; negation reverses the
    # lexicographic order, so the sorted half and its negatives in reverse
    # are two sorted runs, which the sort merges in one pass
    found.sort()
    out = found + [tuple(map(neg, v)) for v in reversed(found)]
    out.sort()
    return tuple(out)


def _lll(g) -> tuple:
    """Rows of a unimodular H with H.G.H^T LLL-reduced (delta = 3/4), for
    a positive definite integer Gram G: Cohen's integral LLL (GTM 138,
    Alg. 2.6.7) on the Gram matrix, in integers only. d[i] is the Gram
    determinant of the first i basis vectors and lam[k][j] the scaled
    Gram-Schmidt coefficient d[j + 1] mu_kj."""
    n = len(g)
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1, g[0][0]] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])  # the nearest integer
            h[k] = [x - q * y for x, y in zip(h[k], h[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            # b_k is still the k-th unit vector: its products with the
            # current b_j are row k of G against h[j]
            kmax = k
            for j in range(k + 1):
                u = sum(map(mul, g[k], h[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk * lk:
            # swap b_k and b_(k-1), updating d[k] and the lam below them
            h[k], h[k - 1] = h[k - 1], h[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
            d[k] = b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return la.freeze_mat(h)


def rank2_isomorphism_class(l) -> tuple:
    """Canonical reduced Gram of a definite-or-zero lattice of rank <= 2.

    Accepts a Lattice or a raw Gram matrix. Rank 0 -> (); identically zero
    form -> the zero matrix; rank 1 -> ((a,),); rank 2 -> Gauss-reduced
    binary form with a <= c, |2b| <= a, and b >= 0 when |2b| == a or a == c,
    restored to the original sign. Equal outputs iff isomorphic lattices.
    """
    if not isinstance(l, Lattice):
        l = make_lattice(l)
    if l.rank == 0:
        return ()
    if all(x == 0 for row in l.gram for x in row):
        return l.gram
    sig = signature(l)
    if sig.null != 0 or (sig.plus and sig.minus):
        raise ScopeError("isomorphism class implemented for definite lattices only")
    if l.rank == 1:
        return l.gram
    if l.rank != 2:
        raise ScopeError("rank must be <= 2")
    sign = -1 if sig.minus else 1
    a, b, c = sign * l.gram[0][0], sign * l.gram[0][1], sign * l.gram[1][1]
    # Lagrange-Gauss reduction on the positive form ax^2 + 2bxy + cy^2
    while True:
        if a > c:
            a, c = c, a
            b = -b
            continue
        if abs(2 * b) > a:
            # translate: b -> b - k a with |b'| minimal, k = floor(b/a + 1/2);
            # on a tie either neighbour gives the same c, and the sign of b
            # is fixed below
            k = (2 * b + a) // (2 * a)
            bb = b - k * a
            cc = c - 2 * k * b + k * k * a
            b, c = bb, cc
            continue
        break
    # (a,b,c) and (a,-b,c) are improperly equivalent; pick b <= 0 so the
    # negative-definite canonical forms carry nonnegative off-diagonal
    b = -abs(b)
    return la.freeze_mat([[sign * a, sign * b], [sign * b, sign * c]])


def _isometry_error(l: Lattice, m) -> str | None:
    """Why m, int_rows' result for some rows, is no isometry of l, or None.

    On a nondegenerate lattice m^T G m = G already forces det m = +-1, so
    the determinant of m is taken only when det G = 0. As G is symmetric,
    m^T G m is formed as m^T . (m^T . G)^T, both products scanning the
    nearly monomial m^T, read once.
    """
    if m is None:
        return "isometry matrix must be integral"
    if len(m) != l.rank or any(len(r) != l.rank for r in m):
        return "isometry matrix shape does not match the lattice rank"
    mt = la.nonzeros(la.transpose(m))
    if la.mul_nonzeros(mt, la.transpose(la.mul_nonzeros(mt, l.gram))) != l.gram or not (
            l.nondegenerate or la.det(m) in (1, -1)):
        return "matrix does not preserve the Gram matrix"
    return None


def is_isometry(l: Lattice, m) -> bool:
    """m (a sequence of rows) integer, invertible over Z, preserving G."""
    return _isometry_error(l, la.int_rows(m)) is None


def sublattice_sum(l: Lattice, *subs: Sublattice) -> Sublattice:
    for s in subs:
        _check_ambient(l, s)
    # a repeated row adds nothing to the span, so each goes in once: a
    # sublattice summed with itself costs the HNF of its own basis
    return Sublattice(l, la.freeze_mat(dict.fromkeys(row for s in subs for row in s.basis)))
