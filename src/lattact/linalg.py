"""Exact linear algebra over the integers and rationals.

Everything here works on immutable tuples: a matrix is a tuple of row
tuples, a vector is a tuple. The library's kernels (products, det,
char_poly, normal forms, kernels, echelon coordinates) take and return
Python ints; products and dot also carry fractions.Fraction entries through
exactly. rref and solve, rational elimination with no caller in the
library, serve as test oracles. Only the functions that build or test a
Fraction import fractions.
The library's input boundary is here and nowhere else: int_rows (integer
matrices, and vectors as int_rows((v,))), rational_vec (rational vectors)
and is_bound (nonnegative int bounds) give None or False for any other
value, bools, floats and strings included. All routines are deterministic
(pivot choices are fixed), so downstream canonical forms and reports are
byte-stable.

Conventions:
- matrices act on column vectors: (A x)_i = sum_j A[i][j] x[j];
- the Hermite normal form is row-style, pivots positive, entries above a
  pivot reduced into [0, pivot);
- Smith normal form returns (D, V) with U*A*V = D, U and V unimodular;
  U is not kept.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, compress, count
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Sequence

Vec = tuple
Mat = tuple


# ---------------------------------------------------------------------------
# construction / casting


def freeze_mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(map(tuple, rows))


@cache
def identity(n: int) -> Mat:
    """The n x n identity, built once per n (the tuple is immutable)."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_mat(m: int, n: int) -> Mat:
    return tuple(tuple(0 for _ in range(n)) for _ in range(m))


def zero_vec(n: int) -> Vec:
    return tuple(0 for _ in range(n))


def int_rows(a) -> Mat | None:
    """a as a tuple of int row tuples, or None unless a is a sequence of
    sequences of integers: ints that are not bools, or Fractions of
    denominator 1. The one integer check-and-convert of the library;
    all-int input comes back frozen as it is, with no per-entry conversion."""
    try:
        rows = freeze_mat(a)
    except TypeError:  # a scalar, or a row that is one
        return None
    # the common case, every entry exactly an int, without a Python loop
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    from fractions import Fraction

    for x in chain.from_iterable(rows):
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)) or x.denominator != 1:
            return None
    return tuple(tuple(map(int, row)) for row in rows)


def rational_vec(v) -> Vec | None:
    """v as a tuple, or None unless it is a sequence of ints (not bools) and Fractions."""
    try:
        v = tuple(v)
    except TypeError:
        return None
    kinds = set(map(type, v))
    if kinds <= {int}:
        return v
    from fractions import Fraction

    return v if kinds <= {int, Fraction} else None


def is_bound(x) -> bool:
    """Whether x is a nonnegative int that is not a bool (a search bound)."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def is_symmetric(a: Mat) -> bool:
    """Whether the tuple rows a form a square matrix equal to its transpose."""
    return all(len(r) == len(a) for r in a) and a == transpose(a)


# ---------------------------------------------------------------------------
# arithmetic


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Row-wise product (Gustavson): row i of a . b is the sum of a_ik times
    row k of b over the nonzero a_ik, so a zero of a costs nothing and an
    integer coefficient of 1 or -1 costs one addition per column, no
    multiplication (a first term of 1 is row k itself: 0 + y is y).
    Entries are exact; an entry with no nonzero term is the int 0.
    The cost is set by the nonzeros of a, the factor it scans; for an a
    that multiplies many b, mul_nonzeros(nonzeros(a), b) reads a once."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch in mat_mul")
    zero = (0,) * len(b[0]) if b else ()
    out = []
    for row in a:
        acc = zero
        # the nonzero coefficients and their rows of b, with no test per zero
        for x, brow in zip(filter(None, row), compress(b, row)):
            if type(x) is int and (x == 1 or x == -1):
                if x == 1 and acc is zero:
                    acc = brow
                else:
                    acc = tuple(map(add if x == 1 else sub, acc, brow))
            else:
                acc = tuple([y + x * z for y, z in zip(acc, brow)])
        out.append(acc)
    return tuple(out)


def nonzeros(a: Mat) -> list:
    """a read once for mul_nonzeros: per row, its nonzero entries as (k, a_ik)."""
    return [[(k, row[k]) for k in compress(count(), row)] for row in a]


def mul_nonzeros(nz: list, b: Mat) -> Mat:
    """mat_mul(a, b) for nz = nonzeros(a), b having as many rows as a has
    columns: the same row-wise product, over the nonzero entries that
    nonzeros read off a once."""
    # mat_mul's loop over other terms: a call per row to share it costs
    # more than most rows' work
    zero = (0,) * len(b[0]) if b else ()
    out = []
    for terms in nz:
        acc = zero
        for k, x in terms:
            if type(x) is int and (x == 1 or x == -1):
                if x == 1 and acc is zero:
                    acc = b[k]
                else:
                    acc = tuple(map(add if x == 1 else sub, acc, b[k]))
            else:
                acc = tuple([y + x * z for y, z in zip(acc, b[k])])
        out.append(acc)
    return tuple(out)


def mat_vec(a: Mat, v: Vec) -> Vec:
    if a and len(a[0]) != len(v):
        raise ValueError("shape mismatch in mat_vec")
    return tuple(sum(map(mul, row, v)) for row in a)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(map(add, u, v))


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(map(add, r, s)) for r, s in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(map(sub, r, s)) for r, s in zip(a, b))


def mat_scale(c, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


def dot(gram: Mat, u: Vec, v: Vec):
    """Bilinear pairing u.v with respect to a symmetric Gram matrix."""
    return sum(x * sum(map(mul, row, v)) for x, row in zip(u, gram) if x)


def sq(gram: Mat, v: Vec):
    return dot(gram, v, v)


# ---------------------------------------------------------------------------
# determinants, inverses


def _int_rows(a: Mat) -> Mat:
    """int_rows(a); ValueError unless every entry is an integer."""
    rows = int_rows(a)
    if rows is None:
        raise ValueError("matrix is not an integer matrix")
    return rows


def det(a: Mat) -> int:
    """Exact determinant of an integer matrix, from the adjugate's elimination."""
    return adjugate(_int_rows(a))[1]


def rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form over the rationals; returns (R, pivot columns).
    Like solve, it has no caller in the library and serves as a test oracle."""
    from fractions import Fraction

    m = [list(map(Fraction, row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return freeze_mat(m), tuple(pivots)


def inverse_int(a: Mat) -> Mat:
    """Inverse of an integer matrix of determinant +-1: d . adj A, d = det A."""
    adj, d = adjugate(_int_rows(a))
    if d not in (1, -1):
        raise ValueError("matrix is not invertible over the integers")
    return adj if d == 1 else mat_scale(-1, adj)


def adjugate(a: Mat) -> tuple[Mat, int]:
    """(adj A, det A) of a square integer matrix, so adj A . A = det A . I.

    Fraction-free Gauss-Jordan elimination on [A | I]: every division by
    the previous pivot is exact (Sylvester's identity), and at the end the
    left block is d . I and the right block d . A^-1 for d = +-det A.
    adj A is None for a singular A, where this elimination stops.
    """
    n = len(a)
    m = [list(map(int, row)) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return None, 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk = m[k][k]
        rk = m[k]
        for i in range(n):
            if i != k:
                ri = m[i]
                f = ri[k]
                m[i] = [(pk * x - f * y) // prev for x, y in zip(ri, rk)]
        prev = pk
    return tuple(tuple(sign * x for x in row[n:]) for row in m), sign * prev


def solve(a: Mat, b: Vec) -> Vec | None:
    """One rational solution x of A x = b, or None if inconsistent."""
    from fractions import Fraction

    rows = len(a)
    cols = len(a[0]) if a else 0
    aug = tuple(tuple(Fraction(x) for x in row) + (Fraction(b[i]),) for i, row in enumerate(a))
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return tuple(x)


# ---------------------------------------------------------------------------
# integer normal forms


def _sub_multiple(row: list, q: int, prow: list) -> list:
    """row - q . prow; q = +-1 is a map of sub or add, as in mat_mul."""
    if q == 1:
        return list(map(sub, row, prow))
    if q == -1:
        return list(map(add, row, prow))
    return [x - q * y for x, y in zip(row, prow)]


def _echelon(m: list, cols: int) -> list:
    """Row echelon form of the int row lists m on columns 0..cols-1, in
    place: per column, Euclid on the live row of smallest absolute entry,
    the live rows (nonzero there, at or below the next pivot slot) found
    by one scan per pass. Returns the pivot columns."""
    rows = len(m)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        live = [i for i in range(r, rows) if m[i][c]]
        while len(live) > 1:
            best = min(live, key=lambda i: abs(m[i][c]))
            prow = m[best]
            p = prow[c]
            for i in live:
                if i != best:
                    m[i] = _sub_multiple(m[i], m[i][c] // p, prow)
            live = [i for i in live if m[i][c]]
        if live:
            m[r], m[live[0]] = m[live[0]], m[r]
            pivots.append(c)
    return pivots


def hnf(a: Mat) -> Mat:
    """Row-style Hermite normal form of an integer matrix.

    Returns only the nonzero rows: a canonical basis of the row lattice.
    After _echelon, each pivot row from the left is made positive and
    reduces the nonzero entries above its pivot into [0, pivot).
    """
    return _hermite([list(map(int, row)) for row in a])


def _hermite(m: list) -> Mat:
    """hnf of the list m of int rows, lists or tuples; the list is
    overwritten, but no row is written into."""
    pivots = _echelon(m, len(m[0]) if m else 0)
    for r, c in enumerate(pivots):
        prow = m[r]
        if prow[c] < 0:
            prow = m[r] = [-x for x in prow]
        p = prow[c]
        for i in [i for i in range(r) if m[i][c]]:
            q = m[i][c] // p
            if q:
                m[i] = _sub_multiple(m[i], q, prow)
    return freeze_mat(m[:len(pivots)])


def snf(a: Mat) -> tuple[Mat, Mat]:
    """Smith normal form: (D, V) with U*A*V = D, diagonal d1 | d2 | ..., for
    unimodular U and V; the row transform U is not kept.

    Pivot choice: minimum absolute value in the working submatrix, first by
    rows then columns, which keeps the transform entries small and the
    output deterministic.
    """
    m = [list(map(int, row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        m[dst] = [x - q * y for x, y in zip(m[dst], m[src])]

    def add_col(src, dst, q):
        for row in m:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate minimal nonzero entry in the remaining block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        m[t], m[best[0]] = m[best[0]], m[t]
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                add_row(t, i, q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                add_col(t, j, q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility d_t | all remaining entries
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, -1)  # row_t += row_offender
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        t += 1
    return freeze_mat(m), freeze_mat(v)


def kernel_int(a: Mat) -> tuple[Vec, ...]:
    """Basis, in HNF, of the saturated integer right kernel {x in Z^n : A x = 0}.

    Once the A^T columns of [A^T | I] alone are in echelon form, the I part
    of the rows with zero A^T part spans the kernel, a direct summand as the
    transform is unimodular (Cohen, GTM 138, 2.4.3): the basis is its hnf.
    """
    if not a or not a[0]:
        return ()
    m = len(a)
    rows = [list(col + row) for col, row in zip(transpose(a), identity(len(a[0])))]
    r = len(_echelon(rows, m))
    return _hermite([row[m:] for row in rows[r:]])


def fixed_kernel(mats, n: int) -> tuple[Vec, ...]:
    """kernel_int of the stacked rows of m - I over every distinct n x n
    matrix in mats other than I: a saturated integer basis of the vectors
    they all fix. The identity rows when no such matrix is left."""
    ident = identity(n)
    stacked = [row for m in dict.fromkeys(mats) if m != ident for row in mat_sub(m, ident)]
    if not stacked:
        return ident
    return kernel_int(freeze_mat(stacked))


def fixed_rank(group, n: int) -> int:
    """Rank of the vectors every element of a finite group of n x n
    matrices fixes, given its complete element list: the dimension of a
    finite group's fixed space is its average trace (Serre, Linear
    Representations of Finite Groups, 2.3), so no elimination runs."""
    return sum(m[i][i] for m in group for i in range(n)) // len(group)


def saturate_rows(b: Mat) -> Mat:
    """Basis (HNF rows) of the saturation of the row lattice of b in Z^n.

    The saturation is span_Q(rows) intersected with Z^n. When every pivot
    of H = hnf(b) is 1, H's block on its pivot columns is unitriangular,
    so an integer vector of the span has integer coordinates in H by back
    substitution: H is already saturated. Otherwise the saturation is the
    integer kernel of the integer kernel (Cohen, GTM 138, 2.4.3).
    """
    h = hnf(b)
    if all(next(filter(None, row)) == 1 for row in h):
        return h
    ker = kernel_int(h)
    if not ker:
        return identity(len(b[0]))
    return kernel_int(ker)


def primitive_vector(v: Vec) -> Vec:
    """Scale a nonzero rational vector to a primitive integer vector.

    Sign convention: first nonzero coordinate positive.
    """
    ints = clear_denominators(v)
    g = vec_gcd(ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def vec_gcd(v: Vec) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def clear_denominators(v: Vec) -> Vec:
    """Scale a rational vector by the lcm of denominators to integer entries."""
    denom = lcm(*(x.denominator for x in v))
    return tuple(int(x * denom) for x in v)


# ---------------------------------------------------------------------------
# spectral helpers


def char_poly(a: Mat) -> tuple:
    """Characteristic polynomial coefficients (c_0, ..., c_n) of an integer
    matrix, p(x) = sum c_k x^k and c_n = 1, computed by Faddeev-LeVerrier;
    its division by k is exact on integers.
    """
    n = len(a)
    m = _int_rows(a)
    ident = identity(n)
    coeffs = [0] * n + [1]
    mk = m
    c = 0
    for k in range(1, n + 1):
        if k > 1:
            mk = mat_mul(m, mat_add(mk, mat_scale(c, ident)))
        # c is a coefficient of the characteristic polynomial of an integer
        # matrix, an integer, so the division is exact
        c = -sum(mk[i][i] for i in range(n)) // k
        coeffs[n - k] = c
    return tuple(coeffs)


def poly_eval(coeffs: Sequence, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mat(coeffs: Sequence, a: Mat) -> Mat:
    """Evaluate a polynomial (coefficients c_0, ..., c_n) at a square matrix."""
    # a commutes with the accumulator, a polynomial in a, so each Horner
    # step takes a . acc, which scans a, read once
    steps = nonzeros(a)
    acc = zero_mat(len(a), len(a))
    for c in reversed(coeffs):
        # Horner step a . acc + c I: c goes onto the diagonal
        acc = tuple(row[:i] + (row[i] + c,) + row[i + 1:] for i, row in enumerate(mul_nonzeros(steps, acc)))
    return acc


def _poly_divexact(p: Sequence, q: Sequence) -> tuple:
    # long division by a monic q that divides p (cyclotomic factors of
    # x^n - 1), so every quotient coefficient is exact and no remainder is left
    rem = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = rem[k + len(q) - 1]
        for j, qj in enumerate(q):
            rem[k + j] -= c * qj
    return tuple(out)


def cyclotomic(n: int) -> tuple:
    """Coefficients (c_0, ..., c_d) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    p = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            p = _poly_divexact(p, cyclotomic(d))
    return p


def _jacobi_elimination(m: list) -> list:
    """Fraction-free Jacobi elimination of an integer symmetric matrix m,
    given as a list of row lists and overwritten.

    Jacobi pivoting: the first active nonzero diagonal entry is the pivot,
    and the active block is replaced by its Schur complement; a
    zero-diagonal block with a nonzero off-diagonal entry is broken by a
    row/column addition first. The elimination is Bareiss's: the active
    block is kept as d times the Schur complement, d being the previous
    pivot entry (1 at the start), and every division by d is exact. The
    congruence's basis rows are not built here; _jacobi_basis replays them
    from the steps.

    Bareiss's update of a row with a 0 in the pivot column rescales it by
    p/d, and those factors telescope: such rows are left alone, and a row
    last updated at d = scale[i] is brought up to date, row . d // scale[i]
    (exact: Bareiss's entries are integer minors), only when it pivots, is
    eliminated (its pivot-column entry then set to 0) or takes part in a
    zero-block addition.

    Returns one (piv, prow, d, partner) per row of m, in pivot order: piv
    the pivot index, prow the pivot row on the active columns (0 on columns
    eliminated before), partner the row added to row piv just before it
    pivoted, or None. Rows left in a zero block come last with prow None.
    For a definite m the pivots are 0, 1, ..., n-1 and prow[k] (k >= piv)
    is the minor of m on rows 0..piv and columns 0..piv-1, k: prow[piv] is
    the leading minor of size piv + 1, and d the one of size piv.
    """
    n = len(m)
    d = 1
    scale = [1] * n  # the d at which each row was last updated
    active = list(range(n))
    steps = []

    def current(i):
        row, s = m[i], scale[i]
        if s != d:
            for k in active:
                row[k] = row[k] * d // s
            scale[i] = d
        return row

    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        partner = None
        if piv is None:
            pair = next(((i, j) for i in active for j in active if i < j and m[i][j] != 0), None)
            if pair is None:
                break
            piv, partner = pair
            # only active entries change; a column addition is linear in
            # the row, so it holds at any row's own scale
            prow, other = current(piv), current(partner)
            for k in active:
                prow[k] += other[k]
            for k in active:
                m[k][piv] += m[k][partner]
        prow = current(piv)
        p = prow[piv]
        steps.append((piv, tuple(prow), d, partner))
        active.remove(piv)
        for i in active:
            row = m[i]
            f = row[piv]
            if f:
                s = scale[i]
                if s == d:
                    for k in active:
                        row[k] = (p * row[k] - f * prow[k]) // d
                else:  # brought up to date within the update
                    f = f * d // s
                    for k in active:
                        row[k] = (p * (row[k] * d // s) - f * prow[k]) // d
                row[piv] = 0
                scale[i] = p
        d = p
    steps.extend((i, None, d, None) for i in active)
    return steps


def _jacobi_basis(steps: Sequence) -> list:
    """The basis rows of the congruence that _jacobi_elimination's steps
    describe, one per step, each d times the true row: B G B^T is
    diag(d . prow[piv]) over the pivot steps and 0 on the rows left.

    The replay runs the elimination's row operations on the identity. The
    factor of active row i at a pivot is prow[i], since the active block
    stays symmetric; a step with a partner adds the partner's row first.
    """
    n = len(steps)
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    active = list(range(n))
    out = []
    for piv, prow, d, partner in steps:
        if partner is not None:
            basis[piv] = [x + y for x, y in zip(basis[piv], basis[partner])]
        bp = basis[piv]
        out.append(bp)
        if prow is None:
            continue
        active.remove(piv)
        p = prow[piv]
        for i in active:
            f = prow[i]
            basis[i] = [(p * x - f * y) // d for x, y in zip(basis[i], bp)]
    return out


def group_closure(generators: Sequence[Mat], n: int, bound: int = 1024) -> tuple[tuple, tuple]:
    """Closure of the n x n identity under right multiplication by the
    generators, which must generate a finite group.

    Returns (elements, table): elements in breadth-first order over
    generator words, each word length sorted by tuple comparison, and
    table[i][j] the index of elements[i] . generators[j]. Raises
    ValueError when a word length takes the count past bound.

    The products run transposed, (m . g)^T = g^T . m^T, so each scans a
    sparse generator, read once, instead of the element; the elements are
    looked up by their transposes, and each new one is transposed back once.
    """
    ident = identity(n)
    elements, transposes = [ident], [ident]
    index = {ident: 0}  # by transpose
    table = []
    steps = [nonzeros(transpose(g)) for g in generators]
    while len(table) < len(elements):
        products = [[mul_nonzeros(s, t) for s in steps] for t in transposes[len(table):]]
        new = {t for row in products for t in row if t not in index}
        for p, t in sorted((transpose(t), t) for t in new):
            index[t] = len(elements)
            elements.append(p)
            transposes.append(t)
        table.extend(tuple(index[t] for t in row) for row in products)
        if len(elements) > bound:
            raise ValueError(f"group closure exceeds the bound {bound}")
    return tuple(elements), tuple(table)


def matrix_group_closure(generators: Sequence[Mat], bound: int = 1024) -> tuple:
    """All products of the given integer matrices, assumed to generate a
    finite group, in group_closure's order. Raises ValueError past the bound."""
    gens = [freeze_mat(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator (pass the identity)")
    return group_closure(gens, len(gens[0]), bound)[0]


def _echelon_pivots(rows: Mat) -> tuple[int, ...]:
    """Leading columns of rows in row echelon form; ValueError otherwise."""
    pivots = []
    last = -1
    for row in rows:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None or c <= last:
            raise ValueError("basis rows are not in echelon form")
        pivots.append(c)
        last = c
    return tuple(pivots)


def _echelon_coords(v: Vec, rows: Mat, pivots: Sequence[int]) -> Vec | None:
    """Integer coordinates of v in echelon integer rows by substitution on
    the pivot columns, or None when v is no integer combination of them: a
    pivot leaves a remainder, or the last remainder does not vanish."""
    w = v
    coords = []
    for row, c in zip(rows, pivots):
        q, r = divmod(w[c], row[c])
        if r:
            return None
        if q:
            w = tuple(a - q * b for a, b in zip(w, row))
        coords.append(q)
    return None if any(w) else tuple(coords)


def restrict_to_span(m: Mat, basis_rows: Mat) -> Mat | None:
    """Integer matrix of the column action of m on the row lattice of the
    basis rows, or None.

    Returns C with m . b_i = sum_j C[j][i] b_j (column convention in the
    basis coordinates). None when some image m . b_i is no integer
    combination of the rows; on a saturated basis, exactly when the span
    is not invariant. The basis must be integer rows in row echelon form
    (an HNF basis); the coordinates of each image come from substitution
    on the pivot columns, and the vanishing remainder is the exact check
    that they rebuild the image.
    """
    pivots = _echelon_pivots(basis_rows)
    cols = []
    for img in mat_mul(basis_rows, transpose(m)):  # row i is m . b_i
        x = _echelon_coords(img, basis_rows, pivots)
        if x is None:
            return None
        cols.append(x)
    return transpose(cols)


def coords_in_rows(v: Vec, basis_rows: Mat) -> Vec | None:
    """Integer coordinates of v in echelon integer basis rows (an HNF
    basis), or None when v is no integer combination of them."""
    return _echelon_coords(tuple(v), basis_rows, _echelon_pivots(basis_rows))


# ---------------------------------------------------------------------------
# exact square roots and ranges (for vector enumeration)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def divisors_signed(n: int) -> tuple[int, ...]:
    """All integer divisors of n != 0, both signs, sorted."""
    n = abs(n)
    if n == 0:
        raise ValueError("zero has no finite divisor list")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divs = set(small)
    divs.update(n // d for d in small)
    out = sorted(divs)
    return tuple([-d for d in reversed(out)] + out)
