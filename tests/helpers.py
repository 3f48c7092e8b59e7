"""Shared test utilities: oracles and random generators.

The box-search oracles here are deliberately independent of the library's
enumeration code paths: they brute-force coordinate boxes (numpy int64,
exact in the tested ranges) so that clever algorithms are checked against
dumb exhaustion.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from lattact import linalg as la


def box_vectors_with_square(gram, target, bound):
    """All nonzero integer vectors with |x_i| <= bound and x^T G x = target."""
    n = len(gram)
    g = np.array([[int(x) for x in row] for row in gram], dtype=np.int64)
    ranges = [np.arange(-bound, bound + 1, dtype=np.int64)] * n
    grids = np.meshgrid(*ranges, indexing="ij")
    pts = np.stack([grid.reshape(-1) for grid in grids], axis=1)
    vals = np.einsum("ij,jk,ik->i", pts, g, pts)
    hits = pts[vals == int(target)]
    out = set()
    for row in hits:
        v = tuple(int(x) for x in row)
        if any(v):
            out.add(v)
    return sorted(out)


# Rational and power-loop oracles, independent of the library's integer
# kernels that are checked against them.


def to_frac_mat(a):
    return tuple(tuple(Fraction(x) for x in row) for row in a)


def to_frac_vec(v):
    return tuple(Fraction(x) for x in v)


def rank(a):
    return len(la.rref(a)[1]) if a and a[0] else 0


def inverse(a):
    """Exact rational inverse, s . adj(s . a) / det(s . a) for s the lcm of the denominators."""
    s = math.lcm(*(x.denominator for row in a for x in row))
    adj, d = la.adjugate([[int(x * s) for x in row] for row in a])
    if adj is None:
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(s * x, d) for x in row) for row in adj)


def elementary_divisors(a):
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    d, _ = la.snf(a)
    return tuple(abs(d[i][i]) for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i])


def isqrt_frac_floor(x):
    """floor(sqrt(x)) for a nonnegative Fraction."""
    if x < 0:
        raise ValueError("negative argument")
    return math.isqrt(x.numerator * x.denominator) // x.denominator


def mat_pow(a, k):
    return functools.reduce(la.mat_mul, [a] * k, la.identity(len(a)))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def matrix_order(a, bound=60):
    """Multiplicative order of a by the power loop; ValueError past bound."""
    p = a
    for k in range(1, bound + 1):
        if p == la.identity(len(a)):
            return k
        p = la.mat_mul(p, a)
    raise ValueError(f"matrix order exceeds bound {bound}")


def definite_enumeration_box_bound(gram, target):
    """Per-coordinate bound |x_i|^2 <= |target| * (G^-1)_ii for definite G."""
    n = len(gram)
    sign = 1
    if any(gram[i][i] < 0 for i in range(n)):
        sign = -1
    q = la.mat_scale(sign, la.freeze_mat(gram))
    qinv = inverse(q)
    t = Fraction(abs(int(target)))
    bound = 0
    for i in range(n):
        bound = max(bound, isqrt_frac_floor(t * qinv[i][i]))
    return int(bound) + 1


def random_unimodular(rng: random.Random, n: int, steps: int = 12):
    """Random element of GL_n(Z) as a product of elementary operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-x for x in m[i]]
    return la.freeze_mat(m)


def random_symmetric(rng: random.Random, n: int, span: int = 4):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-span, span)
            a[i][j] = v
            a[j][i] = v
    return la.freeze_mat(a)


def random_even_symmetric(rng: random.Random, n: int, span: int = 4):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-span, span)
            if i == j:
                v *= 2
            a[i][j] = v
            a[j][i] = v
    return la.freeze_mat(a)


def conjugate_gram(gram, basis_change):
    """Gram of the same form in a new basis: B^T G B."""
    return la.mat_mul(la.mat_mul(la.transpose(basis_change), gram), basis_change)


def block_diag(*mats):
    """Block-diagonal integer matrix from square blocks."""
    total = sum(len(m) for m in mats)
    rows = []
    offset = 0
    for m in mats:
        for r in m:
            rows.append((0,) * offset + tuple(r) + (0,) * (total - offset - len(m)))
        offset += len(m)
    return tuple(rows)


def all_sign_vectors(n):
    return list(itertools.product((-1, 1), repeat=n))


# 8A1 glued by g = (e1 + ... + e8) / 2, in the basis e1, ..., e7, g: the
# roots are the 16 vectors +-e_i (g's coset has nothing of square -2), so
# they span a sublattice of index 2 and the span's HNF basis is not I
GLUED_8A1 = tuple(
    tuple(-4 if i == j == 7 else -2 if i == j else -1 if 7 in (i, j) else 0 for j in range(8))
    for i in range(8)
)


def positive_and_simple_by_span_coords(r):
    """Reference positive and simple roots of a RootSystem: span
    coordinates solved root by root with coords_in_rows, positive when
    the last nonzero one is; simple when positive and not the sum of two
    positive roots."""
    positive = []
    for v in r.roots:
        c = la.coords_in_rows(v, r.span.basis)
        if next(x for x in reversed(c) if x) > 0:
            positive.append(v)
    sums = {tuple(a + b for a, b in zip(p, q)) for p in positive for q in positive}
    return tuple(positive), tuple(sorted(p for p in positive if p not in sums))


def assert_walk_coords_match_the_solve(r):
    """roots_of sets the simple coordinates of the roots from the height
    walk and splits the roots into components with them; echelon
    substitution (simple_coords) solves the same coordinates, and the
    split read off those agrees. A root's support (its nonzero simple
    coordinates) lies in one component, and the component's highest root
    covers all of it, so merging overlapping supports gives the
    components' simple roots."""
    coords = r.simple_coords(r.roots)
    assert r._root_coords == coords
    blocks = []
    for c in coords:
        support = {i for i, x in enumerate(c) if x}
        touching = [b for b in blocks if b & support]
        blocks = [b for b in blocks if not b & support] + [support.union(*touching)]
    split = (frozenset(v for v, c in zip(r.roots, coords) if any(c[i] for i in b)) for b in blocks)
    assert r.component_roots == tuple(sorted(split, key=sorted))


# ---------------------------------------------------------------------------
# shared rank-6 fixtures: an order-3 rotation with two choices of reflector
# acting on 3U, trivial on the last hyperbolic block

ROT3 = ((0, 0, -1, 0), (0, -1, 0, -1), (1, 0, -1, 0), (0, 1, 0, 0))
INV_A = ((0, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0), (0, 1, -1, 0))
INV_B = ((1, 0, -1, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, -1, 0, -1))
I2 = ((1, 0), (0, 1))


def klein_action(inv=INV_A):
    from lattact import LatticeAction, standard_lattice

    return LatticeAction(
        standard_lattice("3U"),
        (("t", block_diag(ROT3, I2), 1), ("s", block_diag(inv, I2), -1)),
    )


def klein_pipeline(inv=INV_A):
    """action, flag data, complex structure, eigen split for the fixture."""
    from lattact import (
        dilated_complex_structure,
        eigen_lattices,
        fundamental_data,
    )

    act = klein_action(inv)
    f = fundamental_data(act)
    j = dilated_complex_structure(act, f)
    e = eigen_lattices(act, f)
    return act, f, j, e


def count_calls(monkeypatch, module, name):
    """Record the positional arguments of every call to module.name, made
    through any lattact module that holds that function. The package holds
    none: it reads each exported name off its home module on every access."""
    import sys

    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "lattact" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def jacobi_elimination_with_basis(m):
    """Reference fraction-free Jacobi elimination that carries the basis
    rows along, as the library's elimination once did: one
    (piv, prow, brow, d) per row of m (a list of row lists, overwritten),
    brow d times the congruence's basis row, rows left in a zero block
    last with prow None. The library's replay of the basis rows from the
    steps alone is checked against it."""
    n = len(m)
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    d = 1
    active = list(range(n))
    live = [True] * n
    steps = []
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active if i < j and m[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for k in active:
                m[i][k] += m[j][k]
            for k in active:
                m[k][i] += m[k][j]
            basis[i] = [x + y for x, y in zip(basis[i], basis[j])]
            piv = i
        p = m[piv][piv]
        prow = m[piv]
        steps.append((piv, tuple(x if a else 0 for x, a in zip(prow, live)), basis[piv], d))
        active.remove(piv)
        live[piv] = False
        bp = basis[piv]
        for i in active:
            row = m[i]
            f = row[piv]
            for k in active:
                row[k] = (p * row[k] - f * prow[k]) // d
            basis[i] = [(p * x - f * y) // d for x, y in zip(basis[i], bp)]
        d = p
    steps.extend((i, None, basis[i], d) for i in active)
    return steps


def hnf_reference(a):
    """Reference row-style Hermite normal form, as the library once
    computed it: each column's first nonzero row at or below the next
    pivot slot takes the slot, Euclid on the smallest absolute entry clears
    the column below it, and the entries above the pivot are reduced into
    [0, pivot) before the next column. Returns the nonzero rows."""
    m = [list(map(int, row)) for row in a]
    if not m:
        return ()
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        # find a pivot: nonzero entry in column c at row >= r
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # euclidean elimination below the pivot
        while True:
            nz = [i for i in range(r + 1, rows) if m[i][c] != 0]
            if not nz:
                break
            # smallest absolute value into the pivot slot
            best = min(nz + [r], key=lambda i: abs(m[i][c]))
            if best != r:
                m[r], m[best] = m[best], m[r]
            for i in range(r + 1, rows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        # reduce entries above the pivot into [0, pivot)
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return la.freeze_mat(m[:r])


def group_closure_reference(generators, n, bound=1024):
    """Reference group closure, as the library once computed it: each
    element times each generator by la.mat_mul, which scans the element."""
    elements = [la.identity(n)]
    index = {elements[0]: 0}
    table = []
    while len(table) < len(elements):
        products = [[la.mat_mul(m, g) for g in generators] for m in elements[len(table):]]
        for p in sorted({p for row in products for p in row if p not in index}):
            index[p] = len(elements)
            elements.append(p)
        table.extend(tuple(index[p] for p in row) for row in products)
        if len(elements) > bound:
            raise ValueError(f"group closure exceeds the bound {bound}")
    return tuple(elements), tuple(table)


def poly_mat_reference(coeffs, a):
    """Reference polynomial at a square matrix, as the library once
    computed it: Horner steps acc . a + c I."""
    acc = la.zero_mat(len(a), len(a))
    for c in reversed(coeffs):
        # Horner step acc . a + c I: c goes onto the diagonal
        acc = tuple(row[:i] + (row[i] + c,) + row[i + 1:] for i, row in enumerate(la.mat_mul(acc, a)))
    return acc


def isometry_product_reference(m, gram):
    """m^T G m, the product _isometry_error compares with G, as the
    library once formed it."""
    return la.mat_mul(la.mat_mul(la.transpose(m), gram), m)


def sublattice_gram_reference(b, gram):
    """B G B^T, a Sublattice's Gram, as the library once formed it."""
    return la.mat_mul(la.mat_mul(b, gram), la.transpose(b))


def kernel_int_reference(a):
    """Reference saturated integer right kernel in HNF, as the library once
    computed it: the rows of hnf_reference([A^T | I]) whose A^T part is
    zero, with that part dropped (Cohen, GTM 138, 2.4.3)."""
    if not a or not a[0]:
        return ()
    m = len(a)
    h = hnf_reference(tuple(col + row for col, row in zip(la.transpose(a), la.identity(len(a[0])))))
    return tuple(row[m:] for row in h if not any(row[:m]))


def classify_order3_on_2U_by_filtering(entry_bound):
    """The bounded order-3 search on U+U as the library once ran it: each
    column's candidates are the first placed column's partner list, kept
    in pool order and filtered by membership in every other placed
    column's partner set. The library intersects the sets instead, and its
    report is checked against this one."""
    from operator import mul

    from lattact import standard_lattice
    from lattact.catalog import _CLASS_LABELS, ClassifyReport, Order3Hit
    from lattact.lattice import Sublattice, _trusted, rank2_isomorphism_class

    l = standard_lattice("2U")
    g = l.gram
    n = l.rank
    ident = la.identity(n)
    pool = tuple(
        v
        for v in itertools.product(range(-entry_bound, entry_bound + 1), repeat=n)
        if la.sq(g, v) == 0
    )
    partners = []
    for gv in (la.mat_vec(g, v) for v in pool):
        by_pairing = {}
        for b, w in enumerate(pool):
            by_pairing.setdefault(sum(map(mul, gv, w)), []).append(b)
        partners.append(by_pairing)
    members = [{p: set(bs) for p, bs in by_pairing.items()} for by_pairing in partners]
    hits = []

    def place(cols, trace):
        k = len(cols)
        if k == n:
            t = la.transpose(tuple(pool[b] for b in cols))
            if t != ident and mat_pow(t, 3) == ident:
                hits.append(t)
            return
        slack = (n - k - 1) * entry_bound
        if k:
            candidates = partners[cols[0]].get(g[0][k], ())
            others = [members[cols[i]].get(g[i][k], ()) for i in range(1, k)]
        else:
            candidates, others = range(len(pool)), []
        for b in candidates:
            if all(b in other for other in others):
                tr = trace + pool[b][k]
                if min(abs(tr - 1), abs(tr + 2)) <= slack:
                    place(cols + [b], tr)

    if entry_bound:
        place([], 0)
    out = []
    for t in sorted(hits):
        sub = _trusted(Sublattice, l, la.kernel_int(la.mat_sub(t, ident)))
        cls = rank2_isomorphism_class(sub.as_lattice())
        out.append(Order3Hit(t, sub.basis, _CLASS_LABELS.get(cls, f"gram{cls}")))
    classes = tuple(sorted({h.fixed_class for h in out}))
    note = (
        f"complete for entries within [{-entry_bound}, {entry_bound}]; "
        "matrices with larger entries are not examined"
    )
    return ClassifyReport(entry_bound, tuple(out), classes, note)


def perm_sign(p):
    """Sign of a permutation of distinct integers, by counting inversions."""
    return (-1) ** sum(a > b for i, a in enumerate(p) for b in p[i + 1:])


def split_form_solutions_by_divisors_of_at(gram, t):
    """Integer solutions of Ax^2 + 2Bxy + Cy^2 = t on a form with square
    discriminant s^2 = B^2 - AC > 0, t != 0, in the given basis, the
    reference for lattice._binary_split_solutions: A Q = (Ax + (B-s)y)
    (Ax + (B+s)y), so for A != 0 the pairs of signed divisors of A t give
    every solution; for A = 0, y runs over the divisors of t. Its work
    grows with the square root of |A t|."""
    a_, b_, c_ = gram[0][0], gram[0][1], gram[1][1]
    s = math.isqrt(b_ * b_ - a_ * c_)
    sols = set()
    if a_ != 0:
        n = a_ * t
        for d1 in la.divisors_signed(n):
            d2 = n // d1
            if (d2 - d1) % (2 * s):
                continue
            y = (d2 - d1) // (2 * s)
            num = d1 - (b_ - s) * y
            if num % a_:
                continue
            sols.add((num // a_, y))
    else:
        for y in la.divisors_signed(t):
            rem = t // y - c_ * y
            if rem % (2 * b_):
                continue
            sols.add((rem // (2 * b_), y))
    return tuple(sorted(v for v in sols if any(v) and la.sq(gram, v) == t))
