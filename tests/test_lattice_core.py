import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from lattact import linalg as la
from lattact.errors import InputError, ScopeError, VerificationError
from lattact.lattice import (
    DiscriminantForm,
    Isometry,
    Lattice,
    Sublattice,
    direct_sum,
    discriminant_form,
    enumerate_vectors,
    full_sublattice,
    is_isometry,
    make_lattice,
    orthogonal_complement,
    primitive_hull,
    rank2_isomorphism_class,
    signature,
    standard_lattice,
    sublattice_from_rows,
    sublattice_sum,
)

import helpers
from helpers import (
    box_vectors_with_square,
    conjugate_gram,
    count_calls,
    definite_enumeration_box_bound,
    jacobi_elimination_with_basis,
    random_even_symmetric,
    random_symmetric,
    random_unimodular,
)


U_GRAM = ((0, 1), (1, 0))
A2_GRAM = ((-2, 1), (1, -2))


# ---------------------------------------------------------------------------
# construction


def test_make_lattice_hyperbolic_plane():
    l = make_lattice(U_GRAM)
    assert l.rank == 2
    assert l.even
    assert l.nondegenerate
    assert l.det() == -1


def test_make_lattice_a2():
    l = make_lattice(A2_GRAM)
    assert l.even
    assert l.det() == 3
    assert signature(l).as_tuple() == (0, 2, 0)


def test_make_lattice_rejects_nonsymmetric():
    with pytest.raises(InputError):
        make_lattice(((0, 1), (2, 0)))


def test_make_lattice_rejects_noninteger():
    with pytest.raises(InputError):
        make_lattice(((0, 0.5), (0.5, 0)))


def test_make_lattice_degenerate_flagged():
    l = make_lattice(((0, 0), (0, 0)))
    assert not l.nondegenerate
    assert signature(l).null == 2


def test_standard_k3_lattice():
    l = standard_lattice("3U+2E8")
    assert l.rank == 22
    assert signature(l).as_tuple() == (3, 19, 0)
    assert l.even
    assert abs(l.det()) == 1


def test_standard_scaled_u():
    l = standard_lattice("U(2)")
    assert l.gram == ((0, 2), (2, 0))


def test_standard_diag():
    l = standard_lattice("diag(2,-2)")
    assert l.gram == ((2, 0), (0, -2))


def test_standard_ade_grams():
    a1 = standard_lattice("A1")
    assert a1.gram == ((-2,),)
    a2 = standard_lattice("A2")
    assert a2.gram == A2_GRAM
    a3 = standard_lattice("A3")
    assert a3.det() == -4
    d4 = standard_lattice("D4")
    assert d4.det() == 4
    # D4 has a valence-3 node
    valences = [sum(1 for x in row if x == 1) for row in d4.gram]
    assert sorted(valences) == [1, 1, 1, 3]
    e8 = standard_lattice("E8")
    assert abs(e8.det()) == 1
    assert signature(e8).as_tuple() == (0, 8, 0)
    e6 = standard_lattice("E6")
    assert e6.det() == 3
    e7 = standard_lattice("E7")
    assert e7.det() == -2


def test_standard_lattice_count_prefix():
    l = standard_lattice("2A1")
    assert l.gram == ((-2, 0), (0, -2))
    l2 = standard_lattice("U+A2(2)")
    assert l2.gram == ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -4, 2), (0, 0, 2, -4))


def test_standard_lattice_rejects_garbage():
    with pytest.raises(InputError):
        standard_lattice("Q5")
    with pytest.raises(InputError):
        standard_lattice("")
    with pytest.raises(InputError):
        standard_lattice("E9")
    with pytest.raises(InputError):
        standard_lattice("D1")


# ---------------------------------------------------------------------------
# signature


def test_signature_u():
    assert signature(make_lattice(U_GRAM)).as_tuple() == (1, 1, 0)


def test_signature_all_ade_negative_definite():
    for name in ["A1", "A2", "A5", "D4", "D7", "E6", "E7", "E8"]:
        l = standard_lattice(name)
        assert signature(l).as_tuple() == (0, l.rank, 0), name


def test_signature_invariant_under_basis_change():
    rng = random.Random(20260815)
    for _ in range(300):
        n = rng.randint(1, 5)
        g = random_symmetric(rng, n)
        s1 = signature(make_lattice(g)).as_tuple()
        b = random_unimodular(rng, n)
        g2 = conjugate_gram(g, b)
        s2 = signature(make_lattice(g2)).as_tuple()
        assert s1 == s2
        assert sum(s1) == n


def test_signature_sign_of_det():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        g = random_symmetric(rng, n)
        l = make_lattice(g)
        p, m, z = signature(l).as_tuple()
        d = l.det()
        if z > 0:
            assert d == 0
        else:
            assert d != 0
            assert (d > 0) == (m % 2 == 0)


# ---------------------------------------------------------------------------
# orthogonal complement


def test_complement_of_isotropic_vector_in_u():
    l = make_lattice(U_GRAM)
    s = sublattice_from_rows(l, ((1, 0),))
    c = orthogonal_complement(l, s)
    assert c.basis == ((1, 0),)


def test_complement_in_a2():
    l = make_lattice(A2_GRAM)
    s = sublattice_from_rows(l, ((1, 1),))
    c = orthogonal_complement(l, s)
    assert c.rank == 1
    v = c.basis[0]
    assert tuple(sorted((abs(v[0]), abs(v[1])))) == (1, 1)
    assert v[0] * v[1] < 0
    assert l.sq(v) == -6


def test_complement_block_in_k3():
    l = standard_lattice("3U+2E8")
    rows = tuple(
        tuple(1 if j == i else 0 for j in range(22)) for i in range(6)
    )
    s = sublattice_from_rows(l, rows)
    c = orthogonal_complement(l, s)
    assert c.rank == 16
    # complement is the 2E8 block
    for v in c.basis:
        assert all(x == 0 for x in v[:6])
    assert signature(c.as_lattice()).as_tuple() == (0, 16, 0)


def test_complement_is_primitive_and_contains_double_complement():
    rng = random.Random(99)
    checked = 0
    while checked < 250:
        n = rng.randint(2, 5)
        g = random_symmetric(rng, n)
        l = make_lattice(g)
        if not l.nondegenerate:
            continue
        k = rng.randint(1, n - 1)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)
        ]
        if helpers.rank(la.freeze_mat(rows)) == 0:
            continue
        s = sublattice_from_rows(l, tuple(rows))
        c = orthogonal_complement(l, s)
        assert c.primitive
        cc = orthogonal_complement(l, c)
        hull = primitive_hull(l, s)
        assert cc.contains_sublattice(hull)
        # complement really is orthogonal to the input
        for u in c.basis:
            for w in s.basis:
                assert l.dot(u, w) == 0
        checked += 1


# ---------------------------------------------------------------------------
# primitive hull


def test_primitive_hull_index_two():
    l = standard_lattice("diag(2,-2)")
    s = sublattice_from_rows(l, ((2, 0),))
    h = primitive_hull(l, s)
    assert h.basis == ((1, 0),)
    assert h.index == 2


def test_primitive_hull_idempotent():
    l = standard_lattice("U+A2")
    s = sublattice_from_rows(l, ((2, 0, 0, 0), (0, 0, 3, 3)))
    h = primitive_hull(l, s)
    again = primitive_hull(l, h)
    assert again.basis == h.basis
    assert again.index == 1


def test_primitive_hull_antidiagonal_block():
    l = standard_lattice("3U+2E8")
    rows = [tuple([0] * 4 + [1, -1] + [0] * 16)]
    for i in range(8):
        row = [0] * 22
        row[6 + i] = 1
        row[14 + i] = -1
        rows.append(tuple(row))
    s = sublattice_from_rows(l, tuple(rows))
    h = primitive_hull(l, s)
    assert h.index == 1
    assert h.basis == s.basis


def test_primitive_hull_index_matches_elementary_divisors():
    rng = random.Random(41)
    checked = 0
    while checked < 250:
        n = rng.randint(2, 5)
        g = random_symmetric(rng, n)
        l = make_lattice(g)
        k = rng.randint(1, n)
        rows = [
            tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)
        ]
        m = la.freeze_mat(rows)
        if helpers.rank(m) == 0:
            continue
        s = sublattice_from_rows(l, tuple(rows))
        h = primitive_hull(l, s)
        assert h.rank == s.rank
        assert h.index >= 1
        # every original generator lies in the hull
        for v in rows:
            assert h.contains(v)
        # index 1 iff the input was already primitive
        assert (h.index == 1) == s.primitive
        # [hull : s] is the product of the elementary divisors of s's basis
        assert h.index == prod(helpers.elementary_divisors(s.basis))
        checked += 1


def _saturation_inputs():
    """360 seeded integer matrices, 60 of each kind: saturated row sets in
    disguise (rows of a unimodular matrix mixed by a unimodular
    transform), the same with one row scaled so a pivot exceeds 1, random
    entries, dependent rows, zero rows, and full-rank squares alternating
    with 1 x n rows."""
    rng = random.Random(1507)
    for i in range(360):
        kind = i % 6
        n = rng.randint(1, 6)
        if kind in (0, 1):
            k = rng.randint(1, n)
            rows = [list(r) for r in la.mat_mul(random_unimodular(rng, k, 6), random_unimodular(rng, n, 10)[:k])]
            if kind == 1:
                j = rng.randrange(k)
                rows[j] = [rng.choice((2, 3, -2, 6)) * x for x in rows[j]]
        elif kind == 2:
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        elif kind == 3:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            rows.append([sum(rng.randint(-2, 2) * r[c] for r in rows) for c in range(n)])
            rng.shuffle(rows)
        elif kind == 4:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))]
            rows[rng.randint(0, len(rows)):0] = [[0] * n] * rng.randint(1, 2)
        elif i % 12 == 5:
            d = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
            rows = [[d[r] * x for x in row] for r, row in enumerate(random_unimodular(rng, n, 12))]
        else:
            rows = [[rng.choice((1, 2, 4)) * rng.randint(-3, 3) for _ in range(n)]]
        yield la.freeze_mat(rows)


def test_saturate_rows_matches_the_kernel_of_the_kernel():
    """saturate_rows returns hnf(b) when its pivots are all 1; on every
    input it equals the integer kernel of the integer kernel."""
    paths = {True: 0, False: 0}
    for b in _saturation_inputs():
        ker = la.kernel_int(b)
        expected = la.kernel_int(ker) if ker else la.identity(len(b[0]))
        assert la.saturate_rows(b) == expected, b
        paths[all(next(filter(None, row)) == 1 for row in la.hnf(b))] += 1
    assert min(paths.values()) >= 100


def test_primitive_hull_index_is_the_coordinate_determinant():
    """[hull : s], read off the two HNF bases' pivots, equals |det| of s's
    coordinate matrix in the hull on every saturation input."""
    indices = set()
    for b in _saturation_inputs():
        l = make_lattice(la.identity(len(b[0])))  # the Gram plays no part
        s = sublattice_from_rows(l, b)
        h = primitive_hull(l, s)
        coords = tuple(la.coords_in_rows(v, h.basis) for v in s.basis)
        assert h.index == abs(la.det(coords)), b
        indices.add(h.index)
    assert {1, 2, 3} <= indices and max(indices) > 6


def test_identity_basis_sublattice_is_its_ambient(monkeypatch):
    """as_lattice() of the identity basis is the ambient with its own
    elimination, and the complement of a full-rank sublattice of a
    nondegenerate lattice is 0 without an integer kernel."""
    lattices = [standard_lattice(spec) for spec in ("U+A2", "3U+2E8", "diag(2,-2)", "E8")]
    for l in lattices:
        signature(l)
    eliminations = count_calls(monkeypatch, la, "_jacobi_elimination")
    kernels = count_calls(monkeypatch, la, "kernel_int")
    rng = random.Random(2207)
    for l in lattices:
        s = full_sublattice(l)
        assert s.as_lattice() is l and s.gram() == l.gram
        assert signature(s.as_lattice()) == signature(l)
        for sub in (s, sublattice_from_rows(l, la.mat_scale(2, random_unimodular(rng, l.rank, 9)))):
            assert sub.rank == l.rank
            assert orthogonal_complement(l, sub).basis == ()
            assert la.kernel_int(la.mat_mul(sub.basis, l.gram)) == ()
    assert eliminations == []
    assert len(kernels) == 2 * len(lattices)  # the references above
    # a proper sublattice keeps B . G . B^T, and a degenerate ambient keeps
    # the kernel: its full-rank complement is the radical
    l = standard_lattice("U+A2")
    assert sublattice_from_rows(l, ((1, 0, 0, 0),)).as_lattice() is not l
    radical = make_lattice(((0, 0), (0, 2)))
    assert orthogonal_complement(radical, full_sublattice(radical)).basis == ((1, 0),)


# ---------------------------------------------------------------------------
# discriminant form


def test_discriminant_e8_trivial():
    d = discriminant_form(standard_lattice("E8"))
    assert d.invariant_factors == ()
    assert d.order == 1


def test_discriminant_a2():
    d = discriminant_form(standard_lattice("A2"))
    assert d.invariant_factors == (3,)
    # q(gen) is -2/3 mod 2Z for either generator of Z/3, i.e. 4/3 in [0,2)
    assert d.q_values == (Fraction(4, 3),)


def test_discriminant_u2():
    d = discriminant_form(standard_lattice("U(2)"))
    assert d.invariant_factors == (2, 2)
    assert d.b_values[0][1] == Fraction(1, 2)
    assert d.b_values[1][0] == Fraction(1, 2)
    assert d.q_values == (0, 0)


def test_discriminant_order_equals_det():
    rng = random.Random(5150)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 4)
        g = random_even_symmetric(rng, n)
        l = make_lattice(g)
        if not l.nondegenerate:
            continue
        d = discriminant_form(l)
        assert d.order == abs(l.det())
        checked += 1


def test_discriminant_q_b_compatibility():
    rng = random.Random(616)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        g = random_even_symmetric(rng, n)
        l = make_lattice(g)
        if not l.nondegenerate or abs(l.det()) == 1:
            continue
        d = discriminant_form(l)
        gens = d.generators
        for i, gi in enumerate(gens):
            # generator order is its invariant factor
            di = d.invariant_factors[i]
            scaled = tuple(di * x for x in gi)
            assert all(Fraction(x).denominator == 1 for x in scaled)
            for j, gj in enumerate(gens):
                qsum = Fraction(l.sq(la.vec_add(gi, gj))) % 2
                lhs = (qsum - d.q_values[i] - d.q_values[j]) % 2
                assert lhs == (2 * d.b_values[i][j]) % 2
        checked += 1


def test_discriminant_rejects_degenerate():
    with pytest.raises(InputError):
        discriminant_form(make_lattice(((0, 0), (0, 0))))


def test_discriminant_rejects_odd():
    # q is defined modulo 2Z only on even lattices
    with pytest.raises(ScopeError, match="even lattice"):
        discriminant_form(make_lattice(((1, 0), (0, 3))))


# ---------------------------------------------------------------------------
# vector enumeration


def test_e8_has_240_roots():
    l = standard_lattice("E8")
    roots = enumerate_vectors(l, -2)
    assert len(roots) == 240
    up = enumerate_vectors(l, -2, up_to_sign=True)
    assert len(up) == 120


def test_root_counts_rank_four():
    assert len(enumerate_vectors(standard_lattice("D4"), -2)) == 24
    assert len(enumerate_vectors(standard_lattice("A4"), -2)) == 20


def test_enumerate_indefinite_diag():
    l = standard_lattice("diag(2,-2)")
    assert enumerate_vectors(l, -2, up_to_sign=True) == ((0, 1),)
    assert enumerate_vectors(l, -4, up_to_sign=True) == ()
    eights = enumerate_vectors(l, -6, up_to_sign=True)
    assert eights == ((1, -2), (1, 2))


def test_enumerate_u2():
    l = standard_lattice("U(2)")
    assert enumerate_vectors(l, -4, up_to_sign=True) == ((1, -1),)
    assert enumerate_vectors(l, -2) == ()


def test_enumerate_excludes_zero():
    l = standard_lattice("A1")
    assert enumerate_vectors(l, 0) == ()


def test_enumerate_rejects_indefinite():
    # rank-2 split forms go through the divisor branch instead
    assert enumerate_vectors(standard_lattice("U"), -2) == ((-1, 1), (1, -1))
    # non-split rank 2 and anything indefinite of higher rank are out of scope
    with pytest.raises(ScopeError):
        enumerate_vectors(standard_lattice("diag(2,-6)"), -2)
    with pytest.raises(ScopeError):
        enumerate_vectors(standard_lattice("diag(2,-2,-2)"), -2)
    with pytest.raises(ScopeError):
        enumerate_vectors(standard_lattice("U"), 0)


def test_enumerate_definite_against_box_search():
    rng = random.Random(31337)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 3)
        g = random_even_symmetric(rng, n, span=3)
        l = make_lattice(g)
        sig = signature(l).as_tuple()
        if sig[0] != 0 or sig[2] != 0:
            continue
        t = -2 * rng.randint(1, 5)
        got = enumerate_vectors(l, t)
        bound = definite_enumeration_box_bound(g, t)
        want = box_vectors_with_square(g, t, bound)
        assert list(got) == want
        # a second call on the same object reads the kept search
        assert enumerate_vectors(l, t) is got
        checked += 1
    # either sign, odd and even Grams and targets, rank up to 5: B^T D B
    # for a positive diagonal D and a random unimodular B
    for _ in range(120):
        n = rng.randint(1, 5)
        d = [[rng.randint(1, 4) if i == j else 0 for j in range(n)] for i in range(n)]
        sign = rng.choice((1, -1))
        g = la.mat_scale(sign, conjugate_gram(d, random_unimodular(rng, n, steps=n + 1)))
        t = sign * rng.randint(1, 6)
        want = box_vectors_with_square(g, t, definite_enumeration_box_bound(g, t))
        l = make_lattice(g)
        assert list(enumerate_vectors(l, t)) == want
        for lat in (l, make_lattice(g)):
            ups = enumerate_vectors(lat, t, up_to_sign=True)
            assert list(ups) == [v for v in want if next(x for x in v if x) > 0]
        assert list(enumerate_vectors(l, t)) == want
    # D4 in a basis with entries 1000: leading minors near 4 * 10^6 and a
    # large common scale W, past any box search; counts from the closed
    # forms 2n(n-1) and 2n + 16 C(n, 4)
    b = la.transpose(((1, 1000, 1000, 1000), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    g = conjugate_gram(standard_lattice("D4").gram, b)
    for t, count in ((-2, 24), (-4, 24)):
        got = enumerate_vectors(make_lattice(g), t)
        assert len(set(got)) == count
        assert all(la.sq(g, v) == t for v in got)


def test_enumerate_vectors_searches_once_per_square(monkeypatch):
    from lattact import lattice

    searches = count_calls(monkeypatch, lattice, "_definite_search")
    g = conjugate_gram(standard_lattice("D5").gram, random_unimodular(random.Random(5), 5, steps=8))
    l = make_lattice(g)
    fresh = make_lattice(g)
    roots = enumerate_vectors(l, -2)
    assert len(roots) == 40 and enumerate_vectors(l, -2) is roots
    assert enumerate_vectors(l, -2, up_to_sign=True) == tuple(v for v in roots if next(filter(None, v)) > 0)
    assert len(searches) == 1
    assert len(enumerate_vectors(l, -4)) == len(enumerate_vectors(l, -4, up_to_sign=True)) * 2
    assert len(searches) == 2
    # the kept searches live in the instance dict, outside the fields
    assert set(vars(l)["_vectors"]) == {-2, -4}
    assert l == fresh and hash(l) == hash(fresh) and repr(l) == repr(fresh)
    # another object searches again; an empty result is kept too
    assert enumerate_vectors(fresh, -2) == roots and enumerate_vectors(l, -3) == ()
    assert len(searches) == 3 and -3 in vars(l)["_vectors"]


# the D4 chain: rows (1,1000,0,0), (0,1,1001,0), (0,0,1,1002), (0,0,0,1) in
# the simple roots, an orthogonality defect of 62 bits
D4_CHAIN = ((1, 1000, 0, 0), (0, 1, 1001, 0), (0, 0, 1, 1002), (0, 0, 0, 1))


def test_enumerate_reduces_a_skewed_basis_first(monkeypatch):
    import time

    from lattact import lattice

    reductions = count_calls(monkeypatch, lattice, "_lll")
    g = la.mat_mul(la.mat_mul(D4_CHAIN, standard_lattice("D4").gram), la.transpose(D4_CHAIN))
    l = make_lattice(g)
    start = time.perf_counter()
    found = {t: enumerate_vectors(l, t) for t in (-2, -4)}
    assert time.perf_counter() - start < 1.0
    # closed forms 2n(n-1) and 2n + 16 C(n, 4) at n = 4
    assert [len(set(found[t])) for t in (-2, -4)] == [24, 24]
    assert all(la.sq(g, v) == t for t in found for v in found[t])
    assert all(list(vs) == sorted(vs) for vs in found.values())
    assert len(reductions) == 2


def test_reduced_search_matches_the_search_in_the_given_basis(monkeypatch):
    # bases past the 24-bit gate but small enough to search unreduced:
    # the reduced search mapped back equals the plain one, either sign
    from lattact import lattice

    reductions = count_calls(monkeypatch, lattice, "_lll")
    rng = random.Random(404)
    gated = searched = 0
    while gated < 40:
        n = rng.randint(2, 6)
        d = [[rng.randint(1, 4) if i == j else 0 for j in range(n)] for i in range(n)]
        b = [list(row) for row in la.identity(n)]
        for _ in range(rng.randint(2, 4)):
            i, j = rng.sample(range(n), 2)
            b[i] = [x + rng.choice((-1, 1)) * rng.randint(5, 24) * y for x, y in zip(b[i], b[j])]
        sign = rng.choice((1, -1))
        g = la.mat_scale(sign, conjugate_gram(d, la.transpose(b)))
        l = make_lattice(g)
        if prod(abs(g[i][i]) for i in range(n)) <= abs(l.det()) << 24:
            continue
        gated += 1
        # an even lattice has no vector of odd square, and is not searched for one
        searched += 4 - l.even
        for t in (1, 2, 4, 6):
            plain = lattice._definite_search(l._jacobi, sign < 0, t)
            assert enumerate_vectors(l, sign * t) == plain
    assert len(reductions) == searched


def test_enumerate_rank_four_against_box_search():
    for name, t in [("D4", -2), ("D4", -4), ("A4", -2), ("A4", -6)]:
        l = standard_lattice(name)
        got = enumerate_vectors(l, t)
        bound = definite_enumeration_box_bound(l.gram, t)
        want = box_vectors_with_square(l.gram, t, bound)
        assert list(got) == want, (name, t)


def test_enumerate_split_form_against_window_search():
    # conjugates of U(k) stay split; the divisor method must find every
    # solution a brute window search finds, and nothing extra
    rng = random.Random(1729)
    checked = 0
    while checked < 150:
        k = rng.randint(1, 3)
        b = random_unimodular(rng, 2)
        g = conjugate_gram(((0, k), (k, 0)), b)
        l = make_lattice(g)
        t = 2 * rng.randint(-6, 6) + 0
        if t == 0:
            continue
        got = set(enumerate_vectors(l, t))
        for v in got:
            assert l.sq(v) == t
        window = box_vectors_with_square(g, t, 20)
        for v in window:
            assert v in got
        checked += 1


def test_split_form_solver_matches_the_divisor_search_over_a_t():
    """The solver changes basis to a primitive isotropic vector and walks
    the divisors of t only; on every form k (a1 x + b1 y)(a2 x + b2 y)
    with coefficients in [-4, 4], k in {1, 2, 3} and an even cross term,
    it finds what the divisor search over A t finds."""
    from lattact.lattice import _binary_split_solutions

    from helpers import split_form_solutions_by_divisors_of_at

    span = range(-4, 5)
    grams = set()
    for k in (1, 2, 3):
        for a1, b1, a2, b2 in itertools.product(span, repeat=4):
            cross = k * (a1 * b2 + a2 * b1)
            if a1 * b2 != a2 * b1 and cross % 2 == 0:
                grams.add(((k * a1 * a2, cross // 2), (cross // 2, k * b1 * b2)))
    assert len(grams) == 2112
    for gram in sorted(grams):
        for t in (2, -2, 4, -4, 6, -6, -8, 12, -18):
            assert _binary_split_solutions(gram, t) == split_form_solutions_by_divisors_of_at(gram, t), (gram, t)


def test_enumerate_sign_symmetry_and_squares():
    rng = random.Random(27182)
    checked = 0
    while checked < 120:
        n = rng.randint(1, 3)
        g = random_even_symmetric(rng, n, span=3)
        l = make_lattice(g)
        sig = signature(l).as_tuple()
        if sig[0] != 0 or sig[2] != 0:
            continue
        t = -2 * rng.randint(1, 4)
        vs = enumerate_vectors(l, t)
        s = set(vs)
        for v in vs:
            assert l.sq(v) == t
            assert tuple(-x for x in v) in s
        ups = enumerate_vectors(l, t, up_to_sign=True)
        assert len(ups) * 2 == len(vs)
        checked += 1


# ---------------------------------------------------------------------------
# rank 2 classification


def test_rank2_class_of_a2_is_canonical():
    assert rank2_isomorphism_class(A2_GRAM) == A2_GRAM


def test_rank2_class_positive_a2():
    g = ((2, -1), (-1, 2))
    assert rank2_isomorphism_class(g) == ((2, -1), (-1, 2))
    assert rank2_isomorphism_class(((2, 1), (1, 2))) == ((2, -1), (-1, 2))


def test_rank2_class_zero_form():
    assert rank2_isomorphism_class(((0, 0), (0, 0))) == ((0, 0), (0, 0))
    assert rank2_isomorphism_class(make_lattice(((),) * 0)) == ()


def test_rank2_example_reduces_to_scaled_a1_sum():
    got = rank2_isomorphism_class(((-8, 2), (2, -2)))
    assert got == rank2_isomorphism_class(((-2, 0), (0, -6)))


def test_rank2_rejects_indefinite():
    with pytest.raises(ScopeError):
        rank2_isomorphism_class(U_GRAM)


def test_rank2_class_invariant_under_gl2z():
    rng = random.Random(55)
    checked = 0
    while checked < 400:
        g = random_symmetric(rng, 2, span=5)
        sig = signature(make_lattice(g)).as_tuple()
        if sig[2] != 0 or (sig[0] and sig[1]):
            continue
        cls = rank2_isomorphism_class(g)
        b = random_unimodular(rng, 2)
        g2 = conjugate_gram(g, b)
        assert rank2_isomorphism_class(tuple(map(tuple, g2))) == cls
        checked += 1


def test_rank2_class_is_a_fixed_point():
    rng = random.Random(56)
    checked = 0
    while checked < 200:
        g = random_symmetric(rng, 2, span=5)
        sig = signature(make_lattice(g)).as_tuple()
        if sig[2] != 0 or (sig[0] and sig[1]):
            continue
        cls = rank2_isomorphism_class(g)
        assert rank2_isomorphism_class(cls) == cls
        checked += 1


# ---------------------------------------------------------------------------
# isometry checks


def test_is_isometry_identity():
    l = standard_lattice("3U+2E8")
    assert is_isometry(l, la.identity(22))


T_2U = (
    (0, 0, -1, 0),
    (0, -1, 0, -1),
    (1, 0, -1, 0),
    (0, 1, 0, 0),
)


def test_is_isometry_order_three_on_2u():
    l = standard_lattice("2U")
    assert is_isometry(l, T_2U)
    assert helpers.matrix_order(la.freeze_mat(T_2U)) == 3


def test_is_isometry_rejects_perturbed():
    l = standard_lattice("2U")
    bad = [list(r) for r in T_2U]
    bad[0][1] = 1
    assert not is_isometry(l, tuple(map(tuple, bad)))


def test_is_isometry_takes_a_determinant_only_on_a_degenerate_gram(monkeypatch):
    # on a degenerate Gram, m^T G m = G does not force det m = +-1
    l = make_lattice(((0, 0), (0, 2)))
    m = ((2, 0), (0, 1))
    assert la.mat_mul(la.mat_mul(la.transpose(m), l.gram), m) == l.gram
    assert not is_isometry(l, m)
    with pytest.raises(InputError):
        Isometry(l, m)
    # on a nondegenerate one it does: det G is read once off the lattice's
    # one Jacobi elimination, no det of m
    a2 = make_lattice(A2_GRAM)
    calls = count_calls(monkeypatch, la, "det")
    eliminations = count_calls(monkeypatch, la, "_jacobi_elimination")
    for bad in (((1, 1), (0, 1)), ((2, 0), (0, 2)), ((0, 1), (1, 1))):
        assert not is_isometry(a2, bad)
        with pytest.raises(InputError):
            Isometry(a2, bad)
    assert is_isometry(a2, ((0, 1), (1, 0)))
    assert calls == [] and len(eliminations) == 1


def test_isometry_class_validates():
    l = standard_lattice("2U")
    g = Isometry(l, T_2U)
    h = g.compose(g).compose(g)
    assert h.matrix == la.identity(4)
    assert g.inverse().matrix == la.mat_mul(T_2U, T_2U)
    with pytest.raises(InputError):
        Isometry(l, la.freeze_mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]))


def test_isometry_group_laws():
    rng = random.Random(4242)
    l = standard_lattice("U+A2")
    n = l.rank
    mats = []
    # isometries as signed swaps of the U block times A2 symmetries
    a2_sym = [
        la.identity(2),
        ((0, 1), (1, 0)),
        ((-1, 0), (0, -1)),
        ((0, -1), (-1, 0)),
        ((-1, 1), (-1, 0)),
        ((0, -1), (1, -1)),
    ]
    u_sym = [la.identity(2), ((0, 1), (1, 0)), ((-1, 0), (0, -1)), ((0, -1), (-1, 0))]
    for a in u_sym:
        for c in a2_sym:
            m = [[0] * n for _ in range(n)]
            for i in range(2):
                for j in range(2):
                    m[i][j] = a[i][j]
                    m[2 + i][2 + j] = c[i][j]
            mats.append(la.freeze_mat(m))
    for m in mats:
        assert is_isometry(l, m)
    for _ in range(1000):
        x = rng.choice(mats)
        y = rng.choice(mats)
        assert is_isometry(l, la.mat_mul(x, y))
        assert is_isometry(l, la.inverse_int(x))


# ---------------------------------------------------------------------------
# integer kernels: echelon coordinates, isometry inverses, Gram products


def _random_hnf_basis(rng, n, k):
    while True:
        h = la.hnf(tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)))
        if len(h) == k:
            return h


def _combine(coords, basis):
    return tuple(sum(c * b[j] for c, b in zip(coords, basis)) for j in range(len(basis[0])))


def _integral_or_none(x):
    """The oracle answer for integer coordinates: a rational solution with
    every entry integral, else None."""
    return x if x is not None and all(c.denominator == 1 for c in x) else None


def test_echelon_coordinates_match_integral_solve():
    """coords_in_rows is solve's (unique) answer when that is integral,
    and None when it is fractional or missing."""
    rng = random.Random(3101)
    counts = {"integral": 0, "fractional": 0, "outside": 0}
    for _ in range(80):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        basis = _random_hnf_basis(rng, n, k)
        columns = la.transpose(basis)
        vectors = [_combine(tuple(Fraction(rng.randint(-5, 5), d) for _ in range(k)), basis) for d in (1, 2, 3)]
        vectors += [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(3)]
        for v in vectors:
            x = la.solve(columns, v)
            got = la.coords_in_rows(v, basis)
            assert got == _integral_or_none(x)
            if got is not None:
                assert all(type(c) is int for c in got)
            counts["outside" if x is None else "integral" if got is not None else "fractional"] += 1
    assert min(counts.values()) > 20, counts


def test_echelon_coordinates_stay_integers_in_the_lattice():
    rng = random.Random(3102)
    for _ in range(30):
        n = rng.randint(2, 6)
        basis = _random_hnf_basis(rng, n, rng.randint(1, n))
        x = tuple(rng.randint(-6, 6) for _ in basis)
        got = la.coords_in_rows(_combine(x, basis), basis)
        assert got == x and all(type(c) is int for c in got)


def test_restrict_to_span_matches_integral_solve():
    """restrict_to_span is the matrix of solve's answers on the images of
    the basis when all are integral, and None otherwise; the bases include
    non-saturated ones, whose invariant spans can still give fractions."""
    rng = random.Random(3103)
    counts = {"integral": 0, "fractional": 0, "not invariant": 0}
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        # an integer matrix with the span of the first k columns of p invariant
        p = random_unimodular(rng, n)
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if (i < k) == (j < k) or (i < k <= j):
                    d[i][j] = rng.randint(-3, 3)
        m = la.mat_mul(la.mat_mul(p, la.freeze_mat(d)), la.inverse_int(p))
        if rng.random() < 0.3:
            m = la.mat_add(m, ((0,) * (n - 1) + (1,),) + la.zero_mat(n - 1, n))
        span = la.transpose(p)[:k]
        scale = tuple(tuple(rng.choice((1, 2)) if i == j else rng.randint(0, 1) * (i < j) for j in range(k)) for i in range(k))
        for basis in (la.hnf(span), la.hnf(la.mat_mul(scale, span))):
            columns = la.transpose(basis)
            images = [la.solve(columns, la.mat_vec(m, b)) for b in basis]
            if None in images:
                expected, kind = None, "not invariant"
            elif all(map(_integral_or_none, images)):
                expected, kind = la.transpose(images), "integral"
            else:
                expected, kind = None, "fractional"
            got = la.restrict_to_span(m, basis)
            assert got == expected
            if got is not None:
                assert all(type(c) is int for row in got for c in row)
            counts[kind] += 1
    assert min(counts.values()) > 5, counts


def test_coordinates_outside_the_row_lattice_are_none():
    # (0, 1) lies in the span of (1, 0), (0, 2) but not in their lattice
    assert la.coords_in_rows((0, 2), ((1, 0), (0, 2))) == (0, 1)
    assert la.coords_in_rows((0, 1), ((1, 0), (0, 2))) is None
    # the swap keeps the span of (1, 0), (0, 2) but not its lattice
    assert la.restrict_to_span(((0, 1), (1, 0)), ((1, 0), (0, 2))) is None
    assert la.restrict_to_span(((1, 0), (0, -1)), ((1, 0), (0, 2))) == ((1, 0), (0, -1))


def test_det_and_char_poly_take_integer_matrices_only():
    for bad in (((Fraction(1, 2),),), ((1, 0), (0, Fraction(2, 3))), ((True,),), ((1.0,),)):
        with pytest.raises(ValueError):
            la.det(bad)
        with pytest.raises(ValueError):
            la.char_poly(bad)
    # an integral Fraction is accepted and read as the integer it equals
    got = la.det(((Fraction(4), 1), (Fraction(2), 3)))
    assert got == 10 and type(got) is int
    assert la.char_poly(((Fraction(4), 1), (Fraction(2), 3))) == (10, -7, 1)
    assert la.det(()) == 1 and la.char_poly(()) == (1,)


def test_echelon_kernels_reject_non_echelon_bases():
    m = la.identity(3)
    for basis in (((0, 1, 0), (1, 0, 0)), ((1, 0, 0), (0, 0, 0)), ((1, 2, 0), (3, 0, 1))):
        with pytest.raises(ValueError):
            la.restrict_to_span(m, basis)
        with pytest.raises(ValueError):
            la.coords_in_rows((1, 2, 1), basis)


def test_dot_on_rational_vectors():
    rng = random.Random(3104)
    for _ in range(50):
        n = rng.randint(1, 6)
        g = random_symmetric(rng, n)
        u = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        expected = sum(u[i] * g[i][j] * v[j] for i in range(n) for j in range(n))
        assert la.dot(g, u, v) == expected == la.dot(g, v, u)
    assert la.dot(A2_GRAM, (Fraction(1, 2), 0), (0, Fraction(1, 3))) == Fraction(1, 6)


def test_gram_matrices_are_pairwise_dots():
    rng = random.Random(3105)
    l = Lattice(conjugate_gram(standard_lattice("U+A2+D4").gram, random_unimodular(rng, 8)))
    s = Sublattice(l, _random_hnf_basis(rng, 8, 5))
    assert s.gram() == tuple(tuple(l.dot(u, v) for v in s.basis) for u in s.basis)


def test_adjugate_matches_rational_inverse():
    rng = random.Random(3106)
    for _ in range(60):
        n = rng.randint(1, 7)
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        adj, d = la.adjugate(a)
        assert d == la.det(a)
        if d:
            inv = tuple(tuple(Fraction(x, d) for x in row) for row in adj)
            assert la.mat_mul(a, inv) == la.identity(n)
            assert helpers.inverse(a) == inv
        else:
            assert adj is None
    assert la.adjugate(((1, 2), (2, 4))) == (None, 0)


def _isometries_in_random_basis(rng, spec, generators, words):
    """The standard lattice in a random basis, with products of the given
    isometries conjugated into that basis."""
    base = standard_lattice(spec)
    b = random_unimodular(rng, base.rank)
    b_inv = la.inverse_int(b)
    l = Lattice(conjugate_gram(base.gram, b))
    out = []
    for _ in range(words):
        m = la.identity(base.rank)
        for _ in range(rng.randint(1, 5)):
            m = la.mat_mul(m, rng.choice(generators))
        out.append(la.mat_mul(la.mat_mul(b_inv, m), b))
    return l, out


def _reflections(spec, roots):
    from lattact.root_systems import reflection

    l = standard_lattice(spec)
    return [reflection(l, r).matrix for r in roots]


def test_isometry_inverse_in_random_bases():
    rng = random.Random(3107)
    e8_roots = [tuple(1 if i == j else 0 for i in range(22)) for j in range(6, 22)]
    u_swap = la.mat_add(la.identity(22), ((-1, 1) + (0,) * 20, (1, -1) + (0,) * 20) + la.zero_mat(20, 22))
    cases = (
        ("U(2)", [((0, 1), (1, 0)), ((-1, 0), (0, -1))]),
        ("A2", _reflections("A2", [(1, 0), (0, 1), (1, 1)])),
        ("3U+2E8", _reflections("3U+2E8", e8_roots) + [u_swap]),
    )
    for spec, generators in cases:
        l, mats = _isometries_in_random_basis(rng, spec, generators, 12)
        for m in mats:
            assert is_isometry(l, m)
            inv = Isometry(l, m).inverse().matrix
            assert inv == la.inverse_int(m)
            assert la.mat_mul(m, inv) == la.identity(l.rank)
        n = l.rank
        shear = la.mat_add(la.identity(n), ((0,) * (n - 1) + (1,),) + la.zero_mat(n - 1, n))
        for bad in (shear, la.mat_scale(2, la.identity(n))):
            assert not is_isometry(l, bad)


def test_kernel_int_is_a_saturated_hnf_basis_without_smith_forms(monkeypatch):
    rng = random.Random(5150)
    calls = count_calls(monkeypatch, la, "snf")
    for _ in range(50):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = tuple(tuple(rng.randint(-3, 3) for _ in range(cols)) for _ in range(rows))
        if rng.random() < 0.3:
            a = a + (helpers.vec_scale(2, a[0]),)
        ker = la.kernel_int(a)
        assert calls == []
        assert len(ker) == cols - helpers.rank(a)
        assert all(la.mat_vec(a, k) == la.zero_vec(len(a)) for k in ker)
        if ker:
            assert la.hnf(ker) == ker
            # a basis of a direct summand: every elementary divisor is 1
            assert helpers.elementary_divisors(ker) == (1,) * len(ker)
            del calls[:]


def _random_kernel_input(rng, rows, cols, bound):
    """A rows x cols integer matrix with entries in [-bound, bound], about
    half of them 0; with chance 1/3 each, a row that combines two others
    (rank-deficient), a zero row and a zero column."""
    a = [[rng.randint(-bound, bound) if rng.random() < 0.5 else 0 for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and rng.random() < 1 / 3:
        i, j, k = rng.sample(range(rows), 3)
        a[k] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(a[i], a[j])]
    if rng.random() < 1 / 3:
        a[rng.randrange(rows)] = [0] * cols
    if rng.random() < 1 / 3:
        c = rng.randrange(cols)
        for row in a:
            row[c] = 0
    return la.freeze_mat(a)


def _plain_int_rows(rows):
    return type(rows) is tuple and all(type(r) is tuple for r in rows) and {type(x) for r in rows for x in r} <= {int}


# (rows, cols, entry bounds): up to 22 x 66, the [A^T | I] of a stacked
# 44 x 22 fixed_kernel input, and entries up to 2^64 on every shape that
# keeps the reference's kernel fast
KERNEL_SHAPES = (
    (1, 1, (1, 9, 2**64)), (1, 6, (1, 9, 2**64)), (6, 1, (1, 9, 2**64)), (3, 3, (1, 9, 2**64)),
    (4, 9, (1, 9, 2**64)), (9, 4, (1, 9, 2**64)), (8, 20, (1, 9, 2**64)), (20, 8, (1, 9, 2**64)),
    (22, 22, (1, 9, 2**64)), (44, 22, (1, 9, 2**64)), (22, 66, (1, 9)),
)


def _kernel_repeats(rows, cols, bound):
    return 6 if rows * cols < 200 else 2 if bound < 2**64 else 1


def test_hnf_matches_the_reference_on_random_matrices():
    """hnf equals the reference Euclid HNF (tests/helpers.py) on random
    integer matrices, as tuples of plain ints; it converts Fractions of
    denominator 1 and bools to ints, as the reference does."""
    rng = random.Random(1968)
    for rows, cols, bounds in KERNEL_SHAPES + ((22, 66, (2**64,)), (66, 22, (1, 2**64))):
        for bound in bounds:
            for _ in range(_kernel_repeats(rows, cols, bound)):
                a = _random_kernel_input(rng, rows, cols, bound)
                h = la.hnf(a)
                assert h == helpers.hnf_reference(a), a
                assert _plain_int_rows(h)
    mixed = ((Fraction(4, 2), True, 0), (Fraction(-6), 3, False))
    assert la.hnf(mixed) == helpers.hnf_reference(mixed) == ((2, 1, 0), (0, 6, 0))
    assert _plain_int_rows(la.hnf(mixed))
    assert la.hnf(()) == () and la.hnf(((), ())) == () and la.hnf(((0, 0),)) == ()


def test_kernel_int_matches_the_reference_on_random_matrices():
    """kernel_int equals the reference hnf([A^T | I]) construction
    (tests/helpers.py) on random integer matrices, as tuples of plain ints,
    also for Fraction entries of denominator 1."""
    rng = random.Random(1896)
    for rows, cols, bounds in KERNEL_SHAPES:
        for bound in bounds:
            for _ in range(_kernel_repeats(rows, cols, bound)):
                a = _random_kernel_input(rng, rows, cols, bound)
                ker = la.kernel_int(a)
                assert ker == helpers.kernel_int_reference(a), a
                assert _plain_int_rows(ker)
    mixed = ((Fraction(4, 2), 2, 0), (Fraction(-6), 0, 3))
    assert la.kernel_int(mixed) == helpers.kernel_int_reference(mixed) == ((1, -1, 2),)
    assert _plain_int_rows(la.kernel_int(mixed))


def test_fixed_kernel_stacks_each_distinct_non_identity_matrix_once(monkeypatch):
    calls = count_calls(monkeypatch, la, "kernel_int")
    ident = la.identity(3)
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert la.fixed_kernel([ident, ident], 3) == ident
    assert calls == []
    assert la.fixed_kernel([ident, swap, swap], 3) == ((1, 1, 0), (0, 0, 1))
    assert [len(args[0]) for args in calls] == [3]


def test_integer_matrix_check_and_freeze_on_mixed_entries():
    """The all-int fast path of int_rows leaves the other answers as they
    were: a bool is refused, a Fraction with denominator 1 is accepted and
    converted to an int; all-int rows come back as they are; freeze_mat
    makes tuples of any row iterables."""
    rows = ((1, -2), (3, 10**30))
    assert all(a is b for a, b in zip(la.int_rows(rows), rows))
    assert la.int_rows(()) == () and la.int_rows([[], []]) == ((), ())
    converted = la.int_rows([[1, Fraction(4, 2)], (Fraction(-3), 0)])
    assert converted == ((1, 2), (-3, 0)) and {type(x) for r in converted for x in r} == {int}
    for bad in (((1, True),), ((False,),), ((1, Fraction(1, 2)),), ((1.0, 2),), (("1",),)):
        assert la.int_rows(bad) is None, bad
    frozen = la.freeze_mat([[1, 2], (x for x in (3, 4)), range(5, 7)])
    assert frozen == ((1, 2), (3, 4), (5, 6)) and all(type(r) is tuple for r in frozen)
    with pytest.raises(InputError):
        Lattice(((True, 0), (0, 2)))


_A2 = standard_lattice("A2")
_FOREIGN = Sublattice(standard_lattice("U"), ((1, 0),))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Sublattice(_A2, ((1, 0, 0),)),
        lambda: Sublattice(_A2, ((1, 0),)).contains((1, 0, 0)),
        lambda: orthogonal_complement(_A2, _FOREIGN),
        lambda: primitive_hull(_A2, _FOREIGN),
        lambda: sublattice_sum(_A2, full_sublattice(_A2), _FOREIGN),
        lambda: enumerate_vectors(_A2, -2.0),
        lambda: full_sublattice(_A2).to_ambient((1,)),
        lambda: full_sublattice(_A2).to_ambient((1, 2, 3)),
        lambda: Sublattice(_A2, ()).to_ambient((1,)),
        lambda: full_sublattice(_A2).contains_sublattice(_FOREIGN),
        lambda: full_sublattice(_A2).to_ambient((0.5, 0)),
        lambda: full_sublattice(_A2).to_ambient((Fraction(1, 2), 0)),
        lambda: full_sublattice(_A2).to_ambient(7),
        lambda: full_sublattice(_A2).contains((0.5, 0)),
        lambda: full_sublattice(_A2).contains(None),
    ],
    ids=["row-length", "contains-length", "complement", "hull", "sum", "float-square",
         "coords-short", "coords-long", "coords-rank-0", "contains-foreign",
         "coords-float", "coords-fraction", "coords-scalar", "contains-float", "contains-scalar"],
)
def test_wrong_shapes_and_foreign_sublattices_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_sublattice_gram_derived_once(monkeypatch):
    l = standard_lattice("U+A2")
    s = sublattice_from_rows(l, ((1, 0, 0, 0), (0, 0, 1, 1)))
    calls = count_calls(monkeypatch, la, "mul_nonzeros")
    reads = count_calls(monkeypatch, la, "nonzeros")
    assert s.as_lattice().gram == s.gram() == ((0, 0), (0, -2))
    assert s.as_lattice() is s.as_lattice()
    assert len(calls) == 2 and len(reads) == 1  # one B . (B . G)^T, B read once
    assert s == sublattice_from_rows(l, s.basis)


def test_is_isometry_accepts_rows_of_any_sequence_type():
    # list rows once made the product with G a tuple of lists, unequal to G
    u = standard_lattice("U")
    assert is_isometry(u, [[0, 1], [1, 0]]) and is_isometry(u, [(-1, 0), [0, Fraction(-1)]])
    assert not is_isometry(u, [[1, 1], [0, 1]])


def test_isometry_inverse_on_a_degenerate_lattice():
    l = make_lattice(((0, 0), (0, 2)))
    m = ((1, 3), (0, -1))
    assert is_isometry(l, m)
    assert Isometry(l, m).inverse().matrix == la.inverse_int(m)


def test_adjugate_derived_once_per_lattice(monkeypatch):
    from lattact.group_actions import fundamental_data

    from helpers import klein_action

    act = klein_action()
    calls = count_calls(monkeypatch, la, "adjugate")
    fundamental_data(act)
    # the closed group's inverses come from its table, so fundamental_data
    # derives no adjugate at all
    assert calls == []


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_signature_matches_descartes_rule_on_char_poly():
    # a symmetric matrix has only real eigenvalues, so Descartes' rule of
    # signs counts its positive and negative ones exactly, and by Sylvester
    # those counts are the inertia: an oracle without the Jacobi elimination
    rng = random.Random(3108)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_symmetric(rng, n, span=2)
        cp = la.char_poly(g)
        null = next(k for k, c in enumerate(cp) if c)
        plus = _sign_changes(cp)
        minus = _sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(cp)])
        assert plus + minus + null == n
        assert signature(make_lattice(g)).as_tuple() == (plus, minus, null)
        # the replayed rows diagonalize: B G B^T = diag(d . prow[piv])
        steps = la._jacobi_elimination([list(r) for r in g])
        b = tuple(map(tuple, la._jacobi_basis(steps)))
        diag = [d * prow[piv] if prow else 0 for piv, prow, d, _ in steps]
        assert la.mat_mul(la.mat_mul(b, g), la.transpose(b)) == tuple(
            tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)
        )


# ---------------------------------------------------------------------------
# the Jacobi elimination's basis rows, replayed from its steps


def _check_replay(g):
    """The replayed basis rows of g's elimination equal the rows the
    reference elimination carries along, and they diagonalize g."""
    n = len(g)
    ref = jacobi_elimination_with_basis([list(r) for r in g])
    steps = la._jacobi_elimination([list(r) for r in g])
    assert [(piv, prow, d) for piv, prow, d, _ in steps] == [(piv, prow, d) for piv, prow, _, d in ref]
    rows = la._jacobi_basis(steps)
    assert [tuple(r) for r in rows] == [tuple(brow) for _, _, brow, _ in ref]
    b = tuple(map(tuple, rows))
    diag = [d * prow[piv] if prow else 0 for piv, prow, d, _ in steps]
    assert la.mat_mul(la.mat_mul(b, g), la.transpose(b)) == tuple(
        tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)
    )
    return steps


def test_jacobi_basis_replay_on_random_symmetric_grams():
    rng = random.Random(2068)
    for n in range(1, 9):
        for _ in range(12):
            _check_replay(random_symmetric(rng, n, span=3))


def test_jacobi_basis_replay_through_zero_block_additions():
    rng = random.Random(1968)
    grams = [
        U_GRAM,
        direct_sum(make_lattice(U_GRAM), make_lattice(U_GRAM)).gram,
        direct_sum(make_lattice(U_GRAM), make_lattice(((-2,),))).gram,
    ]
    for n in range(2, 9):
        for _ in range(6):
            g = [list(r) for r in random_symmetric(rng, n, span=3)]
            for i in range(n):
                g[i][i] = 0
            if any(map(any, g)):
                grams.append(la.freeze_mat(g))
    for g in grams:
        steps = _check_replay(g)
        assert any(partner is not None for _, _, _, partner in steps), g


def test_jacobi_basis_replay_on_degenerate_grams():
    rng = random.Random(1896)
    grams = [
        ((0,),),
        ((0, 0), (0, 0)),
        direct_sum(make_lattice(U_GRAM), make_lattice(((0,),))).gram,
        ((2, 2), (2, 2)),
    ]
    for n in range(2, 9):
        for _ in range(6):
            # B^T A B with B of rank below n: a singular Gram
            k = rng.randrange(1, n)
            a = random_symmetric(rng, k, span=3)
            b = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(k))
            grams.append(la.mat_mul(la.mat_mul(la.transpose(b), a), b))
    for g in grams:
        steps = _check_replay(g)
        assert any(prow is None for _, prow, _, _ in steps), g


def test_jacobi_basis_replay_on_rank22_fixtures_in_a_random_basis():
    from lattact.catalog import fixture
    from lattact.group_actions import fundamental_data

    rng = random.Random(22)
    for name in ("k3_lattice", "d3_S", "d3_Sprime", "e8_swap"):
        act = fixture(name).action
        assert act.ambient.rank == 22
        f = fundamental_data(act)
        for g in (act.ambient.gram, f.fixed.gram(), f.rho.gram()):
            _check_replay(conjugate_gram(g, random_unimodular(rng, len(g), steps=10)))


@pytest.mark.parametrize("steps", [300, 1000])
def test_jacobi_basis_replay_on_rank22_fixtures_in_skewed_bases(steps):
    """The telescoped rescaling stays exact on the large entries of
    heavily skewed bases: the steps and replayed rows equal the
    reference's."""
    from lattact.catalog import fixture
    from lattact.group_actions import fundamental_data

    rng = random.Random(steps)
    for name in ("k3_lattice", "d3_S", "d3_Sprime", "e8_swap"):
        act = fixture(name).action
        f = fundamental_data(act)
        for g in (act.ambient.gram, f.fixed.gram(), f.rho.gram()):
            _check_replay(conjugate_gram(g, random_unimodular(rng, len(g), steps=steps)))


def _stale_additions(steps):
    """The pivots of the steps whose zero-block addition meets a row last
    updated at an earlier d. Read off the steps: at a pivot step, row i is
    updated exactly when the pivot row's entry i is nonzero (the active
    block is symmetric), and then to that step's pivot entry."""
    scale = {}
    out = []
    for piv, prow, d, partner in steps:
        if partner is not None and d not in (scale.get(piv, 1), scale.get(partner, 1)):
            out.append(piv)
        if prow is not None:
            scale.update((i, prow[piv]) for i, x in enumerate(prow) if x and i != piv)
    return out


def test_jacobi_replay_when_a_zero_block_addition_meets_a_stale_row():
    """A positive definite block B orthogonal to a zero-diagonal block Z,
    their rows in a random order: B's rows pivot first (the Schur
    complements of a definite block keep a nonzero diagonal) and skip Z's
    rows, so the addition that breaks Z meets rows still at d = 1 while
    d = det B is not 1. The elimination must bring them up to date first."""
    rng = random.Random(1969)
    grams = [
        direct_sum(make_lattice(((2,),)), make_lattice(U_GRAM)).gram,
        direct_sum(make_lattice(U_GRAM), standard_lattice("A2"), make_lattice(U_GRAM)).gram,
    ]
    for _ in range(40):
        k, z = rng.randint(1, 5), rng.randint(2, 5)
        diag = [[rng.randint(1, 4) if i == j else 0 for j in range(k)] for i in range(k)]
        diag[0][0] = 2
        b = conjugate_gram(la.freeze_mat(diag), random_unimodular(rng, k, steps=6))
        upper = [[rng.randint(-2, 2) if i < j else 0 for j in range(z)] for i in range(z)]
        upper[0][1] = rng.choice((-2, -1, 1, 2))
        zero = la.mat_add(upper, la.transpose(upper))
        g = helpers.block_diag(b, zero)
        order = rng.sample(range(k + z), k + z)
        grams.append(tuple(tuple(g[i][j] for j in order) for i in order))
    for g in grams:
        steps = _check_replay(g)
        assert _stale_additions(steps), g


# ---------------------------------------------------------------------------
# edge inputs of the lattice layer and the linalg guards


@pytest.mark.parametrize("spec", ["A0", "0U", "U(0)"])
def test_lattice_expressions_with_an_empty_or_zero_term_are_refused(spec):
    with pytest.raises(InputError):
        standard_lattice(spec)


def test_rank_zero_and_foreign_arguments():
    u = standard_lattice("U")
    zero = make_lattice(())
    assert str(signature(u)) == "(1,1,0)"
    empty = Sublattice(u, ())
    assert empty.to_ambient(()) == (0, 0) and empty.primitive
    assert primitive_hull(u, empty) == Sublattice(u, (), 1)
    assert discriminant_form(zero) == discriminant_form(standard_lattice("E8")) == DiscriminantForm((), (), (), ())
    assert enumerate_vectors(zero, -2) == ()
    with pytest.raises(InputError, match="expected a Sublattice"):
        orthogonal_complement(u, u)
    # a product of isometries of two lattices is checked on the first
    swap = Isometry(u, ((0, 1), (1, 0)))
    assert swap.compose(Isometry(standard_lattice("U(2)"), ((0, 1), (1, 0)))).matrix == la.identity(2)
    with pytest.raises(InputError):
        Isometry(u, ((1, 0), (0, 1))).compose(Isometry(standard_lattice("A1+A1"), ((-1, 0), (0, 1))))
    assert rank2_isomorphism_class(((-4,),)) == ((-4,),)
    with pytest.raises(ScopeError, match="rank must be <= 2"):
        rank2_isomorphism_class(standard_lattice("A3"))


@pytest.mark.parametrize("call", [
    lambda: la.mat_vec(((1, 2),), (1,)),
    lambda: la.inverse_int(((2,),)),
    lambda: la.primitive_vector((0, 0)),
    lambda: la.cyclotomic(0),
    lambda: la.matrix_group_closure([]),
    lambda: la.divisors_signed(0),
], ids=["mat_vec-shape", "inverse_int-singular", "primitive_vector-zero", "cyclotomic-0",
        "closure-no-generators", "divisors-of-0"])
def test_linalg_guards_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_linalg_on_empty_and_degenerate_arguments():
    assert la.kernel_int(()) == () and la.saturate_rows(()) == ()
    assert la.restrict_to_span(la.identity(2), ()) == ()
    assert la.coords_in_rows((0, 0), ()) == () and la.coords_in_rows((1, 0), ()) is None
    assert not la.is_perfect_square(-4) and la.is_perfect_square(9)
    # the Smith form stops at the zero block of a singular matrix
    d, v = la.snf(((2, 4), (1, 2)))
    assert d == ((1, 0), (0, 0)) and la.mat_mul(((2, 4), (1, 2)), v)[0][1] == 0


def test_split_form_solutions_are_kept_per_square(monkeypatch):
    # a rank-2 split form keeps its divisor solutions as a definite
    # lattice keeps its searches, and up_to_sign filters the kept ones
    from lattact import lattice

    solves = count_calls(monkeypatch, lattice, "_binary_split_solutions")
    l = make_lattice(((2, 3), (3, 0)))  # 2x(x + 3y)
    eights = enumerate_vectors(l, 8)
    assert len(eights) == 6 and all(la.sq(l.gram, v) == 8 for v in eights)
    assert enumerate_vectors(l, 8) is eights
    assert enumerate_vectors(l, 8, up_to_sign=True) == tuple(v for v in eights if next(filter(None, v)) > 0)
    assert len(solves) == 1 and set(vars(l)["_vectors"]) == {8}
