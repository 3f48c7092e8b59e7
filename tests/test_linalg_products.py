"""The row-wise products in la.mat_mul and la.mul_nonzeros against the
dense formula, and the library's products that read a reused factor once
(the transposed group closure, the isometry check, a Sublattice's Gram,
Horner steps) against the forms they replaced; the determinant, signature
and vector enumeration a Lattice reads off its one Jacobi elimination
against independent oracles."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod
from operator import mul

import pytest

from lattact import linalg as la
from lattact.lattice import Lattice, Signature, enumerate_vectors, signature, standard_lattice

import helpers
from helpers import count_calls, random_symmetric


def _dense(a, b):
    return tuple(tuple(sum(map(mul, r, c)) for c in zip(*b)) for r in a)


def _random_mat(rng, m, n, kind):
    if kind == "monomial":
        # a signed permutation, padded with zero rows or columns when not square
        cols = rng.sample(range(n), min(m, n))
        return tuple(
            tuple(rng.choice((1, -1)) if i < len(cols) and j == cols[i] else 0 for j in range(n))
            for i in range(m)
        )
    if kind == "sparse":
        return tuple(
            tuple(rng.randint(-3, 3) if rng.random() < 0.15 else 0 for _ in range(n))
            for _ in range(m)
        )
    return tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m))


def _as_fractions(rng, a):
    return tuple(tuple(Fraction(x, rng.randint(1, 4)) for x in row) for row in a)


def test_mat_mul_equals_the_dense_product_on_seeded_matrices():
    rng = random.Random(20261018)
    kinds = ("dense", "monomial", "sparse")
    fraction_cases = 0
    for case in range(500):
        # shapes include m x 0 times 0 x n and 0 x k times k x n
        m, k, n = (rng.randint(0, 7) for _ in range(3))
        a = _random_mat(rng, m, k, rng.choice(kinds))
        b = _random_mat(rng, k, n, rng.choice(kinds))
        a_fractions, b_fractions = case % 5 in (1, 3), case % 5 in (2, 3)
        if a_fractions:
            a = _as_fractions(rng, a)
        if b_fractions:
            b = _as_fractions(rng, b)
        got, want = la.mat_mul(a, b), _dense(a, b)
        assert got == want, (a, b)
        # the read-once form makes the same entries, of the same types
        assert repr(la.mul_nonzeros(la.nonzeros(a), b)) == repr(got), (a, b)
        if not (a_fractions or b_fractions):
            assert repr(got) == repr(want), (a, b)
        else:
            fraction_cases += 1
            # with Fraction factors a sum of zero terms is Fraction(0) in
            # the dense formula and the int 0 here; nothing else may differ
            assert all(
                repr(x) == repr(y) or x == y == 0
                for grow, wrow in zip(got, want)
                for x, y in zip(grow, wrow)
            ), (a, b)
    assert fraction_cases == 300


def test_mat_mul_keeps_its_shape_check():
    with pytest.raises(ValueError, match="shape mismatch in mat_mul"):
        la.mat_mul(((1, 2),), ((1, 2),))
    assert la.mat_mul((), ((1, 2),)) == ()
    assert la.mat_mul(((), ()), ()) == ((), ())
    assert la.mat_mul(((1,), (2,)), ((),)) == ((), ())


def _signed_permutation(rng, n, support):
    """A random signed permutation matrix of rank n moving at most
    `support` coordinates: a small finite order, so a few of them often
    generate a group within a closure bound."""
    moved = rng.sample(range(n), min(support, n))
    image = list(range(n))
    for i, j in zip(moved, rng.sample(moved, len(moved))):
        image[i] = j
    signs = [rng.choice((1, -1)) if i in moved else 1 for i in range(n)]
    return tuple(tuple(signs[i] if j == image[i] else 0 for j in range(n)) for i in range(n))


def _closure_or_error(closure, gens, n, bound):
    try:
        return closure(gens, n, bound)
    except ValueError as err:
        return str(err)


def test_group_closure_equals_the_untransposed_closure():
    """Elements, their order, the table and the bound's ValueError equal
    those of the closure that multiplies by mat_mul(element, generator),
    on signed permutation groups in random unimodular bases."""
    from lattact.catalog import FIXTURE_NAMES, fixture

    rng = random.Random(20261019)
    outcomes = {"closed": 0, "bound": 0}
    for n in (0, 1, 2, 6, 22):
        for _ in range(12):
            gens = [_signed_permutation(rng, n, rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
            if n:
                p = helpers.random_unimodular(rng, n)
                p_inv = la.inverse_int(p)
                gens = [la.mat_mul(la.mat_mul(p, g), p_inv) for g in gens]
            bound = rng.choice((4, 16, 256))
            want = _closure_or_error(helpers.group_closure_reference, gens, n, bound)
            assert _closure_or_error(la.group_closure, gens, n, bound) == want, (gens, bound)
            outcomes["bound" if isinstance(want, str) else "closed"] += 1
    assert min(outcomes.values()) >= 10, outcomes
    for name in FIXTURE_NAMES:
        action = fixture(name).action
        gens = [iso.matrix for _, iso, _ in action.generators]
        want = helpers.group_closure_reference(gens, action.ambient.rank)
        assert la.group_closure(gens, action.ambient.rank) == want, name
        # the one-generator closure behind conjugation_obstruction
        for g in gens:
            assert la.group_closure([g], action.ambient.rank, 60) == helpers.group_closure_reference(
                [g], action.ambient.rank, 60)


def test_isometry_check_equals_the_untransposed_product():
    """_isometry_error's verdict matches m^T G m = G formed by two
    mat_mul, on isometries and on one-entry perturbations of them, and
    on a degenerate Gram, where a matrix of det 2 can keep G."""
    from lattact.catalog import FIXTURE_NAMES, fixture
    from lattact.lattice import Lattice, _isometry_error

    def verdict(l, m):
        keeps = helpers.isometry_product_reference(m, l.gram) == l.gram
        return None if keeps and (l.nondegenerate or la.det(m) in (1, -1)) else (
            "matrix does not preserve the Gram matrix")

    rng = random.Random(19)
    cases = []
    for name in FIXTURE_NAMES:
        action = fixture(name).action
        elements = la.group_closure([iso.matrix for _, iso, _ in action.generators], action.ambient.rank)[0]
        cases.extend((action.ambient, m) for m in elements[:8])
    for n in (1, 2, 4, 6):
        p = helpers.random_unimodular(rng, n)
        p_inv = la.inverse_int(p)
        l = Lattice(helpers.conjugate_gram(helpers.random_even_symmetric(rng, n), p))
        for _ in range(4):
            # a signed permutation of the original basis is an isometry
            # exactly when it keeps that basis's Gram; both kinds occur
            m = la.mat_mul(la.mat_mul(p_inv, _signed_permutation(rng, n, 2)), p)
            cases.append((l, m))
    rejected = 0
    for l, m in cases:
        i, j = rng.randrange(l.rank), rng.randrange(l.rank)
        changed = [list(row) for row in m]
        changed[i][j] += rng.choice((1, -1))
        for mat in (m, la.freeze_mat(changed)):
            got = _isometry_error(l, mat)
            assert got == verdict(l, mat), (l.gram, mat)
            rejected += got is not None
    assert len(cases) - 8 < rejected < 2 * len(cases)
    # degenerate, radical spanned by e_0: any multiple of e_0 may be added
    # to an image, and e_0 may go to any multiple of itself, so matrices of
    # det 2 keep G too
    degenerate = Lattice(((0, 0, 0), (0, 2, 1), (0, 1, -2)))
    for m, ok in ((((1, 0, 0), (0, 1, 0), (0, 0, 1)), True), (((-1, 3, -2), (0, 1, 0), (0, 0, 1)), True),
                  (((2, 0, 0), (0, 1, 0), (0, 0, 1)), False), (((2, 5, 1), (0, 1, 0), (0, 0, 1)), False),
                  (((1, 0, 0), (0, 0, 1), (0, 1, 0)), False)):
        got = _isometry_error(degenerate, m)
        assert got == verdict(degenerate, m) and (got is None) == ok, m


def test_sublattice_gram_equals_the_untransposed_product():
    from lattact.lattice import Lattice, Sublattice

    rng = random.Random(23)
    for case in range(200):
        n = rng.randint(1, 7)
        l = Lattice(helpers.random_even_symmetric(rng, n))
        rows = _random_mat(rng, rng.randint(1, n), n, ("dense", "monomial", "sparse")[case % 3])
        s = Sublattice(l, rows)
        if s.basis == la.identity(n):
            continue
        assert repr(s.gram()) == repr(helpers.sublattice_gram_reference(s.basis, l.gram)), (l.gram, rows)


def test_poly_mat_equals_the_untransposed_horner_steps():
    rng = random.Random(29)
    kinds = ("dense", "monomial", "sparse")
    for case in range(300):
        n = rng.randint(0, 6)
        a = _random_mat(rng, n, n, kinds[case % 3])
        coeffs = la.cyclotomic(rng.randint(1, 12)) if case % 2 else tuple(
            rng.randint(-4, 4) for _ in range(rng.randint(0, 5)))
        assert repr(la.poly_mat(coeffs, a)) == repr(helpers.poly_mat_reference(coeffs, a)), (coeffs, a)


def _leibniz_det(g):
    n = len(g)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(g[i][p[i]] for i in range(n))
    return total


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _descartes_inertia(g):
    """Inertia from the characteristic polynomial: its roots are real, so
    Descartes' rule counts the positive and negative ones exactly."""
    coeffs = la.char_poly(g)
    null = next(i for i, c in enumerate(coeffs) if c)
    q = coeffs[null:]
    return Signature(
        _sign_changes(q), _sign_changes([c * (-1) ** i for i, c in enumerate(q)]), null
    )


def _seeded_grams():
    rng = random.Random(7)
    for case in range(300):
        n = rng.randint(0, 6)
        if case % 3 == 0:
            yield random_symmetric(rng, n)
        elif case % 3 == 1:
            # M . D . M^T with D possibly singular: degenerate and indefinite
            r = rng.randint(1, max(n, 1))
            m = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
            d = [rng.choice((-2, -1, 0, 1, 2)) for _ in range(r)]
            yield tuple(
                tuple(sum(m[i][t] * d[t] * m[j][t] for t in range(r)) for j in range(n))
                for i in range(n)
            )
        else:
            # zero diagonal: the elimination must break a zero block
            g = [list(row) for row in random_symmetric(rng, n)]
            for i in range(n):
                g[i][i] = 0
            yield la.freeze_mat(g)


def test_det_and_signature_from_the_cached_elimination_match_oracles():
    degenerate = 0
    for g in _seeded_grams():
        l = Lattice(g)
        assert l.det() == la.det(g) == _leibniz_det(g), g
        assert signature(l) == _descartes_inertia(g), g
        degenerate += l.det() == 0
    assert degenerate > 30


def test_one_elimination_per_lattice_for_det_and_signature(monkeypatch):
    eliminations = count_calls(monkeypatch, la, "_jacobi_elimination")
    dets = count_calls(monkeypatch, la, "det")
    gram = ((2, 1, 0), (1, -2, 3), (0, 3, 0))
    l = Lattice(gram)
    first = (signature(l), l.det())
    assert (signature(l), l.det(), l.nondegenerate) == first + (True,)
    assert len(eliminations) == 1 and dets == []
    # a second object with an equal Gram runs its own
    signature(Lattice(gram))
    assert len(eliminations) == 2


@pytest.mark.parametrize("spec, counts", [("E8", (240, 2160)), ("D4", (24, 24)), ("A2", (6, 0))])
def test_enumerate_vectors_reads_the_lattice_elimination(monkeypatch, spec, counts):
    # root-lattice counts of square 2 and 4 (theta series), for the negative
    # definite standard form and for its positive twin: one elimination each
    eliminations = count_calls(monkeypatch, la, "_jacobi_elimination")
    negative = standard_lattice(spec)
    positive = Lattice(la.mat_scale(-1, negative.gram))
    for l, sign in ((negative, -1), (positive, 1)):
        found = tuple(len(enumerate_vectors(l, sign * a)) for a in (2, 4))
        assert found == counts
        assert len(enumerate_vectors(l, sign * 4, up_to_sign=True)) == counts[1] // 2
    assert len(eliminations) == 2
