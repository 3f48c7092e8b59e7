"""The row-wise product in la.mat_mul against the dense formula, and the
determinant, signature and vector enumeration a Lattice reads off its one
Jacobi elimination against independent oracles."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod
from operator import mul

import pytest

from lattact import linalg as la
from lattact.lattice import Lattice, Signature, enumerate_vectors, signature, standard_lattice

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
