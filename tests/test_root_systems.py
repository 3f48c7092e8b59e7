import random
from fractions import Fraction
from math import prod

import pytest

from lattact import linalg as la
from lattact._record import fields
from lattact.errors import InputError, VerificationError
from lattact.lattice import (
    Isometry,
    Sublattice,
    full_sublattice,
    make_lattice,
    standard_lattice,
    sublattice_from_rows,
)
from lattact.root_systems import (
    Camera,
    FoldResult,
    RootSystem,
    WeylWord,
    ade_decompose,
    camera_decompose,
    classify_admissible_b_transitive,
    fold_reflection,
    fundamental_camera,
    is_admissible,
    reflection,
    roots_of,
    to_fundamental_chamber,
)

import helpers
from helpers import GLUED_8A1, conjugate_gram, positive_and_simple_by_span_coords, random_unimodular


A2 = standard_lattice("A2")
SWAP2 = ((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# roots_of / ade_decompose


def test_roots_of_a2():
    r = roots_of(A2)
    assert len(r.roots) == 6
    assert r.components == (("A", 2),)
    assert len(r.simple_roots) == 2
    assert len(r.positive_roots) == 3


def test_roots_of_e8():
    r = roots_of(standard_lattice("E8"))
    assert len(r.roots) == 240
    assert r.components == (("E", 8),)
    assert len(r.positive_roots) == 120


def test_roots_of_rootless():
    r = roots_of(standard_lattice("diag(-4)"))
    assert r.roots == ()
    assert r.components == ()
    # a rootless lattice or sublattice of positive rank: the empty system
    # on the zero span of its ambient
    a2 = standard_lattice("A2")
    for s, ambient in ((r.ambient, r.ambient), (Sublattice(a2, ((2, 0),)), a2)):
        empty = roots_of(s)
        assert empty.span == Sublattice(ambient, ()) and empty.span.index is None
        assert (empty.roots, empty.positive_roots, empty.simple_roots, empty.components) == ((), (), (), ())


@pytest.mark.parametrize("source", [
    standard_lattice("D4+A1"),
    sublattice_from_rows(standard_lattice("A2+A1"), ((1, 0, 0), (0, 1, 0))),
    make_lattice(()),
    standard_lattice("diag(-4)"),
    Sublattice(A2, ((2, 0),)),
], ids=["lattice", "proper-sublattice", "rank-0", "rootless", "rootless-sublattice"])
def test_the_derived_facts_are_set_when_a_system_is_built(source):
    # roots_of sets the diagram, the roots' simple coordinates and their
    # component split with the fields; a system built from the same fields
    # carries the same values, and ade_decompose reads the components
    r = roots_of(source)
    derived = ("_diagram", "_root_coords", "component_roots")
    assert all(name in vars(r) for name in derived)
    built = RootSystem(*(getattr(r, name) for name in fields(RootSystem)))
    assert [vars(built)[name] for name in derived] == [vars(r)[name] for name in derived]
    assert ade_decompose(r) == ade_decompose(built) == r.components
    assert len(r.component_roots) == len(r.components)


def test_roots_of_rejects_indefinite():
    with pytest.raises(InputError):
        roots_of(standard_lattice("U"))


def test_roots_of_sublattice():
    l = standard_lattice("diag(-2,-4)")
    r = roots_of(full_sublattice(l))
    assert r.roots == ((-1, 0), (1, 0))
    assert r.components == (("A", 1),)


def test_roots_of_span_coordinates_past_nine():
    # 2A1 in the basis a1, 10 a1 - a2: the positive roots must not depend
    # on span coordinates staying below 10
    r = roots_of(make_lattice(((-2, -20), (-20, -202))))
    assert len(r.roots) == 4
    assert len(r.positive_roots) == 2
    assert r.components == (("A", 1), ("A", 1))


def test_ade_decompose_block_sum():
    r = roots_of(standard_lattice("A2+A1"))
    assert ade_decompose(r) == (("A", 1), ("A", 2))
    assert r.components == (("A", 1), ("A", 2))


def test_ade_decompose_series():
    for name, want in [
        ("A3", (("A", 3),)),
        ("A5", (("A", 5),)),
        ("D4", (("D", 4),)),
        ("D5", (("D", 5),)),
        ("D6", (("D", 6),)),
        ("E6", (("E", 6),)),
        ("E7", (("E", 7),)),
        ("E8", (("E", 8),)),
        ("D4+A1", (("A", 1), ("D", 4))),
        ("A2+2A1", (("A", 1), ("A", 1), ("A", 2))),
    ]:
        assert roots_of(standard_lattice(name)).components == want, name
    # every irreducible type up to rank 8 comes out as itself, from the
    # lattice and from ade_decompose
    for letter, ranks in (("A", range(1, 9)), ("D", range(4, 9)), ("E", range(6, 9))):
        for n in ranks:
            r = roots_of(standard_lattice(f"{letter}{n}"))
            assert r.components == ade_decompose(r) == ((letter, n),), (letter, n)


def test_ade_decompose_empty():
    assert ade_decompose(roots_of(standard_lattice("diag(-4)"))) == ()


def test_root_counts_match_type():
    # number of roots for the classical series
    for name, count in [("A1", 2), ("A2", 6), ("A3", 12), ("D4", 24), ("E6", 72), ("E7", 126)]:
        assert len(roots_of(standard_lattice(name)).roots) == count, name


# ---------------------------------------------------------------------------
# reflection


def test_reflection_a1():
    l = standard_lattice("A1")
    s = reflection(l, (1,))
    assert s.matrix == ((-1,),)


def test_reflection_swaps_u_basis():
    l = standard_lattice("U")
    s = reflection(l, (1, -1))
    assert la.mat_vec(s.matrix, (1, 0)) == (0, 1)
    assert la.mat_vec(s.matrix, (0, 1)) == (1, 0)


def test_reflection_e8_roots_are_isometries():
    l = standard_lattice("E8")
    r = roots_of(l)
    for v in r.roots[:40]:
        s = reflection(l, v)
        assert la.mat_vec(s.matrix, v) == tuple(-x for x in v)
        assert la.mat_mul(s.matrix, s.matrix) == la.identity(8)


def test_reflection_rejects_isotropic_and_nonintegral():
    with pytest.raises(InputError):
        reflection(standard_lattice("U"), (1, 0))
    with pytest.raises(InputError):
        reflection(standard_lattice("diag(-2,-6)"), (1, 1))


def test_reflection_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(InputError):
        reflection(standard_lattice("A2"), (1,))


@pytest.mark.parametrize("v", [(1.0, 0.0), (1.5, 2.0), ("a", "b"), [[1, 2], [3]], (True, 0), 7, None])
def test_reflection_refuses_a_vector_that_is_not_rational(v):
    # floats, strings, bools, ragged rows and scalars end in InputError at
    # the rational check, before any arithmetic reads them
    with pytest.raises(InputError):
        reflection(standard_lattice("A2"), v)


def _reflection_by_fractions(l, v):
    """x -> x - (2(x.v)/v^2) v, column by column in rational arithmetic."""
    n = l.rank
    vv = l.sq(v)
    cols = []
    for j in range(n):
        e = tuple(1 if k == j else 0 for k in range(n))
        coef = Fraction(2 * l.dot(e, v), vv)
        cols.append(tuple(e[k] - coef * v[k] for k in range(n)))
    return la.transpose(cols)


def test_reflection_matches_fraction_formula_on_every_root():
    for spec in ("A2", "D4", "E8"):
        l = standard_lattice(spec)
        for v in roots_of(l).roots:
            assert reflection(l, v).matrix == _reflection_by_fractions(l, v)


def test_reflection_in_a_multiple_is_the_same_reflection():
    # 2(Gv)/v^2 is not integral for v = (2, 2), yet the reflection is
    l = standard_lattice("diag(-2,-2)")
    expected = _reflection_by_fractions(l, (2, 2))
    assert la.int_rows(expected) is not None
    for v in ((2, 2), (1, 1), (-3, -3), (Fraction(1, 2), Fraction(1, 2))):
        assert reflection(l, v).matrix == expected


def test_reflection_nonintegral_in_a_random_basis():
    rng = random.Random(2207)
    base = standard_lattice("A2+diag(-4)")
    b = random_unimodular(rng, 3)
    l = make_lattice(la.mat_mul(la.mat_mul(la.transpose(b), base.gram), b))
    b_inv = la.inverse_int(b)
    root = la.mat_vec(b_inv, (1, 0, 0))
    assert reflection(l, root).matrix == _reflection_by_fractions(l, root)
    # (1, 0, 1) in the standard basis has square -6 and 2(Gv) = (-4, 2, -8)
    bad = la.mat_vec(b_inv, (1, 0, 1))
    assert la.int_rows(_reflection_by_fractions(l, bad)) is None
    with pytest.raises(InputError):
        reflection(l, bad)


# ---------------------------------------------------------------------------
# cameras and the chamber walk


def test_fundamental_camera_interior():
    rng = random.Random(2718)
    for name in ("A2", "D4", "E8"):
        base = standard_lattice(name)
        b = random_unimodular(rng, base.rank, 6)
        l = make_lattice(la.mat_mul(la.mat_mul(b, base.gram), la.transpose(b)))
        r = roots_of(l)
        c = fundamental_camera(r)
        assert all(type(x) is int for x in c.witness)
        for w in c.walls:
            assert la.dot(l.gram, c.witness, w) > 0
        for root in r.roots:
            assert la.dot(l.gram, c.witness, root) != 0


def test_camera_rejects_mirror_witness():
    r = roots_of(A2)
    with pytest.raises(InputError):
        Camera(r, r.simple_roots, (Fraction(1), Fraction(0)))


def test_wrong_length_witness_and_target_raise_input_error():
    r = roots_of(A2)
    c = fundamental_camera(r)
    with pytest.raises(InputError):
        Camera(r, r.simple_roots, (1, 2, 3))
    with pytest.raises(InputError):
        to_fundamental_chamber(r, c, (1, 2, 3))



def test_non_rational_witness_and_target_raise_input_error():
    # the no-floats contract: a float, string or bool entry, or no vector
    # at all, is refused with an InputError, never carried along or left
    # to an AttributeError or TypeError
    r = roots_of(A2)
    c = fundamental_camera(r)
    assert c.witness == (-3, -3)
    for bad in ((-3.0, -3.0), ("a", "b"), (True, True), None, -3):
        with pytest.raises(InputError, match="rational"):
            Camera(r, c.walls, bad)
    for bad in ((1.0, 2.0), ("a", "b"), (1.0, Fraction(2)), (True, False), None, 1):
        with pytest.raises(InputError, match="rational"):
            to_fundamental_chamber(r, c, bad)
    # rational entries still walk
    assert Camera(r, c.walls, (Fraction(-1, 2), Fraction(-1, 2))).witness == (Fraction(-1, 2),) * 2
    w = to_fundamental_chamber(r, c, (Fraction(3, 2), Fraction(3, 2)))
    assert w == to_fundamental_chamber(r, c, (3, 3))

def test_walk_a1():
    l = standard_lattice("A1")
    r = roots_of(l)
    c = fundamental_camera(r)
    w = to_fundamental_chamber(r, c, (Fraction(1),))
    assert len(w.word) == 1


def test_walk_already_inside():
    r = roots_of(A2)
    c = fundamental_camera(r)
    w = to_fundamental_chamber(r, c, c.witness)
    assert w.word == ()
    assert w.isometry.matrix == la.identity(2)


def test_walk_longest_element():
    r = roots_of(A2)
    c = fundamental_camera(r)
    target = tuple(-x for x in c.witness)
    w = to_fundamental_chamber(r, c, target)
    assert len(w.word) == 3
    moved = la.mat_vec(w.isometry.matrix, target)
    for wall in c.walls:
        assert la.dot(A2.gram, moved, wall) > 0


def test_walk_rejects_mirror_target():
    r = roots_of(A2)
    c = fundamental_camera(r)
    # (1,2) pairs to zero with the root (1,0)
    assert la.dot(A2.gram, (1, 2), (1, 0)) == 0
    with pytest.raises(InputError):
        to_fundamental_chamber(r, c, (1, 2))


def test_walk_random_targets_land_inside():
    rng = random.Random(808)
    l = standard_lattice("A3")
    r = roots_of(l)
    c = fundamental_camera(r)
    bound = len(r.positive_roots)
    checked = 0
    while checked < 300:
        y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3))
        if any(la.dot(l.gram, y, root) == 0 for root in r.roots):
            continue
        w = to_fundamental_chamber(r, c, y)
        assert len(w.word) <= bound
        moved = la.mat_vec(w.isometry.matrix, y)
        for wall in c.walls:
            assert la.dot(l.gram, moved, wall) > 0
        # the word's isometry maps roots onto roots
        root_set = set(r.roots)
        assert all(tuple(la.mat_vec(w.isometry.matrix, v)) in root_set for v in r.roots)
        checked += 1


# ---------------------------------------------------------------------------
# camera decomposition


def _weyl_group(r):
    gens = [reflection(r.ambient, v).matrix for v in r.simple_roots]
    return la.matrix_group_closure(gens)


def test_camera_decompose_minus_id_on_a2():
    r = roots_of(A2)
    c = fundamental_camera(r)
    minus = ((-1, 0), (0, -1))
    s, w = camera_decompose(r, c, minus)
    assert len(w.word) == 3
    assert s.matrix != la.identity(2)
    assert la.mat_mul(s.matrix, s.matrix) == la.identity(2)
    # s flips the two walls
    assert tuple(la.mat_vec(s.matrix, c.walls[0])) == c.walls[1]
    assert la.mat_mul(s.matrix, w.isometry.matrix) == minus


def test_camera_decompose_weyl_elements_have_trivial_s():
    r = roots_of(A2)
    c = fundamental_camera(r)
    for m in _weyl_group(r):
        s, w = camera_decompose(r, c, m)
        assert s.matrix == la.identity(2)
        assert w.isometry.matrix == m


def test_camera_decompose_component_swap():
    l = standard_lattice("2A1")
    r = roots_of(l)
    c = fundamental_camera(r)
    s, w = camera_decompose(r, c, SWAP2)
    assert s.matrix == SWAP2
    assert w.word == ()


def test_camera_decompose_rejects_non_preserving():
    r = roots_of(A2)
    c = fundamental_camera(r)
    with pytest.raises(InputError):
        camera_decompose(r, c, ((1, 1), (0, 1)))


def test_camera_decompose_verifies_a_raw_matrix():
    # (1,1),(0,1) fixes +-(1,0), the only roots of diag(-2,2), but is no isometry
    l = make_lattice(((-2, 0), (0, 2)))
    r = roots_of(sublattice_from_rows(l, ((1, 0),)))
    c = fundamental_camera(r)
    g = ((1, 1), (0, 1))
    assert {tuple(la.mat_vec(g, v)) for v in r.roots} == set(r.roots)
    with pytest.raises(InputError):
        camera_decompose(r, c, g)


def test_camera_decompose_verifies_only_raw_matrices(monkeypatch):
    from helpers import count_calls
    from lattact import lattice

    l = standard_lattice("A3")
    r = roots_of(l)
    c = fundamental_camera(r)
    g = Isometry(l, la.mat_scale(-1, la.identity(3)))
    # the isometry check that Isometry and is_isometry share
    calls = count_calls(monkeypatch, lattice, "_isometry_error")
    s, w = camera_decompose(r, c, g)
    assert calls == []
    assert la.mat_mul(s.matrix, w.isometry.matrix) == g.matrix
    assert camera_decompose(r, c, g.matrix) == (s, w)
    assert len(calls) == 1


def test_camera_decompose_unique_on_small_systems():
    for name, extra in [("A2", ((-1, 0), (0, -1))), ("A3", None)]:
        l = standard_lattice(name)
        r = roots_of(l)
        c = fundamental_camera(r)
        wset = set(_weyl_group(r))
        outer = [la.identity(l.rank)]
        if extra is not None:
            outer.append(extra)
        # diagram flip for A3: reverse the simple roots along the path
        if name == "A3":
            simple = r.simple_roots
            k = len(simple)
            adj = [
                [l.dot(simple[i], simple[j]) == 1 for j in range(k)] for i in range(k)
            ]
            deg = [sum(row) for row in adj]
            path = [deg.index(1)]
            while len(path) < k:
                nxt = [
                    j for j in range(k) if adj[path[-1]][j] and j not in path
                ]
                path.append(nxt[0])
            target = {path[i]: path[k - 1 - i] for i in range(k)}
            cols = la.transpose(la.freeze_mat(simple))
            perm = tuple(
                tuple(1 if i == target[j] else 0 for j in range(k)) for i in range(k)
            )
            m = la.mat_mul(cols, la.mat_mul(perm, helpers.inverse(cols)))
            outer.append(la.int_rows(m))
        count = 0
        for base in outer:
            for m in wset:
                g = la.mat_mul(base, m)
                s, w = camera_decompose(r, c, g)
                assert la.mat_mul(s.matrix, w.isometry.matrix) == g
                assert w.isometry.matrix in wset
                # uniqueness: only one Weyl factor puts g back in the camera stabilizer
                matches = 0
                for m2 in wset:
                    cand = la.mat_mul(g, la.inverse_int(m2))
                    img = {
                        tuple(la.mat_vec(cand, wall)) for wall in c.walls
                    }
                    if img == set(c.walls):
                        matches += 1
                assert matches == 1
                count += 1
        assert count == len(outer) * len(wset)


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_a2_swap():
    r = roots_of(A2)
    ok, witness = is_admissible(r, (SWAP2,))
    assert ok
    # witness is swap-invariant and off every mirror
    assert la.mat_vec(SWAP2, witness) == tuple(witness)
    for root in r.roots:
        assert la.dot(A2.gram, witness, root) != 0


def test_not_admissible_minus_id_on_a1():
    l = standard_lattice("A1")
    r = roots_of(l)
    ok, witness = is_admissible(r, (((-1,),),))
    assert not ok
    assert witness == (1,)


def test_admissible_trivial_action():
    r = roots_of(standard_lattice("D4"))
    ok, witness = is_admissible(r, ())
    assert ok
    for root in r.roots:
        assert la.dot(standard_lattice("D4").gram, witness, root) != 0


def test_admissible_rejects_non_preserving():
    r = roots_of(A2)
    with pytest.raises(InputError):
        is_admissible(r, (((1, 1), (0, 1)),))


def test_not_admissible_reflected_swap_on_a2():
    # u -> -v, v -> -u fixes span(u-v); u+v is an orthogonal root
    r = roots_of(A2)
    g = ((0, -1), (-1, 0))
    ok, witness = is_admissible(r, (g,))
    assert not ok
    assert witness == (1, 1)


# ---------------------------------------------------------------------------
# classification sweep


def test_classify_rank_four():
    got = classify_admissible_b_transitive(4)
    assert got == (("A1", "trivial"), ("A2", "Z2-swap"))


def test_classify_rank_one():
    assert classify_admissible_b_transitive(1) == (("A1", "trivial"),)


def test_classify_rank_six_unchanged():
    got = classify_admissible_b_transitive(6)
    assert got == (("A1", "trivial"), ("A2", "Z2-swap"))


def test_classify_rejects_a_bool_rank():
    with pytest.raises(InputError):
        classify_admissible_b_transitive(True)


def test_classify_rejects_bad_rank():
    with pytest.raises(InputError):
        classify_admissible_b_transitive(0)
    with pytest.raises(InputError):
        classify_admissible_b_transitive(7)


# ---------------------------------------------------------------------------
# simple coordinates and components


def _connected_by_pairing(r):
    """Components of the graph on the roots joining two non-orthogonal
    roots, by search from each unvisited root."""
    left = set(r.roots)
    out = []
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            u = stack.pop()
            near = {v for v in left if r.ambient.dot(u, v) != 0}
            left -= near
            comp |= near
            stack.extend(near)
        out.append(frozenset(comp))
    return tuple(sorted(out, key=sorted))


@pytest.mark.parametrize("spec", ["A1", "A2+A1", "3A1", "D4+A2", "E6", "A3+A3", "D5+2A1"])
def test_component_roots_match_pairing_connectivity(spec):
    r = roots_of(standard_lattice(spec))
    comps = r.component_roots
    assert comps == _connected_by_pairing(r)
    assert len(comps) == len(r.components)
    assert set().union(*comps) == set(r.roots)


def test_simple_coords_rebuild_every_root():
    r = roots_of(standard_lattice("D4"))
    coords = r.simple_coords(r.roots)
    for v, c in zip(r.roots, coords):
        assert c is not None and all(isinstance(x, int) for x in c)
        assert tuple(sum(x * s[k] for x, s in zip(c, r.simple_roots)) for k in range(4)) == v


def test_simple_coords_square_case_on_glued_8a1():
    # rank = ambient rank: the glue vector is refused, its double solved
    l = make_lattice(GLUED_8A1)
    r = roots_of(l)
    assert r.rank == l.rank == 8
    glue, doubled = (0,) * 7 + (1,), (0,) * 7 + (2,)
    *coords, glue_c, doubled_c = r.simple_coords(r.roots + (glue, doubled))
    assert glue_c is None
    assert sorted(map(abs, doubled_c)) == [1] * 8
    for v, c in zip(r.roots + (doubled,), coords + [doubled_c]):
        assert tuple(sum(x * s[k] for x, s in zip(c, r.simple_roots)) for k in range(8)) == v


def test_positivity_matches_span_coordinates_on_a_proper_root_span():
    # the roots of 8A1 + glue (in several bases) and of Z^3(-1) (the A3 of
    # vectors with even coordinate sum) span index-2 sublattices: the pivot
    # block T of the span's HNF basis has determinant 2, and for Z^3(-1) it
    # is not diagonal, so the raw pivot entries of (-1, -1, 0), c T with
    # span coordinates c = (-1, -1, 1), would call a positive root negative
    rng = random.Random(8)
    lattices = [make_lattice(conjugate_gram(GLUED_8A1, b))
                for b in [la.identity(8)] + [random_unimodular(rng, 8, steps=6) for _ in range(3)]]
    z3 = standard_lattice("diag(-1,-1,-1)")
    for l in lattices + [z3]:
        r = roots_of(l)
        pivots = [next(x for x in row if x) for row in r.span.basis]
        assert len(r.roots) == (16 if l.rank == 8 else 12) and prod(pivots) == 2
        assert (r.positive_roots, r.simple_roots) == positive_and_simple_by_span_coords(r)
        helpers.assert_walk_coords_match_the_solve(r)
    assert roots_of(z3).span.basis == ((1, 0, 1), (0, 1, 1), (0, 0, 2))
    assert (-1, -1, 0) in roots_of(z3).positive_roots


@pytest.mark.parametrize("spec", [
    *(f"A{n}" for n in range(1, 9)), *(f"D{n}" for n in range(4, 9)), "E6", "E7", "E8",
    "A2+A1", "A3+A3", "D4+A2", "A2+A2+A2", "E6+A2", "D4+D4",
])
def test_walk_coords_match_the_cartan_solve(spec):
    # the standard ADE lattices up to rank 8 and the sums of the benchmark's
    # vector items, each in three random bases
    g = standard_lattice(spec).gram
    rng = random.Random(spec)
    for _ in range(3):
        r = roots_of(make_lattice(conjugate_gram(g, random_unimodular(rng, len(g), steps=8))))
        helpers.assert_walk_coords_match_the_solve(r)


def test_simple_coords_none_outside_the_root_span():
    l = standard_lattice("A2+A1")
    r = roots_of(sublattice_from_rows(l, ((1, 0, 0), (0, 1, 0))))
    assert r.components == (("A", 2),)
    outside, root = r.simple_coords(((0, 0, 1), (1, 1, 0)))
    assert outside is None  # S G v = 0, so the zero coordinates fail to rebuild v
    assert root is not None


# ---------------------------------------------------------------------------
# folding


def test_fold_a2_swap():
    res = fold_reflection(A2, (SWAP2,), (1, 0))
    assert res.folded
    assert res.weyl.matrix == ((0, -1), (-1, 0))
    # commutes with the action and negates the fixed line
    assert la.mat_mul(res.weyl.matrix, SWAP2) == la.mat_mul(SWAP2, res.weyl.matrix)
    assert la.mat_vec(res.weyl.matrix, (1, 1)) == (-1, -1)


def test_fold_trivial_a1():
    l = standard_lattice("A1")
    res = fold_reflection(l, (), (1,))
    assert res.folded
    assert res.weyl.matrix == ((-1,),)


def test_fold_witness_branch():
    # u -> -v, v -> -u: u+v is orthogonal to the fixed lattice
    res = fold_reflection(A2, (((0, -1), (-1, 0)),), (1, 0))
    assert not res.folded
    assert res.witness_root == (1, 1)


def test_fold_block_action():
    l = standard_lattice("A2+A1")
    g = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    res = fold_reflection(l, (g,), (1, 0, 0))
    assert res.folded
    assert res.weyl.matrix == ((0, -1, 0), (-1, 0, 0), (0, 0, 1))


def test_fold_two_component_orbit():
    l = standard_lattice("2A1")
    res = fold_reflection(l, (SWAP2,), (1, 0))
    assert res.folded
    assert res.weyl.matrix == ((-1, 0), (0, -1))
    # restriction to the fixed line span(e1+e2) is the reflection in vbar
    assert la.mat_vec(res.weyl.matrix, (1, 1)) == (-1, -1)


def test_fold_rejects_zero_orbit_sum():
    l = standard_lattice("diag(2,-2)")
    g = ((1, 0), (0, -1))
    with pytest.raises(InputError):
        fold_reflection(l, (g,), (0, 1))


def test_fold_rejects_positive_complement():
    l = standard_lattice("diag(2,-2)")
    g = ((-1, 0), (0, 1))
    with pytest.raises(InputError):
        fold_reflection(l, (g,), (0, 1))


def test_raw_matrix_with_a_non_integral_entry_is_refused():
    # truncating 3/2 to 1 would turn this into the swap, which folds
    # and is admissible
    half_swap = ((0, Fraction(3, 2)), (1, 0))
    with pytest.raises(InputError):
        fold_reflection(A2, (half_swap,), (1, 0))
    with pytest.raises(InputError):
        is_admissible(roots_of(A2), (half_swap,))


def test_admissible_rejects_a_root_preserving_non_isometry():
    # fixes the one root pair of A1 + <-4> but doubles the second vector
    l = make_lattice(((-2, 0), (0, -4)))
    with pytest.raises(InputError):
        is_admissible(roots_of(l), (((1, 0), (0, 2)),))


def test_fold_rejects_non_root():
    with pytest.raises(InputError):
        fold_reflection(A2, (SWAP2,), (1, 1, 1))
    with pytest.raises(InputError):
        fold_reflection(A2, (SWAP2,), (2, 0))


def test_fold_postconditions_random_roots():
    # every root of A2 with the swap action folds or witnesses consistently
    r = roots_of(A2)
    for v in r.roots:
        res = fold_reflection(A2, (SWAP2,), v)
        if res.folded:
            m = res.weyl.matrix
            assert la.mat_mul(m, SWAP2) == la.mat_mul(SWAP2, m)
            assert is_admissibleish(m)
        else:
            assert A2.sq(res.witness_root) == -2
            assert A2.dot(res.witness_root, (1, 1)) == 0


def test_fold_reflection_solves_in_integers(monkeypatch):
    from helpers import count_calls

    calls = count_calls(monkeypatch, la, "rref")
    l = standard_lattice("A2+A1")
    assert fold_reflection(l, (((0, 1, 0), (1, 0, 0), (0, 0, 1)),), (1, 0, 0)).folded
    assert fold_reflection(A2, (SWAP2,), (1, 0)).folded
    assert calls == []


def test_action_and_its_generator_matrices_agree():
    from lattact.catalog import fixture

    a = fixture("e8_swap").action
    l = a.ambient
    e6, e14 = (tuple(1 if k == i else 0 for k in range(l.rank)) for i in (6, 14))
    r = roots_of(sublattice_from_rows(l, (e6, e14)))
    mats = [iso.matrix for _, iso, _ in a.generators]
    assert is_admissible(r, a) == is_admissible(r, mats)
    assert is_admissible(r, a)[0]
    folded = fold_reflection(l, a, e6)
    assert folded == fold_reflection(l, mats, e6)
    assert folded.folded


def is_admissibleish(m):
    # folded elements preserve the Gram form
    return la.mat_mul(la.mat_mul(la.transpose(m), A2.gram), m) == A2.gram


# ---------------------------------------------------------------------------
# Weyl word integrity


def test_weyl_word_rejects_wrong_isometry():
    r = roots_of(A2)
    i = r.root_index((1, 0))
    with pytest.raises(VerificationError):
        WeylWord(r, (i,), Isometry(A2, la.identity(2)))


def test_weyl_word_rejects_the_product_in_the_other_order():
    r = roots_of(A2)
    i, j = r.root_index((1, 0)), r.root_index((0, 1))
    si, sj = reflection(A2, (1, 0)).matrix, reflection(A2, (0, 1)).matrix
    assert WeylWord(r, (i, j), Isometry(A2, la.mat_mul(si, sj))).word == (i, j)
    with pytest.raises(VerificationError):
        WeylWord(r, (i, j), Isometry(A2, la.mat_mul(sj, si)))


def test_weyl_words_random_products():
    rng = random.Random(31415)
    l = standard_lattice("A3")
    r = roots_of(l)
    root_set = set(r.roots)
    for _ in range(1000):
        k = rng.randint(0, 5)
        word = tuple(rng.randrange(len(r.roots)) for _ in range(k))
        m = la.identity(3)
        for i in word:
            m = la.mat_mul(m, reflection(l, r.roots[i]).matrix)
        w = WeylWord(r, word, Isometry(l, m))
        assert all(tuple(la.mat_vec(w.isometry.matrix, v)) in root_set for v in r.roots)


def test_isometries_that_move_a_root_off_the_system_are_refused():
    """The swap of 2A1 is an isometry, but it moves the first A1's roots
    to the second's: both root-set checks refuse it. The reflection in
    a simple root of A2 is not symmetric in the simple-root basis; it
    maps the roots onto themselves (its transpose would not)."""
    l = standard_lattice("2A1")
    r = roots_of(sublattice_from_rows(l, ((1, 0),)))
    swap = ((0, 1), (1, 0))
    with pytest.raises(InputError, match="does not preserve the root system"):
        camera_decompose(r, fundamental_camera(r), swap)
    with pytest.raises(InputError, match="does not preserve the root system"):
        is_admissible(r, [swap])
    a2 = roots_of(standard_lattice("A2"))
    s1 = ((-1, 1), (0, 1))
    s, w = camera_decompose(a2, fundamental_camera(a2), s1)
    assert la.mat_mul(s.matrix, w.isometry.matrix) == s1


# ---------------------------------------------------------------------------
# checks that only malformed input or a broken internal step reaches


def test_malformed_root_system_inputs_are_refused():
    rs = roots_of(A2)
    with pytest.raises(InputError, match="is not a root of this system"):
        rs.root_index((1, -1))
    with pytest.raises(InputError, match="expected a Sublattice or Lattice"):
        roots_of("A2")
    l = make_lattice(((-2, 0), (0, -2)))
    # pairs positively with the wall (1, 0) but lies on the mirror of (0, 1)
    with pytest.raises(InputError, match="camera witness lies on a mirror"):
        Camera(roots_of(l), ((1, 0),), (-1, 0))
    word = to_fundamental_chamber(rs, fundamental_camera(rs), (1, -3))
    assert len(word) == len(word.word) > 0


def test_corrupted_diagrams_are_refused():
    # a component's rank and root count give its type; a count that fits
    # no type of the rank (D_n needs n >= 4) is refused
    from lattact.root_systems import _ade_type

    for rank, count in ((2, 4), (5, 50), (1, 0), (3, 10), (8, 238)):
        with pytest.raises(VerificationError, match=f"^a component of rank {rank} with {count} roots fits no ADE type$"):
            _ade_type(rank, count)


def test_an_enumeration_that_drops_a_pair_of_roots_is_refused(monkeypatch):
    # roots_of certifies the enumeration by the simple roots' pairings
    # (_dynkin) and each component's root count (_ade_type). Without the
    # largest root and its negative, the walk still finds the simple
    # roots, the diagram and a type for each component; the root count of
    # the component that lost them fits none. With any one pair ±r missing
    # from A2, A3, D4 or E6, the walk finds "simple" roots pairing to 2, or
    # a component whose count fits no type
    from lattact import root_systems

    names = ("D4", "E8", "A3", "A2+A1", "A2", "E6")
    systems = {name: roots_of(standard_lattice(name)) for name in names}
    enumerated = {}
    monkeypatch.setattr(root_systems, "enumerate_vectors", lambda l, a, up_to_sign=False: enumerated[l])

    def refusal(rs, dropped):
        enumerated[rs.ambient] = tuple(v for v in rs.roots if v not in dropped)
        with pytest.raises(VerificationError, match="pairing outside|fits no ADE type") as refused:
            roots_of(rs.ambient)
        return str(refused.value)

    for name in names[:4]:
        rs = systems[name]
        # sorted: the smallest and the largest root, a pair ±r
        assert refusal(rs, (rs.roots[0], rs.roots[-1])).endswith("fits no ADE type")
    messages = set()
    for name in ("A2", "A3", "D4", "E6"):
        rs = systems[name]
        for r in rs.positive_roots:
            messages.add("pairing" if "pairing outside" in refusal(rs, (r, tuple(-x for x in r))) else "count")
    assert messages == {"pairing", "count"}
    # without the A1 summand of A2+A1 the rest is a genuine A2
    rs = systems["A2+A1"]
    a1 = min(rs.component_roots, key=len)
    enumerated[rs.ambient] = tuple(v for v in rs.roots if v not in a1)
    assert roots_of(rs.ambient).components == (("A", 2),)


def test_cameras_whose_walls_bound_no_chamber_are_refused():
    # (1, 1) is no root, and two roots at 60 degrees bound no chamber of
    # A2: neither set is the simple roots of its witness's chamber
    l = make_lattice(((-2, 0), (0, -2)))
    with pytest.raises(InputError, match="simple roots of the witness's chamber"):
        Camera(roots_of(l), ((1, 1),), (-1, -1))
    with pytest.raises(InputError, match="simple roots of the witness's chamber"):
        Camera(roots_of(A2), ((-1, -1), (-1, 0)), (5, 6))


REFUSED = "^a root system must be the one roots_of derives from its span$"


def test_systems_that_roots_of_does_not_derive_are_refused():
    # a RootSystem built from fields must be the one roots_of derives from
    # its span; a copy of one it derived is accepted
    rs = roots_of(A2)
    assert RootSystem(*(getattr(rs, name) for name in fields(RootSystem))) == rs
    l = make_lattice(((-2, 1), (1, -2)))
    for fields_ in (
        # simple roots that are dependent, a field that is no system's
        (l, sublattice_from_rows(l, ((1, 0),)), ((-1, 0), (1, 0)), ((1, 0),), ((1, 0), (2, 0)), ()),
        (rs.ambient, None, rs.roots, rs.positive_roots, rs.simple_roots, rs.components),
        (rs.ambient, rs.span, list(rs.roots), rs.positive_roots, rs.simple_roots, rs.components),
    ):
        with pytest.raises(InputError, match=REFUSED):
            RootSystem(*fields_)


def test_a_system_not_closed_under_reflection_fails_the_walk():
    # A2's form with the roots +-e1, +-e2 only: s_e1 e2 = e1 + e2 is
    # missing, so a walk toward a camera of these roots could end outside
    # it, and -I need not permute a camera's walls. Such a system is
    # refused on construction. On A2's own roots the walk lands inside the
    # camera, and the camera factor of -I permutes its walls
    l = make_lattice(((-2, 1), (1, -2)))
    roots = ((-1, 0), (0, -1), (0, 1), (1, 0))
    simple = ((0, 1), (1, 0))
    with pytest.raises(InputError, match=REFUSED):
        RootSystem(l, sublattice_from_rows(l, roots), roots, simple, simple, (("A", 1),) * 2)
    r = roots_of(l)
    c = Camera(r, simple, (-4, -4))
    w = to_fundamental_chamber(r, c, (-4, 5))
    y = la.mat_vec(w.isometry.matrix, (-4, 5))
    assert all(la.dot(l.gram, wall, y) > 0 for wall in c.walls)
    s, _ = camera_decompose(r, c, la.mat_scale(-1, la.identity(2)))
    assert {tuple(la.mat_vec(s.matrix, wall)) for wall in c.walls} == set(c.walls)


@pytest.mark.parametrize("name", [*(f"A{n}" for n in range(1, 7)), "D4", "D5", "D6", "E6"])
def test_cameras_are_the_chambers_of_their_witnesses(name):
    # in random bases, each reflection image of the fundamental camera is
    # a camera, with its walls in any order, and swapping one of its walls
    # for another root is refused
    rng = random.Random(name)
    g = standard_lattice(name).gram
    for _ in range(2):
        l = make_lattice(conjugate_gram(g, random_unimodular(rng, len(g), steps=8)))
        r = roots_of(l)
        c = fundamental_camera(r)
        for p in r.positive_roots:
            m = reflection(l, p).matrix
            walls = [tuple(la.mat_vec(m, w)) for w in c.walls]
            rng.shuffle(walls)
            witness = tuple(la.mat_vec(m, c.witness))
            assert Camera(r, walls, witness).walls == tuple(walls)
            walls[rng.randrange(len(walls))] = rng.choice([v for v in r.roots if v not in walls])
            with pytest.raises(InputError, match="simple roots of the witness's chamber"):
                Camera(r, walls, witness)


def test_a_walk_past_the_positive_root_count_is_refused():
    # a system whose positive roots are missing is refused on construction,
    # so no walk runs on it. Each step of a walk crosses one mirror, so the
    # walk to the opposite camera takes exactly the positive-root count
    rs = roots_of(A2)
    with pytest.raises(InputError, match=REFUSED):
        RootSystem(rs.ambient, rs.span, rs.roots, (), rs.simple_roots, rs.components)
    cam = fundamental_camera(rs)
    assert len(to_fundamental_chamber(rs, cam, tuple(-x for x in cam.witness))) == len(rs.positive_roots)


def test_hand_built_systems_with_a_wrong_span_or_a_broken_word_are_refused(monkeypatch):
    # a RootSystem built by hand may not carry a span its roots do not give
    l = standard_lattice("A2+A1")
    rs = roots_of(l)
    with pytest.raises(InputError, match="^a root system must be the one roots_of derives"):
        RootSystem(l, Sublattice(l, ((1, 0, 0),)), rs.roots, rs.positive_roots, rs.simple_roots, rs.components)
    # s . w = g holds when w's word is built right; a broken product is refused
    from lattact import root_systems

    a2 = roots_of(A2)
    words = root_systems._word_times
    monkeypatch.setattr(root_systems, "_word_times",
                        lambda r, word, m: m if m == la.identity(r.ambient.rank) else words(r, word, m))
    with pytest.raises(VerificationError, match="failed to recompose"):
        camera_decompose(a2, fundamental_camera(a2), la.mat_scale(-1, la.identity(2)))


def test_fold_refuses_an_infinite_action():
    # the Eichler transvection of U + U(-1) + U has infinite order
    transvection = ((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0),
                    (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    with pytest.raises(InputError, match="bound"):
        fold_reflection(standard_lattice("U+U(-1)+U"), (transvection,), (1, -1, 0, 0, 0, 0))


def test_fold_refuses_a_broken_folding_step(monkeypatch):
    # each part of the orbit sum is a root line and the product of their
    # reflections commutes with the action and reflects the fixed part;
    # a folding step broken in turn at each of these is refused
    from lattact import root_systems

    primitive = la.primitive_vector
    with monkeypatch.context() as patch:
        patch.setattr(la, "primitive_vector", lambda v: tuple(2 * x for x in primitive(v)))
        with pytest.raises(VerificationError, match="not a root line"):
            fold_reflection(A2, (SWAP2,), (1, 0))
    for fake, message in ((lambda n, a: reflection(n, (1, 0)), "does not commute with the action"),
                          (lambda n, a: Isometry(n, la.identity(n.rank)), "not the fixed-part reflection")):
        with monkeypatch.context() as patch:
            patch.setattr(root_systems, "reflection", fake)
            with pytest.raises(VerificationError, match=message):
                fold_reflection(A2, (SWAP2,), (1, 0))
