import random

import pytest

import helpers
from lattact import degeneration, group_actions
from lattact import (
    InputError,
    VerificationError,
    Isometry,
    Lattice,
    LatticeAction,
    SaturatedSystem,
    DegenerationResult,
    camera_adjacent,
    degenerate,
    degenerate_at_wall,
    fundamental_data,
    dilated_complex_structure,
    eigen_lattices,
    fundamental_camera,
    is_geometric,
    leftover_lattice,
    linalg as la,
    make_lattice,
    reflection,
    roots_of,
    standard_lattice,
    tau_saturation,
    verify_degeneration,
)
from lattact.lattice import sublattice_from_rows
from lattact._record import fields
from lattact.root_systems import RootSystem, _chamber_walls, camera_decompose, to_fundamental_chamber
from lattact.walls import candidate_roots, wall_in_H_plus

L6 = standard_lattice("3U")
L22 = standard_lattice("3U+2E8")

CHECK_LABELS = ("admissible", "complement", "components", "discriminant", "geometric")

# roots of the saturated system at either wall of the order-3 fixture,
# an A2 inside the span of the first two hyperbolic summands
WALL_A2_ROOTS = (
    (-1, 0, -1, 1, 0, 0),
    (-1, 1, 0, 0, 0, 0),
    (0, -1, -1, 1, 0, 0),
    (0, 1, 1, -1, 0, 0),
    (1, -1, 0, 0, 0, 0),
    (1, 0, 1, -1, 0, 0),
)


def pad22(row):
    return tuple(row) + (0,) * (22 - len(row))


def span22(*rows):
    return sublattice_from_rows(L22, tuple(pad22(r) for r in rows))


def sign_flip_22():
    """-1 on the first hyperbolic summand of the rank-22 lattice."""
    m = tuple(tuple((-1 if i < 2 else 1) if i == j else 0 for j in range(22)) for i in range(22))
    return LatticeAction(L22, (("c", m, -1),))


def e8_swap_22():
    m = [[0] * 22 for _ in range(22)]
    for i in range(6):
        m[i][i] = 1
    for i in range(8):
        m[6 + i][14 + i] = 1
        m[14 + i][6 + i] = 1
    return LatticeAction(L22, (("w", tuple(map(tuple, m)), 1),))


def rotation_wall_degeneration(block_root=(1, 0, 1, -1)):
    act, f, j, e = helpers.klein_pipeline(helpers.INV_A)
    return act, f, e, degenerate_at_wall(act, f, e, block_root)


def trivially_saturated(gram):
    """The saturated system of the negative definite summand L of 3U + L,
    for the trivial action, where L has the given Gram matrix."""
    l = make_lattice(helpers.block_diag(L6.gram, gram))
    a = LatticeAction(l, (("e", la.identity(l.rank), 1),))
    return tau_saturation(a, fundamental_data(a), sublattice_from_rows(l, la.identity(l.rank)[6:]))


def replace_factor(act, d, name, sigma):
    """d with the camera factor of generator `name` replaced by sigma."""
    iso = Isometry(act.ambient, sigma)
    factors = tuple((n, iso if n == name else s_g, w_g) for n, s_g, w_g in d.factors)
    gens = tuple((n, s_g, kappa) for (n, s_g, _), (_, _, kappa) in zip(factors, act.generators))
    return DegenerationResult(d.system, factors, LatticeAction(act.ambient, gens))


def check_results(report):
    return {label: ok for label, ok, _ in report.entries}


def null_leftover_action():
    """3U plus a null line the generator negates: the leftover part is
    that line, so it is not negative definite."""
    l = make_lattice(helpers.block_diag(L6.gram, ((0,),)))
    return LatticeAction(l, (("n", helpers.block_diag(la.identity(6), ((-1,),)), 1),))


class TestTauSaturation:
    def test_a_null_leftover_part_is_refused(self):
        a = null_leftover_action()
        with pytest.raises(InputError, match="hull of system and leftover part is not negative definite"):
            tau_saturation(a, fundamental_data(a), sublattice_from_rows(a.ambient, ()))

    def test_already_saturated(self):
        a = e8_swap_22()
        r = span22((1, -1))
        s = tau_saturation(a, fundamental_data(a), r)
        assert s.r_input == r
        assert s.r_bar.components == (("A", 1),)
        assert set(s.r_bar.roots) == {pad22((1, -1)), pad22((-1, 1))}
        assert s.r_bar.span == r

    def test_doubled_root_saturates_to_the_root(self):
        a = sign_flip_22()
        s = tau_saturation(a, fundamental_data(a), span22((2, -2)))
        assert set(s.r_bar.roots) == {pad22((1, -1)), pad22((-1, 1))}

    def test_hull_gains_roots(self):
        # index-2 sublattice of an A2: its only roots are one pair, the
        # primitive hull restores all six
        a = e8_swap_22()
        alpha = (1, -1, 0, 0, 0, 0)
        beta = (0, 1, 1, -1, 0, 0)
        r = span22(alpha, tuple(x + 2 * y for x, y in zip(alpha, beta)))
        assert len(roots_of(r).roots) == 2
        s = tau_saturation(a, fundamental_data(a), r)
        assert s.r_bar.components == (("A", 2),)
        assert len(s.r_bar.roots) == 6
        assert s.r_bar.span.contains_sublattice(r)
        assert pad22(beta) in s.r_bar.roots

    def test_trivial_input(self):
        act, f, _, _ = helpers.klein_pipeline()
        s = tau_saturation(act, f, sublattice_from_rows(L6, ()))
        assert s.r_bar.roots == ()
        assert s.r_bar.components == ()

    def test_trivial_input_grows_from_leftover_roots(self):
        a7, f7, _ = appended_a1_action()
        s = tau_saturation(a7, f7, sublattice_from_rows(a7.ambient, ()))
        assert s.r_bar.components == (("A", 1),)
        assert s.r_bar.roots == ((0, 0, 0, 0, 0, 0, -1), (0, 0, 0, 0, 0, 0, 1))

    def test_rootless_direction_rejected(self):
        a = e8_swap_22()
        with pytest.raises(InputError, match="not generated by roots"):
            tau_saturation(a, fundamental_data(a), span22((1, -2)))

    def test_non_invariant_rejected(self):
        act, f, _, _ = helpers.klein_pipeline()
        r = sublattice_from_rows(L6, ((1, -1, 0, 0, 0, 0),))
        with pytest.raises(InputError, match="not invariant"):
            tau_saturation(act, f, r)

    def test_non_elliptic_rejected(self):
        act, f, _, _ = helpers.klein_pipeline()
        r = sublattice_from_rows(L6, ((0, 0, 0, 0, 1, 1),))
        with pytest.raises(InputError, match="elliptic"):
            tau_saturation(act, f, r)

    def test_wrong_ambient_rejected(self):
        act, f, _, _ = helpers.klein_pipeline()
        with pytest.raises(InputError, match="different lattice"):
            tau_saturation(act, f, span22((1, -1)))


def appended_a1_action():
    """Rank-7 variant whose leftover part contains a root, hence not geometric."""
    l7 = Lattice(helpers.block_diag(L6.gram, ((-2,),)))
    a7 = LatticeAction(
        l7,
        (
            ("t", helpers.block_diag(helpers.ROT3, helpers.I2, ((1,),)), 1),
            ("s", helpers.block_diag(helpers.INV_A, helpers.I2, ((-1,),)), -1),
        ),
    )
    f7 = fundamental_data(a7)
    return a7, f7, l7


class TestDegenerate:
    def test_sign_flip_factorization(self):
        # tau_R fixes u1 - v1 and negates u1 + v1: the flip composed with
        # the reflection swaps and negates the first two basis vectors
        a = sign_flip_22()
        s = tau_saturation(a, fundamental_data(a), span22((1, -1)))
        d = degenerate(a, s)
        (name, s_g, w_g), = d.factors
        assert name == "c"
        expected = tuple(
            tuple(
                (-1 if (i, jj) in {(0, 1), (1, 0)} else (1 if i == jj and i >= 2 else 0))
                for jj in range(22)
            )
            for i in range(22)
        )
        assert s_g.matrix == expected
        assert len(w_g.word) == 1
        assert s.r_bar.roots[w_g.word[0]] in {pad22((1, -1)), pad22((-1, 1))}
        assert d.action.generators[0][2] == -1

    def test_recomposition_is_exact(self):
        a = sign_flip_22()
        s = tau_saturation(a, fundamental_data(a), span22((1, -1)))
        d = degenerate(a, s)
        for (name, s_g, w_g), (_, g, _) in zip(d.factors, a.generators):
            assert la.mat_mul(s_g.matrix, w_g.isometry.matrix) == g.matrix

    def test_pointwise_fixed_system_unchanged(self):
        a = e8_swap_22()
        s = tau_saturation(a, fundamental_data(a), span22((1, -1)))
        d = degenerate(a, s)
        for (name, s_g, w_g), (_, g, _) in zip(d.factors, a.generators):
            assert w_g.word == ()
            assert s_g.matrix == g.matrix

    def test_trivial_system_keeps_the_action(self):
        act, f, _, _ = helpers.klein_pipeline()
        s = tau_saturation(act, f, sublattice_from_rows(L6, ()))
        d = degenerate(act, s)
        for (name, s_g, w_g), (_, g, _) in zip(d.factors, act.generators):
            assert s_g.matrix == g.matrix and w_g.word == ()

    def test_non_geometric_rejected(self):
        a7, f7, l7 = appended_a1_action()
        assert is_geometric(a7, f7)[0] is False
        s = tau_saturation(a7, f7, sublattice_from_rows(l7, ()))
        with pytest.raises(InputError, match="geometric"):
            degenerate(a7, s)

    def test_camera_change_conjugates_by_weyl(self):
        act, f, e, d1 = rotation_wall_degeneration()
        s = d1.system
        w0 = reflection(act.ambient, s.r_bar.positive_roots[0]).matrix
        from lattact import Camera

        walls = tuple(tuple(la.mat_vec(w0, w)) for w in s.camera.walls)
        witness = tuple(la.mat_vec(w0, s.camera.witness))
        s_alt = SaturatedSystem(s.r_input, s.r_bar, Camera(s.r_bar, walls, witness), s.data)
        d2 = degenerate(act, s_alt)
        assert verify_degeneration(act, s_alt, d2).all_passed
        tau1 = {n: g.matrix for n, g, _ in d1.factors}
        tau2 = {n: g.matrix for n, g, _ in d2.factors}
        assert tau1 != tau2
        weyl = la.matrix_group_closure(
            [reflection(act.ambient, v).matrix for v in s.r_bar.positive_roots]
        )
        assert len(weyl) == 6
        witnesses = [
            w
            for w in weyl
            if all(
                la.mat_mul(la.mat_mul(w, tau1[n]), la.inverse_int(w)) == tau2[n]
                for n in tau1
            )
        ]
        assert witnesses
        assert w0 in witnesses

    def test_degenerate_enumerates_no_group(self, monkeypatch):
        act, f, e, d = rotation_wall_degeneration()
        calls = helpers.count_calls(monkeypatch, group_actions, "enumerate_group")
        assert degenerate(act, d.system) == d
        assert calls == []

    def test_system_of_another_action_rejected(self):
        act, f, _, _ = helpers.klein_pipeline()
        s = tau_saturation(act, f, sublattice_from_rows(L6, ()))
        with pytest.raises(InputError, match="different action"):
            degenerate(helpers.klein_action(helpers.INV_B), s)

    def test_corrupted_factor_of_a_generator_is_caught(self, monkeypatch):
        # the factors are multiplied along the group table and checked on
        # every edge: -s_t cubes to -I, which breaks the relation t^3 = 1
        act, f, e, d = rotation_wall_degeneration()
        rotation = {name: g.matrix for name, g, _ in act.generators}["t"]
        assert helpers.matrix_order(rotation) == 3
        original = degeneration.camera_decompose

        def corrupted(r, c, g):
            s_g, w_g = original(r, c, g)
            if g.matrix == rotation:
                s_g = Isometry(act.ambient, la.mat_scale(-1, s_g.matrix))
            return s_g, w_g

        monkeypatch.setattr(degeneration, "camera_decompose", corrupted)
        with pytest.raises(VerificationError, match="^degeneration is not a homomorphism$"):
            degenerate(act, d.system)

    def test_degenerating_twice_is_idempotent(self):
        act, f, e, d1 = rotation_wall_degeneration()
        f2 = fundamental_data(d1.action)
        s2 = tau_saturation(d1.action, f2, d1.system.r_bar.span)
        d2 = degenerate(d1.action, s2)
        assert d2.action.generators == d1.action.generators
        assert all(w.word == () for _, _, w in d2.factors)


class TestVerifyDegeneration:
    def test_wall_fixture_all_pass(self):
        act, f, e, d = rotation_wall_degeneration()
        report = verify_degeneration(act, d.system, d)
        assert tuple(label for label, _, _ in report.entries) == CHECK_LABELS
        assert report.all_passed

    def test_checks_carry_notes(self):
        act, f, e, d = rotation_wall_degeneration()
        report = verify_degeneration(act, d.system, d)
        for _, _, note in report.entries:
            assert isinstance(note, str) and note

    def test_corrupted_factor_fails_complement(self):
        act, f, e, d = rotation_wall_degeneration()
        off = reflection(act.ambient, (0, 0, 0, 0, 1, -1)).matrix
        bad_factors = tuple(
            (name, Isometry(act.ambient, la.mat_mul(s_g.matrix, off)), w_g)
            for name, s_g, w_g in d.factors
        )
        bad_action = LatticeAction(
            act.ambient,
            tuple(
                (name, iso.matrix, kappa)
                for (name, iso, _), (_, _, kappa) in zip(bad_factors, act.generators)
            ),
        )
        bad = DegenerationResult(d.system, bad_factors, bad_action)
        report = verify_degeneration(act, d.system, bad)
        results = check_results(report)
        assert results["complement"] is False
        assert not report.all_passed

    def test_corrupted_weyl_factor_is_reported(self):
        # a camera factor times a Weyl element, built by the unchecked
        # product of isometries, still fails the report's own checks
        act, f, e, d = rotation_wall_degeneration()
        w0 = reflection(act.ambient, d.system.r_bar.positive_roots[0])
        bad_factors = tuple((name, s_g.compose(w0), w_g) for name, s_g, w_g in d.factors)
        bad_action = LatticeAction(
            act.ambient,
            tuple(
                (name, s_g, kappa)
                for (name, s_g, _), (_, _, kappa) in zip(bad_factors, act.generators)
            ),
        )
        bad = DegenerationResult(d.system, bad_factors, bad_action)
        results = check_results(verify_degeneration(act, d.system, bad))
        assert results["admissible"] is False
        assert results["geometric"] is False

    def test_trivial_system_vacuous(self):
        act, f, _, _ = helpers.klein_pipeline()
        s = tau_saturation(act, f, sublattice_from_rows(L6, ()))
        report = verify_degeneration(act, s, degenerate(act, s))
        assert report.all_passed
        assert check_results(report) == {label: True for label in CHECK_LABELS}

    def test_a_system_the_action_moves_cannot_be_factored_through(self):
        # saturated systems come from tau_saturation, which checks that the
        # action keeps the roots; one built by hand around a single root of
        # the Klein action's block is moved by t
        act, f, _, _ = helpers.klein_pipeline()
        r = roots_of(sublattice_from_rows(L6, ((1, -1, 0, 0, 0, 0),)))
        s = SaturatedSystem(r.span, r, fundamental_camera(r), f)
        with pytest.raises(InputError, match="cannot factor through the saturated system"):
            degenerate(act, s)

    def test_a_camera_of_another_system_is_refused(self):
        # the wall system of the order-3 fixture is an A2 of rank-6 roots: a
        # camera of A2 itself has the wrong rank, and a camera of a system on
        # the same lattice has walls that are not the system's
        _, _, _, d = rotation_wall_degeneration()
        r_bar, i6 = d.system.r_bar, la.identity(6)
        with pytest.raises(InputError, match="^camera is not a camera of the root system$"):
            camera_decompose(r_bar, fundamental_camera(roots_of(standard_lattice("A2"))), i6)
        a1 = roots_of(sublattice_from_rows(L6, ((1, -1, 0, 0, 0, 0),)))
        with pytest.raises(InputError, match="^camera is not a camera of the root system$"):
            to_fundamental_chamber(r_bar, fundamental_camera(a1), d.system.camera.witness)
        equal = RootSystem(*(getattr(r_bar, name) for name in fields(RootSystem)))
        assert equal is not r_bar
        assert camera_decompose(equal, d.system.camera, i6)[1].word == ()

    def test_a_saturated_system_without_a_camera_cannot_be_factored_through(self):
        # it is refused on construction
        s = rotation_wall_degeneration()[3].system
        with pytest.raises(InputError, match="^camera is not a camera of the root system$"):
            SaturatedSystem(s.r_input, s.r_bar, None, s.data)

    def test_malformed_saturation_and_degeneration_records_are_refused(self):
        act, _, _, d = rotation_wall_degeneration()
        s = d.system
        for values in ((None, s.r_bar, s.camera, s.data), (s.r_input, None, s.camera, s.data),
                       (s.r_input, s.r_bar, s.camera, None)):
            with pytest.raises(InputError, match="^a saturated system takes a Sublattice, a RootSystem"):
                SaturatedSystem(*values)
        for values in ((None, d.factors, d.action), (s, None, d.action), (s, d.factors, None)):
            with pytest.raises(InputError, match="^a degeneration result takes a SaturatedSystem"):
                DegenerationResult(*values)
        # the new action must keep the old one's lattice, names and signs
        renamed = LatticeAction(act.ambient, tuple((n + "'", g, k) for n, g, k in d.action.generators))
        for other in (renamed, sign_flip_22()):
            with pytest.raises(InputError, match="an action with the lattice, generator names and signs of the system's$"):
                DegenerationResult(s, d.factors, other)
        # and verify_degeneration takes a result of its own system and action
        with pytest.raises(InputError, match="^degeneration result and system must come from this action$"):
            verify_degeneration(appended_a1_action()[0], s, d)

    def test_factors_that_break_the_root_system_are_reported(self):
        # each entry reports what a wrong factor for t breaks
        act, f, e, d = rotation_wall_degeneration()
        swap_u2 = helpers.block_diag(la.identity(2), ((0, 1), (1, 0)), la.identity(2))
        minus = la.mat_scale(-1, la.identity(6))
        for sigma, label, note in (
            (swap_u2, "components", "image of a component is not a component"),
            (swap_u2, "discriminant", "generator t does not preserve the root span"),
            (minus, "discriminant", "generator t acts differently on the discriminant group"),
        ):
            report = verify_degeneration(act, d.system, replace_factor(act, d, "t", sigma))
            assert (label, False, note) in report.entries
        # on two components, a factor that swaps them
        a = sign_flip_22()
        s = tau_saturation(a, fundamental_data(a), span22((1, -1), (0, 0, 1, -1)))
        d = degenerate(a, s)
        swap = tuple(tuple(1 if j == (i + 2 if i < 2 else i - 2 if i < 4 else i) else 0 for j in range(22))
                     for i in range(22))
        report = verify_degeneration(a, s, replace_factor(a, d, "c", swap))
        assert ("components", False, "generator c permutes components differently") in report.entries

    def test_a_root_outside_the_simple_root_lattice_is_an_entry(self):
        # a system on 3U + A1 + A1 whose only simple root is e7 leaves e8
        # without simple coordinates. It is refused on construction, so the
        # components check sees only systems whose roots all have them; on
        # the system of these roots that roots_of derives, its entry passes
        l = standard_lattice("3U+A1+A1")
        e7, e8 = la.identity(8)[6:]
        roots = tuple(sorted((e7, e8, helpers.vec_scale(-1, e7), helpers.vec_scale(-1, e8))))
        with pytest.raises(InputError, match="^a root system must be the one roots_of derives from its span$"):
            RootSystem(l, sublattice_from_rows(l, roots), roots, (e7,), (e7,), ())
        s = trivially_saturated(standard_lattice("A1+A1").gram)
        assert s.r_bar.ambient == l and s.r_bar.roots == roots
        a = s.data.group.action
        report = verify_degeneration(a, s, DegenerationResult(s, (), a))
        assert ("components", True, "same permutations of 2 components") in report.entries

    def test_two_component_fixture_all_pass(self):
        a = sign_flip_22()
        f = fundamental_data(a)
        s = tau_saturation(a, f, span22((1, -1), (0, 0, 1, -1)))
        assert s.r_bar.components == (("A", 1), ("A", 1))
        d = degenerate(a, s)
        assert verify_degeneration(a, s, d).all_passed


class TestCameraAdjacent:
    def test_a_rootless_system_gives_a_wallless_camera(self):
        act, f, _, _ = helpers.klein_pipeline()
        s = tau_saturation(act, f, sublattice_from_rows(L6, ()))
        cam = camera_adjacent(s, sublattice_from_rows(L6, ()))
        assert cam.walls == () and len(cam.witness) == 6

    def test_full_face_keeps_the_fundamental_camera(self):
        act, f, e, d = rotation_wall_degeneration()
        s = d.system
        cam = camera_adjacent(s, s.r_bar.span)
        assert set(cam.walls) == set(s.camera.walls)

    def test_zero_face_gives_a_camera(self):
        act, f, e, d = rotation_wall_degeneration()
        s = d.system
        cam = camera_adjacent(s, sublattice_from_rows(L6, ()))
        assert len(cam.walls) == 2
        for root in s.r_bar.roots:
            assert la.dot(L6.gram, cam.witness, root) != 0

    def test_one_root_face_puts_a_wall_on_the_mirror(self):
        act, f, e, d = rotation_wall_degeneration()
        s = d.system
        root = s.r_bar.roots[0]
        cam = camera_adjacent(s, sublattice_from_rows(L6, (root,)))
        neg = tuple(-x for x in root)
        assert root in cam.walls or neg in cam.walls

    def test_face_outside_system_rejected(self):
        act, f, e, d = rotation_wall_degeneration()
        with pytest.raises(InputError, match="inside the saturated system"):
            camera_adjacent(d.system, sublattice_from_rows(L6, ((0, 0, 0, 0, 1, -1),)))

    def test_non_root_face_rejected(self):
        act, f, e, d = rotation_wall_degeneration()
        s = d.system
        doubled = tuple(2 * x for x in s.r_bar.roots[0])
        with pytest.raises(InputError, match="generated by its roots"):
            camera_adjacent(s, sublattice_from_rows(L6, (doubled,)))

    def test_face_point_generic_with_large_pairings(self):
        # 5A1 in a basis whose rows pair with the roots up to 46: a fixed
        # set of small bases puts every candidate face point on a mirror
        m = ((10, 11, 0, 0, 0), (-1, -1, 13, 0, 0), (0, 0, -1, 17, 0),
             (0, 0, 0, -1, 23), (0, 0, 0, 0, -1))
        l = make_lattice(la.mat_scale(-2, la.mat_mul(m, la.transpose(m))))
        # the roots are the rows of m^-1 and their negatives, built by hand
        # as the reference; roots_of finds the same system in this skewed
        # basis, choosing its own sign for each simple root of 5A1
        simple = tuple(sorted(la.inverse_int(m)))
        roots = tuple(sorted(simple + tuple(helpers.vec_scale(-1, v) for v in simple)))
        assert all(l.sq(v) == -2 for v in roots)
        found = roots_of(l)
        assert found.roots == roots
        assert {frozenset((v, helpers.vec_scale(-1, v))) for v in found.simple_roots} == {
            frozenset((v, helpers.vec_scale(-1, v))) for v in simple
        }
        # the same system in 3U + l, saturated for the trivial action
        s = trivially_saturated(l.gram)
        r, amb = s.r_bar, s.r_bar.ambient
        assert r.roots == tuple((0,) * 6 + v for v in roots)
        cam = camera_adjacent(s, sublattice_from_rows(amb, ()))
        assert len(cam.walls) == 5
        assert all(la.dot(amb.gram, cam.witness, v) != 0 for v in r.roots)

    @pytest.mark.parametrize("name", ["A3", "D4", "A2+A2", "D5", "A4+A1", "E6"])
    def test_the_face_simple_roots_are_walls(self, name):
        # faces spanned by any set of simple roots or any two positive
        # roots, in a random basis: the face system's simple roots on the
        # witness are walls of the camera, so its closure meets the face
        rng = random.Random(name)
        g = standard_lattice(name).gram
        s = trivially_saturated(helpers.conjugate_gram(g, helpers.random_unimodular(rng, len(g), steps=8)))
        r, l = s.r_bar, s.r_bar.ambient
        simple, positive = r.simple_roots, r.positive_roots
        faces = [[v for i, v in enumerate(simple) if bits >> i & 1] for bits in range(1 << len(simple))]
        faces += [[p, q] for i, p in enumerate(positive) for q in positive[i + 1:]]
        for face in faces:
            cam = camera_adjacent(s, sublattice_from_rows(l, tuple(face)))
            rp = roots_of(sublattice_from_rows(l, tuple(face)))
            assert set(_chamber_walls(rp, la.mat_vec(l.gram, cam.witness))) <= set(cam.walls)

    def test_flip_decomposes_inside_the_face_group(self):
        # with the camera adjacent to one summand of an A1 + A1 system,
        # the Weyl factor of the flip stays in that summand's reflections
        a = sign_flip_22()
        f = fundamental_data(a)
        r1 = pad22((1, -1))
        s = tau_saturation(a, f, span22((1, -1), (0, 0, 1, -1)))
        cam = camera_adjacent(s, sublattice_from_rows(L22, (r1,)))
        neg = tuple(-x for x in r1)
        assert r1 in cam.walls or neg in cam.walls
        flip = a.generators[0][1].matrix
        _, w_g = camera_decompose(s.r_bar, cam, flip)
        assert len(w_g.word) == 1
        assert all(s.r_bar.roots[i] in {r1, neg} for i in w_g.word)


class TestDegenerateAtWall:
    def test_first_wall_is_an_a2(self):
        act, f, e, d = rotation_wall_degeneration((1, 0, 1, -1))
        assert d.system.r_bar.components == (("A", 2),)
        assert d.system.r_bar.roots == WALL_A2_ROOTS
        assert verify_degeneration(act, d.system, d).all_passed
        for _, _, w_g in d.factors:
            assert len(w_g.word) == 2

    def test_second_wall_is_an_a2(self):
        act, f, e, d = rotation_wall_degeneration((1, -1, -1, 0))
        assert d.system.r_bar.components == (("A", 2),)
        assert verify_degeneration(act, d.system, d).all_passed

    def test_wall_degenerations_differ(self):
        _, _, _, d1 = rotation_wall_degeneration((1, 0, 1, -1))
        _, _, _, d2 = rotation_wall_degeneration((1, -1, -1, 0))
        assert d1.system.r_bar.roots != d2.system.r_bar.roots

    def test_non_wall_root_rejected(self):
        act, f, j, e = helpers.klein_pipeline(helpers.INV_A)
        with pytest.raises(InputError, match="cuts no wall"):
            degenerate_at_wall(act, f, e, (1, -1, 0, -1))

    def test_split_fixture_has_no_walls(self):
        act, f, j, e = helpers.klein_pipeline(helpers.INV_B)
        with pytest.raises(InputError, match="cuts no wall"):
            degenerate_at_wall(act, f, e, (1, -1, 1, 0))

    def test_sign_trivial_action_rejected(self):
        _, _, _, e = helpers.klein_pipeline(helpers.INV_A)
        a = e8_swap_22()
        with pytest.raises(InputError, match="sign"):
            degenerate_at_wall(a, fundamental_data(a), e, (1, 0, 1, -1))


class TestConjugationProperty:
    def test_conjugated_pipeline_degenerates(self):
        # the whole chain is basis-free: conjugate the fixture, pick any
        # root that cuts a wall, degenerate there and re-verify
        rng = random.Random(20260815)
        base = helpers.klein_action(helpers.INV_A)
        for _ in range(3):
            b = helpers.random_unimodular(rng, 6, steps=5)
            binv = la.int_rows(la.inverse_int(b))
            gram = helpers.conjugate_gram(L6.gram, b)
            act = LatticeAction(
                make_lattice(gram),
                tuple(
                    (name, la.mat_mul(binv, la.mat_mul(g.matrix, b)), kappa)
                    for name, g, kappa in base.generators
                ),
            )
            f = fundamental_data(act)
            j = dilated_complex_structure(act, f)
            e = eigen_lattices(act, f)
            cut = None
            for root in candidate_roots(e).all_roots():
                if wall_in_H_plus(root, e, j) is not None:
                    cut = root
                    break
            assert cut is not None
            d = degenerate_at_wall(act, f, e, cut)
            assert d.system.r_bar.components == (("A", 2),)
            assert verify_degeneration(act, d.system, d).all_passed
