import random
from fractions import Fraction

import pytest

import helpers
from lattact import (
    DilatedComplexStructure,
    EigenData,
    InputError,
    Isometry,
    LatticeAction,
    ScopeError,
    Sublattice,
    VerificationError,
    eigen_lattices,
    fundamental_data,
    linalg as la,
    make_lattice,
    standard_lattice,
)
from lattact.walls import (
    _vectors_of_square,
    candidate_roots,
    component_count,
    project_to_eigenspaces,
    segment_vectors,
    wall_in_H_plus,
    wall_report,
)

L6 = standard_lattice("3U")
U = standard_lattice("U")

# frozen pipeline data for the order-3 fixture with the first reflector:
# candidate roots by value pair, and the ray (plus-basis coordinates) each
# root cuts, None when the two conditions are independent
ROTATION_CANDIDATES = {
    (0, -8): ((1, -1, -1, 0),),
    (-2, -6): ((0, 1, 1, -1), (1, -1, -2, 0), (1, -1, 0, 0), (2, -1, -1, -1)),
    (-4, -4): (),
    (-6, -2): ((0, 0, 1, -1), (1, -1, 0, -1), (1, 1, 2, -1), (2, 0, 1, -1)),
    (-8, 0): ((1, 0, 1, -1),),
}
ROTATION_WALL_MAP = {
    (1, -1, -1, 0): (3, 2),
    (0, 1, 1, -1): (1, 1),
    (1, -1, -2, 0): None,
    (1, -1, 0, 0): (1, 1),
    (2, -1, -1, -1): None,
    (0, 0, 1, -1): None,
    (1, -1, 0, -1): None,
    (1, 1, 2, -1): (3, 2),
    (2, 0, 1, -1): (3, 2),
    (1, 0, 1, -1): (1, 1),
}


def rotation_fixture():
    return helpers.klein_pipeline(helpers.INV_A)


def split_fixture():
    return helpers.klein_pipeline(helpers.INV_B)


def pell_fixture():
    """Eigendata on diag(2, -6, -2, -2) whose plus part diag(2, -6) is
    indefinite with a non-square discriminant."""
    amb = make_lattice(((2, 0, 0, 0), (0, -6, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2)))
    c = Isometry(amb, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)))
    rho = Sublattice(amb, la.identity(4))
    plus = Sublattice(rho.as_lattice(), ((1, 0, 0, 0), (0, 1, 0, 0)))
    minus = Sublattice(rho.as_lattice(), ((0, 0, 1, 0), (0, 0, 0, 1)))
    return EigenData("c", c, rho, plus, minus, 1)


def reflector_block(e):
    return la.int_rows(la.restrict_to_span(e.reflector.matrix, e.rho.basis))


class TestProjectToEigenspaces:
    def test_basis_vector_halves(self):
        _, _, _, e = rotation_fixture()
        vp, vm = project_to_eigenspaces((1, 0, 0, 0), e)
        assert vp == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0)
        assert vm == (Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), 0)

    def test_plus_vector_projects_identically(self):
        _, _, _, e = rotation_fixture()
        vp, vm = project_to_eigenspaces((1, 0, 1, -1), e)
        assert vp == (1, 0, 1, -1)
        assert vm == (0, 0, 0, 0)

    def test_projection_identities(self):
        _, _, _, e = rotation_fixture()
        c = helpers.to_frac_mat(reflector_block(e))
        for roots in ROTATION_CANDIDATES.values():
            for v in roots:
                vp, vm = project_to_eigenspaces(v, e)
                assert tuple(a + b for a, b in zip(vp, vm)) == tuple(
                    Fraction(x) for x in v
                )
                assert la.mat_vec(c, vp) == vp
                assert la.mat_vec(c, vm) == tuple(-x for x in vm)

    def test_length_mismatch(self):
        _, _, _, e = rotation_fixture()
        with pytest.raises(InputError):
            project_to_eigenspaces((1, 0, 0, 0, 0, 0), e)


class TestCandidateRoots:
    def test_full_candidate_table(self):
        _, _, _, e = rotation_fixture()
        report = candidate_roots(e)
        assert report.complete
        assert dict(report.groups) == ROTATION_CANDIDATES
        assert len(report.all_roots()) == 10

    def test_split_form_candidates(self):
        _, _, _, e = split_fixture()
        report = candidate_roots(e)
        assert report.complete
        groups = dict(report.groups)
        assert groups[(-4, -4)] == ((0, 1, 1, -1), (1, -1, 1, 0))
        for pair, roots in groups.items():
            if pair != (-4, -4):
                assert roots == ()

    def test_box_search_agreement(self):
        # dumb exhaustion over the rotation block: roots whose projections
        # are each zero or of negative square must match the divisor branch
        for fixture in (rotation_fixture, split_fixture):
            _, _, _, e = fixture()
            block = e.rho.as_lattice()
            c = helpers.to_frac_mat(reflector_block(e))
            gram = helpers.to_frac_mat(block.gram)
            expected = set()
            for v in helpers.box_vectors_with_square(block.gram, -2, 6):
                vp = tuple((Fraction(a) + b) / 2 for a, b in zip(v, la.mat_vec(c, v)))
                vm = tuple(Fraction(a) - x for a, x in zip(v, vp))
                sp, sm = la.sq(gram, vp), la.sq(gram, vm)
                if sp > 0 or sm > 0:
                    continue
                if (sp == 0 and any(vp)) or (sm == 0 and any(vm)):
                    continue
                expected.add(la.primitive_vector(v))
            assert set(candidate_roots(e).all_roots()) == expected

    def test_needs_rank_two_eigenparts(self):
        act = LatticeAction(
            L6,
            (
                ("g", helpers.block_diag(((-1, 0), (0, -1)), helpers.I2, helpers.I2), -1),
            ),
        )
        f = fundamental_data(act)
        e = eigen_lattices(act, f)
        with pytest.raises(InputError):
            candidate_roots(e)

    def test_pell_form_needs_bound(self):
        # plus form x^2 - 3 y^2 (scaled) is indefinite with non-square
        # discriminant: exact enumeration is out of scope, a bound works
        e = pell_fixture()
        with pytest.raises(ScopeError):
            candidate_roots(e)
        report = candidate_roots(e, bound=4)
        assert not report.complete
        groups = dict(report.groups)
        assert groups[(0, -2)] == ((0, 0, 0, 1), (0, 0, 1, 0))
        assert groups[(-2, 0)] == ()

    def test_box_scan_finds_pell_vectors(self):
        # x^2 - 3 y^2 = -2 has solutions, unlike the -1 of square -2 above
        plus = pell_fixture().m_plus
        vecs, complete = _vectors_of_square(plus, -4, 5)
        assert not complete
        assert sorted(vecs) == sorted(
            (x, y, 0, 0) for x, y in helpers.box_vectors_with_square(((2, 0), (0, -6)), -4, 5)
        )
        assert set(vecs) == {(sx, sy, 0, 0) for x, y in ((1, 1), (5, 3)) for sx in (x, -x) for sy in (y, -y)}


class TestWallInHPlus:
    def test_wall_map(self):
        _, _, j, e = rotation_fixture()
        for v, ray in ROTATION_WALL_MAP.items():
            w = wall_in_H_plus(v, e, j)
            if ray is None:
                assert w is None
            else:
                assert w.direction == ray
                assert w.root == v

    def test_wall_invariants(self):
        _, _, j, e = rotation_fixture()
        gram = helpers.to_frac_mat(e.rho.as_lattice().gram)
        jm = helpers.to_frac_mat(j.matrix)
        plus_gram = e.m_plus.gram()
        for v, ray in ROTATION_WALL_MAP.items():
            w = wall_in_H_plus(v, e, j)
            if w is None:
                continue
            assert la.sq(plus_gram, w.direction) > 0
            assert la.vec_gcd(w.direction) == 1
            # ambient form of the ray is orthogonal to v+ and to Jv-
            amb = e.m_plus.to_ambient(w.direction)
            assert la.dot(gram, helpers.to_frac_vec(amb), w.v_plus) == 0
            assert la.dot(gram, helpers.to_frac_vec(amb), la.mat_vec(jm, w.v_minus)) == 0
            assert la.int_rows((tuple(2 * x for x in w.v_plus),)) is not None

    def test_sign_invariance(self):
        _, _, j, e = rotation_fixture()
        for v, ray in ROTATION_WALL_MAP.items():
            neg = tuple(-x for x in v)
            w = wall_in_H_plus(neg, e, j)
            assert (w.direction if w else None) == ray

    def test_split_fixture_has_no_walls(self):
        _, _, j, e = split_fixture()
        for v in candidate_roots(e).all_roots():
            assert wall_in_H_plus(v, e, j) is None

    def test_rejects_bad_input(self):
        _, _, j, e = rotation_fixture()
        with pytest.raises(InputError):
            wall_in_H_plus((1, 0, 0, 0), e, j)  # square 0
        with pytest.raises(InputError):
            wall_in_H_plus((Fraction(1, 2), 0, 0, 0), e, j)
        with pytest.raises(InputError):
            wall_in_H_plus((1, 0, 1, -1, 0, 0), e, j)

    def test_hand_built_data_that_breaks_the_eigen_relations_is_refused(self):
        # eigen_lattices gives parts that are orthogonal and an exponent
        # that clears the averaging, and EigenData built by hand must be
        # that split; a J built by hand is checked for its shape only, so
        # one that does not exchange the parts reaches the wall's check
        _, _, j, e = rotation_fixture()
        split = "^eigenparts and exponent must be the split of the reflector's block$"
        with pytest.raises(InputError, match=split):
            EigenData(e.reflector_name, e.reflector, e.rho, e.m_plus, e.m_minus, 1)
        # a "minus part" that is not orthogonal to the plus part
        skew = Sublattice(e.rho.as_lattice(), ((1, 2, 3, 1), (0, 5, 4, 3)))
        with pytest.raises(InputError, match=split):
            EigenData(e.reflector_name, e.reflector, e.rho, e.m_plus, skew, e.exponent)
        plain = DilatedComplexStructure(j.rho, la.identity(4), 3)
        with pytest.raises(VerificationError, match="nonpositive projection squares"):
            wall_in_H_plus((-1, -1, 2, -1), e, plain)

    def test_a_dilation_of_the_wrong_shape_is_refused(self):
        _, _, j, e = rotation_fixture()
        for values, message in (
            ((j.rho, None, 3), "^matrix must be integral$"),
            ((j.rho, la.identity(2), 3), "^matrix must be 4 x 4$"),
            ((j.rho, j.matrix[:3], 3), "^matrix must be 4 x 4$"),
            ((j.rho, j.matrix, 1.5), "^a dilation takes a Sublattice and a nonnegative integer multiplier$"),
            ((None, j.matrix, 3), "^a dilation takes a Sublattice and a nonnegative integer multiplier$"),
        ):
            with pytest.raises(InputError, match=message):
                DilatedComplexStructure(*values)
        assert DilatedComplexStructure(j.rho, [list(row) for row in j.matrix], 3) == j

    def test_independent_conditions_cut_no_wall(self):
        # x.v+ = 0 and x.Jv- = 0 are independent on M+ for this root
        _, _, j, e = rotation_fixture()
        assert wall_in_H_plus((-2, 0, 1, -1), e, j) is None

    def test_plus_part_of_rank_other_than_two_is_refused(self):
        a = LatticeAction(standard_lattice("3U"), (("c", helpers.block_diag(((-1, 0), (0, -1)), la.identity(4)), -1),))
        e = eigen_lattices(a, fundamental_data(a))
        assert e.m_plus.rank == 4
        with pytest.raises(InputError, match="rank-2 plus eigenlattice"):
            wall_in_H_plus((1, -1, 0, 0, 0, 0), e, None)
        with pytest.raises(InputError, match="rank-2 plus eigenlattice"):
            component_count((), e)


class TestComponentCount:
    def collect_walls(self, e, j):
        out = []
        for v in candidate_roots(e).all_roots():
            w = wall_in_H_plus(v, e, j)
            if w is not None:
                out.append(w)
        return out

    def test_rotation_fixture_components(self):
        _, _, j, e = rotation_fixture()
        walls = self.collect_walls(e, j)
        assert len(walls) == 6
        kept, components = component_count(walls, e)
        assert components == 3
        assert {w.direction for w in kept} == {(1, 1), (3, 2)}

    def test_empty_input(self):
        _, _, j, e = split_fixture()
        assert component_count([], e) == ((), 1)

    def test_rejects_empty_wall_objects(self):
        _, _, j, e = rotation_fixture()
        from lattact.walls import Wall

        with pytest.raises(InputError):
            component_count([Wall((1, 0, 1, -1), (), (), None)], e)


class TestWallReport:
    def test_rotation_fixture(self):
        _, _, j, e = rotation_fixture()
        report = wall_report(e, j)
        assert report.candidate_count == 10
        assert report.components == 3
        assert report.complete
        assert tuple(w.direction for w in report.walls) == ((3, 2), (1, 1))

    def test_a_bounded_report_counts_its_candidates_uncertified(self):
        # the Pell plus form needs a box bound, so no report is certified
        e = pell_fixture()
        j = DilatedComplexStructure(e.rho, ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0)), 1)
        report = wall_report(e, j, bound=4)
        assert report.candidate_count == len(candidate_roots(e, bound=4).all_roots()) == 2
        assert not report.complete

    def test_wall_normals(self):
        # each wall ray, pushed to block coordinates, is orthogonal to a
        # primitive vector of the plus part: the classical wall labels
        _, _, j, e = rotation_fixture()
        report = wall_report(e, j)
        plus_gram = e.m_plus.gram()
        normals = set()
        for w in report.walls:
            gr = la.mat_vec(plus_gram, w.direction)
            n = la.primitive_vector((gr[1], -gr[0]))
            normals.add(e.m_plus.to_ambient(n))
        assert normals == {(1, 0, 1, -1), (3, 1, 3, -2)}

    def test_split_fixture(self):
        _, _, j, e = split_fixture()
        report = wall_report(e, j)
        assert report.candidate_count == 2
        assert report.walls == ()
        assert report.components == 1
        assert report.complete

    def test_a_bool_bound_is_rejected(self):
        _, _, j, e = rotation_fixture()
        with pytest.raises(InputError):
            candidate_roots(e, True)
        with pytest.raises(InputError):
            wall_report(e, j, True)

    def test_deterministic(self):
        _, _, j, e = rotation_fixture()
        assert wall_report(e, j) == wall_report(e, j)

    def test_conjugation_invariance(self):
        rng = random.Random(20260815)
        base = helpers.klein_action(helpers.INV_A)
        for _ in range(5):
            b = helpers.random_unimodular(rng, 6, steps=6)
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
            from lattact import dilated_complex_structure

            j = dilated_complex_structure(act, f)
            e = eigen_lattices(act, f)
            report = wall_report(e, j)
            assert report.components == 3
            assert report.candidate_count == 10
            assert len(report.walls) == 2


    def test_block_restrictions_are_read_not_derived_again(self, monkeypatch):
        # fundamental_data restricts every group element to the rotation
        # block once; the dilation, the eigen split and the wall report
        # (one reflector block for all candidate roots) read those
        from lattact import dilated_complex_structure, fixture

        calls = helpers.count_calls(monkeypatch, la, "restrict_to_span")
        for act in (helpers.klein_action(), fixture("d3_S").action):
            f = fundamental_data(act)
            calls.clear()
            j = dilated_complex_structure(act, f)
            e = eigen_lattices(act, f)
            report = wall_report(e, j)
            assert report.candidate_count > 0
            assert calls == []
            assert e.reflector_block == reflector_block(e)


class TestSegmentVectors:
    def test_hyperbolic_plane(self):
        assert segment_vectors(U, (1, 0), (0, 1), -2) == ((-1, 1), (1, -1))
        assert segment_vectors(U, (1, 0), (0, 1), 0) == segment_vectors(U, (1, 0), (0, 1), 2) == ()
        assert segment_vectors(U, (1, 0), (0, 1), -4) == (
            (-2, 1),
            (-1, 2),
            (1, -2),
            (2, -1),
        )

    def test_doubled_pairing(self):
        u2 = make_lattice(((0, 2), (2, 0)))
        assert segment_vectors(u2, (1, 0), (0, 1), -2) == ()
        assert segment_vectors(u2, (1, 0), (0, 1), -4) == ((-1, 1), (1, -1))

    def test_rank_three(self):
        ua1 = standard_lattice("U+A1")
        assert segment_vectors(ua1, (1, 0, 0), (0, 1, 0), -2) == (
            (-1, 1, 0),
            (1, -1, 0),
        )
        assert segment_vectors(ua1, (1, 0, 0), (1, 1, 1), -2) == (
            (0, -1, -1),
            (0, 1, 1),
        )

    def test_against_box_search(self):
        rng = random.Random(7)
        diags = ([-2], [-4], [-2, -2], [-2, -6], [-4, -2])
        # 25 frames of index 1 (a U summand), then 25 of index 2: a
        # diag(2, -2) summand with u1 = (1, 1, ...) and u2 = (1, -1, ...)
        frames = [(U.gram, (1, 0), (0, 1))] * 25 + [(((2, 0), (0, -2)), (1, 1), (1, -1))] * 25
        for plane, e1, e2 in frames:
            neg = rng.choice(diags)
            gram0 = helpers.block_diag(plane, *[((d,),) for d in neg])
            b = helpers.random_unimodular(rng, 2 + len(neg), steps=3)
            gram = helpers.conjugate_gram(gram0, b)
            binv = la.int_rows(la.inverse_int(b))
            u1 = la.mat_vec(binv, e1 + (0,) * len(neg))
            uu2 = la.mat_vec(binv, e2 + (0,) * len(neg))
            m = make_lattice(gram)
            a = rng.choice((-2, -4, -6))
            got = segment_vectors(m, u1, uu2, a)
            for v in got:
                assert m.sq(v) == a
                assert m.dot(v, u1) * m.dot(v, uu2) < 0
            bound = 10
            box = {
                v
                for v in helpers.box_vectors_with_square(gram, a, bound)
                if m.dot(v, u1) * m.dot(v, uu2) < 0
            }
            inside = {v for v in got if max(abs(x) for x in v) <= bound}
            assert box == inside

    def test_symmetry_and_negation(self):
        got = segment_vectors(U, (1, 0), (0, 1), -6)
        assert got == segment_vectors(U, (0, 1), (1, 0), -6)
        assert set(got) == {tuple(-x for x in v) for v in got}

    def test_input_validation(self):
        with pytest.raises(InputError):
            segment_vectors(U, (1, 1), (0, 1), -2)  # not isotropic
        with pytest.raises(InputError):
            segment_vectors(U, (2, 0), (0, 1), -2)  # not primitive
        with pytest.raises(InputError):
            segment_vectors(U, (1, 0), (0, -1), -2)  # negative pairing
        with pytest.raises(InputError):
            segment_vectors(standard_lattice("2U"), (1, 0, 0, 0), (0, 1, 0, 0), -2)
        with pytest.raises(InputError):
            segment_vectors(U, (1, 0), (Fraction(1, 2), 1), -2)
        with pytest.raises(InputError):
            segment_vectors(U, (1, 0), (0, 1), -2.0)  # square not an integer
        with pytest.raises(InputError):
            segment_vectors(standard_lattice("U+A1"), (1, 0), (0, 1, 0), -2)  # short endpoint
