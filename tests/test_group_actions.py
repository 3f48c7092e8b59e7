"""Group actions: enumeration, fundamental data, eigenlattices, wedge square.

The central fixture is a dihedral action of order 6 on 3U: an order-3
holomorphic rotation of the first two U summands together with an
antiholomorphic involution, in two variants differing by the involution.
Expected matrices, eigenlattice bases, Grams and exponents below were
fixed by hand from the 2 x 2 block structure before the module was
written; the property loops then drive randomized conjugates through the
same pipeline.
"""

import itertools
import random
from fractions import Fraction

import pytest

import helpers
from lattact import group_actions
from lattact import linalg as la
from lattact.catalog import FIXTURE_NAMES, _swap_matrix, fixture
from lattact.cli import action_to_text, main
from lattact.errors import InputError, ScopeError, VerificationError
from lattact._record import fields
from lattact.group_actions import (
    EigenData,
    FundamentalData,
    LatticeAction,
    conjugation_obstruction,
    dilated_complex_structure,
    eigen_lattices,
    enumerate_group,
    extend_equivariantly,
    fixed_lattice,
    fundamental_data,
    is_geometric,
    leftover_lattice,
    rho_lattice,
    wedge_square,
)
from lattact.lattice import (
    Isometry,
    Sublattice,
    enumerate_vectors,
    is_isometry,
    make_lattice,
    orthogonal_complement,
    signature,
    standard_lattice,
    sublattice_sum,
)

I2 = ((1, 0), (0, 1))
NEG2 = ((-1, 0), (0, -1))
SWAP2 = ((0, 1), (1, 0))
NSWAP2 = ((0, -1), (-1, 0))

# order-3 rotation of U + U and the two involutions normalizing it
ROT3 = ((0, 0, -1, 0), (0, -1, 0, -1), (1, 0, -1, 0), (0, 1, 0, 0))
INV_A = ((0, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0), (0, 1, -1, 0))
INV_B = ((1, 0, -1, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, -1, 0, -1))

# order-4 rotation of U + U and a compatible involution
ROT4 = ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))
INV_C = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0))

L6 = standard_lattice("3U")


def dihedral3(inv=INV_A):
    return LatticeAction(
        L6,
        (
            ("t", helpers.block_diag(ROT3, I2), 1),
            ("s", helpers.block_diag(inv, I2), -1),
        ),
    )


def dihedral4():
    return LatticeAction(
        L6,
        (
            ("r", helpers.block_diag(ROT4, I2), 1),
            ("s", helpers.block_diag(INV_C, I2), -1),
        ),
    )


def dihedral6():
    return LatticeAction(
        L6,
        (
            ("r", helpers.block_diag(la.mat_scale(-1, ROT3), I2), 1),
            ("s", helpers.block_diag(INV_A, I2), -1),
        ),
    )


def sign_flip_pair():
    """Order 2 x 2: -1 on the first two U summands, split by a swap."""
    return LatticeAction(
        L6,
        (
            ("g", helpers.block_diag(NEG2, NEG2, I2), 1),
            ("s", helpers.block_diag(SWAP2, NSWAP2, I2), -1),
        ),
    )


def antiflip():
    """Antiholomorphic -1 on the first U summand only."""
    return LatticeAction(L6, (("c", helpers.block_diag(NEG2, I2, I2), -1),))


REFUSED = "^fundamental data must be what fundamental_data derives from its group's action$"

SOME_ISOMETRIES_3U = (
    helpers.block_diag(SWAP2, I2, I2),
    helpers.block_diag(I2, SWAP2, I2),
    helpers.block_diag(I2, I2, SWAP2),
    helpers.block_diag(NEG2, I2, I2),
    helpers.block_diag(I2, NEG2, I2),
    # swap the first two U summands
    tuple(
        tuple(1 if (i, j) in {(0, 2), (1, 3), (2, 0), (3, 1), (4, 4), (5, 5)} else 0 for j in range(6))
        for i in range(6)
    ),
)


def random_isometry_3u(rng):
    m = la.identity(6)
    for _ in range(6):
        m = la.mat_mul(m, rng.choice(SOME_ISOMETRIES_3U))
    return m


def in_basis(action, b):
    """The same action written in the basis b of its ambient lattice."""
    b_inv = la.inverse_int(b)
    gens = tuple(
        (name, la.mat_mul(la.mat_mul(b_inv, iso.matrix), b), kappa)
        for name, iso, kappa in action.generators
    )
    return LatticeAction(make_lattice(helpers.conjugate_gram(action.ambient.gram, b)), gens)


def conjugated(action, u):
    u_inv = la.inverse_int(u)
    gens = tuple(
        (name, la.mat_mul(la.mat_mul(u, iso.matrix), u_inv), kappa)
        for name, iso, kappa in action.generators
    )
    return LatticeAction(action.ambient, gens)


class TestLatticeAction:
    def test_wraps_raw_matrices(self):
        a = dihedral3()
        assert all(isinstance(iso, Isometry) for _, iso, _ in a.generators)
        assert a.generators[0][0] == "t"

    def test_rejects_non_isometry(self):
        shear = tuple(
            tuple(1 if i == j else (1 if (i, j) == (0, 1) else 0) for j in range(6))
            for i in range(6)
        )
        with pytest.raises(InputError):
            LatticeAction(L6, (("x", shear, 1),))

    def test_rejects_bad_sign(self):
        with pytest.raises(InputError):
            LatticeAction(L6, (("t", helpers.block_diag(ROT3, I2), 2),))

    def test_rejects_malformed_entry(self):
        with pytest.raises(InputError):
            LatticeAction(L6, ((la.identity(6), 1),))

    @pytest.mark.parametrize("kappa", [True, 1.0, -1.0, "1", None])
    def test_refuses_a_sign_that_is_no_integer(self, kappa):
        # a bool or a float equals +-1 but is no exact sign
        with pytest.raises(InputError):
            LatticeAction(L6, (("t", helpers.block_diag(ROT3, I2), kappa),))

    def test_stores_the_sign_as_an_int(self):
        t = helpers.block_diag(ROT3, I2)
        a = LatticeAction(L6, (("t", t, Fraction(1)),))
        assert type(a.generators[0][2]) is int
        assert a == LatticeAction(L6, (("t", t, 1),)) and repr(a) == repr(LatticeAction(L6, (("t", t, 1),)))

    @pytest.mark.parametrize("generators", [1.5, 7, None, True, (1.5,), (7, 8)])
    def test_refuses_generators_or_entries_that_are_scalars(self, generators):
        with pytest.raises(InputError):
            LatticeAction(L6, generators)

    def test_rejects_an_isometry_of_another_lattice(self):
        other = Isometry(standard_lattice("3U(2)"), la.identity(6))
        with pytest.raises(InputError, match="generator acts on a different lattice"):
            LatticeAction(L6, (("x", other, 1),))

    def test_rejects_duplicate_names(self):
        t = helpers.block_diag(ROT3, I2)
        with pytest.raises(InputError, match="duplicate generator name 't'"):
            LatticeAction(L6, (("t", t, 1), ("t", la.mat_mul(t, t), 1)))


class TestEnumerateGroup:
    def test_dihedral_order_six(self):
        g = enumerate_group(dihedral3())
        assert len(g) == 6
        assert sorted(g.kappas) == [-1, -1, -1, 1, 1, 1]
        assert g.elements[0] == la.identity(6)

    def test_minus_identity_group(self):
        g = enumerate_group(LatticeAction(L6, (("m", la.mat_scale(-1, la.identity(6)), 1),)))
        assert g.elements == (la.identity(6), la.mat_scale(-1, la.identity(6)))
        assert g.kappas == (1, 1)

    def test_trivial_group(self):
        g = enumerate_group(LatticeAction(L6, ()))
        assert g.elements == (la.identity(6),)

    def test_closed_under_products_and_inverses(self):
        for action in (dihedral3(), dihedral3(INV_B), dihedral4(), dihedral6(), sign_flip_pair(), antiflip()):
            g = enumerate_group(action)
            seen = set(g.elements)
            for i, a in enumerate(g.elements):
                assert la.inverse_int(a) in seen
                for j, b in enumerate(g.elements):
                    p = la.mat_mul(a, b)
                    assert p in seen
                    assert g.kappa_of(p) == g.kappas[i] * g.kappas[j]

    def test_ordering_is_reproducible(self):
        a = dihedral3()
        g1 = enumerate_group(a)
        g2 = enumerate_group(a)
        reversed_gens = LatticeAction(L6, tuple(reversed(a.generators)))
        g3 = enumerate_group(reversed_gens)
        assert g1.elements == g2.elements == g3.elements
        assert g1.kappas == g2.kappas == g3.kappas

    def test_sign_conflict_detected(self):
        amb = standard_lattice("2U")
        with pytest.raises(VerificationError):
            enumerate_group(
                LatticeAction(amb, (("r", ROT4, -1), ("r2", la.mat_mul(ROT4, ROT4), -1)))
            )

    def test_identity_declared_antiholomorphic(self):
        with pytest.raises(VerificationError):
            enumerate_group(LatticeAction(L6, (("e", la.identity(6), -1),)))

    def test_bound_exceeded(self, capsys, tmp_path):
        # the Eichler transvection x -> x + (x.e1) e2 - (x.e2) e1 of
        # U + U(-1) + U (e1, e2 isotropic, orthogonal) has infinite order,
        # so its closure reaches the element bound
        transvection = ((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0),
                        (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
        action = LatticeAction(standard_lattice("U+U(-1)+U"), (("t", transvection, 1),))
        with pytest.raises(ScopeError):
            enumerate_group(action)
        path = tmp_path / "transvection.json"
        path.write_text(action_to_text(action), encoding="utf-8")
        assert main(["check", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_table_records_generator_edges(self):
        actions = [fixture(name).action for name in FIXTURE_NAMES]
        actions += [dihedral3(), dihedral4(), dihedral6(), sign_flip_pair(), LatticeAction(L6, ())]
        for action in actions:
            g = enumerate_group(action)
            gens = [iso.matrix for _, iso, _ in action.generators]
            assert len(g.table) == len(g)
            for i, row in enumerate(g.table):
                assert len(row) == len(gens)
                for k, m in zip(row, gens):
                    assert g.elements[k] == la.mat_mul(g.elements[i], m)

    def test_index_helpers(self):
        g = enumerate_group(dihedral3())
        assert g.index_of(la.identity(6)) == 0
        s = dihedral3().generators[1][1].matrix
        assert g.kappa_of(s) == -1
        assert len(g.kernel_matrices()) == 3
        with pytest.raises(InputError):
            g.index_of(la.mat_scale(-1, la.identity(6)))

    def test_table_arithmetic_matches_matrix_arithmetic(self):
        rng = random.Random(20261018)
        fixtures = [fixture(name).action for name in FIXTURE_NAMES]
        actions = fixtures + [
            in_basis(a, helpers.random_unimodular(rng, a.ambient.rank)) for a in fixtures for _ in range(3)
        ]
        actions += [dihedral3(), dihedral4(), dihedral6(), sign_flip_pair(), antiflip(), LatticeAction(L6, ())]
        for action in actions:
            g = enumerate_group(action)
            gens = [iso.matrix for _, iso, _ in action.generators]
            for i, m in enumerate(g.elements):
                product = la.identity(action.ambient.rank)
                for j in g.words[i]:
                    product = la.mat_mul(product, gens[j])
                assert product == m
                assert g.elements[g.inverse(i)] == la.inverse_int(m)
                assert g.order(i) == helpers.matrix_order(m, bound=len(g))


class TestFixedLattice:
    def test_dihedral_fixed_parts(self):
        a = dihedral3()
        fixed_all = fixed_lattice(a, "all")
        assert fixed_all.basis == ((0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
        assert fixed_lattice(a, "kernel").basis == fixed_all.basis

    def test_antiflip_kernel_is_everything(self):
        a = antiflip()
        assert fixed_lattice(a, "kernel").rank == 6
        fixed_all = fixed_lattice(a, "all")
        assert fixed_all.rank == 4
        assert all(row[0] == row[1] == 0 for row in fixed_all.basis)

    def test_subgroup_name_validated(self):
        with pytest.raises(InputError):
            fixed_lattice(dihedral3(), "everything")

    def test_kernel_and_plus_parts_match_fixed_kernels_over_elements(self, monkeypatch):
        """fixed_lattice(a, "kernel") equals la.fixed_kernel over every
        kernel element, and the plus part the real branch reads first
        (the whole group's fixed lattice) equals it over every group
        element, on every fixture, the Klein action, the sign-flip pair,
        the antiflip, and random bases of each."""
        seen = []
        original = group_actions._positive_directions

        def recording(sub):
            seen.append(sub)
            return original(sub)

        monkeypatch.setattr(group_actions, "_positive_directions", recording)
        rng = random.Random(20261018)
        actions = [fixture(name).action for name in FIXTURE_NAMES]
        actions += [helpers.klein_action(), sign_flip_pair(), antiflip()]
        actions += [in_basis(a, helpers.random_unimodular(rng, a.ambient.rank, 8)) for a in actions for _ in range(2)]
        real_with_minus = 0
        for a in actions:
            n = a.ambient.rank
            group = enumerate_group(a)
            whole = la.fixed_kernel(group.elements, n)
            kernel = fixed_lattice(a, "kernel")
            assert kernel.basis == la.fixed_kernel(group.kernel_matrices(), n)
            assert fixed_lattice(a, "all").basis == whole
            if -1 not in group.kappas:
                assert kernel is fixed_lattice(a, "all")
            seen.clear()
            fd = fundamental_data(a)
            fd.ell  # the flag, and with it the plus part, is derived on first read
            if fd.order_n == 1 and -1 in group.kappas:
                assert seen[0].basis == whole
                real_with_minus += 1
        assert real_with_minus == 3

    def test_fixed_rows_are_fixed_and_primitive(self):
        rng = random.Random(20260815)
        for _ in range(60):
            u = random_isometry_3u(rng)
            a = conjugated(dihedral3(), u)
            f = fixed_lattice(a, "all")
            assert f.primitive
            for _, iso, _ in a.generators:
                for row in f.basis:
                    assert iso(row) == row


class TestFundamentalData:
    def test_dihedral3(self):
        a = dihedral3()
        fd = fundamental_data(a)
        assert fd.order_n == 3 and fd.real is False
        assert fd.witness == helpers.block_diag(ROT3, I2)
        assert fd.ell == (0, 0, 0, 0, 1, 1)
        assert fd.plane.rank == 4

    def test_dihedral3_other_involution(self):
        fd = fundamental_data(dihedral3(INV_B))
        assert (fd.order_n, fd.real) == (3, False)

    def test_orders_four_and_six(self):
        assert (fundamental_data(dihedral4()).order_n, fundamental_data(dihedral4()).real) == (4, False)
        fd6 = fundamental_data(dihedral6())
        assert (fd6.order_n, fd6.real) == (6, False)
        assert len(enumerate_group(dihedral6())) == 12

    def test_order_two(self):
        fd = fundamental_data(sign_flip_pair())
        assert (fd.order_n, fd.real) == (2, True)
        assert fd.ell == (0, 0, 0, 0, 1, 1)

    def test_antiflip_real(self):
        fd = fundamental_data(antiflip())
        assert (fd.order_n, fd.real) == (1, True)
        assert fd.ell == (0, 0, 1, 1, 0, 0)
        assert fd.plane.basis == ((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1))
        assert fd.witness == la.identity(6)

    def test_trivial_action(self):
        fd = fundamental_data(LatticeAction(L6, ()))
        assert (fd.order_n, fd.real) == (1, True)
        assert L6.sq(fd.ell) > 0

    def test_flag_is_invariant_and_positive(self):
        for action in (dihedral3(), dihedral3(INV_B), dihedral4(), dihedral6(), sign_flip_pair(), antiflip()):
            fd = fundamental_data(action)
            assert action.ambient.sq(fd.ell) > 0
            for _, iso, _ in action.generators:
                assert iso(fd.ell) == fd.ell
            scaled = tuple(la.clear_denominators(row) for row in fd.plane.basis)
            gram = tuple(tuple(action.ambient.dot(u, v) for v in scaled) for u in scaled)
            assert signature(make_lattice(gram)).plus == 2

    def test_flag_keeps_the_row_signs_past_a_negative_pivot(self):
        # the first Jacobi pivot is negative, so the later rows are scaled
        # by d < 0; each positive direction is a positive multiple of its row
        gram = ((-2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
        fd = fundamental_data(LatticeAction(make_lattice(gram), ()))
        assert fd.ell == (0, 1, 0, 0)
        assert fd.plane.basis == ((0, 0, 1, 0), (0, 0, 0, 1))

    def test_rho_action_is_each_element_on_the_block(self):
        # rho_action comes from the generators' blocks: it must equal each
        # element's own restriction, on every fixture in three random bases
        rng = random.Random(20261019)
        fixtures = [fixture(name).action for name in FIXTURE_NAMES]
        actions = [dihedral3(), dihedral4(), sign_flip_pair(), antiflip(), LatticeAction(L6, ())]
        actions += [in_basis(a, helpers.random_unimodular(rng, a.ambient.rank)) for a in fixtures for _ in range(3)]
        for action in actions:
            fd = fundamental_data(action)
            assert len(fd.rho_action) == len(fd.group)
            for m, r in zip(fd.group.elements, fd.rho_action):
                assert r == la.restrict_to_span(m, fd.rho.basis)

    def test_minus_identity_rejected_both_signs(self):
        for k in (1, -1):
            # with sign +1, -I rotates the whole lattice by order 2 and fixes
            # no positive direction
            match = "^not almost geometric: no invariant positive direction$" if k == 1 else None
            with pytest.raises(VerificationError, match=match):
                fundamental_data(LatticeAction(L6, (("m", la.mat_scale(-1, la.identity(6)), k),)))

    def test_non_cyclic_kernel_rejected(self):
        a = LatticeAction(
            L6,
            (
                ("a", helpers.block_diag(NEG2, I2, I2), 1),
                ("b", helpers.block_diag(ROT4, I2), 1),
            ),
        )
        with pytest.raises(ScopeError):
            fundamental_data(a)

    def test_refusals_keep_their_exception_and_message(self):
        # each action breaks one condition; the checks on generators refuse
        # it as the checks on every element did
        for rotation in (ROT3, helpers.block_diag(NEG2, NEG2)):  # nn = 3 and nn = 2
            a = LatticeAction(L6, (("r", helpers.block_diag(rotation, I2), 1),
                                   ("s", helpers.block_diag(la.identity(4), NSWAP2), -1)))
            with pytest.raises(VerificationError, match="^declared signs disagree with the rotation orientation$"):
                fundamental_data(a)
        # g does not keep the rotation block
        swap23 = tuple(tuple(1 if j == (i + 2 if 2 <= i < 4 else i - 2 if i >= 4 else i) else 0
                             for j in range(6)) for i in range(6))
        a = LatticeAction(L6, (("s", helpers.block_diag(INV_B, I2), -1),
                               ("g", la.mat_mul(helpers.block_diag(NEG2, I2, I2), swap23), 1)))
        with pytest.raises(ScopeError, match="^unsupported action shape: a required block is not invariant$"):
            fundamental_data(a)
        # no kernel element moves two positive directions
        a = LatticeAction(L6, (("n", helpers.block_diag(NSWAP2, I2, I2), 1),))
        with pytest.raises(VerificationError, match="no element carries a positive rotation plane$"):
            fundamental_data(a)
        # s negates the one positive direction the rotation leaves
        a = LatticeAction(L6, (("t", helpers.block_diag(ROT3, I2), 1),
                               ("s", helpers.block_diag(INV_A, NSWAP2), -1)))
        with pytest.raises(VerificationError, match="no invariant positive direction$"):
            fundamental_data(a)

    def test_kernel_fixed_part_carries_one_involution(self):
        # what _real_branch reads off the first -1 generator alone: on the
        # fixed lattice of the sign kernel every +1 generator restricts to
        # the identity and every -1 generator to one involution, which is
        # its rho_action where that lattice is the block (order 1)
        rng = random.Random(20261019)
        flip = tuple(tuple((-1 if i in (4, 5) else 1) if i == j else 0 for j in range(22)) for i in range(22))
        actions = [fixture(name).action for name in FIXTURE_NAMES]
        actions += [LatticeAction(standard_lattice("3U+2E8"), (("w", _swap_matrix(), 1), ("s", flip, -1))), antiflip()]
        actions += [in_basis(a, helpers.random_unimodular(rng, a.ambient.rank, 8)) for a in actions for _ in range(2)]
        orders = set()
        for a in actions:
            fd = fundamental_data(a)
            fixed0 = fixed_lattice(a, "kernel")
            fid = la.identity(fixed0.rank)
            involutions = set()
            for j, (_, iso, k) in enumerate(a.generators):
                block = la.restrict_to_span(iso.matrix, fixed0.basis)
                if k == 1:
                    assert block == fid
                    continue
                assert la.mat_mul(block, block) == fid
                involutions.add(block)
                if fd.order_n == 1:
                    assert fd.rho == fixed0 and block == fd.rho_action[fd.group.table[0][j]]
            assert len(involutions) == (-1 in fd.group.kappas)
            orders.add(fd.order_n)
        assert 1 in orders and len(orders) > 1

    def test_wrong_positive_index_rejected(self):
        with pytest.raises(ScopeError):
            fundamental_data(LatticeAction(standard_lattice("2U"), ()))

    def test_stable_under_conjugation(self):
        rng = random.Random(31)
        a = dihedral3()
        fd = fundamental_data(a)
        rho = rho_lattice(a, fd)
        for _ in range(6):
            u = random_isometry_3u(rng)
            ac = conjugated(a, u)
            fdc = fundamental_data(ac)
            assert (fdc.order_n, fdc.real) == (fd.order_n, fd.real)
            moved = Sublattice(L6, tuple(la.mat_vec(u, row) for row in rho.basis))
            assert rho_lattice(ac, fdc).basis == moved.basis
            assert is_geometric(ac, fdc)[0] == is_geometric(a, fd)[0]


class TestDerivedOnce:
    def test_data_carries_group_fixed_lattice_and_block(self):
        for action in (dihedral3(), dihedral4(), sign_flip_pair(), antiflip()):
            fd = fundamental_data(action)
            group = enumerate_group(action)
            assert (fd.group.elements, fd.group.kappas) == (group.elements, group.kappas)
            assert fd.fixed == fixed_lattice(action, "all")
            if fd.order_n == 1:
                assert fd.rho == fixed_lattice(action, "kernel")

    def test_group_enumerated_once_per_action(self, monkeypatch):
        calls = helpers.count_calls(monkeypatch, group_actions, "enumerate_group")
        a = dihedral3()
        fd = fundamental_data(a)
        rho_lattice(a, fd)
        leftover_lattice(a, fd)
        is_geometric(a, fd)
        eigen_lattices(a, fd)
        dilated_complex_structure(a, fd)
        assert len(calls) == 1

    def test_no_ambient_rank_inverse_adjugate_or_order(self, monkeypatch):
        # the order comes from the group table: linalg has no power loop
        assert not hasattr(la, "matrix_order")
        counted = {name: helpers.count_calls(monkeypatch, la, name) for name in ("inverse_int", "adjugate")}
        for action in (helpers.klein_action(), fixture("d3_S").action):
            fd = fundamental_data(action)
            assert fd.order_n == 3
            n = action.ambient.rank
            for name, calls in counted.items():
                assert [args for args in calls if len(args[0]) == n] == [], name
                calls.clear()

    def test_rotation_plane_restricted_once_per_generator(self, monkeypatch):
        # for order >= 2 the flag plane is rho: _rotation_branch restricts
        # each generator to it once, builds every element's block as the
        # product along its word, and the flag adds no restriction
        calls = helpers.count_calls(monkeypatch, la, "restrict_to_span")
        a = helpers.klein_action()
        fd = fundamental_data(a)
        assert fd.order_n == 3 and fd.plane == fd.rho
        assert len(calls) == len(a.generators) == 2 and len(fd.group) == 6
        for m, r in zip(fd.group.elements, fd.rho_action):
            assert r == la.restrict_to_span(m, fd.rho.basis)

    def test_data_of_another_action_rejected(self):
        fd = fundamental_data(dihedral3())
        for consumer in (rho_lattice, leftover_lattice, eigen_lattices, dilated_complex_structure):
            with pytest.raises(InputError, match="different action"):
                consumer(dihedral3(INV_B), fd)


def flag_actions():
    """Every fixture, the Klein action, the sign-flip pair and the
    antiflip, and each of them in two random bases."""
    rng = random.Random(20261020)
    actions = [fixture(name).action for name in FIXTURE_NAMES]
    actions += [helpers.klein_action(), sign_flip_pair(), antiflip()]
    return actions + [in_basis(a, helpers.random_unimodular(rng, a.ambient.rank, 8)) for a in actions for _ in range(2)]


def eager_flag(fd):
    """The flag as fundamental_data built it before it was derived on first
    read, from fixed lattices eliminated over the group's elements: Jacobi
    directions of the whole group's fixed lattice, and for order 1 the
    plane of the second one and the third, or of the second one and the
    first direction of a reflector's -1 part on the kernel-fixed lattice."""
    group = fd.group
    l = group.action.ambient
    directions = group_actions._positive_directions
    plus = directions(Sublattice(l, la.fixed_kernel(group.elements, l.rank)))
    if fd.order_n >= 2:
        return plus[0], fd.rho
    if -1 in group.kappas:
        fixed0 = Sublattice(l, la.fixed_kernel(group.kernel_matrices(), l.rank))
        cf = la.restrict_to_span(group.elements[group.kappas.index(-1)], fixed0.basis)
        minus = la.mat_mul(la.kernel_int(la.mat_add(cf, la.identity(fixed0.rank))), fixed0.basis)
        v = directions(Sublattice(l, minus))[0]
    else:
        v = plus[2]
    return plus[0], Sublattice(l, la.saturate_rows((plus[1], v)))


class TestLazyFlag:
    """fundamental_data leaves ell and plane to their first read; the record
    reads, prints, compares and hashes as if it had been built whole."""

    def test_derived_flag_equals_the_eager_one(self):
        for a in flag_actions():
            fd = fundamental_data(a)
            assert "ell" not in vars(fd) and "plane" not in vars(fd)
            assert (fd.ell, fd.plane) == eager_flag(fd)
            l = a.ambient
            assert l.sq(fd.ell) > 0 and all(l.dot(fd.ell, row) == 0 for row in fd.plane.basis)
            assert signature(fd.plane.as_lattice()).plus == 2
            for _, iso, _ in a.generators:
                assert iso(fd.ell) == fd.ell
                assert la.restrict_to_span(iso.matrix, fd.plane.basis) is not None

    def test_repr_eq_and_hash_are_those_of_the_whole_record(self):
        for a in flag_actions():
            fd = fundamental_data(a)
            text, h = repr(fd), hash(fd)  # each reads the flag first
            whole = FundamentalData(*(getattr(fd, f) for f in fields(FundamentalData)))
            assert text == repr(whole) and h == hash(whole)
            assert fd == whole and whole == fd
            fresh = fundamental_data(a)
            assert fresh == whole and vars(fresh)["plane"] == whole.plane

    def test_a_record_built_by_hand_takes_all_nine_fields(self):
        values = [getattr(fundamental_data(dihedral3()), f) for f in fields(FundamentalData)]
        with pytest.raises(TypeError, match=r"^FundamentalData\(\) missing argument 'rho'$"):
            FundamentalData(*values[:3], *values[5:])
        assert set(vars(FundamentalData(*values))) == set(fields(FundamentalData))

    def test_another_missing_name_raises_attribute_error(self):
        fd = fundamental_data(dihedral3())
        for name in ("flag", "ells", "__setstate__"):
            with pytest.raises(AttributeError, match=f"^'FundamentalData' object has no attribute '{name}'$"):
                getattr(fd, name)
        assert not hasattr(fd, "flag") and "ell" not in vars(fd)

    def test_kernel_fixed_rank_is_the_average_trace(self):
        shortcuts = set()
        for a in flag_actions():
            group = enumerate_group(a)
            n = a.ambient.rank
            kernel = group.kernel_matrices()
            rank = la.fixed_rank(kernel, n)
            assert rank == len(la.fixed_kernel(kernel, n))
            assert la.fixed_rank(group.elements, n) == fixed_lattice(a, "all").rank
            shortcut = fixed_lattice(a, "kernel") is fixed_lattice(a, "all")
            assert shortcut == (rank == fixed_lattice(a, "all").rank)
            shortcuts.add(shortcut)
        assert shortcuts == {True, False}

    def test_refusals_come_without_reading_the_flag(self, monkeypatch):
        def unread(data):
            raise AssertionError("the flag was read")

        monkeypatch.setattr(group_actions, "_flag", unread)
        rng = random.Random(20261021)
        # the plus part of one reflector on 3U: positive index 0, 1 and 3
        # leave no flag, 2 leaves one
        for blocks, plus in (((NEG2,) * 3, 0), ((NSWAP2, NSWAP2, SWAP2), 1), ((SWAP2,) * 3, 3),
                             ((NSWAP2, SWAP2, SWAP2), 2)):
            a = LatticeAction(L6, (("c", helpers.block_diag(*blocks), -1),))
            for b in (la.identity(6), helpers.random_unimodular(rng, 6, 8)):
                ab = in_basis(a, b)
                assert signature(fixed_lattice(ab, "all").as_lattice()).plus == plus
                if plus == 2:
                    assert fundamental_data(ab).order_n == 1
                    continue
                with pytest.raises(VerificationError, match="^not almost geometric: no flag compatible with the declared signs$"):
                    fundamental_data(ab)
        # s negates the one positive direction the rotation leaves
        a = LatticeAction(L6, (("t", helpers.block_diag(ROT3, I2), 1),
                               ("s", helpers.block_diag(INV_A, NSWAP2), -1)))
        for b in (la.identity(6), helpers.random_unimodular(rng, 6, 8)):
            ab = in_basis(a, b)
            assert signature(fixed_lattice(ab, "all").as_lattice()).plus == 0
            with pytest.raises(VerificationError, match="^not almost geometric: no invariant positive direction$"):
                fundamental_data(ab)


class TestRhoLattice:
    def test_dihedral3_block(self):
        a = dihedral3()
        rho = rho_lattice(a, fundamental_data(a))
        assert rho.basis == tuple(la.identity(6)[:4])
        assert rho.gram() == standard_lattice("2U").gram
        assert rho.primitive

    def test_order_one_takes_kernel_fixed_part(self):
        a = antiflip()
        rho = rho_lattice(a, fundamental_data(a))
        assert rho.rank == 6

    def test_invariant_under_full_group(self):
        for action in (dihedral3(), dihedral4(), dihedral6(), sign_flip_pair()):
            fd = fundamental_data(action)
            rho = rho_lattice(action, fd)
            g = enumerate_group(action)
            for m in g.elements:
                r = la.restrict_to_span(m, rho.basis)
                assert r is not None and la.int_rows(r) is not None


class TestDilatedComplexStructure:
    def test_dihedral3_matrix(self):
        a = dihedral3()
        d = dilated_complex_structure(a, fundamental_data(a))
        expected = la.mat_add(la.mat_scale(2, ROT3), la.identity(4))
        assert d.matrix == expected
        assert d.multiplier == 3
        assert la.mat_mul(d.matrix, d.matrix) == la.mat_scale(-3, la.identity(4))

    def test_orders_four_and_six(self):
        d4 = dilated_complex_structure(dihedral4(), fundamental_data(dihedral4()))
        assert d4.matrix == la.mat_scale(2, ROT4)
        assert d4.multiplier == 4
        d6 = dilated_complex_structure(dihedral6(), fundamental_data(dihedral6()))
        assert d6.matrix == la.mat_sub(la.mat_scale(-2, ROT3), la.identity(4))
        assert d6.multiplier == 3

    def test_anti_selfadjoint(self):
        a = dihedral3()
        d = dilated_complex_structure(a, fundamental_data(a))
        g = la.freeze_mat(d.rho.gram())
        assert la.mat_mul(la.transpose(d.matrix), g) == la.mat_scale(-1, la.mat_mul(g, d.matrix))

    def test_broken_data_is_refused(self):
        # Honest data gives all the dilation needs: c is an isometry with
        # Phi_n(c) = 0, the kernel acts by powers of c and each -1 element
        # inverts it. Data whose blocks break one relation is refused on
        # construction, as data fundamental_data does not derive.
        t2 = la.mat_mul(helpers.block_diag(ROT3, I2), helpers.block_diag(ROT3, I2))
        a = LatticeAction(L6, dihedral3().generators + (("t2", t2, 1),))
        fd = fundamental_data(a)
        at = fd.group.table[0]
        w = fd.group.index_of(fd.witness)
        other = next(at[j] for j in (0, 2) if at[j] != w)  # a +1 generator that is not the witness
        assert w in (at[0], at[2]) and len(set(at)) == 3
        blocks = fd.rho_action
        shear = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        moved = la.mat_mul(la.mat_mul(shear, blocks[w]), la.inverse_int(shear))
        # the square, the adjoint, commuting with a +1 element and
        # anticommuting with a -1 element would each fail
        for index, block in ((w, la.identity(4)), (w, moved), (other, blocks[at[1]]), (at[1], la.identity(4))):
            rho_action = blocks[:index] + (block,) + blocks[index + 1:]
            with pytest.raises(InputError, match=REFUSED):
                FundamentalData(*(rho_action if f == "rho_action" else getattr(fd, f) for f in fields(FundamentalData)))

    def test_real_orders_rejected(self):
        for action in (antiflip(), sign_flip_pair()):
            with pytest.raises(ScopeError):
                dilated_complex_structure(action, fundamental_data(action))

    def test_exchanges_eigenparts(self):
        for action in (dihedral3(), dihedral3(INV_B), dihedral6()):
            fd = fundamental_data(action)
            d = dilated_complex_structure(action, fd)
            e = eigen_lattices(action, fd)
            for row in e.m_plus.basis:
                assert la.coords_in_rows(helpers.to_frac_vec(la.mat_vec(d.matrix, row)), e.m_minus.basis) is not None
            for row in e.m_minus.basis:
                assert la.coords_in_rows(helpers.to_frac_vec(la.mat_vec(d.matrix, row)), e.m_plus.basis) is not None


class TestEigenLattices:
    def test_dihedral3_split(self):
        a = dihedral3()
        e = eigen_lattices(a, fundamental_data(a))
        assert e.reflector_name == "s"
        assert e.m_plus.basis == ((1, 0, 1, -1), (0, 1, 0, 1))
        assert e.m_plus.gram() == ((-2, 2), (2, 0))
        assert e.m_minus.basis == ((1, 0, -1, -1), (0, 1, 0, -1))
        assert e.m_minus.gram() == ((2, 2), (2, 0))
        assert e.exponent == 2
        assert e.m_plus.primitive and e.m_minus.primitive

    def test_dihedral3_other_involution_split(self):
        a = dihedral3(INV_B)
        e = eigen_lattices(a, fundamental_data(a))
        assert e.m_plus.basis == ((1, 0, 0, 0), (0, 2, 0, -1))
        assert e.m_plus.gram() == ((0, 2), (2, 0))
        assert e.m_minus.basis == ((1, 0, 2, 0), (0, 0, 0, 1))
        assert e.m_minus.gram() == ((0, 2), (2, 0))
        assert e.exponent == 2

    def test_unique_minus_four_pair(self):
        # both eigenparts of the second involution carry exactly one pair
        # of square -4 vectors; the dilation sends the minus one off the
        # plus one's line
        a = dihedral3(INV_B)
        fd = fundamental_data(a)
        e = eigen_lattices(a, fd)
        plus4 = enumerate_vectors(e.m_plus.as_lattice(), -4, up_to_sign=True)
        minus4 = enumerate_vectors(e.m_minus.as_lattice(), -4, up_to_sign=True)
        assert len(plus4) == 1 and len(minus4) == 1
        w_plus = e.m_plus.to_ambient(plus4[0])
        w_minus = e.m_minus.to_ambient(minus4[0])
        assert sorted((abs(x) for x in w_plus), reverse=True) == [2, 1, 1, 0]
        j = dilated_complex_structure(a, fd).matrix
        jw = la.mat_vec(j, w_minus)
        assert la.coords_in_rows(helpers.to_frac_vec(jw), (w_plus,)) is None

    def test_order_two_split(self):
        a = sign_flip_pair()
        e = eigen_lattices(a, fundamental_data(a))
        assert e.m_plus.gram() == ((2, 0), (0, -2))
        assert e.m_minus.gram() == ((-2, 0), (0, 2))
        assert e.exponent == 2

    def test_antiflip_split(self):
        a = antiflip()
        e = eigen_lattices(a, fundamental_data(a))
        assert (e.m_plus.rank, e.m_minus.rank) == (4, 2)
        assert e.exponent == 1

    def test_exponent_clears_averaging(self):
        a = dihedral3()
        e = eigen_lattices(a, fundamental_data(a))
        c = la.restrict_to_span(e.reflector.matrix, e.rho.basis)

        for i in range(e.rho.rank):
            v = tuple(1 if t == i else 0 for t in range(e.rho.rank))
            cv = la.mat_vec(c, v)
            plus = tuple(Fraction(e.exponent * (x + y), 2) for x, y in zip(v, cv))
            minus = tuple(Fraction(e.exponent * (x - y), 2) for x, y in zip(v, cv))
            rows = la.int_rows((plus, minus))
            assert rows is not None
            assert e.m_plus.contains(rows[0]) and e.m_minus.contains(rows[1])

    def test_eigenparts_invariant_when_real(self):
        for action in (sign_flip_pair(), antiflip()):
            fd = fundamental_data(action)
            e = eigen_lattices(action, fd)
            g = enumerate_group(action)
            for m in g.elements:
                r = la.int_rows(la.restrict_to_span(m, e.rho.basis))
                for part in (e.m_plus, e.m_minus):
                    for row in part.basis:
                        assert part.contains(la.mat_vec(r, row))

    def test_holomorphic_action_rejected(self):
        a = LatticeAction(L6, (("r", helpers.block_diag(ROT4, I2), 1),))
        with pytest.raises(InputError):
            eigen_lattices(a, fundamental_data(a))

    def test_reflector_that_is_no_involution_on_the_block_is_refused(self):
        # fundamental_data leaves every -1 generator an involution on the
        # block; data that puts the rotation in its place is refused, and
        # so is eigendata whose reflector is the rotation
        a = dihedral3()
        fd = fundamental_data(a)
        s = fd.group.table[0][1]
        rho_action = tuple(fd.rho_action[0 if i == s else i] if i != s else fd.rho_action[fd.group.table[0][0]]
                           for i in range(len(fd.group)))
        with pytest.raises(InputError, match=REFUSED):
            FundamentalData(*(rho_action if f == "rho_action" else getattr(fd, f) for f in fields(FundamentalData)))
        e = eigen_lattices(a, fd)
        with pytest.raises(InputError, match="^the reflector must be an Isometry restricting to an involution of the block$"):
            EigenData("t", a.generators[0][1], e.rho, e.m_plus, e.m_minus, e.exponent)

    def test_reflector_block_that_is_no_isometry_is_refused(self):
        # diag(1, 1, 1, -1) is an involution of the block but no isometry
        # of it: its eigenparts, of ranks 3 and 1, would not be orthogonal
        a = dihedral3()
        fd = fundamental_data(a)
        s = fd.group.table[0][1]
        bad = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
        rho_action = fd.rho_action[:s] + (bad,) + fd.rho_action[s + 1:]
        with pytest.raises(InputError, match=REFUSED):
            FundamentalData(*(rho_action if f == "rho_action" else getattr(fd, f) for f in fields(FundamentalData)))

    def test_reflector_block_of_a_reflector_that_moves_the_block_is_refused(self):
        a = dihedral3()
        e = eigen_lattices(a, fundamental_data(a))
        swap = Isometry(L6, SOME_ISOMETRIES_3U[5])  # moves the first U summand to the second
        rho = Sublattice(L6, la.identity(6)[:2])
        with pytest.raises(InputError, match="^the reflector must be an Isometry restricting to an involution of the block$"):
            EigenData(e.reflector_name, swap, rho, e.m_plus, e.m_minus, e.exponent)


class TestIsGeometric:
    def test_dihedral_fixtures_geometric(self):
        for action in (dihedral3(), dihedral3(INV_B)):
            fd = fundamental_data(action)
            assert is_geometric(action, fd) == (True, ())

    def test_reflection_blocked_by_root(self):
        l7 = standard_lattice("3U+A1")
        refl = tuple(
            tuple((1 if i < 6 else -1) if i == j else 0 for j in range(7)) for i in range(7)
        )
        a = LatticeAction(l7, (("r", refl, 1),))
        fd = fundamental_data(a)
        assert fd.order_n == 1
        geo, report = is_geometric(a, fd)
        assert geo is False
        assert report == ((0, 0, 0, 0, 0, 0, 1),)

    def test_a_null_leftover_part_is_refused(self):
        # 3U plus a null line the generator negates: the leftover part is
        # that line
        l = make_lattice(helpers.block_diag(L6.gram, ((0,),)))
        a = LatticeAction(l, (("n", helpers.block_diag(la.identity(6), ((-1,),)), 1),))
        fd = fundamental_data(a)
        assert leftover_lattice(a, fd).basis == ((0,) * 6 + (1,),)
        with pytest.raises(VerificationError, match="^leftover part is not negative definite$"):
            is_geometric(a, fd)

    def test_antiflip_geometric(self):
        a = antiflip()
        assert is_geometric(a, fundamental_data(a)) == (True, ())


class TestRank22Fixtures:
    def test_kappa_flip(self):
        l22 = standard_lattice("3U+2E8")
        flip = tuple(
            tuple((-1 if i < 2 else 1) if i == j else 0 for j in range(22)) for i in range(22)
        )
        a = LatticeAction(l22, (("c", flip, -1),))
        fd = fundamental_data(a)
        assert (fd.order_n, fd.real) == (1, True)
        assert is_geometric(a, fd) == (True, ())

    def test_e8_swap(self):
        l22 = standard_lattice("3U+2E8")
        swap = [[0] * 22 for _ in range(22)]
        for i in range(6):
            swap[i][i] = 1
        for i in range(8):
            swap[6 + i][14 + i] = 1
            swap[14 + i][6 + i] = 1
        a = LatticeAction(l22, (("w", tuple(map(tuple, swap)), 1),))
        fd = fundamental_data(a)
        assert (fd.order_n, fd.real) == (1, True)
        geo, report = is_geometric(a, fd)
        assert geo is True and report == ()
        leftover = orthogonal_complement(
            l22, sublattice_sum(l22, fixed_lattice(a, "all"), rho_lattice(a, fd))
        )
        assert leftover.rank == 8
        assert leftover.gram() == la.mat_scale(2, standard_lattice("E8").gram)

    def test_leftover_of_rho_that_is_the_fixed_lattice_stacks_its_rows_once(self, monkeypatch):
        # with no -1 generator rho is the fixed lattice, so the sum behind
        # the leftover puts the fixed lattice's rows into one HNF once
        a = fixture("e8_swap").action
        fd = fundamental_data(a)
        assert fd.rho == fd.fixed and fd.rho.rank < a.ambient.rank
        expected = orthogonal_complement(a.ambient, fd.fixed)
        # a Sublattice puts its checked rows into la._hermite directly
        hnfs = helpers.count_calls(monkeypatch, la, "_hermite")
        assert leftover_lattice(a, fd) == expected
        assert max(len(args[0]) for args in hnfs) == fd.fixed.rank

    def test_e8_swap_with_a_sign_reversing_flip(self, monkeypatch):
        # the sign kernel is nontrivial, so its fixed lattice is a proper
        # block, and the first -1 generator is restricted to it: every
        # other element acts there as the identity or as that block
        l22 = standard_lattice("3U+2E8")
        flip = tuple(
            tuple((-1 if i in (4, 5) else 1) if i == j else 0 for j in range(22)) for i in range(22)
        )
        a = LatticeAction(l22, (("w", _swap_matrix(), 1), ("s", flip, -1)))
        calls = helpers.count_calls(monkeypatch, group_actions, "_restrict")
        fd = fundamental_data(a)
        assert (len(fd.group), fd.order_n, fd.real) == (4, 1, True)
        assert fd.rho.rank == 14 and len(calls) == 1 and calls[0][0] == a.generators[1][1].matrix
        ident = la.identity(14)
        for m, k, r in zip(fd.group.elements, fd.group.kappas, fd.rho_action):
            assert r == la.restrict_to_span(m, fd.rho.basis)
            assert (r == ident) == (k == 1)
        assert is_geometric(a, fd) == (True, ())
        assert leftover_lattice(a, fd).rank == 8


class TestExtendEquivariantly:
    def test_signs_extend(self):
        a = dihedral3()
        fd = fundamental_data(a)
        e = eigen_lattices(a, fd)
        ext = extend_equivariantly(a, fd, e, la.identity(2))
        assert ext.matrix == la.identity(4)
        ext = extend_equivariantly(a, fd, e, la.mat_scale(-1, la.identity(2)))
        assert ext.matrix == la.mat_scale(-1, la.identity(4))

    def test_shear_like_isometry_does_not_extend(self):
        a = dihedral3()
        fd = fundamental_data(a)
        e = eigen_lattices(a, fd)
        m = ((-1, 2), (0, 1))
        assert is_isometry(e.m_plus.as_lattice(), m)
        assert extend_equivariantly(a, fd, e, m) is None

    def test_hyperbolic_swaps_do_not_extend(self):
        a = dihedral3(INV_B)
        fd = fundamental_data(a)
        e = eigen_lattices(a, fd)
        assert extend_equivariantly(a, fd, e, SWAP2) is None
        assert extend_equivariantly(a, fd, e, NSWAP2) is None
        assert extend_equivariantly(a, fd, e, la.identity(2)).matrix == la.identity(4)

    def test_returned_extension_commutes_with_dilation(self):
        # orders 3, 4 and 6 (multipliers 3, 4 and 3), each in the standard
        # basis and two random ones, on every isometry of the plus part
        # with entries in [-4, 4]. The rational oracle writes the block in
        # the plus basis followed by the minus basis (the columns of x),
        # where the extension of m is diag(m, c^-1 m c) for the plus
        # coordinates c of J applied to the minus rows; the extension
        # exists exactly when that matrix is integral in block coordinates.
        rng = random.Random(6)
        for make, k in itertools.product((dihedral3, dihedral4, dihedral6), range(3)):
            b = helpers.random_unimodular(rng, 6, 8) if k else la.identity(6)
            a = in_basis(make(), b)
            fd = fundamental_data(a)
            e = eigen_lattices(a, fd)
            j = dilated_complex_structure(a, fd).matrix
            plus, minus = e.m_plus, e.m_minus
            x = helpers.to_frac_mat(la.transpose(plus.basis + minus.basis))
            c = helpers.to_frac_mat(la.transpose([la.coords_in_rows(la.mat_vec(j, v), plus.basis)
                                                  for v in minus.basis]))
            squares = (tuple(zip(*[iter(t)] * plus.rank))
                       for t in itertools.product(range(-4, 5), repeat=plus.rank ** 2))
            extending = 0
            for m in (m for m in squares if is_isometry(plus.as_lattice(), m)):
                m_minus = la.mat_mul(la.mat_mul(helpers.inverse(c), m), c)
                ext = la.mat_mul(la.mat_mul(x, helpers.block_diag(m, m_minus)), helpers.inverse(x))
                got = extend_equivariantly(a, fd, e, m)
                if any(y.denominator != 1 for row in ext for y in row):
                    assert got is None, (make.__name__, b, m)
                    continue
                extending += 1
                assert got.matrix == ext, (make.__name__, b, m)
                assert la.mat_mul(got.matrix, j) == la.mat_mul(j, got.matrix)
            assert extending, (make.__name__, b)

    def test_hand_built_eigenparts_the_dilation_does_not_exchange_are_refused(self):
        # eigenparts that are not the reflector's split are refused on
        # construction; the eigendata of another action on the same block
        # is refused because its reflector is no element of this group
        a = dihedral3()
        fd = fundamental_data(a)
        e = eigen_lattices(a, fd)
        with pytest.raises(InputError, match="^eigenparts and exponent must be the split of the reflector's block$"):
            EigenData(e.reflector_name, e.reflector, e.rho, e.m_plus, e.m_plus, e.exponent)
        b = in_basis(a, SOME_ISOMETRIES_3U[1])  # swaps e and f of the second U summand
        fb = fundamental_data(b)
        assert fb.rho == fd.rho
        with pytest.raises(InputError, match="^eigen data belongs to a different action$"):
            extend_equivariantly(b, fb, e, la.identity(2))

    def test_eigenparts_of_different_ranks_are_refused(self):
        # the antiflip's plus part has rank 4, its minus part rank 2: at
        # order 1 there is no dilation to exchange them
        a = antiflip()
        fd = fundamental_data(a)
        e = eigen_lattices(a, fd)
        with pytest.raises(ScopeError, match="^no integral dilation for this rotation order$"):
            extend_equivariantly(a, fd, e, la.identity(4))

    def test_non_isometry_rejected(self):
        a = dihedral3()
        fd = fundamental_data(a)
        e = eigen_lattices(a, fd)
        with pytest.raises(InputError):
            extend_equivariantly(a, fd, e, ((1, 1), (0, 1)))
        for m in (((Fraction(1, 2), 0), (0, 1)), ((1.0, 0), (0, 1)), ((True, 0), (0, 1))):
            with pytest.raises(InputError, match="not an integer isometry"):
                extend_equivariantly(a, fd, e, m)

    def test_integral_fraction_map_extends_to_int_entries(self, monkeypatch):
        a = dihedral3()
        fd = fundamental_data(a)
        e = eigen_lattices(a, fd)
        for m in (la.identity(2), la.mat_scale(-1, la.identity(2))):
            expected = extend_equivariantly(a, fd, e, m)
            frac = helpers.to_frac_mat(m)
            # the map is converted to ints once on entry: no Fraction
            # arithmetic runs on the way to the extension
            made = []
            original = Fraction.__new__

            def recording(cls, *args, **kwargs):
                made.append(args)
                return original(cls, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", staticmethod(recording))
                ext = extend_equivariantly(a, fd, e, frac)
            assert ext == expected and made == []
            assert {type(x) for row in ext.matrix for x in row} == {int}


class TestWedgeSquare:
    def test_basis_presents_the_pairing_as_3u(self):
        # e_i ^ e_j . e_k ^ e_l is the sign of the permutation (i, j, k, l),
        # 0 when an index repeats; wedge_square changes to this basis once
        pairs = group_actions._WEDGE_PAIRS
        pairing = tuple(tuple(helpers.perm_sign(a + b) if len(set(a + b)) == 4 else 0 for b in pairs)
                        for a in pairs)
        p = group_actions._WEDGE_TO_U
        assert la.mat_mul(la.mat_mul(la.transpose(p), pairing), p) == L6.gram
        assert la.mat_mul(la.transpose(p), p) == la.identity(6)

    def test_identity_and_negation(self):
        assert wedge_square(la.identity(4)).matrix == la.identity(6)
        assert wedge_square(la.mat_scale(-1, la.identity(4))).matrix == la.identity(6)

    def test_multiplicative_and_even(self):
        rng = random.Random(5)
        for _ in range(300):
            x = helpers.random_unimodular(rng, 4)
            if la.det(x) != 1:
                x = tuple((la.mat_scale(-1, x)[i] if i == 0 else x[i]) for i in range(4))
            y = helpers.random_unimodular(rng, 4)
            if la.det(y) != 1:
                y = tuple((la.mat_scale(-1, y)[i] if i == 0 else y[i]) for i in range(4))
            wx, wy = wedge_square(x), wedge_square(y)
            assert wedge_square(la.mat_mul(x, y)).matrix == la.mat_mul(wx.matrix, wy.matrix)
            assert wedge_square(la.mat_scale(-1, x)).matrix == wx.matrix
            assert wx.det == 1

    def test_rejects_wrong_determinant(self):
        swap = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(InputError):
            wedge_square(swap)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InputError):
            wedge_square(la.identity(3))


# order -> a matrix of that order: the companion matrices of the quartic
# cyclotomic polynomials, and for 6 a third-root block beside a sixth-root one
OF_ORDER = {n: la.transpose(la.identity(4)[1:] + (tuple(-c for c in la.cyclotomic(n)[:4]),)) for n in (5, 8, 10, 12)}
OF_ORDER[6] = helpers.block_diag(((0, -1), (1, -1)), ((0, -1), (1, 1)))


class TestConjugationObstruction:
    @pytest.mark.parametrize("n", sorted(OF_ORDER))
    def test_order_from_the_closure_and_outcome(self, n):
        m = OF_ORDER[n]
        assert len(la.group_closure([m], 4, 60)[0]) == helpers.matrix_order(m) == n
        if n in (5, 10):  # the wedge square has no eigenvalue -1
            with pytest.raises(InputError, match="multiplicity at least two"):
                conjugation_obstruction(m)
        else:
            assert conjugation_obstruction(m) is True

    def test_companion_of_eighth_cyclotomic(self):
        comp = ((0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        assert conjugation_obstruction(comp) is True

    def test_third_plus_sixth_roots(self):
        m = helpers.block_diag(((0, -1), (1, -1)), ((0, -1), (1, 1)))
        assert helpers.matrix_order(m) == 6
        assert conjugation_obstruction(m) is True

    def test_repeated_third_roots_lack_multiplicity(self):
        m = helpers.block_diag(((0, -1), (1, -1)), ((0, -1), (1, -1)))
        with pytest.raises(InputError):
            conjugation_obstruction(m)

    def test_low_order_rejected(self):
        with pytest.raises(InputError):
            conjugation_obstruction(la.identity(4))
        with pytest.raises(InputError):
            conjugation_obstruction(la.mat_scale(-1, la.identity(4)))

    def test_rotation_with_fixed_plane_rejected(self):
        m = helpers.block_diag(((0, -1), (1, 0)), I2)
        with pytest.raises(InputError):
            conjugation_obstruction(m)

    def test_infinite_order_rejected(self):
        m = helpers.block_diag(((1, 1), (0, 1)), I2)
        with pytest.raises(ScopeError):
            conjugation_obstruction(m)

    def test_wrong_determinant_rejected(self):
        m = helpers.block_diag(SWAP2, I2)
        with pytest.raises(InputError):
            conjugation_obstruction(m)

    def test_invariant_under_conjugation(self):
        rng = random.Random(11)
        comp = ((0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        for _ in range(100):
            u = helpers.random_unimodular(rng, 4)
            m = la.mat_mul(la.mat_mul(u, comp), la.inverse_int(u))
            assert conjugation_obstruction(m) is True
