"""Catalog checks: fixtures, the bounded order-3 search on U+U, the
symplectic survey, and the staged pipeline over the order-6 actions."""

import re
from functools import lru_cache

import pytest

import helpers
import lattact
import lattact.linalg as la
from lattact import (
    InputError,
    LatticeAction,
    ScopeError,
    VerificationError,
    classify_order3_on_2U,
    d3_full_pipeline,
    enumerate_group,
    fixture,
    fundamental_data,
    is_geometric,
    is_isometry,
    leftover_lattice,
    signature,
    standard_lattice,
    torus_symplectic_survey,
)
from lattact.lattice import sublattice_from_rows
from lattact.catalog import (
    FIXTURE_NAMES,
    MAX_ENTRY_BOUND,
    Fixture,
    REFLECTION_MAIN,
    REFLECTION_SPLIT,
    ROTATION_2U,
)

PIPELINE_LABELS = ("group", "fundamental", "fixed", "rotation", "eigen", "geometric", "walls")

# isometries of U+U used to probe conjugation closure of the order-3 search
SUMMAND_SWAP = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))


@lru_cache(maxsize=None)
def bound_two_report():
    return classify_order3_on_2U(2)


def embed22(block):
    rows = [[0] * 22 for _ in range(22)]
    for i in range(4):
        rows[i][:4] = block[i]
    for i in range(4, 22):
        rows[i][i] = 1
    return tuple(map(tuple, rows))


class TestFixtures:
    def test_every_name_builds_and_validates(self):
        for name in FIXTURE_NAMES:
            fx = fixture(name)
            assert fx.name == name
            for _, iso, kappa in fx.action.generators:
                assert is_isometry(fx.action.ambient, iso.matrix)
                assert kappa in (1, -1)
            if "group_order" in fx.expected:
                assert len(enumerate_group(fx.action)) == fx.expected["group_order"]

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError):
            fixture("unit_cube")

    def test_origin_tags_cover_expected_keys(self):
        for name in FIXTURE_NAMES:
            fx = fixture(name)
            assert set(fx.expected) == set(fx.origins)
            assert set(fx.origins.values()) <= {"claimed", "recorded"}

    def test_origin_tag_validation(self):
        act = fixture("torus_lattice").action
        with pytest.raises(InputError):
            Fixture("x", act, {"a": 1}, {"a": "guessed"})
        with pytest.raises(InputError):
            Fixture("x", act, {"a": 1}, {})

    @pytest.mark.parametrize("bad", [None, 7, (), [[1, 2], [3]]])
    def test_records_that_are_not_dicts_are_refused(self, bad):
        act = fixture("torus_lattice").action
        with pytest.raises(InputError, match="dicts"):
            Fixture("x", act, {"a": 1}, bad)
        with pytest.raises(InputError):
            Fixture("x", act, bad, {"a": "claimed"})

    def test_unimodular_records(self):
        for name in ("k3_lattice", "torus_lattice"):
            fx = fixture(name)
            g = fx.action.ambient.gram
            sig = signature(fx.action.ambient)
            assert (sig.plus, sig.minus) == fx.expected["signature"]
            assert all(g[i][i] % 2 == 0 for i in range(len(g)))
            assert la.det(g) == fx.expected["determinant"]

    def test_d3_generator_blocks(self):
        s_fx = fixture("d3_S")
        t, s = (gen[1].matrix for gen in s_fx.action.generators)
        assert t == embed22(ROTATION_2U)
        assert s == embed22(REFLECTION_MAIN)
        assert tuple(gen[2] for gen in s_fx.action.generators) == (1, -1)
        p_fx = fixture("d3_Sprime")
        assert p_fx.action.generators[1][1].matrix == embed22(REFLECTION_SPLIT)

    def test_dihedral_relations(self):
        for name in ("d3_S", "d3_Sprime"):
            t, s = (gen[1].matrix for gen in fixture(name).action.generators)
            ident = la.identity(22)
            assert helpers.mat_pow(t, 3) == ident and t != ident
            assert helpers.mat_pow(s, 2) == ident and s != ident
            assert la.mat_mul(la.mat_mul(s, t), s) == helpers.mat_pow(t, 2)

    def test_swap_fixture_record(self):
        fx = fixture("e8_swap")
        fd = fundamental_data(fx.action)
        assert (fd.order_n, fd.real) == (
            fx.expected["rotation_order"],
            fx.expected["real"],
        )
        geo, witnesses = is_geometric(fx.action, fd)
        assert geo is fx.expected["geometric"] and witnesses == ()
        ld = leftover_lattice(fx.action, fd)
        assert ld.rank == fx.expected["ldot_rank"]
        assert ld.gram() == fx.expected["ldot_gram"]


class TestClassifyOrder3:
    def test_bound_two_hits(self):
        rep = bound_two_report()
        assert rep.classes == ("0", "A2", "A2(-1)")
        assert len(rep.hits) == 24
        l = standard_lattice("2U")
        ident = la.identity(4)
        mats = {h.matrix for h in rep.hits}
        assert ROTATION_2U in mats
        for h in rep.hits:
            assert is_isometry(l, h.matrix)
            assert h.matrix != ident
            assert helpers.mat_pow(h.matrix, 3) == ident
            for row in h.fixed_basis:
                assert la.mat_vec(h.matrix, row) == row

    def test_fixed_classes_match_their_lattices(self):
        l = standard_lattice("2U")
        for h in bound_two_report().hits:
            sub = sublattice_from_rows(l, h.fixed_basis)
            if h.fixed_class == "0":
                assert sub.rank == 0
                continue
            g = sub.gram()
            assert la.det(g) == 3
            if h.fixed_class == "A2":
                assert g[0][0] < 0
            else:
                assert h.fixed_class == "A2(-1)" and g[0][0] > 0

    def test_closed_under_squaring(self):
        rep = bound_two_report()
        mats = {h.matrix for h in rep.hits}
        for m in mats:
            assert helpers.mat_pow(m, 2) in mats

    def test_closed_under_bounded_conjugation(self):
        rep = bound_two_report()
        mats = {h.matrix for h in rep.hits}
        probed = 0
        for p in (SUMMAND_SWAP, REFLECTION_MAIN, la.mat_scale(-1, la.identity(4))):
            assert is_isometry(standard_lattice("2U"), p)
            pinv = la.inverse_int(p)
            for m in mats:
                c = la.mat_mul(la.mat_mul(p, m), pinv)
                if max(abs(x) for row in c for x in row) <= 2:
                    assert c in mats
                    probed += 1
        assert probed > 0

    def test_small_bounds(self):
        assert classify_order3_on_2U(0).hits == ()
        assert len(classify_order3_on_2U(1).hits) == 24

    @pytest.mark.parametrize("bound", [0, 1, 2, 3])
    def test_report_equals_the_filtering_search(self, bound):
        # the candidate-set intersection and the one-product leaf test
        # T . T = g T^T g must find what filtering the first column's
        # partners by every other column and testing T^3 = I found
        assert classify_order3_on_2U(bound) == helpers.classify_order3_on_2U_by_filtering(bound)

    def test_a_bound_past_the_cap_is_out_of_scope(self):
        for bound in (MAX_ENTRY_BOUND + 1, 10**20):
            with pytest.raises(ScopeError, match=str(MAX_ENTRY_BOUND)):
                classify_order3_on_2U(bound)

    def test_bad_bounds_rejected(self):
        with pytest.raises(InputError):
            classify_order3_on_2U(-1)
        with pytest.raises(InputError):
            classify_order3_on_2U(1.5)

    def test_a_bool_bound_is_rejected(self):
        with pytest.raises(InputError):
            classify_order3_on_2U(True)

    def test_note_states_the_bound(self):
        assert "[-2, 2]" in bound_two_report().note


class TestSurvey:
    def test_orders_counted_two_ways(self):
        rep = torus_symplectic_survey()
        assert rep.all_consistent
        by_name = {e.system: e for e in rep.entries}
        assert set(by_name) == {"A3", "A2+A1", "3A1"}
        for name, (w, so) in {"A3": (24, 12), "A2+A1": (12, 6), "3A1": (8, 4)}.items():
            e = by_name[name]
            assert (e.weyl_order, e.rotation_order) == (w, so)
            assert (e.weyl_order_formula, e.rotation_order_formula) == (w, so)

    def test_embeddings_are_exact(self):
        e8 = standard_lattice("E8")
        for entry in torus_symplectic_survey().entries:
            for r in entry.embedding:
                assert e8.dot(r, r) == -2
            gram = tuple(
                tuple(e8.dot(u, v) for v in entry.embedding) for u in entry.embedding
            )
            assert gram == entry.gram

    def test_deterministic(self):
        assert torus_symplectic_survey() == torus_symplectic_survey()

    def test_a_gram_no_e8_roots_realize_is_refused(self, monkeypatch):
        # two roots pair to at most 2 in absolute value: the search backtracks
        # through every first root and fails
        from lattact import catalog

        e8 = standard_lattice("E8")
        with pytest.raises(VerificationError, match="no embedding into E8 found"):
            catalog._embed_into_e8(((-2, 3), (3, -2)), e8, lattact.roots_of(e8).roots)
        # an embedding that pairs wrongly makes the survey inconsistent
        monkeypatch.setattr(catalog, "_embed_into_e8", lambda gram, e8, roots: roots[:len(gram)])
        assert not torus_symplectic_survey().all_consistent


class TestPipeline:
    def test_an_action_without_two_generators_fails_the_group_stage(self):
        act = fixture("d3_S").action
        rep = d3_full_pipeline("S", LatticeAction(act.ambient, act.generators[:1]))
        assert rep.entries == (("group", False, "expected two generators, got 1"),)

    @pytest.mark.parametrize("gram, name", [
        (((0, 1), (1, 0)), "U"),
        (((2, 0), (0, -2)), "diag(2,-2)"),
        (((0, 2), (2, 0)), "U(2)"),
        (((0, 1, 0), (1, 0, 0), (0, 0, -2)), "split-form naming needs rank 2"),
        (((-2, 0), (0, -2)), "split-form naming needs signature (1,1)"),
        (((0, 3), (3, 0)), "split-form naming covers determinants -1 and -4 only"),
    ])
    def test_split_rank2_classes(self, gram, name):
        from lattact.catalog import _split_rank2_class

        l = lattact.make_lattice(gram)
        if name.startswith("split-form"):
            with pytest.raises(ScopeError, match=re.escape(name)):
                _split_rank2_class(l)
        else:
            assert _split_rank2_class(l) == name

    def test_variant_s_passes_every_stage(self):
        rep = d3_full_pipeline("S")
        assert tuple(label for label, _, _ in rep.entries) == PIPELINE_LABELS
        assert all(ok for _, ok, _ in rep.entries)
        assert rep.all_passed

    def test_variant_sprime_passes_every_stage(self):
        rep = d3_full_pipeline("Sprime")
        assert tuple(label for label, _, _ in rep.entries) == PIPELINE_LABELS
        assert rep.all_passed

    def test_leftover_lattice_derived_once(self, monkeypatch):
        from helpers import count_calls
        from lattact import lattice

        calls = count_calls(monkeypatch, lattice, "sublattice_sum")
        assert d3_full_pipeline("Sprime").all_passed
        assert len(calls) == 1  # fixed + rho, the leftover lattice's input

    def test_group_closed_once(self, monkeypatch):
        from helpers import count_calls
        from lattact import group_actions

        calls = count_calls(monkeypatch, group_actions, "enumerate_group")
        assert d3_full_pipeline("S").all_passed
        assert len(calls) == 1

    def test_relations_read_off_the_group_table(self):
        # linalg has no matrix power to compute the relations with
        assert not hasattr(la, "mat_pow")
        rep = d3_full_pipeline("S")
        assert rep.entries[0] == ("group", True, "order 6, relations hold")
        # with the generators swapped, s^3 = 1 and t^2 = 1 fail
        a = fixture("d3_S").action
        rep = d3_full_pipeline("S", action=LatticeAction(a.ambient, a.generators[::-1]))
        assert rep.entries == (("group", False, "order 6, relations fail"),)

    def test_unknown_variant_rejected(self):
        with pytest.raises(InputError):
            d3_full_pipeline("T")

    def test_corrupted_sign_fails_in_the_group_stage(self):
        l = standard_lattice("3U+2E8")
        bad = LatticeAction(
            l,
            (
                ("t", embed22(ROTATION_2U), -1),
                ("s", embed22(REFLECTION_MAIN), -1),
            ),
        )
        rep = d3_full_pipeline("S", action=bad)
        assert not rep.all_passed
        label, ok, note = rep.entries[0]
        assert label == "group" and not ok
        assert "homomorphism" in note
        assert len(rep.entries) == 1

    @pytest.mark.parametrize(
        "name, label",
        [
            ("fundamental_data", "group"),
            ("eigen_lattices", "eigen"),
            ("is_geometric", "geometric"),
            ("dilated_complex_structure", "walls"),
        ],
    )
    def test_an_error_is_reported_by_the_stage_that_raised(self, monkeypatch, name, label):
        from lattact import catalog

        def refuse(*args):
            raise ScopeError("refused")

        monkeypatch.setattr(catalog, name, refuse)
        rep = d3_full_pipeline("S")
        assert not rep.all_passed
        assert rep.entries[-1] == (label, False, "ScopeError: refused")
        assert all(ok for _, ok, _ in rep.entries[:-1])
        assert tuple(lab for lab, _, _ in rep.entries) == PIPELINE_LABELS[: len(rep.entries)]

    def test_wrong_action_fails_at_the_eigen_stage(self):
        rep = d3_full_pipeline("S", action=fixture("d3_Sprime").action)
        assert not rep.all_passed
        assert [label for label, ok, _ in rep.entries if not ok] == ["eigen"]
        assert rep.entries[-1][0] == "eigen"
