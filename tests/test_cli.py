"""Command-line behavior: file format round trips, report content per
command, the exit-code contract, and byte determinism."""

import ast
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lattact
import lattact.linalg as la
from lattact import InputError, LatticeAction, make_lattice, standard_lattice
from lattact.catalog import FIXTURE_NAMES, fixture
from lattact.cli import action_to_text, main, parse_action_text

ROT3 = ((0, 0, -1, 0), (0, -1, 0, -1), (1, 0, -1, 0), (0, 1, 0, 0))
INV_A = ((0, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0), (0, 1, -1, 0))

ZERO18 = "0," * 17 + "0"
U1_MINUS_V1 = "1,-1," + ZERO18 + ",0,0"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_dict(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def block_diag(*mats):
    n = sum(len(m) for m in mats)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i, r in enumerate(m):
            for j, x in enumerate(r):
                rows[off + i][off + j] = x
        off += len(m)
    return tuple(map(tuple, rows))


def write_action(tmp_path, name, action, comment=None):
    path = tmp_path / name
    path.write_text(action_to_text(action, comment))
    return str(path)


def catalog_file(capsys, tmp_path, name):
    code, out, _ = run(capsys, "catalog", name)
    assert code == 0
    path = tmp_path / f"{name}.json"
    path.write_text(out)
    return str(path)


def reflection_rank7_action():
    gram = block_diag(standard_lattice("3U").gram, ((-2,),))
    t = block_diag(ROT3, la.identity(2), ((1,),))
    s = block_diag(INV_A, la.identity(2), ((-1,),))
    return LatticeAction(make_lattice(gram), (("t", t, 1), ("s", s, -1)))


class TestActionFiles:
    def test_export_parse_export_is_identity(self, capsys):
        for name in FIXTURE_NAMES:
            _, out, _ = run(capsys, "catalog", name)
            action, comment = parse_action_text(out)
            assert action_to_text(action, comment) == out

    def test_integers_are_plain_decimal_strings(self, capsys):
        _, out, _ = run(capsys, "catalog", "d3_S")
        obj = json.loads(out)
        pattern = re.compile(r"^-?(0|[1-9][0-9]*)$")
        for row in obj["gram"]:
            assert all(pattern.match(x) for x in row)
        for gen in obj["generators"]:
            assert gen["kappa"] in ("+1", "-1")
            for row in gen["matrix"]:
                assert all(pattern.match(x) for x in row)

    def test_key_order_and_trailing_newline(self, capsys):
        _, out, _ = run(capsys, "catalog", "d3_S")
        assert out.endswith("\n") and not out.endswith("\n\n")
        obj = json.loads(out)
        assert list(obj) == ["comment", "gram", "generators"]
        assert list(obj["generators"][0]) == ["name", "matrix", "kappa"]

    def test_comment_round_trips(self):
        act = fixture("torus_lattice").action
        text = action_to_text(act, "a note")
        _, comment = parse_action_text(text)
        assert comment == "a note"
        assert "comment" not in json.loads(action_to_text(act))

    def test_parse_rejections(self):
        good = json.loads(action_to_text(fixture("torus_lattice").action))
        cases = []
        bad = dict(good)
        bad["extra"] = 1
        cases.append(json.dumps(bad))
        bad = dict(good)
        del bad["gram"]
        cases.append(json.dumps(bad))
        bad = json.loads(json.dumps(good))
        bad["generators"][0]["kappa"] = "1"
        cases.append(json.dumps(bad))
        bad = json.loads(json.dumps(good))
        bad["gram"][0][0] = "1.5"
        cases.append(json.dumps(bad))
        bad = json.loads(json.dumps(good))
        bad["generators"][0]["matrix"][0][0] = "7"
        cases.append(json.dumps(bad))
        cases.append("not structured")
        cases.append(json.dumps([1, 2]))
        for text in cases:
            with pytest.raises(InputError):
                parse_action_text(text)


class TestCheck:
    def test_d3_s_report(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "d3_S")
        code, out, _ = run(capsys, "check", path, "--format=lines")
        assert code == 0
        rep = lines_dict(out)
        assert rep["geometric"] == "true"
        assert rep["rho.order"] == "3"
        assert rep["rho.real"] == "false"
        assert rep["group.order"] == "6"
        assert rep["lattice.signature"] == "3,19,0"
        assert rep["ldot.rank"] == "0"
        expected_gram = ";".join(
            ",".join(str(x) for x in row) for row in standard_lattice("U+2E8").gram
        )
        assert rep["fixed.gram"] == expected_gram
        assert "geometric.witness" not in rep

    def test_leftover_lattice_derived_once(self, capsys, tmp_path, monkeypatch):
        from helpers import count_calls
        from lattact import lattice

        path = catalog_file(capsys, tmp_path, "d3_S")
        calls = count_calls(monkeypatch, lattice, "sublattice_sum")
        code, _, _ = run(capsys, "check", path, "--format=lines")
        assert code == 0
        assert len(calls) == 1  # fixed + rho, the leftover lattice's input

    def test_reflection_action_fails_geometric(self, capsys, tmp_path):
        path = write_action(tmp_path, "refl.json", reflection_rank7_action())
        code, out, _ = run(capsys, "check", path, "--format=lines")
        assert code == 1
        rep = lines_dict(out)
        assert rep["geometric"] == "false"
        assert rep["geometric.witness"] == "0,0,0,0,0,0,1"

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"gram": [["0", "1"], ["1"]]')
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read" in err

    def test_human_format_has_header(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "torus_lattice")
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        assert out.splitlines()[0].startswith("check ")
        assert "  geometric = true" in out


class TestWalls:
    def test_d3_s(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "d3_S")
        code, out, _ = run(capsys, "walls", path, "--format=lines")
        assert code == 0
        rep = lines_dict(out)
        assert rep["walls.count"] == "2"
        assert rep["components"] == "3"
        assert rep["walls.complete"] == "true"
        assert rep["walls.candidates"] == "10"
        assert rep["walls.rays"] == "3,2;1,1"

    def test_d3_sprime(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "d3_Sprime")
        code, out, _ = run(capsys, "walls", path, "--format=lines")
        assert code == 0
        rep = lines_dict(out)
        assert rep["walls.count"] == "0"
        assert rep["components"] == "1"
        assert rep["walls.rays"] == ""

    def test_negative_bound_exit_2(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "d3_S")
        code, out, err = run(capsys, "walls", path, "--bound", "-1")
        assert (code, out) == (2, "")
        assert err == "error: search bound must be a nonnegative integer\n"

    def test_sign_trivial_action_is_out_of_scope(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "e8_swap")
        code, _, err = run(capsys, "walls", path)
        assert code == 3
        assert "anti-holomorphic" in err

    def test_rank_four_eigenlattice_is_out_of_scope(self, capsys, tmp_path):
        act = LatticeAction(
            standard_lattice("4U"),
            (
                ("t", block_diag(ROT3, ROT3), 1),
                ("s", block_diag(INV_A, INV_A), -1),
            ),
        )
        path = write_action(tmp_path, "rank4.json", act)
        code, _, err = run(capsys, "walls", path)
        assert code == 3


    def test_eigenlattices_of_rank_other_than_two_are_out_of_scope(self, capsys, tmp_path):
        # -1 on the first U summand only: the plus part has rank 4
        act = LatticeAction(standard_lattice("3U"), (("c", block_diag(((-1, 0), (0, -1)), la.identity(4)), -1),))
        path = write_action(tmp_path, "antiflip.json", act)
        code, out, err = run(capsys, "walls", path)
        assert (code, out) == (3, "")
        assert err == "error: wall analysis needs rank-2 eigenlattices\n"


class TestDegenerate:
    def test_swap_fixture_keeps_the_action(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "e8_swap")
        out_path = tmp_path / "deg.json"
        code, out, _ = run(
            capsys,
            "degenerate",
            path,
            "--roots",
            U1_MINUS_V1,
            "--out",
            str(out_path),
            "--format=lines",
        )
        assert code == 0
        rep = lines_dict(out)
        assert rep["degeneration.all"] == "true"
        assert rep["system.components"] == "A1"
        assert rep["system.roots"] == "2"
        new_action, _ = parse_action_text(out_path.read_text())
        original = fixture("e8_swap").action
        assert new_action.generators[0][1].matrix == original.generators[0][1].matrix

    def test_sign_flip_swaps_the_first_block(self, capsys, tmp_path):
        l22 = standard_lattice("3U+2E8")
        flip = tuple(
            tuple((-1 if i < 2 else 1) if i == j else 0 for j in range(22))
            for i in range(22)
        )
        path = write_action(
            tmp_path, "flip.json", LatticeAction(l22, (("c", flip, -1),))
        )
        out_path = tmp_path / "flip_deg.json"
        code, out, _ = run(
            capsys,
            "degenerate",
            path,
            "--roots",
            U1_MINUS_V1,
            "--out",
            str(out_path),
            "--format=lines",
        )
        assert code == 0
        assert lines_dict(out)["degeneration.all"] == "true"
        new_action, _ = parse_action_text(out_path.read_text())
        name, iso, kappa = new_action.generators[0]
        assert (name, kappa) == ("c", -1)
        m = iso.matrix
        assert [row[:2] for row in m[:2]] == [(0, -1), (-1, 0)]
        assert all(m[i][i] == 1 for i in range(2, 22))

    def test_unwritable_out_path_exit_2(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "e8_swap")
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "degenerate", path, f"--roots={U1_MINUS_V1}", "--out", str(out_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1
        assert not out_path.parent.exists()

    def test_non_invariant_roots_exit_1(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "d3_S")
        code, out, _ = run(
            capsys, "degenerate", path, "--roots", U1_MINUS_V1, "--format=lines"
        )
        assert code == 1
        rep = lines_dict(out)
        assert rep["degeneration.ok"] == "false"
        assert "invariant" in rep["degeneration.error"]

    def test_action_file_on_stdout_without_out_flag(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "e8_swap")
        code, out, _ = run(
            capsys, "degenerate", path, "--roots", U1_MINUS_V1, "--format=lines"
        )
        assert code == 0
        json_start = out.index("{")
        parse_action_text(out[json_start:])
        assert lines_dict(out[:json_start])["degeneration.all"] == "true"

    def test_wrong_root_length_exit_2(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "e8_swap")
        code, _, err = run(capsys, "degenerate", path, "--roots", "1,-1")
        assert code == 2
        assert "entries" in err

    def test_non_integer_root_exit_2(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "e8_swap")
        bad = "x," + ZERO18 + ",0,0,0"
        code, _, err = run(capsys, "degenerate", path, "--roots", bad)
        assert code == 2

    def test_root_starting_with_minus_in_equals_form(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "e8_swap")
        code, out, _ = run(
            capsys, "degenerate", path, "--roots=-1,1," + ZERO18 + ",0,0", "--format=lines"
        )
        assert code == 0
        rep = lines_dict(out[: out.index("{")])
        assert rep["degeneration.all"] == "true"
        assert rep["system.components"] == "A1"


class TestMalformedInput:
    def test_duplicate_generator_names_exit_2(self, capsys, tmp_path):
        obj = json.loads(run(capsys, "catalog", "d3_S")[1])
        obj["generators"][1]["name"] = obj["generators"][0]["name"]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "duplicate generator name" in err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this interpreter has no integer digit limit",
    )
    @pytest.mark.parametrize("where", ["matrix_string", "json_number", "root_entry"])
    def test_oversized_integer_exit_2(self, capsys, tmp_path, monkeypatch, where):
        huge = "1" + "0" * 5000
        obj = json.loads(run(capsys, "catalog", "e8_swap")[1])
        argv = ["check", "-"]
        if where == "matrix_string":
            obj["gram"][0][0] = huge
            text = json.dumps(obj)
        elif where == "json_number":
            text = json.dumps(obj).replace('"gram": [["0"', '"gram": [[' + huge, 1)
        else:
            text = json.dumps(obj)
            argv = ["degenerate", "-", "--roots", huge + ",-1," + ZERO18 + ",0,0"]
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.count("\n") == 1 and "too many digits" in err

    @pytest.mark.parametrize("field, value, message", [
        ("gram", "0", "gram: expected a list of rows"),
        ("comment", 7, "comment must be a string"),
        ("generators", {}, "generators must be a list"),
        ("generators", [{"name": "t"}], "generators[0]: expected exactly name/matrix/kappa"),
        ("generators", [{"name": "", "matrix": [], "kappa": "+1"}], "generators[0]: name must be a nonempty string"),
    ])
    def test_misshapen_fields_exit_2(self, capsys, tmp_path, field, value, message):
        obj = json.loads(run(capsys, "catalog", "d3_S")[1])
        obj[field] = value
        path = tmp_path / "misshapen.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_deeply_nested_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "nested too deeply" in err


def _fuzz_file(kind, rng):
    """Bytes of one malformed variant of the e8_swap action file."""
    obj = json.loads(action_to_text(fixture("e8_swap").action))
    gram, gen = obj["gram"], obj["generators"][0]
    n = len(gram)
    i, j = rng.randrange(n), rng.randrange(n)
    if kind == "truncated":
        text = json.dumps(obj)
        return text[: rng.randrange(1, len(text) - 1)].encode()
    if kind == "non_object":
        return rng.choice(["[]", "1", '"gram"', "null", "[" + json.dumps(obj) + "]"]).encode()
    if kind == "ragged_gram":
        del gram[i][j]
    elif kind == "non_square_gram":
        del gram[i]
    elif kind == "wrong_rank_generator":
        del gen["matrix"][i]
        for row in gen["matrix"]:
            del row[j]
    elif kind == "non_isometry":
        gen["matrix"][i][j] = str(int(gen["matrix"][i][j]) + rng.choice([-1, 1]) * 10 ** rng.randrange(3, 60))
    elif kind == "bad_kappa":
        gen["kappa"] = rng.choice(["0", "1", "+2", "", 1, -1, None])
    elif kind == "huge_entry":
        # off the diagonal a huge gram entry breaks symmetry, so every
        # variant is malformed whether or not it parses
        where = gram if rng.random() < 0.5 else gen["matrix"]
        j = (i + rng.randrange(1, n)) % n
        where[i][j] = rng.choice(["9" * 5000, str(10 ** rng.randrange(20, 200))])
    elif kind == "non_utf8":
        text = json.dumps(obj)
        if rng.random() < 0.5:
            return text.encode("utf-16")  # starts with the bytes ff fe
        k = rng.randrange(len(text))
        return text[:k].encode() + bytes([rng.randrange(0x80, 0x100)]) + text[k:].encode()
    return json.dumps(obj).encode()


class TestFuzzedInput:
    @pytest.mark.parametrize("kind", [
        "truncated", "non_object", "ragged_gram", "non_square_gram", "wrong_rank_generator",
        "non_isometry", "bad_kappa", "huge_entry", "non_utf8",
    ])
    def test_malformed_file_exits_2_or_3_with_one_line(self, capsys, tmp_path, kind):
        rng = random.Random(f"cli-fuzz:{kind}")
        path = tmp_path / "fuzz.json"
        for _ in range(4):
            path.write_bytes(_fuzz_file(kind, rng))
            for command in ("check", "walls", "discr"):
                code, out, err = run(capsys, command, str(path))
                assert code in (2, 3), (kind, command, code)
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "error, code",
    [("InputError", 2), ("ScopeError", 3), ("VerificationError", 1), ("LattactError", 1)],
)
def test_each_error_class_has_its_exit_code(capsys, monkeypatch, error, code):
    import lattact.cli
    import lattact.errors

    def failing(args):
        raise getattr(lattact.errors, error)("boom")

    monkeypatch.setattr(lattact.cli, "cmd_survey", failing)
    assert run(capsys, "survey", "torus") == (code, "", "error: boom\n")


class TestCatalogCommand:
    def test_byte_stable(self, capsys):
        for name in FIXTURE_NAMES:
            _, first, _ = run(capsys, "catalog", name)
            _, second, _ = run(capsys, "catalog", name)
            assert first == second

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run(capsys, "catalog", "unit_cube")
        assert code == 2
        assert "unknown fixture" in err


class TestClassifyCommand:
    def test_bound_two_report(self, capsys):
        code, out, _ = run(
            capsys, "classify", "order3-2u", "--bound", "2", "--format=lines"
        )
        assert code == 0
        rep = lines_dict(out)
        assert rep["classify.hits"] == "24"
        assert rep["classify.classes"] == "0;A2;A2(-1)"
        assert "[-2, 2]" in rep["classify.note"]

    def test_bound_zero_empty(self, capsys):
        code, out, _ = run(
            capsys, "classify", "order3-2u", "--bound", "0", "--format=lines"
        )
        assert code == 0
        assert lines_dict(out)["classify.hits"] == "0"

    def test_bad_target_and_bound(self, capsys):
        code, _, _ = run(capsys, "classify", "order5-2u")
        assert code == 2
        code, _, _ = run(capsys, "classify", "order3-2u", "--bound", "-1")
        assert code == 2

    def test_a_huge_bound_is_out_of_scope_in_one_line(self, capsys):
        # range() inside the box product once ended this in an
        # OverflowError traceback; the cap refuses it first
        from lattact.catalog import MAX_ENTRY_BOUND

        for bound in (str(MAX_ENTRY_BOUND + 1), "99999999999999999999"):
            code, out, err = run(capsys, "classify", "order3-2u", "--bound", bound)
            assert (code, out) == (3, "")
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_the_bound_help_states_the_cap(self, capsys):
        from lattact.catalog import MAX_ENTRY_BOUND

        with pytest.raises(SystemExit):
            main(["classify", "--help"])
        assert f"at most {MAX_ENTRY_BOUND} " in " ".join(capsys.readouterr().out.split())


class TestSurveyCommand:
    def test_orders_and_consistency(self, capsys):
        code, out, _ = run(capsys, "survey", "torus", "--format=lines")
        assert code == 0
        rep = lines_dict(out)
        assert rep["survey.consistent"] == "true"
        assert (rep["survey.A3.weyl"], rep["survey.A3.rotation"]) == ("24", "12")
        assert (rep["survey.A2+A1.weyl"], rep["survey.A2+A1.rotation"]) == ("12", "6")
        assert (rep["survey.3A1.weyl"], rep["survey.3A1.rotation"]) == ("8", "4")
        for name in ("A3", "A2+A1", "3A1"):
            assert rep[f"survey.{name}.embedding"].count(";") == 2

    def test_bad_target_exit_2(self, capsys):
        assert run(capsys, "survey", "k3")[0] == 2


class TestDiscrCommand:
    def test_a2_invariant_factors(self, capsys, tmp_path):
        act = LatticeAction(standard_lattice("A2"), (("id", la.identity(2), 1),))
        path = write_action(tmp_path, "a2.json", act)
        code, out, _ = run(capsys, "discr", path, "--format=lines")
        assert code == 0
        rep = lines_dict(out)
        assert rep["discr.factors"] == "3"
        assert rep["discr.order"] == "3"

    def test_unimodular_lattice_trivial_group(self, capsys, tmp_path):
        path = catalog_file(capsys, tmp_path, "torus_lattice")
        code, out, _ = run(capsys, "discr", path, "--format=lines")
        assert code == 0
        rep = lines_dict(out)
        assert rep["discr.factors"] == ""
        assert rep["discr.order"] == "1"

    def test_report_integer_past_digit_limit_exit_3(self, capsys, tmp_path):
        # the order 4 * 10^6000 has 6001 digits, past the default limit
        # of 4300; each invariant factor has 3001 and still parses
        big = 2 * 10**3000
        act = LatticeAction(make_lattice(((big, 0), (0, big))), (("id", la.identity(2), 1),))
        path = write_action(tmp_path, "big.json", act)
        code, out, err = run(capsys, "discr", path, "--format=lines")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "too many digits" in err


    def test_odd_lattice_exit_3(self, capsys, tmp_path):
        # q of an odd lattice is defined modulo Z only, so no canonical
        # values can be printed
        act = LatticeAction(make_lattice(((1, 0), (0, 3))), (("id", la.identity(2), 1),))
        path = write_action(tmp_path, "odd.json", act)
        code, out, err = run(capsys, "discr", path, "--format=lines")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "even lattice" in err


class TestDeterminism:
    def test_reports_are_byte_identical_across_runs(self, capsys, tmp_path):
        d3 = catalog_file(capsys, tmp_path, "d3_S")
        torus = catalog_file(capsys, tmp_path, "torus_lattice")
        invocations = (
            ("check", d3, "--format=lines"),
            ("check", d3),
            ("walls", d3, "--format=lines"),
            ("classify", "order3-2u", "--bound", "1", "--format=lines"),
            ("survey", "torus", "--format=lines"),
            ("discr", torus, "--format=lines"),
            ("catalog", "d3_Sprime"),
        )
        for argv in invocations:
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first == second


# stdlib modules no cold run loads: the records need neither
_HEAVY = {"dataclasses", "inspect"}

# stdlib modules loaded only by a run that builds a Fraction: of the runs
# below, walls on d3_S (its wall projections); discr's lattice is unimodular
_FRACTIONS = {"fractions", "decimal", "numbers"}

# Run one command in a fresh interpreter; print its exit code, the lattact
# modules it loaded and those of _HEAVY and _FRACTIONS it loaded.
_MODULES_AFTER = f"""
import contextlib, io, sys
from lattact.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as stop:
        code = stop.code
heavy = [m for m in {sorted(_HEAVY | _FRACTIONS)!r} if m in sys.modules]
print(code, *sorted(m[8:] for m in sys.modules if m.startswith("lattact.")), *heavy)
"""

# subcommand -> (its arguments, a fixture name first where it reads an
# action file; the library modules it must not load)
_COLD_RUNS = {
    "check": (("d3_S",), {"root_systems", "walls", "degeneration", "catalog"}),
    "discr": (("d3_S",), {"root_systems", "walls", "degeneration", "catalog"}),
    "walls": (("d3_S",), {"root_systems", "degeneration", "catalog"}),
    "degenerate": (("e8_swap", "--roots", U1_MINUS_V1), {"catalog", "walls"}),
    "catalog": (("d3_S",), {"root_systems", "walls", "degeneration"}),
    "classify": (("order3-2u", "--bound", "1"), {"root_systems", "walls", "degeneration"}),
    "survey": (("torus",), {"walls", "degeneration"}),
}
_READS_FILE = ("check", "discr", "walls", "degenerate")


def _fresh(*argv, code=_MODULES_AFTER):
    env = dict(os.environ, PYTHONPATH=str(Path(lattact.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    exit_code, *modules = done.stdout.split()
    return int(exit_code), set(modules)


class TestColdStartModules:
    """Each subcommand, run in a fresh interpreter, loads only the library
    modules it computes with, neither dataclasses nor inspect, and
    fractions only where it builds a Fraction."""

    @pytest.mark.parametrize("command", sorted(_COLD_RUNS))
    def test_subcommand_loads_only_its_modules(self, capsys, tmp_path, command):
        (first, *rest), not_loaded = _COLD_RUNS[command]
        if command in _READS_FILE:
            first = catalog_file(capsys, tmp_path, first)
        code, modules = _fresh(command, first, *rest)
        assert code == 0
        assert {"cli", "errors"} < modules
        assert not modules & not_loaded, modules
        assert not modules & _HEAVY, modules
        if command == "walls":
            assert _FRACTIONS <= modules, modules
        else:
            assert not modules & _FRACTIONS, modules

    @pytest.mark.parametrize("argv", [("--help",), ("bogus",), ("check",)])
    def test_help_and_usage_errors_load_only_cli_and_errors(self, argv):
        code, modules = _fresh(*argv)
        assert code == (0 if argv == ("--help",) else 2)
        # nor anything of _HEAVY
        assert modules == {"cli", "errors"}

    def test_no_library_module_imports_dataclasses(self):
        for path in Path(lattact.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                assert not [n for n in names if n.split(".")[0] == "dataclasses"], path.name

    def test_import_lattact_loads_no_module(self):
        code = "import sys, lattact; print(0, *(m for m in sys.modules if m.startswith('lattact.')))"
        assert _fresh(code=code) == (0, set())
