"""Command-line front end: action files in, deterministic reports out.

Action files are structured text (JSON) with the fields

    comment     optional free-form string
    gram        symmetric matrix of decimal-integer strings
    generators  list of {name, matrix, kappa}, matrix entries again
                decimal-integer strings, kappa "+1" or "-1"

All matrices act on column coordinate vectors.  Integers travel as decimal
strings (optional sign, no leading zeros on export) so values survive any
host's number type.  Export is canonical: fixed key order, two-space
indentation, trailing newline; exporting a parsed export reproduces the
bytes exactly.

Reports are ordered key=value records.  --format=lines prints them bare,
one per line; the default human format adds a header and indentation.
Matrices in values are row-major, ";" between rows and "," within; vectors
use "," alone.  Exit codes: 0 success, 1 the analyzed data fails the
command's core check, 2 malformed input, 3 outside the supported scope.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import InputError, LattactError, ScopeError, VerificationError

_INT_RE = re.compile(r"^[+-]?[0-9]+$")

_COLUMN_NOTE = "matrices act on column coordinate vectors"


# ---------------------------------------------------------------------------
# action-file serialization


def _to_int(text: str, where: str) -> int:
    # int() refuses decimal strings past the interpreter's digit limit
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{where}: integer has too many digits") from None


def _parse_int(value, where: str) -> int:
    if not isinstance(value, str) or not _INT_RE.match(value):
        raise InputError(f"{where}: expected a decimal-integer string, got {value!r}")
    return _to_int(value, where)


def _parse_matrix(obj, where: str) -> tuple:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InputError(f"{where}: expected a list of rows")
    return tuple(
        tuple(_parse_int(x, f"{where}[{i}][{j}]") for j, x in enumerate(row))
        for i, row in enumerate(obj)
    )


def parse_action_text(text: str):
    """Parse action-file text into (LatticeAction, comment)."""
    from .group_actions import LatticeAction
    from .lattice import make_lattice

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"not a structured action file: {err}") from None
    except ValueError:
        raise InputError("action file holds a number with too many digits") from None
    except RecursionError:
        raise InputError("action file is nested too deeply") from None
    if not isinstance(obj, dict):
        raise InputError("action file must be a single object")
    unknown = set(obj) - {"comment", "gram", "generators"}
    if unknown:
        raise InputError(f"unknown action-file fields: {sorted(unknown)}")
    for field in ("gram", "generators"):
        if field not in obj:
            raise InputError(f"action file is missing the field {field!r}")
    comment = obj.get("comment")
    if comment is not None and not isinstance(comment, str):
        raise InputError("comment must be a string")
    lattice = make_lattice(_parse_matrix(obj["gram"], "gram"))
    gens = []
    if not isinstance(obj["generators"], list):
        raise InputError("generators must be a list")
    for i, g in enumerate(obj["generators"]):
        where = f"generators[{i}]"
        if not isinstance(g, dict) or set(g) != {"name", "matrix", "kappa"}:
            raise InputError(f"{where}: expected exactly name/matrix/kappa")
        if not isinstance(g["name"], str) or not g["name"]:
            raise InputError(f"{where}: name must be a nonempty string")
        if g["kappa"] not in ("+1", "-1"):
            raise InputError(f'{where}: kappa must be "+1" or "-1"')
        matrix = _parse_matrix(g["matrix"], f"{where}.matrix")
        gens.append((g["name"], matrix, 1 if g["kappa"] == "+1" else -1))
    return LatticeAction(lattice, tuple(gens)), comment


def action_to_text(action: LatticeAction, comment: str | None = None) -> str:
    """Canonical action-file bytes: fixed key order, indent 2, one trailing
    newline; integers as plain decimal strings."""
    obj = {}
    if comment is not None:
        obj["comment"] = comment
    obj["gram"] = [[_fmt_num(x) for x in row] for row in action.ambient.gram]
    obj["generators"] = [
        {
            "name": name,
            "matrix": [[_fmt_num(x) for x in row] for row in iso.matrix],
            "kappa": "+1" if kappa == 1 else "-1",
        }
        for name, iso, kappa in action.generators
    ]
    return json.dumps(obj, indent=2) + "\n"


def _load_action(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path} is not UTF-8 text") from None
    return parse_action_text(text)


def _parse_vector(text: str, rank: int) -> tuple:
    parts = text.split(",")
    if len(parts) != rank:
        raise InputError(f"root {text!r} has {len(parts)} entries, lattice rank is {rank}")
    out = []
    for p in parts:
        if not _INT_RE.match(p.strip()):
            raise InputError(f"root {text!r}: entries must be integers")
        out.append(_to_int(p, "root"))
    return tuple(out)


# ---------------------------------------------------------------------------
# report rendering


def _fmt_bool(b) -> str:
    return "true" if b else "false"


def _fmt_num(x) -> str:
    # str() refuses integers past the interpreter's digit limit
    try:
        return str(x)
    except ValueError:
        raise ScopeError("a report value has too many digits to print") from None


def _fmt_vec(v) -> str:
    return ",".join(_fmt_num(x) for x in v)


def _fmt_mat(rows) -> str:
    return ";".join(_fmt_vec(r) for r in rows)


def _emit(entries, fmt: str, header: str) -> None:
    if fmt == "lines":
        for key, value in entries:
            print(f"{key}={value}")
    else:
        print(header)
        for key, value in entries:
            print(f"  {key} = {value}")


# ---------------------------------------------------------------------------
# commands: each imports the library modules it runs, and no others, so a
# cold process loads only what its subcommand needs


def cmd_check(args) -> int:
    from .group_actions import eigen_lattices, fundamental_data, is_geometric, leftover_lattice
    from .lattice import signature

    a, _ = _load_action(args.file)
    f = fundamental_data(a)
    geo, witnesses = is_geometric(a, f)
    ld = leftover_lattice(a, f)
    sig = signature(a.ambient)
    entries = [
        ("lattice.signature", _fmt_vec(sig.as_tuple())),
        ("group.order", _fmt_num(len(f.group))),
        ("rho.order", _fmt_num(f.order_n)),
        ("rho.real", _fmt_bool(f.real)),
        ("fixed.gram", _fmt_mat(f.fixed.gram())),
    ]
    if any(kappa == -1 for _, _, kappa in a.generators):
        e = eigen_lattices(a, f)
        entries.append(("eigen.plus.gram", _fmt_mat(e.m_plus.gram())))
    entries.append(("ldot.rank", _fmt_num(ld.rank)))
    entries.append(("geometric", _fmt_bool(geo)))
    if witnesses:
        entries.append(("geometric.witness", _fmt_mat(witnesses)))
    _emit(entries, args.format, f"check {args.file}")
    return 0 if geo else 1


def cmd_walls(args) -> int:
    from .group_actions import dilated_complex_structure, eigen_lattices, fundamental_data
    from .lattice import signature
    from .walls import wall_report

    a, _ = _load_action(args.file)
    if not any(kappa == -1 for _, _, kappa in a.generators):
        raise ScopeError("wall analysis needs an anti-holomorphic generator")
    f = fundamental_data(a)
    e = eigen_lattices(a, f)
    if e.m_plus.rank != 2 or e.m_minus.rank != 2:
        raise ScopeError("wall analysis needs rank-2 eigenlattices")
    j = dilated_complex_structure(a, f)
    rep = wall_report(e, j, bound=args.bound)
    entries = [
        ("lattice.signature", _fmt_vec(signature(a.ambient).as_tuple())),
        ("rho.order", _fmt_num(f.order_n)),
        ("eigen.plus.gram", _fmt_mat(e.m_plus.gram())),
        ("walls.candidates", _fmt_num(rep.candidate_count)),
        ("walls.count", _fmt_num(len(rep.walls))),
        ("walls.rays", ";".join(_fmt_vec(w.direction) for w in rep.walls)),
        ("walls.complete", _fmt_bool(rep.complete)),
        ("components", _fmt_num(rep.components)),
    ]
    _emit(entries, args.format, f"walls {args.file}")
    return 0


def cmd_degenerate(args) -> int:
    from .degeneration import degenerate, tau_saturation, verify_degeneration
    from .group_actions import fundamental_data
    from .lattice import sublattice_from_rows

    a, _ = _load_action(args.file)
    roots = tuple(_parse_vector(r, a.ambient.rank) for r in args.roots)
    header = f"degenerate {args.file}"
    try:
        f = fundamental_data(a)
        sp = sublattice_from_rows(a.ambient, roots)
        sat = tau_saturation(a, f, sp)
        result = degenerate(a, sat)
        report = verify_degeneration(a, sat, result)
    except (InputError, VerificationError) as err:
        _emit(
            [("degeneration.ok", "false"), ("degeneration.error", str(err))],
            args.format,
            header,
        )
        return 1
    entries = [
        ("system.rank", _fmt_num(sat.r_bar.rank)),
        ("system.roots", _fmt_num(len(sat.r_bar.roots))),
        (
            "system.components",
            "+".join(f"{letter}{rank}" for letter, rank in sat.r_bar.components),
        ),
    ]
    for label, ok, _ in report.entries:
        entries.append((f"degeneration.{label}", _fmt_bool(ok)))
    entries.append(("degeneration.all", _fmt_bool(report.all_passed)))
    text = action_to_text(result.action, comment=f"degenerated action; {_COLUMN_NOTE}")
    if args.out:
        # written before the report, so an unwritable path prints no report
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise InputError(f"cannot write {args.out}: {err}") from None
    _emit(entries, args.format, header)
    if not args.out:
        sys.stdout.write("\n" + text if args.format == "human" else text)
    return 0 if report.all_passed else 1


def cmd_catalog(args) -> int:
    from .catalog import fixture

    fx = fixture(args.name)
    sys.stdout.write(
        action_to_text(fx.action, comment=f"{fx.name} fixture; {_COLUMN_NOTE}")
    )
    return 0


def cmd_classify(args) -> int:
    from .catalog import classify_order3_on_2U

    if args.target != "order3-2u":
        raise InputError(f"unknown classification target {args.target!r}")
    rep = classify_order3_on_2U(args.bound)
    entries = [
        ("classify.bound", _fmt_num(rep.entry_bound)),
        ("classify.hits", _fmt_num(len(rep.hits))),
        ("classify.classes", ";".join(rep.classes)),
        ("classify.note", rep.note),
    ]
    _emit(entries, args.format, f"classify {args.target}")
    return 0


def cmd_survey(args) -> int:
    from .catalog import torus_symplectic_survey

    if args.target != "torus":
        raise InputError(f"unknown survey target {args.target!r}")
    rep = torus_symplectic_survey()
    entries = []
    for e in rep.entries:
        entries.append((f"survey.{e.system}.weyl", _fmt_num(e.weyl_order)))
        entries.append((f"survey.{e.system}.rotation", _fmt_num(e.rotation_order)))
        entries.append((f"survey.{e.system}.embedding", _fmt_mat(e.embedding)))
    entries.append(("survey.consistent", _fmt_bool(rep.all_consistent)))
    _emit(entries, args.format, f"survey {args.target}")
    return 0 if rep.all_consistent else 1


def cmd_discr(args) -> int:
    from .lattice import discriminant_form

    a, _ = _load_action(args.file)
    d = discriminant_form(a.ambient)
    entries = [
        ("discr.factors", _fmt_vec(d.invariant_factors)),
        ("discr.order", _fmt_num(d.order)),
        ("discr.q", _fmt_vec(d.q_values)),
    ]
    _emit(entries, args.format, f"discr {args.file}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lattact",
        description="exact reports on finite group actions on integral lattices",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(
            "--format",
            choices=("human", "lines"),
            default="human",
            help="output style: prose header or bare key=value lines",
        )
        sp.set_defaults(fn=fn)
        return sp

    sp = command("check", cmd_check, "fundamental data and the geometric test")
    sp.add_argument("file", help="action file, or - for standard input")

    sp = command("walls", cmd_walls, "wall and component count on the plus eigenlattice")
    sp.add_argument("file")
    sp.add_argument("--bound", type=int, default=None, help="search bound for uncertified eigenforms")

    sp = command("degenerate", cmd_degenerate, "degenerate the action at an invariant root system")
    sp.add_argument("file")
    sp.add_argument("--roots", nargs="+", required=True, metavar="V", help="root vectors, comma-separated integer coordinates; write a vector that starts with - as --roots=-1,1,...")
    sp.add_argument("--out", default=None, help="write the degenerated action file here instead of stdout")

    sp = command("catalog", cmd_catalog, "export a bundled fixture as an action file")
    sp.add_argument("name")

    sp = command("classify", cmd_classify, "bounded classification searches")
    sp.add_argument("target", help="order3-2u")
    sp.add_argument("--bound", type=int, default=2, help="entry bound for the matrix search, at most 6 (about 4 s)")

    sp = command("survey", cmd_survey, "reflection-group survey with E8 embeddings")
    sp.add_argument("target", help="torus")

    sp = command("discr", cmd_discr, "discriminant group of the action file's lattice")
    sp.add_argument("file")
    return p


# exit code of each error class; VerificationError and any other
# LattactError exit 1
_EXIT_CODES = ((InputError, 2), (ScopeError, 3))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LattactError as err:
        print(f"error: {err}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(err, cls)), 1)


if __name__ == "__main__":  # python -m lattact.cli; the tests run it in a child process
    raise SystemExit(main())
