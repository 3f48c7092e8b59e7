"""The four benchmark workloads: what one item runs and how it is checked.

Every workload is a closed loop with one client: items run one after
another in this process (or, for ``cli``, one child process at a time).
A workload hands out rounds, fixed mixes of items generated by ``gen``
from the seed, so every run measures the same proportions of work;
``round_s`` is what one round took at the nominal speed, which sets how
many rounds a run of a given length makes.

Library calls go through module attributes of ``lattact`` at call time,
never through names bound at import, so that ``tracer`` sees every call.

Checks compare against references that do not come from the code under
test: invariants copied from the fixtures' expected records, closed-form
vector counts, independent integer arithmetic from ``gen``, and CLI
output captured on an earlier commit (``cli_ref/``).
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from pathlib import Path

import lattact

import gen

HERE = Path(__file__).resolve().parent
CLI_REF = HERE / "cli_ref"
CLI_MAIN = "from lattact.cli import main; raise SystemExit(main())"
COLUMN_NOTE = "matrices act on column coordinate vectors"

# basis-invariant answers from the fixtures' expected records; the Klein
# action is the d3_S action restricted to 3U, so it shares its answers
_D3_S = dict(group_order=6, rotation_order=3, real=False, ldot_rank=0, geometric=True,
             candidates=10, walls=2, components=3, complete=True)
EXPECTED = {
    "d3_S": _D3_S,
    "klein": _D3_S,
    "d3_Sprime": dict(group_order=6, rotation_order=3, real=False, ldot_rank=0,
                      geometric=True, candidates=2, walls=0, components=1, complete=True),
    "e8_swap": dict(group_order=2, rotation_order=1, real=True, ldot_rank=8, geometric=True),
    "k3_lattice": dict(group_order=1, rotation_order=1, real=True, ldot_rank=0, geometric=True),
}

# vectors of square -2 and -4 in the irreducible root lattices:
# A_n: n(n+1) and C(n+1,2)C(n-1,2); D_n: 2n(n-1) and 2n + 16C(n,4);
# E6, E7, E8 from their theta series
_E_COUNTS = {6: (72, 270), 7: (126, 756), 8: (240, 2160)}


def _comb(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def irreducible_counts(letter: str, n: int) -> tuple:
    if letter == "A":
        return n * (n + 1), _comb(n + 1, 2) * _comb(n - 1, 2)
    if letter == "D":
        return 2 * n * (n - 1), 2 * n + 16 * _comb(n, 4)
    return _E_COUNTS[n]


def vector_counts(spec: str) -> tuple:
    """(#square -2, #square -4) of a sum of root lattices: a vector of an
    orthogonal sum splits into parts whose squares add up."""
    n2 = n4 = 0
    for term in spec.split("+"):
        c2, c4 = irreducible_counts(term[0], int(term[1:]))
        n2, n4 = n2 + c2, n4 + n2 * c2 + c4
    return n2, n4


def sq(gram, v) -> int:
    return sum(x * y for x, y in zip(v, gen.mat_vec(gram, v)))


def dot(gram, u, v) -> int:
    return sum(x * y for x, y in zip(u, gen.mat_vec(gram, v)))


def mismatch(got: dict, want: dict) -> str | None:
    bad = [f"{k}={got.get(k)!r} want {v!r}" for k, v in want.items() if got.get(k) != v]
    return "; ".join(bad) or None


def _action(item):
    return lattact.LatticeAction(lattact.Lattice(item["gram"]), item["gens"])


# ---------------------------------------------------------------------------


class InProcess:
    """A workload whose items run in this process; ``make_round`` is the
    generator of its rounds."""

    make_round = None
    round_s = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def round(self, index: int) -> list:
        return self.make_round(self.seed, index)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Analyze(InProcess):
    """Everything ``check`` and ``walls`` compute, once per fresh action."""

    make_round = staticmethod(gen.analyze_round)
    round_s = 2.2

    def warmup_items(self) -> list:
        return [gen.random_copy(gen.round_rng(self.seed, "analyze-warmup", 0), "klein")]

    def run(self, item):
        a = _action(item)
        group = lattact.enumerate_group(a)
        f = lattact.fundamental_data(a)
        fixed = lattact.fixed_lattice(a, "all")
        geometric = lattact.is_geometric(a, f)
        ldot = lattact.leftover_lattice(a, f)
        walls = None
        if any(k == -1 for _, _, k in item["gens"]):
            e = lattact.eigen_lattices(a, f)
            j = lattact.dilated_complex_structure(a, f)
            walls = (e, j, lattact.wall_report(e, j))
        return group, f, fixed, geometric, ldot, walls

    def check(self, item, result):
        group, f, _, geometric, ldot, walls = result
        got = dict(group_order=len(group), rotation_order=f.order_n, real=f.real,
                   ldot_rank=ldot.rank, geometric=geometric[0])
        if walls is not None:
            rep = walls[2]
            got.update(candidates=rep.candidate_count, walls=len(rep.walls),
                       components=rep.components, complete=rep.complete)
        return mismatch(got, EXPECTED[item["kind"]])


class Degenerate(InProcess):
    """Saturate, degenerate and verify one (action, root system) pair."""

    make_round = staticmethod(gen.degenerate_round)
    round_s = 4.0

    def warmup_items(self) -> list:
        return gen.degenerate_round(self.seed, -1)[:1]

    def run(self, item):
        a = _action(item)
        f = lattact.fundamental_data(a)
        sat = lattact.tau_saturation(a, f, lattact.Sublattice(a.ambient, item["rows"]))
        d = lattact.degenerate(a, sat)
        return sat, d, lattact.verify_degeneration(a, sat, d)

    def check(self, item, result):
        sat, _, report = result
        return mismatch(dict(all_passed=report.all_passed, roots=len(sat.r_bar.roots)),
                        dict(all_passed=True, roots=item["roots"]))


class Enumerate(InProcess):
    """Vector enumeration, root systems, segment crossings and the bounded
    order-3 search; no group action anywhere."""

    make_round = staticmethod(gen.enumerate_round)
    round_s = 6.5

    def warmup_items(self) -> list:
        rng = gen.round_rng(self.seed, "enumerate-warmup", 0)
        b, _ = gen.random_unimodular(rng, 4, 3)
        d4 = gen.mat_mul(gen.mat_mul(gen.transpose(b), gen.spec_gram("D4")), b)
        return [
            {"kind": "vectors", "spec": "D4", "gram": d4},
            dict(gen.hyperbolic_query(rng), kind="segment"),
        ]

    def run(self, item):
        kind = item["kind"]
        if kind == "classify":
            return lattact.classify_order3_on_2U(item["bound"])
        m = lattact.Lattice(item["gram"])
        if kind == "vectors":
            return (lattact.enumerate_vectors(m, -2), lattact.enumerate_vectors(m, -4),
                    lattact.roots_of(m))
        return tuple(lattact.segment_vectors(m, item["u1"], item["u2"], a)
                     for a in item["targets"])

    def check(self, item, result):
        kind = item["kind"]
        if kind == "classify":
            return self._check_classify(result)
        gram = item["gram"]
        if kind == "vectors":
            v2, v4, roots = result
            n2, n4 = vector_counts(item["spec"])
            got = dict(n2=len(set(v2)), n4=len(set(v4)), roots=len(roots.roots),
                       squares=all(sq(gram, v) == -2 for v in v2)
                       and all(sq(gram, v) == -4 for v in v4))
            return mismatch(got, dict(n2=n2, n4=n4, roots=n2, squares=True))
        u1, u2 = item["u1"], item["u2"]
        for a, vectors in zip(item["targets"], result):
            for v in vectors:
                if sq(gram, v) != a or dot(gram, v, u1) * dot(gram, v, u2) >= 0:
                    return f"segment vector {v} has square {sq(gram, v)} or does not cross"
        return None

    @staticmethod
    def _check_classify(report):
        g = gen.block_diag(gen.U, gen.U)
        ident = gen.identity(4)
        classes = {"0", "A2", "A2(-1)"}
        for hit in report.hits:
            m = hit.matrix
            cube = gen.mat_mul(gen.mat_mul(m, m), m)
            if gen.mat_mul(gen.mat_mul(gen.transpose(m), g), m) != g:
                return f"hit {m} is not an isometry"
            if cube != ident or m == ident:
                return f"hit {m} does not have order 3"
            if hit.fixed_class not in classes:
                return f"hit {m} has fixed class {hit.fixed_class}"
        if set(report.classes) != classes:
            return f"classes {report.classes}"
        return None


class Cli:
    """One cold ``lattact`` process per item, one at a time."""

    round_s = 7.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        self.prefix = [sys.executable, "-c", CLI_MAIN]
        self.max_child_rss_kb = 0
        for name in gen.FIXTURES:
            text = gen.fixture_file_text(gen.base_action(name), f"{name} fixture; {COLUMN_NOTE}")
            (workdir / f"{name}.json").write_text(text, encoding="utf-8")

    def round(self, index: int) -> list:
        items = gen.cli_round(self.seed, index)
        for i, item in enumerate(items):
            if "action" in item:
                path = self.workdir / f"r{index}_{i}.json"
                text = gen.fixture_file_text(item["action"], COLUMN_NOTE)
                path.write_text(text, encoding="utf-8")
                item["path"] = str(path)
            elif "file" in item:
                item["path"] = str(self.workdir / f"{item['file']}.json")
        return items

    def warmup_items(self) -> list:
        return [{"argv": ("catalog", "d3_S"), "ref": "catalog_d3_S"}]

    def argv(self, item) -> list:
        head, *rest = item["argv"]
        argv = [head] + ([item["path"]] if "path" in item else []) + rest
        return argv if head == "catalog" else argv + ["--format", "lines"]

    def run(self, item):
        code, out, err, rss_kb = spawn(self.prefix + self.argv(item), self.env, self.workdir)
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss_kb)
        return code, out, err

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest child so far."""
        return self.max_child_rss_kb / 1024

    def child_ms(self, argv, repeats: int = 5) -> float:
        """Median wall time of a bare child process."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            spawn(argv, self.env, self.workdir)
            times.append((time.perf_counter() - start) * 1000)
        return statistics.median(times)

    def check(self, item, result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err[-300:]!r}"
        if "ref" in item:
            want = (CLI_REF / f"{item['ref']}.out").read_bytes()
            return None if out == want else f"stdout differs from cli_ref/{item['ref']}.out"
        lines = dict(line.partition("=")[::2] for line in out.decode().splitlines() if "=" in line)
        kind = item["expect"]
        if kind == "e8_swap_A1":
            return mismatch(lines, {"degeneration.all": "true", "system.roots": "2"})
        want = EXPECTED[kind]
        keys = {"group_order": "group.order", "rotation_order": "rho.order",
                "real": "rho.real", "ldot_rank": "ldot.rank", "geometric": "geometric"}
        if item["argv"][0] == "walls":
            keys = {"candidates": "walls.candidates", "walls": "walls.count",
                    "components": "components", "complete": "walls.complete"}
        return mismatch(lines, {keys[k]: _cli_text(want[k]) for k in keys})


def _cli_text(value) -> str:
    return ("true" if value else "false") if isinstance(value, bool) else str(value)


def spawn(argv, env, workdir: Path) -> tuple:
    """Run one child to completion, stdin closed and output in workdir:
    (exit code, stdout, stderr, peak RSS in KiB).  os.wait4 reports the
    RSS of exactly this child."""
    out_path = workdir / "child.out"
    err_path = workdir / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return (os.waitstatus_to_exitcode(status), out_path.read_bytes(),
            err_path.read_bytes(), usage.ru_maxrss)


WORKLOADS = {"analyze": Analyze, "degenerate": Degenerate, "enumerate": Enumerate, "cli": Cli}


def setup(name: str, seed: int, workdir: Path):
    """Everything before the timed phase: inputs of the first round and
    one pass over the warm-up items.  Returns (workload, first round)."""
    wl = WORKLOADS[name](seed, workdir)
    first = wl.round(0)
    for item in wl.warmup_items():
        wl.run(item)
    return wl, first
