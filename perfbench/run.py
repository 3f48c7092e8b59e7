"""Benchmark of the lattact library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy, and the
run exits with a nonzero code when that source is missing.

``--trace 0`` measures the end-to-end metrics: the workload runs whole
rounds of fresh items, as many as fill about S seconds at the nominal
speed, at least three.  The machine's speed is taken all through the run
by yardsticks of the benchmark's own code, a reference block in this
process and a cold reference in a fresh one, and every time is scaled to
their nominal times, so that a host that speeds up and slows down from
minute to minute does not move the figures.  Set-up time is the median
wall time of five fresh processes that each import the library, generate
the first round and run the warm-up items.
``--trace 1`` runs rounds for S/2 seconds, then replays the same rounds
under the tracer, checks that every result is unchanged and reports
per-layer numbers per round plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_ROUNDS = 3

sys.path.insert(0, str(SRC))
try:
    import workloads
except ImportError as err:
    raise SystemExit(f"error: cannot import the library from {SRC}: {err}") from None
import gen  # noqa: E402
import tracer  # noqa: E402

# the reference block, the yardstick of the machine's speed: a fixed piece
# of pure-Python integer matrix work from this benchmark's own code, run
# before an item whenever another REFERENCE_EVERY_S of items has run
REFERENCE_GRAM = gen.k3_gram()
REFERENCE_REPEATS = 6
REFERENCE_EVERY_S = 0.1
# nominal time of the reference block: times are reported as they would
# read on a machine, or in a moment, where the block takes this long
REFERENCE_MS = 8.0
# the cold reference, the yardstick for timings of fresh processes (set-up
# and cli items): a fresh interpreter that imports gen and runs that many
# products, before a cli item whenever another REFERENCE_CHILD_EVERY_S of
# items has run; REFERENCE_CHILD_MS is its nominal wall time
REFERENCE_CHILD_REPEATS = 20
REFERENCE_CHILD_EVERY_S = 0.5
REFERENCE_CHILD_MS = 90.0

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("catalog", "check", "walls", "discr", "degenerate", "survey", "classify")
TAIL_LADDER = tuple(range(1, 100)) + (99.9, 99.99)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of the ladder with at least ten of n samples
    strictly above its nearest-rank position; None below 11 samples."""
    best = None
    for p in TAIL_LADDER:
        rank = -(-p * n // 100)  # ceil(p n / 100), the nearest rank
        if n - int(rank) >= 10:
            best = p
    return best


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for aa in (m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m))):
            d = 1 + aa * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1 - front * _beta_fraction(b, a, 1 - x) / b


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile of a nonempty list: a
    weighted mean of all order statistics, with the weights of the order
    statistic at the quantile's rank.  Item latencies come in clusters, one
    per kind of item; where the nearest-rank percentile jumps between the
    edges of two clusters from one run to the next, this one moves
    smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def calibration_ms() -> float:
    """Median of five runs of a fixed pure-Python integer loop."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i * i) % 1_000_003
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def reference_block() -> float:
    """Seconds taken by the reference block, after one untimed repeat
    that brings its code and data back into the caches."""
    gen.mat_mul(REFERENCE_GRAM, REFERENCE_GRAM)
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        gen.mat_mul(REFERENCE_GRAM, REFERENCE_GRAM)
    return time.perf_counter() - start


def reference_child(workdir: Path) -> float:
    """Wall time of one run of the cold reference."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import gen; g = gen.k3_gram()\n"
            f"for _ in range({REFERENCE_CHILD_REPEATS}): gen.mat_mul(g, g)")
    start = time.perf_counter()
    status, _, err, _ = workloads.spawn([sys.executable, "-c", code], dict(os.environ), workdir)
    elapsed = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"reference process exited with {status}: {err[-500:]!r}")
    return elapsed


class Outcome:
    """Per round: the latency of each item, the reference times and the
    results (when kept); and the failures of all rounds.  ``reference``
    times the yardstick, ``nominal_s`` is its nominal time and ``every_s``
    the stretch of items between two of its runs."""

    def __init__(self, reference=reference_block, nominal_s=REFERENCE_MS / 1000,
                 every_s=REFERENCE_EVERY_S):
        self.reference = reference
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.times = []
        self.refs = []
        self.results = []
        self.failures = []

    def scales(self) -> list:
        """Per round, nominal over measured reference time: the factor that
        takes the round's times to the nominal machine speed."""
        return [self.nominal_s / statistics.mean(refs) for refs in self.refs]

    def scaled(self) -> list:
        """Per round, the scaled latency of each item."""
        return [[t * scale for t in times] for times, scale in zip(self.times, self.scales())]

    @property
    def attempted(self) -> int:
        return sum(map(len, self.times))


def run_round(wl, items, outcome: Outcome, keep: bool, after=None):
    """Run and check every item once, with a run of the reference before
    an item whenever another ``every_s`` of items has run; ``after`` is
    called after each item."""
    times, refs, results = [], [], []
    for item in items:
        while len(refs) * outcome.every_s <= sum(times):
            refs.append(outcome.reference())
        start = time.perf_counter()
        try:
            result = wl.run(item)
        except Exception:  # an item that raises is a failed item, not a failed run
            times.append(time.perf_counter() - start)
            outcome.failures.append(traceback.format_exc(limit=3))
            result = problem = None
        else:
            times.append(time.perf_counter() - start)
            try:
                problem = wl.check(item, result)
            except Exception:
                problem = traceback.format_exc(limit=3)
        if problem:
            outcome.failures.append(f"{item.get('kind') or item.get('argv')}: {problem}")
        results.append(result if keep else None)
        if after is not None:
            after()
    outcome.times.append(times)
    outcome.refs.append(refs)
    outcome.results.append(results)


def round_count(wl, seconds: float, least: int) -> int:
    """Rounds that fill about ``seconds`` at the nominal machine speed.
    The count depends on the arguments alone, so every run of a workload
    with the same arguments measures the same mix."""
    return max(least, round(seconds / wl.round_s))


def setup_once(args, workdir: Path, index: int) -> float:
    """Wall time of one fresh process doing the whole set-up."""
    child_dir = workdir / f"setup{index}"
    child_dir.mkdir()
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", str(child_dir),
            "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    code, _, err, _ = workloads.spawn(argv, dict(os.environ), workdir)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up process exited with {code}: {err[-500:]!r}")
    return elapsed


def new_outcome(args, workdir: Path) -> Outcome:
    """Items of ``cli`` are fresh processes, measured against the cold
    reference; the other workloads' items against the reference block."""
    if args.workload == "cli":
        return Outcome(lambda: reference_child(workdir), REFERENCE_CHILD_MS / 1000,
                       REFERENCE_CHILD_EVERY_S)
    return Outcome()


def end_to_end(args, wl, first, workdir: Path):
    """Whole rounds, each on fresh inputs.  Item times are scaled to the
    nominal machine speed round by round.  Each set-up process is followed
    by a run of the cold reference, and set-up times are scaled by their
    mean.  The set-up processes are spread over the run, so that they
    sample the machine over it rather than at its start.  On a machine so
    slow that the rounds take twice S seconds, the run stops early."""
    outcome = new_outcome(args, workdir)
    setup_times, setup_refs = [], []

    def setup():
        setup_times.append(setup_once(args, workdir, len(setup_times)))
        setup_refs.append(reference_child(workdir))

    rounds = round_count(wl, args.seconds, MIN_ROUNDS)
    start = time.perf_counter()
    for index in range(rounds):
        while len(setup_times) < -(-(index + 1) * SETUP_REPEATS // rounds):
            setup()
        run_round(wl, wl.round(index) if index else first, outcome, keep=False)
        if index + 1 >= MIN_ROUNDS and time.perf_counter() - start > 2 * args.seconds:
            rounds = index + 1
            break
    while len(setup_times) < SETUP_REPEATS:
        setup()
    scale = statistics.median(outcome.scales())
    setup_scale = REFERENCE_CHILD_MS / 1000 / statistics.mean(setup_refs)
    by_round = outcome.scaled()
    samples_ms = [t * 1000 for times in by_round for t in times]
    n = len(samples_ms)
    p_tail = tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "items_per_s": n * 1000 / sum(samples_ms),
        "latency_ms.p50": quantile(samples_ms, 50),
        "latency_ms.tail": quantile(samples_ms, p_tail) if p_tail else max(samples_ms),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} processes",
        "items_per_s": f"{rounds} rounds",
        "latency_ms.p50": f"median of {n} items",
        "latency_ms.tail": f"p{p_tail} of {n} items" if p_tail
        else f"slowest of {n} items (fewer than 11)",
        "peak_rss_mb": "largest child" if args.workload == "cli" else "this process",
    }
    raw_ms = [t * 1000 for times in outcome.times for t in times]
    print(f"item times below are scaled by {scale:.4f} (median over rounds), set-up "
          f"by {setup_scale:.4f}; unscaled: set-up {statistics.median(setup_times):.4f} s, "
          f"item p50 {quantile(raw_ms, 50):.3f} ms")
    failed = len(outcome.failures)
    print(f"failed_frac = {failed / n:.4f}  ({failed} of {n} items)")
    return metrics, END_TO_END, notes, n, outcome.failures


def traced_replay(args, wl, rounds, untraced: Outcome):
    """Replay the rounds under the tracer: (tracer, outcome, mismatches).
    CLI children trace themselves and leave their counts in a file."""
    replay = Outcome(untraced.reference, untraced.nominal_s, untraced.every_s)
    tr = tracer.Tracer()
    if args.workload == "cli":
        stats = wl.workdir / "trace.json"
        plain = wl.prefix
        wl.prefix = [sys.executable, str(HERE / "traced_cli.py"), str(stats)]

        def collect():
            if stats.exists():
                tr.merge(json.loads(stats.read_text()))
                stats.unlink()

        try:
            for items in rounds:
                run_round(wl, items, replay, keep=True, after=collect)
        finally:
            wl.prefix = plain
    else:
        with tr:
            for items in rounds:
                run_round(wl, items, replay, keep=True)
    mismatches = sum(1 for a, b in zip(untraced.results, replay.results)
                     for x, y in zip(a, b) if x != y)
    return tr, replay, mismatches


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in report order."""
    units = tracer.metric_units()
    units.update({"trace.overhead_ms": "ms", "trace.overhead_pct": "%"})
    units.update({f"cli.{c}.ms": "ms" for c in CLI_COMMANDS})
    units.update({"cli.startup_ms": "ms", "cli.import_ms": "ms"})
    return units


def per_layer(args, wl, first, workdir: Path):
    """Untraced rounds for about S/2 seconds, then the same rounds, on the
    same inputs, under the tracer; numbers are per round."""
    untraced = new_outcome(args, workdir)
    rounds = [first] + [wl.round(i) for i in range(1, round_count(wl, args.seconds / 2, 1))]
    for items in rounds:
        run_round(wl, items, untraced, keep=True)
    tr, replay, mismatches = traced_replay(args, wl, rounds, untraced)
    metrics = tr.metrics(len(rounds))
    plain_s, traced_s = (sum(map(sum, o.scaled())) for o in (untraced, replay))
    metrics["trace.overhead_ms"] = (traced_s - plain_s) * 1000 / len(rounds)
    metrics["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    by_command = {c: [] for c in CLI_COMMANDS}
    startup = imported = 0.0
    if args.workload == "cli":
        for items, times in zip(rounds, untraced.scaled()):
            for item, seconds in zip(items, times):
                by_command[item["argv"][0]].append(seconds * 1000)
        scale = statistics.median(untraced.scales())
        startup = wl.child_ms([sys.executable, "-c", "pass"]) * scale
        imported = wl.child_ms([sys.executable, "-c", "import lattact.cli"]) * scale - startup
    for c in CLI_COMMANDS:
        metrics[f"cli.{c}.ms"] = statistics.median(by_command[c]) if by_command[c] else 0.0
    metrics["cli.startup_ms"] = startup
    metrics["cli.import_ms"] = imported
    notes = {"trace.overhead_ms": f"scaled, per round, {len(rounds)} rounds replayed"}
    failures = untraced.failures + replay.failures
    if mismatches:
        failures.append(f"{mismatches} traced results differ from untraced ones")
    print(f"traced results identical to untraced: {mismatches == 0}")
    return metrics, per_layer_units(), notes, untraced.attempted, failures


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(workloads.lattact.__file__).parent != SRC / "lattact":
        print(f"error: the library was not imported from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.setup(args.workload, args.seed, Path(args.setup_only))
        return 0

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        context = {"machine.calibration_ms": round(calibration_ms(), 3),
                   "nproc": os.cpu_count(), "python": platform.python_version()}
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print("context " + json.dumps(context))
        wl, first = workloads.setup(args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, units, notes, attempted, failures = measure(args, wl, first, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    for failure in failures[:10]:
        print("FAILED " + failure.strip().replace("\n", " | "), file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
