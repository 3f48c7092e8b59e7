"""Run alternating parent/change pairs of the benchmark and summarize them.

    python3 tools/ab_pairs.py --parent REV [--workload W ...] [--pairs N]
        [--seeds 7,8,9] [--out FILE]

The parent revision is exported with `git archive` into a temporary
directory; the change is this checkout's working tree. For each workload
(all of BENCHMARK.json's by default), pair k runs

    python3 perfbench/run.py --workload W --seed S --seconds X --trace 0

once in each tree, with S = seeds[k mod len(seeds)] and X = BENCHMARK.json's
run_seconds, the parent first in even pairs and the change first in odd
ones. One `--trace 1` run per side follows, parent first, for the
per-layer numbers.

For each end-to-end metric of BENCHMARK.json it prints both sides' median
and quartiles, the change/parent ratio of the medians, the change's wins
out of the pairs (a tie counts for neither side), the parent's
interquartile range, whether the medians differ by more than it, and
whether the change's median is within the metric's bound. It writes every
run's result and context line and the summary to the --out file (by
default BENCH_<n>.json at the repository root, n one past the largest
already there, so no earlier report is overwritten), rewritten after
every pair; a run that exits non-zero stops it with exit status 1,
recorded in that file under failed_run. README, section Tests, gives the
file's schema.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the tracked files a benchmark run executes
MEASURED = ("src/", "perfbench/")


def parse_output(stdout: str) -> dict:
    """The final JSON line of a perfbench/run.py run and its context line."""
    lines = stdout.strip().splitlines()
    context = next(json.loads(line[len("context "):]) for line in lines if line.startswith("context "))
    return {"result": json.loads(lines[-1]), "context": context}


def quartiles(xs: list) -> list:
    """[first quartile, median, third quartile] of xs."""
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric of end_to_end (BENCHMARK.json's list), the comparison of
    the pairs, each a {"parent": run, "change": run} of parse_output runs;
    under "failed", each side's failed and attempted item counts."""
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs] for side in ("parent", "change")}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        iqr = parent[2] - parent[0]
        limit = parent[1] * (1 - spec["bound"] if higher else 1 + spec["bound"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "ratio": change[1] / parent[1] if parent[1] else None,
            "wins": sum(c > p if higher else c < p for p, c in zip(values["parent"], values["change"])),
            "parent_iqr": iqr,
            "resolved": abs(change[1] - parent[1]) > iqr,
            "within_bound": change[1] >= limit if higher else change[1] <= limit,
        }
    out["failed"] = {side: [sum(p[side]["result"][k] for p in pairs) for k in ("failed", "attempted")]
                     for side in ("parent", "change")}
    return out


def table(workload: str, summary: dict, pairs: int) -> list:
    """The printed lines of one workload's summary."""
    lines = [f"{workload}: {pairs} pairs; failed/attempted parent "
             f"{'/'.join(map(str, summary['failed']['parent']))}, change "
             f"{'/'.join(map(str, summary['failed']['change']))}",
             "  metric            parent q1/med/q3           change q1/med/q3           ratio  wins  "
             "parent IQR  resolved  within bound"]
    for name, s in summary.items():
        if name == "failed":
            continue
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
        lines.append(f"  {name:<17} {'/'.join(f'{x:.4g}' for x in s['parent']):<26} "
                     f"{'/'.join(f'{x:.4g}' for x in s['change']):<26} {ratio:>5}  {s['wins']:>2}/{pairs:<2} "
                     f"{s['parent_iqr']:>10.4g}  {str(s['resolved']):<8}  {s['within_bound']}")
    return lines


def export(rev: str, dest: Path) -> str:
    """Extract the tree of rev into dest; return its commit hash."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)
    return _commit(rev)


def measured_edits(porcelain: str) -> bool:
    """Whether `git status --porcelain` lines name a file under MEASURED,
    on either side of a rename ("XY OLD -> NEW")."""
    return any(path.strip('"').startswith(MEASURED)
               for line in porcelain.splitlines() for path in line[3:].split(" -> "))


def _commit(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def next_bench_path(root: Path) -> Path:
    """root/BENCH_<n>.json for n one past the largest such file in root (1 if none)."""
    taken = [int(n) for n in (p.stem.removeprefix("BENCH_") for p in root.glob("BENCH_*.json")) if n.isdecimal()]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


class RunFailed(Exception):
    """A perfbench/run.py run that exited non-zero; args[0] records it."""


def run(side: str, tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise RunFailed({"side": side, "cmd": cmd[1:], "returncode": proc.returncode,
                         "stderr": proc.stderr[-4000:]})
    return {"seed": seed, **parse_output(proc.stdout)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision to compare the working tree with")
    p.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", default="7,8,9,10,101,102,103,104,105,106")
    p.add_argument("--out", type=Path, help="report file (default: the next unused BENCH_<n>.json)")
    args = p.parse_args(argv)
    args.out = args.out or next_bench_path(ROOT)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    dirty = measured_edits(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                          check=True, capture_output=True, text=True).stdout)
    report = {"parent": args.parent, "change": _commit("HEAD"), "change_uncommitted_edits": dirty,
              "seconds": seconds, "seeds": seeds, "workloads": {}}

    def save():
        # rewritten after every pair, so a failed run loses none before it
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        report["parent_commit"] = export(args.parent, trees["parent"])
        try:
            for workload in workloads:
                entry = report["workloads"][workload] = {"pairs": []}
                for k in range(args.pairs):
                    seed = seeds[k % len(seeds)]
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    pair = {"seed": seed, "first": order[0]}
                    for side in order:
                        pair[side] = run(side, trees[side], workload, seed, seconds, 0)
                    entry["pairs"].append(pair)
                    save()
                    print(f"{workload} pair {k + 1}/{args.pairs} seed {seed}", file=sys.stderr)
                traced = {side: run(side, trees[side], workload, seeds[0], seconds, 1) for side in ("parent", "change")}
                summary = summarize(entry["pairs"], bench["end_to_end"])
                entry.update(traced=traced, summary=summary)
                save()
                print("\n".join(table(workload, summary, args.pairs)), flush=True)
        except RunFailed as failed:
            report["failed_run"] = failed.args[0]
            save()
            print(f"{failed.args[0]['side']} run failed, exit {failed.args[0]['returncode']}: "
                  f"{' '.join(failed.args[0]['cmd'])}; report so far in {args.out}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
