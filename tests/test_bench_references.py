"""The benchmark's `analyze`, `enumerate` and `degenerate` workloads check
every item against references that do not come from the library: the
fixtures' expected group, rotation and wall records, closed-form vector
and root counts, its own integer arithmetic for squares and crossings,
the order-3 isometry conditions, and a passing five-point degeneration
report. One seeded round of each runs here, so a change that breaks
those answers fails tier-1 rather than only a benchmark run. The
`analyze` and `degenerate` rounds also guard which eliminations run:
no Smith form, and rref only for a Subspace's basis."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports gen by its bare name
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _guard_eliminations(monkeypatch):
    """Record Smith forms and the callers of rref: on these rounds the
    library takes no Smith form (only discriminant forms need one), and
    rref runs only for a Subspace's canonical basis."""
    from lattact import linalg as la
    from lattact.lattice import Subspace

    from helpers import count_calls

    snf = count_calls(monkeypatch, la, "snf")
    original = la.rref
    callers = []

    def recording(*args):
        callers.append(sys._getframe(1).f_code)
        return original(*args)

    monkeypatch.setattr(la, "rref", recording)
    return snf, callers, Subspace.__post_init__.__code__


def test_enumerate_round_matches_the_benchmark_references(monkeypatch, tmp_path):
    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Enumerate(7, tmp_path)
    items = workload.round(0)
    kinds = [item["kind"] for item in items]
    assert (kinds.count("vectors"), kinds.count("segment"), kinds.count("classify")) == (21, 8, 1)
    assert [item["bound"] for item in items if item["kind"] == "classify"] == [1]
    failures = []
    for item in items:
        problem = workload.check(item, workload.run(item))
        if problem is not None:
            failures.append((item.get("spec", item["kind"]), problem))
    assert failures == []


def test_degenerate_round_matches_the_benchmark_references(monkeypatch, tmp_path):
    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Degenerate(7, tmp_path)
    items = workload.round(0)
    snf, rref_callers, subspace_code = _guard_eliminations(monkeypatch)
    assert len(items) == 7
    failures = []
    for item in items:
        problem = workload.check(item, workload.run(item))
        if problem is not None:
            failures.append((item["kind"], item["system"], problem))
    assert failures == []
    assert snf == []
    assert rref_callers and set(rref_callers) == {subspace_code}


def test_analyze_round_matches_the_benchmark_references(monkeypatch, tmp_path):
    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Analyze(7, tmp_path)
    items = workload.round(0)
    snf, rref_callers, subspace_code = _guard_eliminations(monkeypatch)
    assert len(items) == 5
    failures = []
    for item in items:
        problem = workload.check(item, workload.run(item))
        if problem is not None:
            failures.append((item["kind"], problem))
    assert failures == []
    assert snf == []
    assert rref_callers and set(rref_callers) == {subspace_code}
