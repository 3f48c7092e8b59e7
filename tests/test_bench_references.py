"""The benchmark's `analyze`, `enumerate` and `degenerate` workloads check
every item against references that do not come from the library: the
fixtures' expected group, rotation and wall records, closed-form vector
and root counts, its own integer arithmetic for squares and crossings,
the order-3 isometry conditions, and a passing five-point degeneration
report. One seeded round of each runs here, so a change that breaks
those answers fails tier-1 rather than only a benchmark run. The
`analyze` and `degenerate` rounds also guard which eliminations run:
no Smith form and no rref; the `degenerate` round builds no
Fraction at all."""

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
    """Record Smith forms and rref calls: on these rounds the library takes
    no Smith form (only discriminant forms need one) and no rref (only
    rank and solve use it)."""
    from lattact import linalg as la

    from helpers import count_calls

    return count_calls(monkeypatch, la, "snf"), count_calls(monkeypatch, la, "rref")


def _count_fractions(monkeypatch):
    """Record every Fraction construction, arithmetic results included."""
    from fractions import Fraction

    original = Fraction.__new__
    made = []

    def recording(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(recording))
    return made


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
    snf, rref = _guard_eliminations(monkeypatch)
    fractions = _count_fractions(monkeypatch)
    assert len(items) == 7
    failures = []
    for item in items:
        problem = workload.check(item, workload.run(item))
        if problem is not None:
            failures.append((item["kind"], item["system"], problem))
    assert failures == []
    assert snf == [] and rref == []
    assert fractions == []


def test_analyze_round_matches_the_benchmark_references(monkeypatch, tmp_path):
    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Analyze(7, tmp_path)
    items = workload.round(0)
    snf, rref = _guard_eliminations(monkeypatch)
    assert len(items) == 5
    failures = []
    for item in items:
        problem = workload.check(item, workload.run(item))
        if problem is not None:
            failures.append((item["kind"], problem))
    assert failures == []
    assert snf == [] and rref == []
