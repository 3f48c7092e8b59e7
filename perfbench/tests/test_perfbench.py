"""Self-tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py     (or pytest on this file)

They check the benchmark's own machinery (input generation, references,
percentile rule, failure accounting, tracer hygiene), not the library.
"""

import itertools
import json
import math
import statistics
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the library's source on the path)

import gen  # noqa: E402
import lattact  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROUNDS = {
    "analyze": gen.analyze_round,
    "degenerate": gen.degenerate_round,
    "enumerate": gen.enumerate_round,
    "cli": gen.cli_round,
}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name, make in ROUNDS.items():
            for index in (0, 3):
                first = gen.fingerprint(make(7, index))
                self.assertEqual(first, gen.fingerprint(make(7, index)), name)
                self.assertNotEqual(first, gen.fingerprint(make(8, index)), name)

    def test_seeds_change_signs_not_sizes(self):
        def unsigned(x):
            if isinstance(x, int) and not isinstance(x, bool):
                return abs(x)
            if isinstance(x, str):
                return x.replace("-", "")
            if isinstance(x, dict):
                return {k: unsigned(v) for k, v in x.items()}
            if isinstance(x, (tuple, list)):
                return [unsigned(v) for v in x]
            return x

        for name, make in ROUNDS.items():
            for index in (0, 2):
                a, b = make(7, index), make(8, index)
                self.assertEqual(unsigned(a), unsigned(b), name)
                self.assertNotEqual(gen.fingerprint(a), gen.fingerprint(b), name)

    def test_sign_flip_keeps_the_answers(self):
        rng = gen.round_rng(6, "test", 0)
        checks = [
            (workloads.WORKLOADS["enumerate"](6, BENCH), gen.enumerate_round(6, 0)[-4:-1]),
            (workloads.WORKLOADS["degenerate"](6, BENCH), gen.degenerate_round(6, 0)[3:4]),
            (workloads.WORKLOADS["analyze"](6, BENCH), gen.analyze_round(6, 0)[-1:]),
        ]
        for wl, items in checks:
            for item in items:
                copy = gen.sign_flip(item, rng)
                self.assertNotEqual(copy, item)
                self.assertIsNone(wl.check(copy, wl.run(copy)), copy.get("kind"))

    def test_basis_change_is_unimodular(self):
        rng = gen.round_rng(1, "test", 0)
        for n in (2, 6, 22):
            b, b_inv = gen.random_unimodular(rng, n, 4)
            self.assertEqual(gen.mat_mul(b, b_inv), gen.identity(n))

    def test_base_actions_are_the_bundled_fixtures(self):
        for name in gen.FIXTURES:
            want = lattact.fixture(name).action
            got = gen.base_action(name)
            self.assertEqual(got["gram"], want.ambient.gram, name)
            self.assertEqual(got["gens"], tuple((n, g.matrix, k) for n, g, k in want.generators))

    def test_bundled_files_match_catalog_output(self):
        for name in gen.FIXTURES:
            text = gen.fixture_file_text(gen.base_action(name),
                                         f"{name} fixture; {workloads.COLUMN_NOTE}")
            ref = (workloads.CLI_REF / f"catalog_{name}.out").read_bytes()
            self.assertEqual(text.encode(), ref, name)


def box_counts(gram, bound=3):
    """Vectors of square -2 and -4 with coordinates in [-bound, bound]."""
    counts = {-2: 0, -4: 0}
    for v in itertools.product(range(-bound, bound + 1), repeat=len(gram)):
        q = workloads.sq(gram, v)
        if q in counts:
            counts[q] += 1
    return counts[-2], counts[-4]


class ReferenceTest(unittest.TestCase):
    def test_closed_form_counts_match_a_box_scan(self):
        for spec in ("A1", "A2", "A3", "A4", "D4", "A2+A1", "A1+A1+A1"):
            self.assertEqual(workloads.vector_counts(spec), box_counts(gen.spec_gram(spec)), spec)

    def test_theta_series_values(self):
        self.assertEqual(workloads.vector_counts("E8"), (240, 2160))
        self.assertEqual(workloads.vector_counts("D8"), (112, 1136))
        self.assertEqual(workloads.vector_counts("E6+A2"), (78, 270 + 72 * 6))


class TailPercentileTest(unittest.TestCase):
    def test_at_least_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(10))
        for n in range(11, 2000):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(n - math.ceil(p * n / 100), 10, n)
            higher = [q for q in run.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(n - math.ceil(q * n / 100), 10, (n, q))

    def test_known_sizes(self):
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_harrell_davis_quantile(self):
        self.assertAlmostEqual(run.beta_cdf(2, 3, 0.4), 0.5248)
        self.assertAlmostEqual(run.beta_cdf(7.5, 3.5, 0.6) + run.beta_cdf(3.5, 7.5, 0.4), 1)
        values = list(range(1, 102))
        self.assertAlmostEqual(run.quantile(values, 50), 51)
        self.assertAlmostEqual(run.quantile(values[::-1], 50), 51)
        self.assertAlmostEqual(run.quantile(values, 90), 0.5 + 0.9 * 101, delta=0.01)
        self.assertEqual(run.quantile([7.0] * 30, 66), 7.0)
        # between two clusters the estimate moves with their sizes, not by a jump
        low, high = [1.0] * 15, [2.0] * 15
        self.assertAlmostEqual(run.quantile(low + high, 50), 1.5)
        self.assertLess(run.quantile(low + [1.0] + high, 50), 1.5)


def temp_dir(test: unittest.TestCase) -> Path:
    tmp = tempfile.TemporaryDirectory()
    test.addCleanup(tmp.cleanup)
    return Path(tmp.name)


class FailureAccountingTest(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.WORKLOADS["analyze"](3, temp_dir(self))
        self.item = gen.random_copy(gen.round_rng(3, "test", 0), "klein")

    def test_correct_item_passes(self):
        outcome = run.Outcome()
        run.run_round(self.wl, [self.item], outcome, keep=False)
        self.assertEqual(outcome.failures, [])

    def test_wrong_reference_counts_as_failed_item(self):
        saved = workloads.EXPECTED["klein"]
        workloads.EXPECTED["klein"] = dict(saved, walls=saved["walls"] + 1)
        try:
            outcome = run.Outcome()
            run.run_round(self.wl, [self.item, self.item], outcome, keep=False)
        finally:
            workloads.EXPECTED["klein"] = saved
        self.assertEqual(outcome.attempted, 2)
        self.assertEqual(len(outcome.failures), 2)
        self.assertIn("walls=2 want 3", outcome.failures[0])

    def test_raising_item_counts_as_failed_item(self):
        broken = dict(self.item, gens=(("t", gen.identity(5), 1),))
        outcome = run.Outcome()
        run.run_round(self.wl, [broken, self.item], outcome, keep=False)
        self.assertEqual(outcome.attempted, 2)
        self.assertEqual(len(outcome.failures), 1)

    def test_rounds_are_scaled_by_their_reference_blocks(self):
        outcome = run.Outcome()
        for _ in range(3):
            run.run_round(self.wl, [self.item, self.item], outcome, keep=False)
        self.assertEqual(outcome.attempted, 6)
        self.assertEqual(len(outcome.refs), 3)
        for refs, times, scale, scaled in zip(outcome.refs, outcome.times,
                                              outcome.scales(), outcome.scaled()):
            # one block up front, then one per REFERENCE_EVERY_S of items
            self.assertEqual(len(refs), 1 + int(sum(times[:-1]) / run.REFERENCE_EVERY_S))
            self.assertEqual(outcome.every_s, run.REFERENCE_EVERY_S)
            self.assertAlmostEqual(scale * statistics.mean(refs), run.REFERENCE_MS / 1000)
            self.assertEqual(scaled, [t * scale for t in times])


def namespace_snapshot():
    return {(m.__name__, k): v for m in tracer.library_namespaces() for k, v in vars(m).items()}


class TracerTest(unittest.TestCase):
    def test_functions_restored_exactly(self):
        before = namespace_snapshot()
        wl = workloads.WORKLOADS["degenerate"](4, temp_dir(self))
        item = gen.degenerate_round(4, 0)[0]
        with tracer.Tracer() as tr:
            self.assertIsNot(lattact.linalg.dot, before[("lattact.linalg", "dot")])
            self.assertIsNot(lattact.fundamental_data,
                             before[("lattact", "fundamental_data")])
            wl.run(item)
        after = namespace_snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])
        self.assertGreater(tr.calls["degeneration.tau_saturation"], 0)
        self.assertGreater(tr.counts["degeneration.tau_saturation.rounds"], 0)

    def test_traced_results_equal_untraced(self):
        wl = workloads.WORKLOADS["enumerate"](5, temp_dir(self))
        items = gen.enumerate_round(5, 0)[:3]
        plain = [wl.run(item) for item in items]
        with tracer.Tracer() as tr:
            traced = [wl.run(item) for item in items]
        self.assertEqual(plain, traced)
        self.assertEqual(tr.calls["root_systems.roots_of"], 3)

    def test_self_times_partition_the_outer_span(self):
        lattice = lattact.Lattice(gen.spec_gram("D5"))
        with tracer.Tracer() as tr:
            start = time.perf_counter()
            lattact.roots_of(lattice)
            wall = time.perf_counter() - start
        total = sum(tr.self_s.values())
        self.assertLessEqual(total, wall)
        self.assertGreater(total, 0.95 * wall)
        self.assertGreater(tr.self_s["lattice.enumerate_vectors"], 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match_the_runner(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(layers, run.per_layer_units())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
