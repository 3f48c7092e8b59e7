"""Per-layer spans around the library's public functions, from outside it.

``Tracer`` rebinds each function in TRACED, in every ``lattact.*`` module
namespace that holds it, to a wrapper that records calls and self time,
and puts the original back on exit.  A context variable holds the open
span, so a span's self time is its duration minus the time of the spans
it opened directly; wrapper overhead lands in the parent's self time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import time

TRACED = {
    "linalg": ("mat_mul", "mat_vec", "dot", "rref", "solve", "inverse_int", "hnf", "snf",
               "kernel_int", "restrict_to_span", "coords_in_rows", "matrix_group_closure"),
    "lattice": ("signature", "enumerate_vectors", "orthogonal_complement", "primitive_hull",
                "sublattice_sum", "discriminant_form"),
    "group_actions": ("enumerate_group", "fundamental_data", "fixed_lattice", "rho_lattice",
                      "eigen_lattices", "dilated_complex_structure", "leftover_lattice",
                      "is_geometric"),
    "root_systems": ("roots_of", "fundamental_camera", "camera_decompose",
                     "to_fundamental_chamber", "is_admissible", "reflection"),
    "walls": ("candidate_roots", "wall_report", "segment_vectors"),
    "degeneration": ("tau_saturation", "degenerate", "verify_degeneration"),
    "catalog": ("fixture", "classify_order3_on_2U", "torus_symplectic_survey"),
}

# work counted from a span's result: span -> (counter, size of the result)
RESULT_COUNTERS = {
    "lattice.enumerate_vectors": ("vectors", len),
    "group_actions.enumerate_group": ("order", len),
    "root_systems.roots_of": ("roots", lambda r: len(r.roots)),
    "root_systems.to_fundamental_chamber": ("word_len", len),
    "walls.candidate_roots": ("candidates", lambda r: len(r.all_roots())),
}
SATURATION = "degeneration.tau_saturation"
HULL = "lattice.primitive_hull"
FUNDAMENTAL = "group_actions.fundamental_data"

SPANS = tuple(f"{mod}.{name}" for mod, names in TRACED.items() for name in names)
COUNTERS = tuple(f"{span}.{c}" for span, (c, _) in RESULT_COUNTERS.items()) + (
    f"{SATURATION}.rounds",
)

_open_span = contextvars.ContextVar("perfbench_open_span", default=None)


def library_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lattact" or name.startswith("lattact."))]


class Tracer:
    """Context manager: traced inside the ``with`` block, untouched after.

    ``raw()`` gives plain counts that add up across processes; ``merge``
    adds another tracer's raw counts.
    """

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.actions = set()
        self.distinct_actions = 0
        self._saved = []

    def __enter__(self):
        wrappers = {}
        for mod, names in TRACED.items():
            module = importlib.import_module(f"lattact.{mod}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{name}", fn))
        for module in library_namespaces():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
        self.distinct_actions += len(self.actions)
        self.actions.clear()
        return False

    def _wrap(self, key, fn):
        calls, self_s, counts = self.calls, self.self_s, self.counts
        counter = RESULT_COUNTERS.get(key)
        counter_key = f"{key}.{counter[0]}" if counter else None
        actions = self.actions if key == FUNDAMENTAL else None
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = _open_span.get()
            node = [key, 0.0]
            token = _open_span.set(node)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _open_span.reset(token)
                calls[key] += 1
                self_s[key] += elapsed - node[1]
                if parent is not None:
                    parent[1] += elapsed
            if counter:
                counts[counter_key] += counter[1](result)
            elif key == HULL and parent is not None and parent[0] == SATURATION:
                counts[f"{SATURATION}.rounds"] += 1
            if actions is not None:
                actions.add(args[0] if args else kwargs["action"])
            return result

        return span

    def raw(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "counts": self.counts,
                "distinct_actions": self.distinct_actions}

    def merge(self, raw: dict):
        for table, other in ((self.calls, raw["calls"]), (self.self_s, raw["self_s"]),
                             (self.counts, raw["counts"])):
            for key, value in other.items():
                table[key] += value
        self.distinct_actions += raw["distinct_actions"]

    def metrics(self, rounds: int) -> dict:
        """Per-round calls, self time and counters, by metric name."""
        out = {}
        for key in SPANS:
            out[f"{key}.calls"] = self.calls[key] / rounds
            out[f"{key}.self_ms"] = self.self_s[key] * 1000 / rounds
        for key in COUNTERS:
            out[key] = self.counts[key] / rounds
        calls = self.calls[FUNDAMENTAL]
        out[f"{FUNDAMENTAL}.calls_per_action"] = (
            calls / self.distinct_actions if self.distinct_actions else 0.0)
        return out


def metric_units() -> dict:
    """Unit of every metric ``Tracer.metrics`` reports."""
    units = {}
    for key in SPANS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_ms"] = "ms"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units[f"{FUNDAMENTAL}.calls_per_action"] = "ratio"
    return units
