"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name. A renamed function breaks only traced benchmark runs, so every name
it traces is checked here, and so is every name the package exports."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, names in tracer.TRACED.items():
        module = importlib.import_module(f"lattact.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"lattact.{mod}.{name}"


def test_every_exported_name_resolves():
    import lattact

    for name in lattact.__all__:
        assert hasattr(lattact, name), f"lattact.{name}"
