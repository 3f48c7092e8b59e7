"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name. A renamed function breaks only traced benchmark runs, so every name
it traces is checked here, and so is every name the package exports. The
package resolves its names lazily, so a last check shows that a tracer
entered right after ``import lattact`` leaves no wrapper behind."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import lattact

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


# Enter and leave the tracer with only `import lattact` done, reading every
# exported name for the first time while it is active; then check that the
# package and every module hold the original functions again.
_TRACE_AFTER_IMPORT = """
import sys
import lattact
import tracer


def traced(obj):
    code = getattr(obj, "__code__", None)
    return code is not None and code.co_filename == tracer.__file__

assert [m for m in sys.modules if m.startswith("lattact")] == ["lattact"]
names = [n for n in lattact.__all__ if n != "__version__"]
with tracer.Tracer() as tr:
    seen = {n: getattr(lattact, n) for n in names}
    spans = {(mod, name): getattr(sys.modules["lattact." + mod], name)
             for mod, names_ in tracer.TRACED.items() for name in names_}
    lattact.roots_of(lattact.standard_lattice("A2"))
assert tr.calls["root_systems.roots_of"] == 1
for (mod, name), span in spans.items():
    assert getattr(sys.modules["lattact." + mod], name) is span.__wrapped__, (mod, name)
for n, obj in seen.items():
    assert getattr(lattact, n) is (obj.__wrapped__ if traced(obj) else obj), n
assert not set(names) & set(vars(lattact))
for module in tracer.library_namespaces():
    for attr, value in vars(module).items():
        assert not traced(value), (module.__name__, attr)
print("restored")
"""


def test_tracer_after_bare_import_restores_every_function():
    src = Path(lattact.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(TRACER.parent))))
    done = subprocess.run(
        [sys.executable, "-c", _TRACE_AFTER_IMPORT], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "restored\n"
