"""Print a sha256 of the benchmark's in-process results, per seed.

    python3 tools/round_digest.py

For seeds 7 and 13, runs rounds 0-4 of the `Analyze`, `Degenerate` and
`Enumerate` workloads of perfbench/workloads.py, in that order, and
hashes one line per item: the repr of its result. Equal digests on two
commits mean the same bytes out. The library is imported from src/ of
this checkout, and nothing is written under perfbench/.

Standard library only, no options.
"""

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 13)
ROUNDS = 5
WORKLOADS = ("Analyze", "Degenerate", "Enumerate")


def _exec(name: str):
    """perfbench/<name>.py run as a fresh module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    """perfbench/workloads.py, loaded without writing bytecode. It imports
    gen by its bare name, which is registered only while it loads."""
    saved = sys.modules.get("gen"), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        sys.modules["gen"] = _exec("gen")
        return _exec("workloads")
    finally:
        if saved[0] is None:
            del sys.modules["gen"]
        else:
            sys.modules["gen"] = saved[0]
        sys.dont_write_bytecode = saved[1]


def digest(seed: int, rounds: int) -> str:
    """sha256 over the repr of every result of rounds 0..rounds-1 of each
    workload, one line per item."""
    workloads = _workloads()
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            workload = getattr(workloads, name)(seed, Path(tmp))
            for index in range(rounds):
                for item in workload.round(index):
                    h.update(repr(workload.run(item)).encode() + b"\n")
    return h.hexdigest()


def main() -> int:
    if len(sys.argv) > 1:
        print("usage: python3 tools/round_digest.py (it takes no options)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for seed in SEEDS:
        print(f"seed {seed}: {digest(seed, ROUNDS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
