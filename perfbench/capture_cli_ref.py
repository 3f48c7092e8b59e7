"""Write cli_ref/: the CLI's stdout for every reference-checked command.

    python3 perfbench/capture_cli_ref.py

Run from the root of a source checkout.  The stored bytes are what the
``cli`` workload compares with, so rerun this only for a commit whose
reports are meant to change, and say so in its change log.
"""

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workdir = HERE.parent / ".perfbench_tmp" / "capture"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli = workloads.Cli(0, workdir)
        workloads.CLI_REF.mkdir(exist_ok=True)
        items = {}
        for index in range(4):
            for item in cli.round(index):
                if "ref" in item:
                    items[item["ref"]] = item
        for name, item in sorted(items.items()):
            code, out, _ = cli.run(item)
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            (workloads.CLI_REF / f"{name}.out").write_bytes(out)
            print(f"{name}: {len(out)} bytes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
