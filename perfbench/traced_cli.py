"""Run the lattact CLI under the tracer and leave its counts in a file.

    python3 perfbench/traced_cli.py STATS.json ARGS...

Exits with the CLI's own exit code; stdout is the CLI's, untouched.
"""

import json
import sys

import lattact.cli

import tracer

if __name__ == "__main__":
    with tracer.Tracer() as tr:
        code = lattact.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tr.raw(), fh)
    raise SystemExit(code)
