"""Regenerate the golden output the cli workload checks `catalog` against.

    python3 perfbench/golden.py

The catalog's candidate list has no independent oracle, so its output is
frozen here; rerun this only after checking a deliberate catalog change.
"""

import json
import os
import subprocess
import sys

import clibench

ARGS = ["catalog", "--length", "30", "--json"]


def main():
    root = os.path.dirname(clibench.HERE)
    out = subprocess.run([sys.executable, "-m", "anaburnside.cli"] + ARGS, cwd=root,
                         env=clibench.child_env(root), stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    result = json.loads(out)["result"]
    os.makedirs(os.path.dirname(clibench.GOLDEN), exist_ok=True)
    with open(clibench.GOLDEN, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print("wrote", os.path.relpath(clibench.GOLDEN, root))


if __name__ == "__main__":
    main()
