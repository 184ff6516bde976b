"""Pin the selftest agreement counts the ``selftest`` workload expects.

    python3 perfbench/pin_selftest.py

Runs ``combstab selftest --json`` for each seed of the pool and writes the
per-check run/agreed counts to ``selftest_golden.json``.  Re-pin only in a
change to the benchmark, when the selftest stream is changed on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import ROOT, import_combstab
from workloads import SELFTEST_COUNT, Selftest, _cli

POOL = [20260808 + i for i in range(24)]


def main() -> int:
    mods = import_combstab()
    pinned = {}
    for seed in POOL:
        code, out = _cli(mods, ["selftest", "--json", "--seed", str(seed), "--count", str(SELFTEST_COUNT)])
        payload = json.loads(out)
        if code != 0 or not payload["passed"]:
            print(f"selftest failed for seed {seed}; nothing pinned", file=sys.stderr)
            return 1
        pinned[str(seed)] = payload["checks"]
    text = json.dumps({"count": SELFTEST_COUNT, "checks": pinned}, indent=1, sort_keys=True)
    Selftest.golden_path.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
