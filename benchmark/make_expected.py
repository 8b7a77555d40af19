"""Regenerate expected_seed0.json: every corpus item's outcome for seed 0.

    python3 benchmark/make_expected.py

Run it only on a commit whose outputs are trusted; the benchmark then fails
any item at seed 0 whose outcome differs from the table.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    table = {}
    for name, cls in run.WORKLOADS.items():
        workload = cls()
        workdir = run.ROOT / ".bench_work" / f"expected-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            items = workload.build(run.DEFAULT_SEED, workdir)
            stats = run.run_pass(workload, items, count=len(items))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if stats.failed:
            print(f"{name}: {stats.failed} items failed: {stats.failures}", file=sys.stderr)
            return 1
        table[name] = [outcome for _, outcome in sorted(stats.outcomes)]
        print(f"{name}: {len(items)} outcomes", flush=True)
    run.EXPECTED.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
