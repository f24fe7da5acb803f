"""Write the reference parameter tables the timed run compares against.

    python3 bench/make_reference.py

For each workload, generates the inputs of run.DEFAULT_SEED, runs
``quakespec batch`` over them and stores the table as
bench/reference/<workload>.csv.  Regenerate only for a change that is
meant to alter computed values, and say so where the change is recorded.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import run


def main() -> int:
    error = run.use_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from measure import batch_in_process
    from workloads import WORKLOADS, generate_inputs

    run.REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        work = tempfile.mkdtemp(prefix=f"reference-{wl.name}-", dir=run.OUT)
        try:
            inputs = generate_inputs(wl, run.DEFAULT_SEED, work)
            table = str(run.REFERENCE_DIR / f"{wl.name}.csv")
            code, _, _ = batch_in_process(inputs.catalog_dir, table, jobs=2)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if code != 0:
            print(f"error: batch over {wl.name} exited {code}",
                  file=sys.stderr)
            return 1
        print(f"wrote {table}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
