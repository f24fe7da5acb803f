"""quakespec benchmark: one command per workload and mode.

    python3 bench/run.py --workload catalog_short --seed 1 --seconds 45 --trace 0

Inputs are generated from --seed under .bench_out/ in the checkout and
removed when the run ends.  --trace 0 measures the end-to-end metrics
listed in BENCHMARK.json with no tracing (timed.py); --trace 1 is a
separate run that records spans around the benchmark's calls into each
layer and reports the per-layer metrics (traced.py).  The checkout's own
src/ is imported, in this process and in every child interpreter.

Stdout lists every metric by name and unit, then ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  The run's details, the
environment and, when traced, the spans go to .bench_out/.  Exit code 0
means every output check passed, 1 that one failed, 2 that there is no
quakespec source tree to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0  # the seed whose values are stored under reference/


def use_checkout() -> str | None:
    """Put the checkout's src/ first on sys.path; returns an error or None."""
    if not (SRC / "quakespec" / "__init__.py").is_file():
        return f"no quakespec source tree at {SRC}"
    sys.path.insert(0, str(SRC))
    os.environ.pop("QS_THREADS", None)  # it would override --jobs
    import quakespec
    if not Path(quakespec.__file__).resolve().is_relative_to(SRC):
        return f"imported quakespec from {quakespec.__file__}, not {SRC}"
    return None


def environment() -> dict:
    import numpy
    import quakespec
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"quakespec_file": quakespec.__file__,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = use_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # Imported only now, so that they bind to the checkout's quakespec.
    import timed
    import traced
    from measure import Checker, null_span
    from workloads import WORKLOADS, generate_inputs

    wl = WORKLOADS[args.workload]
    chk = Checker()
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-seed{args.seed}-", dir=OUT)
    try:
        gen = traced.Tracer()
        inputs = generate_inputs(wl, args.seed, work,
                                 span=gen.span if args.trace else null_span)
        if args.trace:
            metrics, details, spans = traced.run(wl, inputs, gen, work,
                                                 str(SRC), chk)
        else:
            reference = None
            if args.seed == DEFAULT_SEED:
                reference = str(REFERENCE_DIR / f"{wl.name}.csv")
            metrics, details = timed.run(wl, inputs, args.seconds, work,
                                         str(SRC), reference, chk)
            spans = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    chk.check(set(metrics) == set(units),
              f"metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json")
    env = environment()
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "trace": args.trace, "environment": env,
                   "metrics": metrics, "details": details,
                   "attempted": chk.attempted, "failures": chk.failures},
                  fh, indent=1)
    if spans is not None:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for key, value in env.items():
        print(f"  {key}: {value}")
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:14.6g} {units.get(name, '?')}")
    for key, value in details.items():
        if not isinstance(value, dict):
            print(f"  ({key}: {value})")
    print(f"  failed_ratio {chk.failed / max(chk.attempted, 1):.6g} "
          f"({chk.failed} of {chk.attempted} operations)")
    for failure in chk.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in (m["name"] for m in listed)
                    if name in metrics},
    }))
    return 0 if chk.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
