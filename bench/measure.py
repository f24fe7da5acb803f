"""Helpers shared by the timed and the traced run: outcome bookkeeping,
in-process and cold-subprocess calls into the CLI, and order statistics."""

from __future__ import annotations

import io
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import numpy as np

from quakespec import cli
from quakespec.catalog_io import load_accelerogram
from quakespec.stats import component_type

# What the installed ``quakespec`` console script runs.
ENTRY = "import sys; from quakespec.cli import main; sys.exit(main())"

# Percentiles a tail may be reported at; see tail().
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

SUBPROCESS_TIMEOUT_S = 60


def null_span(name, record_id=None):
    """Stand-in for Tracer.span when nothing is traced."""
    return nullcontext()


class Checker:
    """Counts operations attempted and those with an unexpected outcome."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """Highest listed percentile with at least ten samples beyond it.

    Returns (percentile, value).  The choice depends only on the sample
    count, which each workload fixes, so it is the same on every run.
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50.0))


def load(rec):
    return load_accelerogram(rec.path, rec.fmt, units_in=rec.units,
                             label=rec.record_id)


def batch_in_process(catalog_dir: str, table: str, jobs: int):
    """``quakespec batch`` through ``cli.main`` in this process.

    Returns (exit code, wall seconds, captured stderr).
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["batch", catalog_dir, "--out", table,
                         "--jobs", str(jobs)])
    return code, time.perf_counter() - t0, err.getvalue()


def subprocess_env(src: str) -> dict:
    """Environment for child interpreters: the checkout's src/ first."""
    env = dict(os.environ)
    env.pop("QS_THREADS", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


def run_python(args, env, cwd):
    """Run a fresh interpreter to completion; returns (wall s, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def run_cli(args, env, cwd):
    """Cold ``quakespec <args>``; returns (wall s, result)."""
    return run_python(["-c", ENTRY, *args], env, cwd)


def expected_features(rows: dict, inputs, param: str) -> int:
    """Features ``map --combine-horizontal`` must emit for ``param``.

    rows maps record_id to its parameter dict.  H components of one
    station and event collapse to one feature; V components pass through.
    """
    h, v = set(), 0
    for rec in inputs.records:
        row = rows.get(rec.record_id)
        if row is None or row[param] is None:
            continue
        if component_type(rec.component) == "H":
            h.add((rec.station, rec.event_id))
        else:
            v += 1
    return len(h) + v


def report_groups(rows: dict, inputs) -> list:
    """Groups ``correlate --by event`` must report: pooled, then each event."""
    events = {rec.event_id for rec in inputs.records if rec.record_id in rows}
    return ["all", *sorted(events)]
