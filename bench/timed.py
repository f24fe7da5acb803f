"""Timed run: the end-to-end metrics, with tracing off.

Three kinds of task, interleaved evenly over the run so that every metric
samples the same stretch of machine time (on a shared machine its speed
drifts over seconds; back-to-back stages would each catch a different
phase):
  * record chunks: load plus ``analyze_record`` per record, one thread,
    timed per record by the benchmark (record_ms_p50, record_ms_tail);
  * batch chunks: ``cli.main(["batch", ...])`` in this warm process over
    each sub-catalog, at --jobs 1 and at --jobs 2 (records_per_s,
    records_per_s_2t: records over summed wall time);
  * cold rounds, each task a fresh interpreter: import plus
    ``load_catalog`` (setup_s), then ``--version``, ``analyze``,
    ``correlate`` and ``map`` (cli_*_s).  The record and batch work is
    fixed; cold rounds fill the rest of the time budget: as many as the
    untimed warm-up predicts are interleaved (at least MIN_COLD_ROUNDS),
    and more follow while time is left.
Peak RSS is read at the end.  Every output is checked; see check_*.
"""

from __future__ import annotations

import json
import math
import os
import resource
import time

from quakespec.catalog_io import read_parameter_table
from quakespec.pipeline import RunConfig, analyze_record
from quakespec.stats import PARAM_ORDER, component_type

from measure import (batch_in_process, expected_features, load, median,
                     report_groups, run_cli, run_python, subprocess_env,
                     tail)
from workloads import MALFORMED, OK, ZERO

RECORD_CHUNKS = 10
MIN_COLD_ROUNDS = 3
# A cold command costs about this many times a bare import plus
# load_catalog: analyze, correlate and map add their own work.
COLD_ROUND_COST = 1.2
MAP_PARAM = "t_cen"
REFERENCE_RTOL = 1e-9

# Run in a fresh interpreter: what a user pays before the first record
# is analyzed.  The end time is read on the child's monotonic clock,
# which the parent shares, so interpreter teardown is not counted.
SETUP_CODE = """\
import sys, time
import quakespec.cli
from quakespec.catalog_io import load_catalog
cat = load_catalog(sys.argv[1])
end = time.perf_counter()
import quakespec
print(repr(end), len(cat.records), quakespec.__file__)
"""


def spread(tasks):
    """Interleave task lists evenly: task i of n sits at (i + 0.5) / n."""
    placed = [((i + 0.5) / len(ts), k, t)
              for k, ts in enumerate(tasks) for i, t in enumerate(ts)]
    return [t for _, _, t in sorted(placed, key=lambda p: p[:2])]


class TimedRun:
    def __init__(self, wl, inputs, work, src, chk):
        self.inputs, self.work, self.src, self.chk = inputs, work, src, chk
        self.latency_analyses = wl.latency_analyses
        self.cfg = RunConfig()
        self.env = subprocess_env(src)
        self.values, self.record_ms = {}, []
        self.batch = {1: [0, 0.0], 2: [0, 0.0]}  # jobs -> [records, seconds]
        self.tables = {}                          # (chunk, jobs) -> path
        self.cold = {k: [] for k in ("setup_s", "cli_version_s",
                                     "cli_analyze_s", "cli_correlate_s",
                                     "cli_map_s")}
        self.analyze_out = []
        self.table_rows = table_rows(inputs.table)
        self.first = inputs.of_kind(OK)[0]

    def run(self, seconds, reference):
        deadline = time.perf_counter() + seconds
        record_s, cold_s = self.warm_up()
        recs = self.inputs.latency_set(self.latency_analyses)
        size = math.ceil(len(recs) / RECORD_CHUNKS)
        record_tasks = [lambda c=recs[k:k + size]: self.records(c)
                        for k in range(0, len(recs), size)]
        batch_tasks = [lambda k=k, j=jobs: self.batch_chunk(k, j)
                       for k in range(len(self.inputs.chunks))
                       for jobs in (1, 2)]
        # Upper estimate of the fixed work: every analysis at one thread.
        fixed_s = record_s * (len(recs) + 2 * len(self.inputs.records))
        round_s = COLD_ROUND_COST * cold_s * len(self.cold_round())
        rounds = max(MIN_COLD_ROUNDS, int((deadline - time.perf_counter()
                                           - fixed_s) / round_s))
        for task in spread([record_tasks, batch_tasks,
                            self.cold_round() * rounds]):
            task()
        round_s = sum(map(sum, self.cold.values())) / rounds
        while time.perf_counter() + round_s < deadline:
            for task in self.cold_round():
                task()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.check_outputs(reference)

        p, tail_ms = tail(self.record_ms)
        metrics = {
            "setup_s": median(self.cold["setup_s"]),
            "records_per_s": self.batch[1][0] / self.batch[1][1],
            "records_per_s_2t": self.batch[2][0] / self.batch[2][1],
            "record_ms_p50": median(self.record_ms),
            "record_ms_tail": tail_ms,
            "cli_version_s": median(self.cold["cli_version_s"]),
            "cli_analyze_s": median(self.cold["cli_analyze_s"]),
            "cli_correlate_s": median(self.cold["cli_correlate_s"]),
            "cli_map_s": median(self.cold["cli_map_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
        details = {
            "record_ms_tail_percentile": p,
            "record_ms_samples": len(self.record_ms),
            "record_ms_beyond_tail": sum(ms > tail_ms
                                         for ms in self.record_ms),
            "cold_rounds": len(self.cold["setup_s"]),
            "cold_rounds_interleaved": rounds,
            "catalog_records": len(self.inputs.records),
            "batch_chunks": len(self.inputs.chunks),
            "samples": {"record_ms": self.record_ms, **self.cold},
        }
        return metrics, details

    def warm_up(self):
        """Untimed: fills caches and compiles bytecode, which users do
        not pay on every record or every command.  Returns the seconds a
        second analysis and a second cold setup took, to plan the run."""
        spent = []
        for _ in range(2):
            t0 = time.perf_counter()
            analyze_record(load(self.first), cfg=self.cfg)
            t1 = time.perf_counter()
            run_python(["-c", SETUP_CODE, self.inputs.catalog_dir],
                       self.env, self.work)
            spent = [t1 - t0, time.perf_counter() - t1]
        return spent

    def records(self, chunk):
        """Load plus analyze_record per record, checking each outcome."""
        chk = self.chk
        for rec in chunk:
            t0 = time.perf_counter()
            try:
                acc = load(rec)
            except ValueError as exc:
                chk.check(rec.kind == MALFORMED,
                          f"{rec.record_id}: unexpected load failure: {exc}")
                continue
            pset, warnings = analyze_record(
                acc, record_id=rec.record_id, event_id=rec.event_id,
                component=component_type(rec.component), cfg=self.cfg)
            self.record_ms.append((time.perf_counter() - t0) * 1e3)
            if rec.kind == OK:
                ok = (pset is not None and not warnings
                      and all(v is not None for v in pset.params().values()))
            else:
                ok = (rec.kind == ZERO and pset is None
                      and set(warnings) == set(PARAM_ORDER))
            chk.check(ok, f"{rec.record_id} ({rec.kind}): unexpected outcome "
                          f"{'none' if pset is None else 'parameters'}, "
                          f"warnings {sorted(warnings)}")
            if pset is not None:
                self.values[rec.record_id] = pset.params()

    def batch_chunk(self, k, jobs):
        chunk_dir, recs = self.inputs.chunks[k]
        table = os.path.join(self.work, f"parameters_{k}_j{jobs}.csv")
        code, wall, err = batch_in_process(chunk_dir, table, jobs)
        self.chk.check(code == 0, f"batch chunk {k} --jobs {jobs} "
                                  f"exited {code}")
        check_batch_warnings(err, recs, f"chunk {k} --jobs {jobs}", self.chk)
        self.batch[jobs][0] += len(recs)
        self.batch[jobs][1] += wall
        self.tables[k, jobs] = table

    def cold_round(self):
        """One fresh-interpreter task per cold metric."""
        return [self.setup, self.version, self.analyze, self.correlate,
                self.map]

    def setup(self):
        t0 = time.perf_counter()
        wall, proc = run_python(["-c", SETUP_CODE, self.inputs.catalog_dir],
                                self.env, self.work)
        fields = proc.stdout.split()
        ok = self.chk.check(proc.returncode == 0 and len(fields) == 3,
                            f"setup exited {proc.returncode}: "
                            f"{proc.stderr[-300:]}")
        self.cold["setup_s"].append(float(fields[0]) - t0 if ok else wall)
        if ok:
            self.chk.check(
                int(fields[1]) == len(self.inputs.records)
                and os.path.abspath(fields[2]).startswith(self.src + os.sep),
                f"setup loaded {fields[1]} records from {fields[2]}")

    def version(self):
        wall, proc = run_cli(["--version"], self.env, self.work)
        self.chk.check(proc.returncode == 0 and "quakespec" in proc.stdout,
                       f"--version exited {proc.returncode}")
        self.cold["cli_version_s"].append(wall)

    def analyze(self):
        rec = self.first
        wall, proc = run_cli(["analyze", rec.path, "--units", rec.units,
                              "--record-id", rec.record_id,
                              "--event-id", rec.event_id,
                              "--component", component_type(rec.component)],
                             self.env, self.work)
        self.cold["cli_analyze_s"].append(wall)
        if self.chk.check(proc.returncode == 0,
                          f"analyze exited {proc.returncode}: "
                          f"{proc.stderr[-300:]}"):
            self.analyze_out.append(json.loads(proc.stdout)["parameters"])

    def correlate(self):
        out_dir = os.path.join(self.work,
                               f"reports_{len(self.cold['cli_correlate_s'])}")
        wall, proc = run_cli(["correlate", self.inputs.table, "--by", "event",
                              "--out-dir", out_dir], self.env, self.work)
        self.cold["cli_correlate_s"].append(wall)
        want = {f"report_{g}.{ext}"
                for g in report_groups(self.table_rows, self.inputs)
                for ext in ("csv", "json")}
        self.chk.check(proc.returncode == 0 and os.path.isdir(out_dir)
                       and set(os.listdir(out_dir)) == want,
                       f"correlate exited {proc.returncode} or wrote "
                       f"other reports than {sorted(want)}")

    def map(self):
        out = os.path.join(self.work,
                           f"map_{len(self.cold['cli_map_s'])}.geojson")
        wall, proc = run_cli(["map", self.inputs.table,
                              self.inputs.catalog_dir, "--param", MAP_PARAM,
                              "--combine-horizontal", "--out", out],
                             self.env, self.work)
        self.cold["cli_map_s"].append(wall)
        if self.chk.check(proc.returncode == 0,
                          f"map exited {proc.returncode}: "
                          f"{proc.stderr[-300:]}"):
            with open(out) as fh:
                n = len(json.load(fh)["features"])
            want = expected_features(self.table_rows, self.inputs, MAP_PARAM)
            self.chk.check(n == want,
                           f"map emitted {n} features, expected {want}")

    def check_outputs(self, reference):
        chk = self.chk
        for got in self.analyze_out:
            chk.check(got == self.values.get(self.first.record_id),
                      "analyze output differs from analyze_record")
        rows = {}
        for k in range(len(self.inputs.chunks)):
            with open(self.tables[k, 1], "rb") as f1, \
                    open(self.tables[k, 2], "rb") as f2:
                chk.check(f1.read() == f2.read(), f"batch chunk {k}: table "
                          f"differs between --jobs 1 and --jobs 2")
            rows.update(table_rows(self.tables[k, 1]))
        healthy = {r.record_id for r in self.inputs.records if r.kind == OK}
        chk.check(set(rows) == healthy,
                  "batch tables do not hold exactly the healthy records")
        for rid in sorted(healthy & set(rows)):
            chk.check(all(v is not None for v in rows[rid].values()),
                      f"{rid}: batch table lacks a parameter")
            if rid in self.values:
                chk.check(rows[rid] == self.values[rid],
                          f"{rid}: batch table differs from analyze_record")
        if reference is not None:
            check_reference(rows, reference, chk)


def run(wl, inputs, seconds, work, src, reference, chk):
    return TimedRun(wl, inputs, work, src, chk).run(seconds, reference)


def check_batch_warnings(stderr: str, records, label, chk):
    """Exactly the degenerate records are named in batch's warnings."""
    lines = [ln for ln in stderr.splitlines() if ln.startswith("warning")]
    warned = {r.record_id for r in records
              if any(r.record_id in ln for ln in lines)}
    expected = {r.record_id for r in records if r.kind != OK}
    chk.check(warned == expected, f"batch {label}: warnings name "
                                  f"{sorted(warned)}, expected "
                                  f"{sorted(expected)}")


def table_rows(path):
    sets, _ = read_parameter_table(path)
    return {s.record_id: s.params() for s in sets}


def check_reference(rows, reference, chk):
    """Values match the stored reference table within REFERENCE_RTOL."""
    if not chk.check(os.path.isfile(reference),
                     f"missing reference table {reference}"):
        return
    ref = table_rows(reference)
    chk.check(set(ref) == set(rows),
              "batch table records differ from the reference table")
    for rid in sorted(set(ref) & set(rows)):
        for name, want in ref[rid].items():
            got = rows[rid][name]
            same = (got is None and want is None) or (
                got is not None and want is not None
                and math.isclose(got, want, rel_tol=REFERENCE_RTOL,
                                 abs_tol=0.0))
            chk.check(same, f"{rid}.{name}: {got!r} vs reference {want!r}")
