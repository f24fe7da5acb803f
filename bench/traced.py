"""Traced run: spans around the benchmark's own calls into each layer.

Spans are ``{name, start, end, parent, record_id}`` kept in memory and
written out when the run ends.  A span's self time is its duration minus
the part of it its children cover.  The per-record sequence mirrors
``pipeline.analyze_record`` call by call (load, peaks, FAS and PSD,
moments, PSD peaks, response spectra, peak periods, effective peaks), and
the mirror's values must equal those of the real ``analyze_record``,
which is timed as its own span on the same record.

The traced run is separate from the timed run.  Its own overhead is
measured by running the same mirror on each record untraced and traced.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from quakespec.catalog_io import (emit_geojson_map, load_catalog,
                                  read_parameter_table, write_parameter_table)
from quakespec.pipeline import RunConfig, analyze_record
from quakespec.response import (characteristic_period_tc, effective_peaks,
                                heidebrecht_period, response_spectra,
                                spectrum_peak_period)
from quakespec.signal_core import peaks
from quakespec.spectral import (bandwidth_indices, fourier_amplitude_spectrum,
                                mean_square_period, moment_periods,
                                power_spectral_density, psd_peak_periods,
                                spectral_moments)
from quakespec.stats import (PARAM_ORDER, ParameterSet, component_type,
                             correlation_matrix, write_report_csv,
                             write_report_json)

from measure import (batch_in_process, expected_features, load, median,
                     null_span, report_groups, run_python, subprocess_env)
from workloads import OK

REPEATS = 5           # calls per catalog-level span and per import probe
SPAN_COST_CALLS = 20000
MAP_PARAM = "t_cen"

# dt/period beyond which response_spectra refines the excitation, and the
# refinement factor it then uses (sdof_response's documented rule).
SUBSTEP_LIMIT = 0.1

IMPORT_PROBE = ("import quakespec.cli, quakespec; "
                "print(quakespec.__file__)")


@dataclass
class Span:
    id: int
    name: str
    start: int   # perf_counter_ns
    end: int
    parent: int | None
    record_id: str | None


class Tracer:
    """Thread-safe in-memory span recorder; parents follow each thread's
    nesting, and a span inherits its parent's record_id."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name, record_id=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if record_id is None and parent is not None:
            record_id = parent.record_id
        sp = Span(next(self._ids), name, time.perf_counter_ns(), 0,
                  None if parent is None else parent.id, record_id)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(sp)

    def durations_ms(self, name):
        return [(s.end - s.start) / 1e6 for s in self.spans if s.name == name]

    def self_ms(self, name):
        """Self time of every span called name, in ms."""
        children = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            covered, reach = 0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((s.end - s.start - covered) / 1e6)
        return out

    def nesting_violations(self):
        """Child spans that are not inside their parent's interval."""
        by_id = {s.id: s for s in self.spans}
        return [s for s in self.spans if s.parent is not None
                and not (by_id[s.parent].start <= s.start
                         and s.end <= by_id[s.parent].end)]


def mirror_record(span, rec, cfg):
    """analyze_record's layer calls for one record, one span per layer.

    Returns None when the load fails, else (parameter dict or None,
    names of missing parameters, loaded record, transform length).
    """
    values = dict.fromkeys(PARAM_ORDER)
    missing = set()

    def attempt(names, fn):
        try:
            result = fn()
        except ValueError:
            missing.update(names)
            return
        values.update(zip(names, result))

    def value_or_none(fn):
        try:
            return fn()
        except ValueError:
            return None

    with span("pipeline.record", rec.record_id):
        with span("catalog_io.load"):
            try:
                acc = load(rec)
            except ValueError:
                return None
        with span("signal_core.peaks"):
            attempt(("t_43",), lambda: (heidebrecht_period(peaks(acc)),))
        with span("spectral.fft"):
            fas = value_or_none(lambda: fourier_amplitude_spectrum(
                acc, max_df=cfg.max_df, taper=cfg.taper))
            psd = value_or_none(lambda: power_spectral_density(
                acc, max_df=cfg.max_df, taper=cfg.taper))

        with span("spectral.moments"):
            if fas is None:
                missing.add("t_ms")
            else:
                attempt(("t_ms",), lambda: (mean_square_period(fas),))
            if psd is not None:
                def moment_block():
                    m = spectral_moments(psd, cutoff_hz=cfg.cutoff_hz)
                    _, _, t_cen, t_mean = moment_periods(m)
                    return (t_mean, t_cen, *bandwidth_indices(m))
                attempt(("t_mean", "t_cen", "q", "epsilon"), moment_block)
        if psd is None:
            missing.update(("t1_dsp", "t_mean", "t_cen", "q", "epsilon"))
        else:
            def first_peak():
                found = psd_peak_periods(psd, k=1,
                                         smoothing_bins=cfg.smoothing_bins)
                if not found:
                    raise ValueError("no local maxima in the smoothed psd")
                return found[:1]
            with span("spectral.psd_peaks"):
                attempt(("t1_dsp",), first_peak)

        spectra_cfg = cfg.spectra_config()
        with span("response.spectra"):
            rs = value_or_none(lambda: response_spectra(acc, spectra_cfg))
        if rs is None:
            missing.update(("t_gsa", "t_gsv", "t_gei", "t_c"))
        else:
            with span("response.peak_period"):
                for name, ys in (("t_gsa", rs.sa), ("t_gsv", rs.sv),
                                 ("t_gei", rs.ei)):
                    attempt((name,), lambda: (
                        spectrum_peak_period(ys, rs.periods),))
            with span("response.effective_peaks"):
                attempt(("t_c",), lambda: (
                    characteristic_period_tc(effective_peaks(rs)),))

        pset = None
        if any(v is not None for v in values.values()):
            pset = ParameterSet(record_id=rec.record_id,
                                event_id=rec.event_id,
                                component=component_type(rec.component),
                                **values).params()
    length = None if fas is None else round(1.0 / (fas.df * acc.dt))
    return pset, missing, acc, length


def trace_record(span, rec, cfg, chk):
    """Mirror, then the real analyze_record on the same samples."""
    out = mirror_record(span, rec, cfg)
    if out is None:
        return rec, None
    mirrored, missing, acc, length = out
    with span("pipeline.analyze_record", rec.record_id):
        pset, warnings = analyze_record(
            acc, record_id=rec.record_id, event_id=rec.event_id,
            component=component_type(rec.component), cfg=cfg)
    chk.check(mirrored == (None if pset is None else pset.params())
              and missing == set(warnings),
              f"{rec.record_id}: traced mirror differs from analyze_record")
    return rec, (missing, acc, length)


def substep_factors(dt, periods):
    return [1 if dt / t <= SUBSTEP_LIMIT else math.ceil(dt / t / SUBSTEP_LIMIT)
            for t in periods]


def parse_importtime(stderr: str) -> dict:
    """Cumulative import microseconds by module, from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            out[parts[2].strip()] = int(parts[1])
        except ValueError:
            continue  # the header line
    return out


def run(wl, inputs, gen_tracer, work, src, chk):
    cfg = RunConfig()
    healthy = inputs.of_kind(OK)
    metrics = {}
    io = Tracer()

    for _ in range(REPEATS):
        with io.span("catalog_io.load_catalog"):
            catalog = load_catalog(inputs.catalog_dir)

    rates, table = {}, os.path.join(work, "parameters.csv")
    for jobs in (1, 2):
        code, wall, _ = batch_in_process(inputs.catalog_dir, table, jobs)
        chk.check(code == 0, f"batch --jobs {jobs} exited {code}")
        rates[jobs] = len(inputs.records) / wall
    metrics["pipeline.thread_speedup"] = rates[2] / rates[1]

    subset = inputs.subset(wl.trace_healthy)
    analyze_record(load(healthy[0]), cfg=cfg)  # warm-up, untimed

    one = Tracer()
    results, untraced_s, traced_s = [], 0.0, 0.0
    for i, rec in enumerate(subset):
        # Each record runs untraced and traced, in alternating order, so
        # a drift in machine speed does not pass for tracing overhead.
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            out = trace_record(one.span if traced else null_span, rec, cfg,
                               chk)
            if traced:
                traced_s += time.perf_counter() - t0
                results.append(out)
            else:
                untraced_s += time.perf_counter() - t0
    two = Tracer()
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(lambda rec: trace_record(two.span, rec, cfg, chk),
                      subset))

    sets = catalog_layers(io, inputs, catalog, table, cfg, work, chk, metrics)
    import_layers(src, work, chk, metrics)

    loaded = [r for _, r in results if r is not None]
    for name in ("catalog_io.load", "signal_core.peaks", "spectral.fft",
                 "spectral.moments", "spectral.psd_peaks", "response.spectra",
                 "response.peak_period", "response.effective_peaks",
                 "pipeline.analyze_record"):
        metrics[name + "_ms"] = median(one.durations_ms(name))
    metrics["catalog_io.load_failed"] = len(subset) - len(loaded)
    metrics["pipeline.self_ms"] = median(one.self_ms("pipeline.record"))
    metrics["pipeline.params_missing"] = sum(len(m) for m, _, _ in loaded)
    metrics["pipeline.contention_ms"] = (
        median(two.durations_ms("pipeline.record"))
        - median(one.durations_ms("pipeline.record")))

    lengths = [n for _, _, n in loaded if n is not None]
    metrics["spectral.transform_len"] = median(lengths)
    metrics["spectral.pad_ratio"] = median(
        n / acc.n for _, acc, n in loaded if n is not None)
    periods = cfg.spectra_config().periods
    per_record = []
    for _, acc, _ in loaded:
        f = substep_factors(acc.dt, periods)
        fine = sum((acc.n - 1) * k + 1 for k in f)
        per_record.append((sum(k > 1 for k in f), max(f), fine))
    metrics["response.substepped_periods"] = median(p[0] for p in per_record)
    metrics["response.max_substep"] = median(p[1] for p in per_record)
    metrics["response.fine_samples"] = median(p[2] for p in per_record)
    metrics["response.ns_per_fine_sample"] = (
        metrics["response.spectra_ms"] * 1e6
        / metrics["response.fine_samples"])
    metrics["synth.generate_ms"] = median(
        gen_tracer.durations_ms("synth.generate"))

    metrics["trace.overhead_pct"] = (traced_s - untraced_s) / traced_s * 100.0
    metrics["trace.span_cost_us"] = span_cost_us()

    for tracer, label in ((one, "1 thread"), (two, "2 threads"), (io, "io")):
        bad = tracer.nesting_violations()
        chk.check(not bad, f"{label}: {len(bad)} child spans exceed parent")
    details = {
        "traced_records": len(subset),
        "records_per_s_untraced_mirror": len(subset) / untraced_s,
        "records_per_s_traced_mirror": len(subset) / traced_s,
        "batch_records_per_s": rates[1],
        "batch_records_per_s_2t": rates[2],
        "table_rows": len(sets),
    }
    spans = {label: [asdict(s) for s in t.spans]
             for label, t in (("generate", gen_tracer), ("one_thread", one),
                              ("two_threads", two), ("catalog", io))}
    return metrics, details, spans


def catalog_layers(io, inputs, catalog, table, cfg, work, chk, metrics):
    """catalog_io readers and writers and stats over the batch table."""
    copy = os.path.join(work, "parameters_copy.csv")
    report_dir = os.path.join(work, "reports")
    os.makedirs(report_dir, exist_ok=True)
    for _ in range(REPEATS):
        with io.span("catalog_io.read_table"):
            sets, _ = read_parameter_table(table)
        with io.span("catalog_io.write_table"):
            write_parameter_table(sets, copy, meta=cfg.meta())
        with io.span("catalog_io.geojson"):
            doc = emit_geojson_map(sets, catalog, MAP_PARAM,
                                   combine_horizontal=True)
        with io.span("stats.correlation"):
            reports = correlation_matrix(sets, group_by="event")
        with io.span("stats.write_reports"):
            for rep in reports:
                stem = os.path.join(report_dir, f"report_{rep.group}")
                write_report_csv(rep, stem + ".csv")
                write_report_json(rep, stem + ".json")

    rows = {s.record_id: s.params() for s in sets}
    with open(table, "rb") as f1, open(copy, "rb") as f2:
        chk.check(f1.read() == f2.read(),
                  "parameter table does not round-trip byte for byte")
    chk.check(len(doc["features"]) == expected_features(rows, inputs,
                                                        MAP_PARAM),
              "geojson feature count differs from the expected count")
    chk.check([r.group for r in reports] == report_groups(rows, inputs),
              "correlation groups differ from the expected groups")
    for name in ("catalog_io.load_catalog", "catalog_io.read_table",
                 "catalog_io.write_table", "catalog_io.geojson",
                 "stats.correlation", "stats.write_reports"):
        metrics[name + "_ms"] = median(io.durations_ms(name))
    metrics["stats.fits"] = sum(len(r.fits) for r in reports)
    return sets


def import_layers(src, work, chk, metrics):
    """Interpreter start and the import tree of quakespec.cli, cold."""
    env = subprocess_env(src)
    run_python(["-c", IMPORT_PROBE], env, work)  # untimed: bytecode, cache
    interp, imports = [], []
    for _ in range(REPEATS):
        wall, proc = run_python(["-c", "pass"], env, work)
        chk.check(proc.returncode == 0, "bare interpreter failed")
        interp.append(wall * 1e3)
        _, proc = run_python(["-X", "importtime", "-c", IMPORT_PROBE],
                             env, work)
        chk.check(proc.returncode == 0 and os.path.abspath(
                      proc.stdout.strip()).startswith(src + os.sep),
                  f"import probe failed or imported {proc.stdout.strip()}")
        imports.append(parse_importtime(proc.stderr))
    metrics["cli.interp_ms"] = median(interp)
    for metric, module in (("cli.import_ms", "quakespec.cli"),
                           ("cli.import.scipy_signal_ms", "scipy.signal"),
                           ("cli.import.scipy_integrate_ms", "scipy.integrate"),
                           ("cli.import.numpy_ms", "numpy")):
        metrics[metric] = median(t.get(module, 0) / 1e3 for t in imports)


def span_cost_us():
    """Wall cost of one empty span, the tracer's own overhead per call."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(SPAN_COST_CALLS):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - t0) / SPAN_COST_CALLS * 1e6
