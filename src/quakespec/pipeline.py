"""Orchestration: one RunConfig drives every stage of the toolchain.

analyze_record computes the full eleven-parameter set for one record
with per-parameter error capture: a parameter whose computation fails
is reported as a warning and left missing, it never aborts the rest.
analyze_catalog fans the same computation out over a catalog.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import __version__
from .catalog_io import Catalog, load_accelerogram
from .response import (SpectraConfig, characteristic_period_tc,
                       default_period_grid, effective_peaks,
                       heidebrecht_period, response_spectra,
                       spectrum_peak_period)
from .signal_core import Accelerogram, peaks
from .spectral import (MAX_STABLE_DF, bandwidth_indices,
                       fourier_amplitude_spectrum, mean_square_period,
                       moment_periods, psd_from_fas, psd_peak_periods,
                       spectral_moments)
from .stats import ParameterSet, check_param, component_type


@dataclass(frozen=True)
class RunConfig:
    """Everything that influences computed values, in one place.

    The config is serialized into the metadata header of every output
    file, so a result can always be traced back to the numbers that
    produced it.  Parallelism does not influence values, only wall
    time; outputs are byte-identical for any jobs setting.
    """

    damping: float = 0.05
    t_min: float = 0.02
    t_max: float = 5.0
    grid_n: int = 200
    max_df: float = MAX_STABLE_DF
    smoothing_bins: int = 5
    cutoff_hz: float | None = None
    taper: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.grid_n < 2:
            raise ValueError("grid_n must be >= 2")
        if not 0.0 < self.t_min < self.t_max:
            raise ValueError("need 0 < t_min < t_max")

    def spectra_config(self) -> SpectraConfig:
        return SpectraConfig(damping=self.damping,
                             periods=default_period_grid(self.t_min, self.t_max,
                                                         self.grid_n))

    def meta(self) -> dict:
        return {
            "tool": f"quakespec {__version__}",
            "damping": repr(self.damping),
            "period_grid": f"{self.t_min!r}:{self.t_max!r}:{self.grid_n}",
            "max_df": repr(self.max_df),
            "smoothing_bins": self.smoothing_bins,
            "cutoff_hz": "none" if self.cutoff_hz is None else repr(self.cutoff_hz),
            "taper": self.taper or "none",
        }


def analyze_record(acc: Accelerogram, record_id: str = "", event_id: str = "",
                   component: str = "H", cfg: RunConfig | None = None):
    """Compute all eleven parameters of one record.

    Returns (ParameterSet or None, warnings) where warnings maps each
    failed parameter to the reason.  A value the ParameterSet would
    reject (a non-positive period, q or epsilon outside [0, 1]) is such
    a failure too.  None means nothing could be computed at all.
    """
    if cfg is None:
        cfg = RunConfig()
    values: dict = {p: None for p in
                    ("t_ms", "t1_dsp", "t_mean", "t_cen", "t_gsa", "t_gsv",
                     "t_gei", "t_c", "t_43", "q", "epsilon")}
    warnings: dict = {}

    def attempt(names, fn):
        try:
            result = fn()
        except ValueError as exc:
            for name in names:
                warnings[name] = str(exc)
            return
        for name, value in zip(names, result):
            try:
                values[name] = check_param(name, value)
            except ValueError as exc:
                warnings[name] = str(exc)

    attempt(("t_43",), lambda: (heidebrecht_period(peaks(acc)),))

    try:
        fas = fourier_amplitude_spectrum(acc, max_df=cfg.max_df, taper=cfg.taper)
        psd = psd_from_fas(fas, acc.n)
    except ValueError as exc:
        for name in ("t_ms", "t1_dsp", "t_mean", "t_cen", "q", "epsilon"):
            warnings[name] = str(exc)
    else:
        attempt(("t_ms",), lambda: (mean_square_period(fas),))

        def moment_block():
            m = spectral_moments(psd, cutoff_hz=cfg.cutoff_hz)
            _, _, t_cen, t_mean = moment_periods(m)
            q, eps = bandwidth_indices(m)
            return t_mean, t_cen, q, eps

        attempt(("t_mean", "t_cen", "q", "epsilon"), moment_block)

        def first_peak():
            found = psd_peak_periods(psd, k=1, smoothing_bins=cfg.smoothing_bins)
            if not found:
                raise ValueError("no local maxima in the smoothed psd")
            return (found[0],)

        attempt(("t1_dsp",), first_peak)

    try:
        rs = response_spectra(acc, cfg.spectra_config())
    except ValueError as exc:
        for name in ("t_gsa", "t_gsv", "t_gei", "t_c"):
            warnings[name] = str(exc)
    else:
        attempt(("t_gsa",), lambda: (spectrum_peak_period(rs.sa, rs.periods),))
        attempt(("t_gsv",), lambda: (spectrum_peak_period(rs.sv, rs.periods),))
        attempt(("t_gei",), lambda: (spectrum_peak_period(rs.ei, rs.periods),))
        attempt(("t_c",), lambda: (
            characteristic_period_tc(effective_peaks(rs)),))

    if all(v is None for v in values.values()):
        return None, warnings
    return ParameterSet(record_id=record_id, event_id=event_id,
                        component=component, **values), warnings


def guess_waveform_format(path: str) -> str:
    return "csv" if path.lower().endswith(".csv") else "two_column_text"


def analyze_catalog(cat: Catalog, catalog_dir: str, cfg: RunConfig,
                    waveform_format: str = "auto"):
    """Analyze every record of a catalog.

    Returns (parameter sets sorted by record_id, problems) where
    problems is a list of (record_id, message) for records that were
    skipped (unreadable, or an unexpected error while analyzing) or
    degenerate (nothing computable), plus per-parameter warnings
    prefixed with the parameter name.
    """

    def analyze_entry(rec):
        path = rec.path
        if not os.path.isabs(path):
            path = os.path.join(catalog_dir, path)
        fmt = waveform_format
        if fmt == "auto":
            fmt = guess_waveform_format(path)
        try:
            acc = load_accelerogram(path, fmt, units_in=rec.units_in,
                                    label=rec.record_id)
        except (OSError, ValueError) as exc:
            return None, {"load": str(exc)}
        return analyze_record(
            acc, record_id=rec.record_id, event_id=rec.event_id,
            component=component_type(rec.component), cfg=cfg)

    def job(rec):
        # One record must never abort the batch; Ctrl-C still does,
        # because KeyboardInterrupt is not an Exception.
        try:
            pset, warnings = analyze_entry(rec)
        except Exception as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            return rec, None, {"error": (
                f"{type(exc).__name__}: {exc} (in {where.name}, "
                f"{os.path.basename(where.filename)}:{where.lineno})")}
        return rec, pset, warnings

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(job, cat.records))
    else:
        results = [job(rec) for rec in cat.records]

    sets = []
    problems = []
    for rec, pset, warnings in results:
        for name in sorted(warnings):
            problems.append((rec.record_id, f"{name}: {warnings[name]}"))
        if pset is not None:
            sets.append(pset)
    sets.sort(key=lambda s: s.record_id)
    problems.sort(key=lambda p: p[0])
    return sets, problems


def batch_summary(sets) -> list[str]:
    """Human-readable batch outcome, one overall line plus per-event lines."""
    events = []
    by_event: dict = {}
    for s in sets:
        if s.event_id not in by_event:
            events.append(s.event_id)
            by_event[s.event_id] = {"H": 0, "V": 0}
        by_event[s.event_id][s.component] += 1
    total_h = sum(c["H"] for c in by_event.values())
    total_v = sum(c["V"] for c in by_event.values())
    lines = [f"summary: {len(events)} events, {len(sets)} components "
             f"(H={total_h}, V={total_v})"]
    for ev in sorted(events):
        c = by_event[ev]
        lines.append(f"  {ev}: H={c['H']}, V={c['V']}")
    return lines
