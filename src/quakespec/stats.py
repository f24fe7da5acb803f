"""Pairwise correlation study over computed parameter tables.

Implements the two fit models used to compare period estimators
(affine y = a*x + b and proportional y = a*x), the R-squared matrices
with pairwise deletion of missing values, the strength classification
(good/moderate/weak), and the bandwidth classification driven by
epsilon.  Report serialization to CSV (matrix layout) and JSON
(nested pairs) lives here too.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

# Canonical column order for parameter tables and reports.
PARAM_ORDER = ("t_ms", "t1_dsp", "t_mean", "t_cen", "t_gsa", "t_gsv",
               "t_gei", "t_c", "t_43", "q", "epsilon")

PERIOD_PARAMS = PARAM_ORDER[:9]

# Strict thresholds: boundary values fall into "moderate".
R2_GOOD = 0.5
R2_WEAK = 0.1

# Bandwidth thresholds on epsilon; strict on both sides.
EPS_BROAD = 0.85
EPS_NARROW = 0.95

MIN_PAIRS = 3


def check_param(name: str, value) -> float:
    """The value as a plain float, or ValueError if it is out of range.

    Periods must be positive and q/epsilon lie in [0, 1]; these are the
    checks a ParameterSet applies to every value it holds.
    """
    # plain floats so repr/json serialization stays portable
    v = float(value)
    if name in PERIOD_PARAMS:
        if not v > 0.0:
            raise ValueError(f"{name} must be positive, got {v}")
    elif not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0,1], got {v}")
    return v


@dataclass(frozen=True)
class ParameterSet:
    """The eleven frequency-content parameters of one record component.

    A parameter whose computation failed is None; at least one must be
    present.  component is the component type, H or V.
    """

    record_id: str
    event_id: str
    component: str
    t_ms: float | None = None
    t1_dsp: float | None = None
    t_mean: float | None = None
    t_cen: float | None = None
    t_gsa: float | None = None
    t_gsv: float | None = None
    t_gei: float | None = None
    t_c: float | None = None
    t_43: float | None = None
    q: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.component not in ("H", "V"):
            raise ValueError(f"component must be H or V, got {self.component!r}")
        values = [getattr(self, p) for p in PARAM_ORDER]
        if all(v is None for v in values):
            raise ValueError("a ParameterSet needs at least one computed parameter")
        for name, v in zip(PARAM_ORDER, values):
            if v is not None:
                object.__setattr__(self, name, check_param(name, v))

    def get(self, name: str) -> float | None:
        if name not in PARAM_ORDER:
            raise ValueError(f"unknown parameter {name!r}")
        return getattr(self, name)

    def params(self) -> dict:
        return {p: getattr(self, p) for p in PARAM_ORDER}


def component_type(component: str) -> str:
    """Collapse a record component label (H1, H2, V) to its type."""
    if component in ("H1", "H2", "H"):
        return "H"
    if component == "V":
        return "V"
    raise ValueError(f"unknown component {component!r}")


@dataclass(frozen=True)
class AffineFit:
    a: float
    b: float
    r2: float


@dataclass(frozen=True)
class ProportionalFit:
    a: float
    r2: float       # clamped to [0, 1] for classification
    r2_raw: float   # may be negative for a bad proportional fit


def fit_affine(xs, ys) -> AffineFit:
    """Ordinary least squares y = a*x + b.

    r2 = 1 - SS_res/SS_tot; constant ys give r2 = 0 by convention.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} points of equal length")
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    if sxx == 0.0:
        raise ValueError("zero variance in x")
    a = float(np.dot(xc, y) / sxx)
    b = float(y.mean() - a * x.mean())
    ss_res = float(np.sum((y - (a * x + b)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return AffineFit(a=a, b=b, r2=r2)


def fit_proportional(xs, ys) -> ProportionalFit:
    """Least squares through the origin, y = a*x.

    The raw r2 uses the same SS_tot as the affine model and can come
    out negative when the proportional constraint fits worse than the
    mean; the clamped value is what classification uses.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least 2 points of equal length")
    sxx = float(np.dot(x, x))
    if sxx == 0.0:
        raise ValueError("all-zero x")
    a = float(np.dot(x, y) / sxx)
    ss_res = float(np.sum((y - a * x) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2_raw = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ProportionalFit(a=a, r2=min(max(r2_raw, 0.0), 1.0), r2_raw=r2_raw)


def classify_r2(r2: float) -> str:
    if r2 > R2_GOOD:
        return "good"
    if r2 < R2_WEAK:
        return "weak"
    return "moderate"


def classify_bandwidth(epsilon: float) -> str:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0,1], got {epsilon}")
    if epsilon < EPS_BROAD:
        return "broad"
    if epsilon > EPS_NARROW:
        return "narrow"
    return "intermediate"


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise R-squared matrix for one group of parameter sets.

    r2[i][j] is None when fewer than MIN_PAIRS complete pairs exist.
    fits holds the ordered-pair fit objects keyed by (x_name, y_name);
    n_points the pair counts.  The matrix is symmetric for the affine
    model (squared Pearson correlation); proportional fits are not.
    """

    params: tuple
    model: str
    group: str
    r2: tuple            # tuple of tuples, None for missing cells
    n_points: tuple      # tuple of tuples of int
    fits: dict

    def cell(self, pi: str, pj: str):
        i = self.params.index(pi)
        j = self.params.index(pj)
        return self.r2[i][j]

    def classification(self):
        """Classification matrix; None mirrors missing cells."""
        out = []
        for i in range(len(self.params)):
            row = []
            for j in range(len(self.params)):
                v = self.r2[i][j]
                row.append(None if v is None else classify_r2(v))
            out.append(tuple(row))
        return tuple(out)

    def counts(self) -> dict:
        """Counts of good/moderate/weak over unordered off-diagonal pairs."""
        return classification_counts(self.params, self.r2)


def classification_counts(params, r2_matrix) -> dict:
    """Tally good/moderate/weak over the upper triangle of an R2 matrix."""
    counts = {"good": 0, "moderate": 0, "weak": 0, "missing": 0}
    n = len(params)
    for i in range(n):
        for j in range(i + 1, n):
            v = r2_matrix[i][j]
            if v is None:
                counts["missing"] += 1
            else:
                counts[classify_r2(v)] += 1
    return counts


def correlation_matrix(sets, params=None, model: str = "affine",
                       group_by: str = "all") -> list[CorrelationReport]:
    """Pairwise fits over a list of ParameterSet.

    Missing values are handled by pairwise deletion: each cell uses
    every record where both parameters are present, and cells with
    fewer than MIN_PAIRS pairs are reported as missing rather than 0.
    group_by="event" yields one report per event id.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("no parameter sets")
    if params is None:
        params = PARAM_ORDER
    params = tuple(params)
    for p in params:
        if p not in PARAM_ORDER:
            raise ValueError(f"unknown parameter {p!r}")
    if model not in ("affine", "proportional"):
        raise ValueError(f"unknown model {model!r}")
    if group_by == "all":
        groups = [("all", sets)]
    elif group_by == "event":
        order = []
        by_event = {}
        for s in sets:
            if s.event_id not in by_event:
                order.append(s.event_id)
                by_event[s.event_id] = []
            by_event[s.event_id].append(s)
        # the pooled matrix first, then one per event
        groups = [("all", sets)] + [(ev, by_event[ev]) for ev in sorted(order)]
    else:
        raise ValueError(f"unknown group_by {group_by!r}")

    return [_report_for(group_name, members, params, model)
            for group_name, members in groups]


def _report_for(group, members, params, model) -> CorrelationReport:
    n = len(params)
    r2 = [[None] * n for _ in range(n)]
    npts = [[0] * n for _ in range(n)]
    fits = {}
    for i, pi in enumerate(params):
        for j, pj in enumerate(params):
            if i == j:
                xs = [s.get(pi) for s in members if s.get(pi) is not None]
                r2[i][j] = 1.0
                npts[i][j] = len(xs)
                continue
            pairs = [(s.get(pi), s.get(pj)) for s in members
                     if s.get(pi) is not None and s.get(pj) is not None]
            npts[i][j] = len(pairs)
            if len(pairs) < MIN_PAIRS:
                continue
            xs = [p[0] for p in pairs]
            ys = [p[1] for p in pairs]
            try:
                if model == "affine":
                    fit = fit_affine(xs, ys)
                    cell = fit.r2
                else:
                    fit = fit_proportional(xs, ys)
                    cell = fit.r2
            except ValueError:
                continue  # degenerate column: cell stays missing
            fits[(pi, pj)] = fit
            r2[i][j] = min(max(cell, 0.0), 1.0)
    return CorrelationReport(params=params, model=model, group=group,
                             r2=tuple(tuple(row) for row in r2),
                             n_points=tuple(tuple(row) for row in npts),
                             fits=fits)


def write_report_csv(report: CorrelationReport, path, meta: dict | None = None):
    """Matrix-layout CSV: one header row and one labeled row per parameter."""
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(meta):
            fh.write(line)
        writer = csv.writer(fh)
        writer.writerow(["param", *report.params])
        for i, p in enumerate(report.params):
            row = [p] + ["" if v is None else repr(v) for v in report.r2[i]]
            writer.writerow(row)


def write_report_json(report: CorrelationReport, path, meta: dict | None = None):
    """Nested-pair JSON with fit coefficients and pair counts."""
    pairs = []
    for i, pi in enumerate(report.params):
        for j, pj in enumerate(report.params):
            if i == j:
                continue
            fit = report.fits.get((pi, pj))
            entry = {
                "x": pi,
                "y": pj,
                "n": report.n_points[i][j],
                "r2": report.r2[i][j],
                "class": (None if report.r2[i][j] is None
                          else classify_r2(report.r2[i][j])),
            }
            if fit is not None:
                entry["a"] = fit.a
                if isinstance(fit, AffineFit):
                    entry["b"] = fit.b
                else:
                    entry["r2_raw"] = fit.r2_raw
            pairs.append(entry)
    doc = {
        "meta": dict(meta or {}),
        "model": report.model,
        "group": report.group,
        "params": list(report.params),
        "pairs": pairs,
        "counts": report.counts(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_r2_matrix_csv(path):
    """Read a matrix-layout CSV back as (params, rows) with None holes."""
    with open(path) as fh:
        rows = [r for r in csv.reader(ln for ln in fh if not ln.startswith("#")) if r]
    if not rows:
        raise ValueError("empty matrix file")
    params = tuple(rows[0][1:])
    matrix = []
    for row in rows[1:]:
        matrix.append(tuple(None if v == "" else float(v) for v in row[1:]))
    if len(matrix) != len(params) or any(len(r) != len(params) for r in matrix):
        raise ValueError("matrix is not square against its header")
    return params, tuple(matrix)


def _meta_lines(meta: dict | None):
    for key, value in (meta or {}).items():
        yield f"# {key}={value}\n"
