"""Linear single-degree-of-freedom response spectra and the period
parameters read off them.

The oscillator equation u'' + 2*zeta*omega*u' + omega^2*u = -xg''(t) is
advanced with the recurrence that is exact for a piecewise-linear
excitation: over one step the response is the closed-form solution for
the linear interpolant of the record, so accuracy is limited only by
that interpolant, never by the step size of the scheme itself.  The
recurrence is a linear time-invariant relation in (u, u'), which lets
scipy's lfilter run it at C speed; initial filter states are chosen so
the filter output matches the from-rest recurrence exactly.  scipy is
imported only there, so commands that integrate no oscillator start
without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .signal_core import Accelerogram, GroundMotionPeaks

# Sub-sample the excitation when the native step is coarser than this
# fraction of the oscillator period (response peaks would fall between
# samples otherwise).
MAX_STEP_PER_PERIOD = 0.1

# Beyond this the record cannot resolve the oscillator at all.
REJECT_STEP_PER_PERIOD = 10.0

# Width of the moving window for effective peak values, seconds.
EFFECTIVE_PEAK_WINDOW = 0.4


def default_period_grid(t_min: float = 0.02, t_max: float = 5.0,
                        n: int = 200) -> np.ndarray:
    return np.geomspace(t_min, t_max, n)


@dataclass(frozen=True)
class SpectraConfig:
    """Damping ratio and period grid for response spectra."""

    damping: float = 0.05
    periods: np.ndarray = field(default_factory=default_period_grid)

    def __post_init__(self):
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping must lie in (0, 1)")
        t = np.asarray(self.periods, dtype=float)
        if t.ndim != 1 or t.size < 1 or np.any(t <= 0.0) or np.any(np.diff(t) <= 0.0):
            raise ValueError("period grid must be strictly increasing and positive")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "periods", t)


@dataclass(frozen=True)
class ResponseSpectra:
    """Spectral ordinates over a period grid at one damping ratio.

    sd/sv are peak relative displacement/velocity, sa is peak absolute
    acceleration, psv = omega*sd and psa = omega^2*sd are the pseudo
    spectra, ei is the final input energy per unit mass.
    """

    periods: np.ndarray
    damping: float
    sd: np.ndarray
    sv: np.ndarray
    sa: np.ndarray
    psv: np.ndarray
    psa: np.ndarray
    ei: np.ndarray


@dataclass(frozen=True)
class EffectivePeaks:
    """Maxima of window-averaged sv and sa curves, divided by 2.5."""

    epv: float
    epa: float
    window: float = EFFECTIVE_PEAK_WINDOW


def _recurrence_coefficients(omega: float, zeta: float, dt: float):
    """Exact one-step transition for piecewise-linear forcing.

    Returns (a11, a12, a21, a22, b11, b12, b21, b22) such that
        u[j+1] = a11*u[j] + a12*v[j] + b11*p[j] + b12*p[j+1]
        v[j+1] = a21*u[j] + a22*v[j] + b21*p[j] + b22*p[j+1]
    for u'' + 2*zeta*omega*u' + omega^2*u = p(t) with p linear on the
    step.  The b's come from the exact step and ramp responses:
    hold p=1 for one step from rest and the oscillator ends at
    (s_u, s_v); feed p=tau and it ends at (r_u, s_u).
    """
    wd = omega * math.sqrt(1.0 - zeta * zeta)
    z = zeta / math.sqrt(1.0 - zeta * zeta)
    e = math.exp(-zeta * omega * dt)
    s = math.sin(wd * dt)
    c = math.cos(wd * dt)

    a11 = e * (c + z * s)
    a12 = e * s / wd
    a21 = -omega / math.sqrt(1.0 - zeta * zeta) * e * s
    a22 = e * (c - z * s)

    w2 = omega * omega
    s_u = (1.0 - e * (c + z * s)) / w2
    s_v = e * s / wd
    r_u = (dt / w2 - 2.0 * zeta / (w2 * omega)
           + e * (2.0 * zeta / (w2 * omega) * c
                  + (2.0 * zeta * zeta - 1.0) / (w2 * wd) * s))

    b11 = s_u - r_u / dt
    b12 = r_u / dt
    b21 = s_v - s_u / dt
    b22 = s_u / dt
    return a11, a12, a21, a22, b11, b12, b21, b22


def _sdof_histories(p: np.ndarray, dt: float, period: float, damping: float):
    """Relative displacement and velocity histories for forcing p."""
    # Deferred: importing scipy.signal costs about a second of start-up.
    from scipy.signal import lfilter

    omega = 2.0 * math.pi / period
    a11, a12, a21, a22, b11, b12, b21, b22 = _recurrence_coefficients(
        omega, damping, dt)

    den = [1.0, -(a11 + a22), a11 * a22 - a12 * a21]
    num_u = [b12, b11 + a12 * b22 - a22 * b12, a12 * b21 - a22 * b11]
    num_v = [b22, b21 + a21 * b12 - a11 * b22, a21 * b11 - a11 * b21]
    # Initial filter states make the outputs equal the from-rest
    # recurrence (u0 = v0 = 0, u1 = b11*p0 + b12*p1, ...).
    p0 = p[0]
    zi_u = [-b12 * p0, (a22 * b12 - a12 * b22) * p0]
    zi_v = [-b22 * p0, (a11 * b22 - a21 * b12) * p0]

    u, _ = lfilter(num_u, den, p, zi=np.asarray(zi_u))
    v, _ = lfilter(num_v, den, p, zi=np.asarray(zi_v))
    return u, v


def _substep_factor(dt: float, period: float) -> int:
    ratio = dt / period
    if ratio > REJECT_STEP_PER_PERIOD:
        raise ValueError(
            f"undersampled oscillator: dt/period = {ratio:.3g} exceeds "
            f"{REJECT_STEP_PER_PERIOD}")
    if ratio <= MAX_STEP_PER_PERIOD:
        return 1
    return math.ceil(ratio / MAX_STEP_PER_PERIOD)


def _refined(p: np.ndarray, dt: float, factor: int):
    if factor == 1:
        return p, dt
    n_fine = (p.size - 1) * factor + 1
    dt_fine = dt / factor
    t_fine = np.arange(n_fine) * dt_fine
    t = np.arange(p.size) * dt
    return np.interp(t_fine, t, p), dt_fine


def sdof_response(acc: Accelerogram, period: float, damping: float = 0.05):
    """Peak oscillator responses and input energy for one period.

    Returns (sd, sv, sa, ei): peak |u|, peak |u'|, peak absolute
    acceleration |u'' + xg''|, and the relative input energy per unit
    mass EI = -integral(xg'' * u') dt over the full record.  The
    excitation is linearly sub-sampled whenever dt/period > 0.1, so the
    scheme stays on the exact branch across the whole grid.
    """
    if not period > 0.0:
        raise ValueError("period must be positive")
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie in (0, 1)")
    factor = _substep_factor(acc.dt, period)
    p, dt = _refined(-acc.samples, acc.dt, factor)
    u, v = _sdof_histories(p, dt, period, damping)
    omega = 2.0 * math.pi / period
    abs_acc = 2.0 * damping * omega * v + omega * omega * u  # = -(u'' + xg'')
    ei = float(np.trapezoid(p * v, dx=dt))
    return (float(np.max(np.abs(u))), float(np.max(np.abs(v))),
            float(np.max(np.abs(abs_acc))), ei)


def response_spectra(acc: Accelerogram, cfg: SpectraConfig | None = None) -> ResponseSpectra:
    """Response spectra over the configured period grid."""
    if cfg is None:
        cfg = SpectraConfig()
    periods = cfg.periods
    n = periods.size
    sd = np.empty(n)
    sv = np.empty(n)
    sa = np.empty(n)
    ei = np.empty(n)
    for i, t in enumerate(periods):
        sd[i], sv[i], sa[i], e = sdof_response(acc, float(t), cfg.damping)
        ei[i] = abs(e)
    omega = 2.0 * np.pi / periods
    return ResponseSpectra(periods=periods, damping=cfg.damping,
                           sd=sd, sv=sv, sa=sa,
                           psv=omega * sd, psa=omega ** 2 * sd, ei=ei)


def spectrum_peak_period(ordinates: np.ndarray, periods: np.ndarray) -> float:
    """Period at the global maximum ordinate; ties go to the smallest period."""
    y = np.asarray(ordinates, dtype=float)
    t = np.asarray(periods, dtype=float)
    if y.size == 0 or y.size != t.size:
        raise ValueError("ordinates and periods must be non-empty and equal length")
    if np.all(y == y[0]):
        # no distinguished maximum, zero spectrum included
        raise ValueError("flat spectrum")
    return float(t[int(np.argmax(y))])


def characteristic_period_t1star(rs: ResponseSpectra) -> float:
    """2*pi*max(psv)/max(psa), the acceleration/velocity branch crossing."""
    peak_psa = float(np.max(rs.psa))
    if peak_psa <= 0.0:
        raise ValueError("zero pseudo-acceleration spectrum")
    return 2.0 * math.pi * float(np.max(rs.psv)) / peak_psa


def _window_mean(periods: np.ndarray, y: np.ndarray, width: float) -> np.ndarray:
    """Average of the piecewise-linear curve y(T) over [T-w/2, T+w/2].

    The window is clipped to the grid domain and the mean renormalized
    by the width actually covered, so a constant curve comes back
    unchanged at every point including the edges.
    """
    t0, t1 = periods[0], periods[-1]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(periods))])

    def integral_to(x):
        k = int(np.searchsorted(periods, x, side="right")) - 1
        k = min(max(k, 0), periods.size - 2)
        yk = y[k] + (y[k + 1] - y[k]) * (x - periods[k]) / (periods[k + 1] - periods[k])
        return cum[k] + 0.5 * (y[k] + yk) * (x - periods[k])

    out = np.empty_like(y)
    half = width / 2.0
    for i, t in enumerate(periods):
        a = max(t - half, t0)
        b = min(t + half, t1)
        out[i] = (integral_to(b) - integral_to(a)) / (b - a)
    return out


def effective_peaks(rs: ResponseSpectra) -> EffectivePeaks:
    """EPV and EPA: peak window-averaged sv and sa, divided by 2.5."""
    span = rs.periods[-1] - rs.periods[0]
    if span < EFFECTIVE_PEAK_WINDOW:
        raise ValueError(
            f"period grid spans {span:.3g} s, narrower than the "
            f"{EFFECTIVE_PEAK_WINDOW} s averaging window")
    sv_bar = _window_mean(rs.periods, rs.sv, EFFECTIVE_PEAK_WINDOW)
    sa_bar = _window_mean(rs.periods, rs.sa, EFFECTIVE_PEAK_WINDOW)
    return EffectivePeaks(epv=float(np.max(sv_bar)) / 2.5,
                          epa=float(np.max(sa_bar)) / 2.5)


def characteristic_period_tc(ep: EffectivePeaks) -> float:
    if ep.epa <= 0.0:
        raise ValueError("zero effective peak acceleration")
    return 2.0 * math.pi * ep.epv / ep.epa


def heidebrecht_period(pk: GroundMotionPeaks) -> float:
    if pk.pga <= 0.0:
        raise ValueError("zero peak ground acceleration")
    return 4.3 * pk.pgv / pk.pga
