"""Time-domain handling of uniformly sampled acceleration records.

Everything downstream (spectra, oscillator response, peak statistics)
assumes a clean, baseline-corrected record in m/s^2, so the conversions
and the correction conventions live here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

G_ACCEL = 9.81  # m/s^2 per g, fixed conversion used package-wide

UNIT_FACTORS = {
    "m/s2": 1.0,
    "cm/s2": 0.01,
    "g": G_ACCEL,
}


@dataclass(frozen=True)
class Accelerogram:
    """A uniformly sampled ground-acceleration time series.

    Samples are stored in m/s^2 regardless of the units the source file
    used; ``units_in`` only records where the numbers came from.  The
    sample array is read-only so instances can be shared freely between
    worker threads.
    """

    dt: float
    samples: np.ndarray
    units_in: str = "m/s2"
    label: str = ""

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        a = np.asarray(self.samples, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("need a 1-d record with at least 2 samples")
        if not np.all(np.isfinite(a)):
            raise ValueError("record contains non-finite samples")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "samples", a)

    @classmethod
    def from_samples(cls, dt, samples, units_in="m/s2", label=""):
        """Build a record from raw file values, converting to m/s^2."""
        try:
            factor = UNIT_FACTORS[units_in]
        except KeyError:
            raise ValueError(
                f"unknown units {units_in!r}; expected one of {sorted(UNIT_FACTORS)}"
            ) from None
        a = np.asarray(samples, dtype=float) * factor
        return cls(dt=dt, samples=a, units_in=units_in, label=label)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return (self.n - 1) * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt


@dataclass(frozen=True)
class GroundMotionPeaks:
    """Peak absolute ground motion values of one record."""

    pga: float  # m/s^2
    pgv: float  # m/s
    pgd: float  # m

    def __post_init__(self):
        for name in ("pga", "pgv", "pgd"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


def detrend(acc: Accelerogram, mode: str = "linear") -> Accelerogram:
    """Remove the mean or a least-squares line from the record.

    Parameters
    ----------
    acc : Accelerogram
    mode : {"linear", "mean"}
        "mean" subtracts the average; "linear" removes the best-fit
        straight line in time (which also zeroes the mean).

    Returns
    -------
    Accelerogram
        New record with the same dt and label.
    """
    a = acc.samples
    if mode == "mean":
        out = a - a.mean()
    elif mode == "linear":
        t = acc.times()
        tc = t - t.mean()
        slope = np.dot(tc, a) / np.dot(tc, tc)
        out = a - (a.mean() + slope * tc)
    else:
        raise ValueError(f"unknown detrend mode {mode!r}")
    return Accelerogram(dt=acc.dt, samples=out, units_in=acc.units_in,
                        label=acc.label)


def _cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoid integral of y, starting at zero.

    Same operations in the same order as scipy's
    cumulative_trapezoid(y, dx=dx, initial=0.0), so the result is
    bit-identical, without importing scipy.
    """
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def integrate(acc: Accelerogram) -> np.ndarray:
    """Cumulative trapezoid integral of the record, starting at zero.

    Returns the integrated series (velocity if the input is
    acceleration) as a plain array of the same length.
    """
    return _cumulative_trapezoid(acc.samples, acc.dt)


def peaks(acc: Accelerogram) -> GroundMotionPeaks:
    """Peak ground acceleration, velocity and displacement.

    The record mean is removed, the record is integrated to velocity,
    the velocity mean is removed (suppresses the ramp a residual offset
    would otherwise put into displacement), and integrated once more.
    PGA is read off the corrected record itself.

    Mean removal rather than a least-squares line: a finite harmonic
    has a spurious nonzero best-fit slope (integral of t*sin over whole
    cycles is -T/omega) whose removal tilts the record and doubles the
    velocity peak.  Callers who want the line gone apply detrend
    explicitly.
    """
    corrected = detrend(acc, mode="mean")
    vel = integrate(corrected)
    vel = vel - vel.mean()
    disp = _cumulative_trapezoid(vel, acc.dt)
    return GroundMotionPeaks(
        pga=float(np.max(np.abs(corrected.samples))),
        pgv=float(np.max(np.abs(vel))),
        pgd=float(np.max(np.abs(disp))),
    )
