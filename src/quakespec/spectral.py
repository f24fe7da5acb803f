"""Frequency-domain parameters of acceleration records.

Covers the Fourier amplitude spectrum, the one-sided periodogram, its
moments about omega = 0, the central/mean frequencies and periods, the
bandwidth indices q and epsilon, the mean-square period, and the peak
and fractile descriptors of the power spectral density.

All moment-based parameters are ratios, so the absolute normalization
of the spectra is irrelevant; what matters is that frequencies enter in
rad/s and that the discrete grid is fine enough (df <= 0.05 Hz).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_core import Accelerogram

# Stability limit for the frequency step of spectra feeding t_ms.
MAX_STABLE_DF = 0.05

# Band over which the mean-square period is defined, Hz.
TMS_BAND = (0.25, 20.0)

# Longest zero-padded transform; covers every dt >= ~5e-6 s at
# MAX_STABLE_DF.  Records that need no padding are never capped.
MAX_PADDED_LENGTH = 2 ** 22

# Tolerated negative round-off in the q/epsilon radicals.
RADICAL_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """One-sided spectrum on a uniform frequency grid f_i = i*df."""

    df: float
    kind: str  # "fourier_amplitude" or "psd"
    ordinates: np.ndarray
    source_dt: float

    def __post_init__(self):
        if not self.df > 0.0:
            raise ValueError("df must be positive")
        if self.kind not in ("fourier_amplitude", "psd"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        y = np.asarray(self.ordinates, dtype=float)
        if y.ndim != 1 or y.size < 1:
            raise ValueError("ordinates must be a non-empty 1-d array")
        if np.any(y < 0.0):
            raise ValueError("spectrum ordinates must be non-negative")
        y = y.copy()
        y.setflags(write=False)
        object.__setattr__(self, "ordinates", y)

    def frequencies(self) -> np.ndarray:
        return np.arange(self.ordinates.size) * self.df


@dataclass(frozen=True)
class SpectralMoments:
    """Moments lambda_n = integral of omega^n * G(omega), n in {0,1,2,4}."""

    lambda0: float
    lambda1: float
    lambda2: float
    lambda4: float


def transform_length(n: int, dt: float, max_df: float) -> int:
    """Transform length for an n-sample record at step dt.

    The record's own length is used whenever its frequency step
    1/(n*dt) already satisfies the bound; otherwise the record is
    zero-padded to the smallest power of two that does.  Avoiding
    gratuitous padding keeps coherently sampled signals leakage-free.
    Padding beyond MAX_PADDED_LENGTH is refused: it only arises from a
    mis-scaled dt and would allocate gigabytes.
    """
    if n < 2:
        raise ValueError("record shorter than 2 samples")
    if not max_df > 0.0:
        raise ValueError("max_df must be positive")
    if 1.0 / (n * dt) <= max_df:
        return n
    length = 1
    while length < n or 1.0 / (length * dt) > max_df:
        length *= 2
    if length > MAX_PADDED_LENGTH:
        raise ValueError(
            f"padding to {length} samples for df <= {max_df} Hz at "
            f"dt = {dt:.3g} s exceeds {MAX_PADDED_LENGTH} samples")
    return length


def _windowed(acc: Accelerogram, taper: str | None) -> np.ndarray:
    if taper is None:
        return acc.samples
    if taper == "hann":
        return acc.samples * np.hanning(acc.n)
    raise ValueError(f"unknown taper {taper!r}")


def fourier_amplitude_spectrum(acc: Accelerogram, max_df: float = MAX_STABLE_DF,
                               taper: str | None = None) -> Spectrum:
    """One-sided Fourier amplitude spectrum |C_i|.

    The transform length follows `transform_length`, so df <= max_df
    holds for any input length.
    """
    length = transform_length(acc.n, acc.dt, max_df)
    amps = np.abs(np.fft.rfft(_windowed(acc, taper), length))
    return Spectrum(df=1.0 / (length * acc.dt), kind="fourier_amplitude",
                    ordinates=amps, source_dt=acc.dt)


def psd_from_fas(fas: Spectrum, n: int) -> Spectrum:
    """One-sided periodogram G(f_i) of an n-sample record from its FAS.

    Normalized so that the trapezoid integral over f approximates the
    record's mean square; downstream parameters only ever use moment
    ratios, so the constant is a convenience, not a contract.
    """
    if fas.kind != "fourier_amplitude":
        raise ValueError(f"a psd needs a fourier_amplitude spectrum, got {fas.kind!r}")
    g = (fas.source_dt / n) * fas.ordinates ** 2
    if g.size > 2:
        g[1:-1] *= 2.0  # one-sided doubling, DC and Nyquist excepted
    return Spectrum(df=fas.df, kind="psd", ordinates=g, source_dt=fas.source_dt)


def power_spectral_density(acc: Accelerogram, max_df: float = MAX_STABLE_DF,
                           taper: str | None = None) -> Spectrum:
    """One-sided periodogram of the full record (see `psd_from_fas`)."""
    return psd_from_fas(fourier_amplitude_spectrum(acc, max_df, taper), acc.n)


def spectral_moments(psd: Spectrum, cutoff_hz: float | None = None) -> SpectralMoments:
    """Trapezoidal spectral moments of orders 0, 1, 2, 4.

    Parameters
    ----------
    psd : Spectrum
        Must be of kind "psd".
    cutoff_hz : float, optional
        Upper integration limit; defaults to the Nyquist frequency of
        the source record.  lambda4 is dominated by the high-frequency
        tail, so the cutoff is exposed rather than hidden.
    """
    if psd.kind != "psd":
        raise ValueError(f"spectral moments need a psd, got {psd.kind!r}")
    f = psd.frequencies()
    g = psd.ordinates
    if cutoff_hz is not None:
        keep = f <= cutoff_hz
        if np.count_nonzero(keep) < 2:
            raise ValueError("cutoff leaves fewer than 2 ordinates")
        f, g = f[keep], g[keep]
    if not np.any(g > 0.0):
        raise ValueError("zero spectral mass")
    w = 2.0 * np.pi * f
    lam = [float(np.trapezoid(w ** n * g, w)) for n in (0, 1, 2, 4)]
    return SpectralMoments(*lam)


def moment_periods(m: SpectralMoments):
    """Central and mean frequencies (rad/s) and their periods (s).

    Returns (omega_central, omega_mean, t_cen, t_mean) with
    omega_central = sqrt(lambda2/lambda0) and
    omega_mean = lambda1/lambda0.
    """
    if not (m.lambda0 > 0.0 and m.lambda1 > 0.0 and m.lambda2 > 0.0):
        raise ValueError("moments must be positive")
    omega_central = float(np.sqrt(m.lambda2 / m.lambda0))
    omega_mean = m.lambda1 / m.lambda0
    return (omega_central, omega_mean,
            2.0 * np.pi / omega_central, 2.0 * np.pi / omega_mean)


def bandwidth_indices(m: SpectralMoments):
    """Shape factor q and the Cartwright/Longuet-Higgins epsilon.

    q = sqrt(1 - lambda1^2/(lambda0*lambda2)),
    epsilon = sqrt(1 - lambda2^2/(lambda0*lambda4)).
    Both vanish for a single-frequency process; a flat band gives
    q = 0.5 and epsilon = 2/3.  Radicals are clamped against negative
    floating-point round-off no larger than RADICAL_TOL.
    """
    if not (m.lambda0 > 0.0 and m.lambda2 > 0.0 and m.lambda4 > 0.0):
        raise ValueError("moments must be positive")

    def _clamped_sqrt(radicand):
        if radicand < -RADICAL_TOL:
            raise ValueError(f"moment ratio violates Cauchy-Schwarz: {radicand}")
        return float(np.sqrt(min(max(radicand, 0.0), 1.0)))

    q = _clamped_sqrt(1.0 - m.lambda1 ** 2 / (m.lambda0 * m.lambda2))
    eps = _clamped_sqrt(1.0 - m.lambda2 ** 2 / (m.lambda0 * m.lambda4))
    return q, eps


def mean_square_period(fas: Spectrum) -> float:
    """Amplitude-weighted mean of 1/f over the 0.25-20 Hz band.

    t_ms = sum(C_i^2 / f_i) / sum(C_i^2).  Despite the customary name
    there is no outer square: this is the weighted mean itself, which
    the band endpoints confine to [0.05, 4.0] s.
    """
    if fas.kind != "fourier_amplitude":
        raise ValueError(f"t_ms needs a fourier_amplitude spectrum, got {fas.kind!r}")
    if fas.df > MAX_STABLE_DF * (1.0 + 1e-9):
        raise ValueError(f"unstable df: {fas.df:.6g} Hz exceeds {MAX_STABLE_DF} Hz")
    f = fas.frequencies()
    lo, hi = TMS_BAND
    sel = (f >= lo) & (f <= hi)
    if not np.any(sel):
        raise ValueError("band empty")
    c2 = fas.ordinates[sel] ** 2
    total = c2.sum()
    if total <= 0.0:
        raise ValueError("zero spectral mass in band")
    return float(np.sum(c2 / f[sel]) / total)


def smooth_ordinates(y: np.ndarray, bins: int) -> np.ndarray:
    """Centered moving average, truncated and renormalized at the edges."""
    if bins <= 1:
        return y.astype(float, copy=True)
    kernel = np.ones(bins)
    num = np.convolve(y, kernel, mode="same")
    den = np.convolve(np.ones_like(y), kernel, mode="same")
    return num / den


def _plateau_maxima(y: np.ndarray):
    """Indices and heights of local maxima, plateaus collapsed to their center.

    A run of equal values counts as one maximum when both the value
    before and after the run are strictly smaller; runs touching either
    end of the array do not qualify.
    """
    n = y.size
    out = []
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and y[j + 1] == y[i]:
            j += 1
        if j < n - 1 and y[i - 1] < y[i] and y[j + 1] < y[i]:
            out.append(((i + j) // 2, y[i]))
        i = j + 1
    return out


def psd_peak_periods(psd: Spectrum, k: int = 3, smoothing_bins: int = 5) -> list[float]:
    """Periods of the k largest PSD peaks, by descending amplitude.

    The periodogram is smoothed with a centered moving average before
    the local-maximum scan; raw periodograms of real records are far
    too jagged for peak ordering to mean anything.  Amplitude ties are
    broken toward the lower frequency (longer period).  Fewer than k
    maxima simply yield a shorter list.
    """
    if psd.kind != "psd":
        raise ValueError(f"peak periods need a psd, got {psd.kind!r}")
    if psd.ordinates.size < 3:
        raise ValueError("spectrum has no interior ordinates")
    smooth = smooth_ordinates(psd.ordinates, smoothing_bins)
    found = _plateau_maxima(smooth)
    found.sort(key=lambda ih: (-ih[1], ih[0]))
    f = psd.frequencies()
    return [float(1.0 / f[i]) for i, _ in found[:k]]
