"""Spectra, spectral moments and the frequency-domain period estimators.

Analytic oracles: flat and delta power spectra have closed-form
moments, so the shape factors can be checked exactly.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quakespec import (Accelerogram, Spectrum, SpectralMoments,
                       analyze_record, bandwidth_indices,
                       fourier_amplitude_spectrum, mean_square_period,
                       moment_periods, power_spectral_density,
                       psd_peak_periods, spectral_moments)
from quakespec.spectral import (MAX_PADDED_LENGTH, MAX_STABLE_DF,
                                smooth_ordinates, transform_length)
from conftest import make_sine


def flat_psd(f_edge=5.0, df=0.01, f_max=None, source_dt=0.01):
    """Flat unit PSD on [0, f_edge] with a half-height edge sample.

    The half sample keeps the trapezoid integral second-order accurate
    at the discontinuity.
    """
    if f_max is None:
        f_max = f_edge * 1.2
    n = int(round(f_max / df)) + 1
    f = np.arange(n) * df
    g = np.where(f < f_edge, 1.0, 0.0)
    i_edge = int(round(f_edge / df))
    if i_edge < n:
        g[i_edge] = 0.5
    return Spectrum(df=df, kind="psd", ordinates=g, source_dt=source_dt)


def delta_psd(f0=1.0, df=0.01, amp=1.0):
    # room past the spike so the smoothed plateau stays interior
    i0 = int(round(f0 / df))
    g = np.zeros(i0 + 8)
    g[i0] = amp
    return Spectrum(df=df, kind="psd", ordinates=g, source_dt=0.01)


class TestTransformLength:
    def test_own_length_when_fine_enough(self):
        # 4000 samples at 0.01 s give df = 0.025 Hz, already under the cap
        assert transform_length(4000, 0.01, 0.05) == 4000

    def test_pads_to_power_of_two_when_needed(self):
        # 1000 samples at 0.01 s give df = 0.1 Hz; 2048 brings 0.0488 Hz
        assert transform_length(1000, 0.01, 0.05) == 2048

    def test_df_bound_holds_for_odd_lengths(self):
        for n, dt in [(731, 0.005), (4001, 0.01), (123, 0.02), (50000, 0.001)]:
            m = transform_length(n, dt, 0.05)
            assert m >= n
            assert 1.0 / (m * dt) <= 0.05 + 1e-15

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            transform_length(1, 0.01, 0.05)
        with pytest.raises(ValueError):
            transform_length(100, 0.01, 0.0)

    def test_refuses_padding_beyond_cap(self):
        # a mis-scaled dt would otherwise pad two samples to 2**35
        with pytest.raises(ValueError, match="exceeds"):
            transform_length(2, 1e-9, 0.05)
        # a record long enough to need no padding is never capped
        n = 2 * MAX_PADDED_LENGTH
        assert transform_length(n, 0.01, 0.05) == n


class TestFourierAmplitudeSpectrum:
    def test_sine_leakage_bound(self):
        # coherent 2 Hz sine: one dominant line, everything beyond
        # +-3 bins stays under 1% of the peak
        acc = make_sine(2.0, dt=0.01, duration=40.0)
        fas = fourier_amplitude_spectrum(acc)
        i_peak = int(np.argmax(fas.ordinates))
        assert abs(i_peak * fas.df - 2.0) <= fas.df + 1e-12
        peak = fas.ordinates[i_peak]
        outside = np.ones(fas.ordinates.size, dtype=bool)
        outside[max(0, i_peak - 3):i_peak + 4] = False
        assert np.max(fas.ordinates[outside]) < 0.01 * peak

    def test_zero_record(self):
        acc = Accelerogram(dt=0.01, samples=np.zeros(4000))
        fas = fourier_amplitude_spectrum(acc)
        assert_allclose(fas.ordinates, 0.0)

    @pytest.mark.parametrize("duration", [7.3, 40.0, 123.4])
    def test_df_cap(self, duration):
        acc = make_sine(1.0, dt=0.01, duration=duration)
        fas = fourier_amplitude_spectrum(acc, max_df=0.05)
        assert fas.df <= 0.05 + 1e-15

    def test_nyquist_endpoint(self):
        acc = make_sine(1.0, dt=0.02, duration=40.0)
        fas = fourier_amplitude_spectrum(acc)
        assert fas.frequencies()[-1] == pytest.approx(0.5 / acc.dt)

    def test_hann_taper_accepted(self):
        acc = make_sine(1.0, dt=0.01, duration=40.0)
        fas = fourier_amplitude_spectrum(acc, taper="hann")
        i_peak = int(np.argmax(fas.ordinates))
        assert abs(i_peak * fas.df - 1.0) <= fas.df + 1e-12
        with pytest.raises(ValueError, match="taper"):
            fourier_amplitude_spectrum(acc, taper="flattop")


class TestPowerSpectralDensity:
    def test_sine_mass_concentration(self):
        acc = make_sine(1.5, dt=0.01, duration=40.0)
        psd = power_spectral_density(acc)
        f = psd.frequencies()
        m = spectral_moments(psd)
        near = np.abs(f - 1.5) <= 3 * psd.df
        w = 2 * np.pi * f
        mass_near = np.trapezoid(np.where(near, psd.ordinates, 0.0), w)
        assert mass_near >= 0.95 * m.lambda0

    def test_scaling_is_quadratic(self):
        acc = make_sine(1.0, dt=0.01, duration=40.0)
        scaled = Accelerogram(dt=acc.dt, samples=3.0 * acc.samples)
        g1 = power_spectral_density(acc)
        g2 = power_spectral_density(scaled)
        assert_allclose(g2.ordinates, 9.0 * g1.ordinates, rtol=1e-10, atol=1e-18)
        m1, m2 = spectral_moments(g1), spectral_moments(g2)
        assert m2.lambda2 / m2.lambda0 == pytest.approx(m1.lambda2 / m1.lambda0,
                                                        rel=1e-9)

    def test_two_tone_equal_mass(self):
        n = 4000
        t = np.arange(n) * 0.01
        acc = Accelerogram(dt=0.01, samples=np.sin(2 * np.pi * 1.0 * t)
                           + np.sin(2 * np.pi * 4.0 * t))
        psd = power_spectral_density(acc)
        f = psd.frequencies()

        def mass(f0):
            sel = np.abs(f - f0) <= 3 * psd.df
            return np.trapezoid(np.where(sel, psd.ordinates, 0.0),
                                2 * np.pi * f)

        assert mass(1.0) == pytest.approx(mass(4.0), rel=0.02)


class TestSpectralMoments:
    def test_flat_band_closed_form(self):
        psd = flat_psd(f_edge=5.0, df=0.01)
        m = spectral_moments(psd)
        wb = 2 * np.pi * 5.0
        assert m.lambda0 == pytest.approx(wb, rel=1e-3)
        assert m.lambda1 == pytest.approx(wb ** 2 / 2, rel=1e-3)
        assert m.lambda2 == pytest.approx(wb ** 3 / 3, rel=1e-3)
        assert m.lambda4 == pytest.approx(wb ** 5 / 5, rel=1e-3)

    def test_delta_moment_ratios(self):
        psd = delta_psd(f0=2.0, df=0.01)
        m = spectral_moments(psd)
        w0 = 2 * np.pi * 2.0
        assert m.lambda1 / m.lambda0 == pytest.approx(w0, rel=1e-12)
        assert m.lambda2 / m.lambda0 == pytest.approx(w0 ** 2, rel=1e-12)
        assert m.lambda4 / m.lambda0 == pytest.approx(w0 ** 4, rel=1e-12)

    def test_cauchy_schwarz_on_random_spectra(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            n = rng.integers(8, 200)
            g = rng.uniform(0.0, 1.0, size=n)
            psd = Spectrum(df=0.02, kind="psd", ordinates=g, source_dt=0.01)
            m = spectral_moments(psd)
            assert m.lambda1 ** 2 <= m.lambda0 * m.lambda2 * (1 + 1e-12)
            assert m.lambda2 ** 2 <= m.lambda0 * m.lambda4 * (1 + 1e-12)

    def test_cutoff(self):
        psd = flat_psd(f_edge=5.0, df=0.01, f_max=10.0)
        full = spectral_moments(psd)
        cut = spectral_moments(psd, cutoff_hz=5.5)
        assert cut.lambda0 == pytest.approx(full.lambda0, rel=1e-6)
        with pytest.raises(ValueError, match="fewer than 2"):
            spectral_moments(psd, cutoff_hz=0.001)

    def test_zero_mass(self):
        psd = Spectrum(df=0.01, kind="psd", ordinates=np.zeros(100),
                       source_dt=0.01)
        with pytest.raises(ValueError, match="zero spectral mass"):
            spectral_moments(psd)

    def test_wrong_kind(self):
        fas = Spectrum(df=0.01, kind="fourier_amplitude",
                       ordinates=np.ones(10), source_dt=0.01)
        with pytest.raises(ValueError, match="psd"):
            spectral_moments(fas)


class TestMomentPeriods:
    def test_delta_process(self):
        m = spectral_moments(delta_psd(f0=1.0, df=0.01))
        om_c, om_m, t_cen, t_mean = moment_periods(m)
        assert om_c == pytest.approx(2 * np.pi, rel=1e-9)
        assert om_m == pytest.approx(2 * np.pi, rel=1e-9)
        assert t_cen == pytest.approx(1.0, rel=1e-9)
        assert t_mean == pytest.approx(1.0, rel=1e-9)

    def test_flat_band_ratio(self):
        m = spectral_moments(flat_psd(f_edge=5.0, df=0.005))
        om_c, om_m, t_cen, t_mean = moment_periods(m)
        wb = 2 * np.pi * 5.0
        assert om_c == pytest.approx(wb / np.sqrt(3), rel=1e-3)
        assert om_m == pytest.approx(wb / 2, rel=1e-3)
        assert t_cen / t_mean == pytest.approx(np.sqrt(3) / 2, rel=1e-3)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            g = rng.uniform(0.0, 1.0, size=64)
            m = spectral_moments(Spectrum(df=0.03, kind="psd", ordinates=g,
                                          source_dt=0.01))
            _, _, t_cen, t_mean = moment_periods(m)
            assert t_cen <= t_mean * (1 + 1e-12)


class TestBandwidthIndices:
    def test_delta_is_zero_width(self):
        m = spectral_moments(delta_psd(f0=1.0))
        q, eps = bandwidth_indices(m)
        assert q == pytest.approx(0.0, abs=1e-6)
        assert eps == pytest.approx(0.0, abs=1e-6)

    def test_flat_band_values(self):
        m = spectral_moments(flat_psd(f_edge=5.0, df=0.005))
        q, eps = bandwidth_indices(m)
        assert q == pytest.approx(0.5, abs=1e-3)
        assert eps == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_narrow_gaussian_bump(self):
        df = 0.001
        f = np.arange(0.0, 3.0 + df / 2, df)
        g = np.exp(-0.5 * ((f - 1.0) / 0.02) ** 2)
        m = spectral_moments(Spectrum(df=df, kind="psd", ordinates=g,
                                      source_dt=0.01))
        q, eps = bandwidth_indices(m)
        assert q < 0.05
        assert eps > 0.0

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            g = rng.uniform(0.0, 1.0, size=80)
            m = spectral_moments(Spectrum(df=0.04, kind="psd", ordinates=g,
                                          source_dt=0.01))
            q, eps = bandwidth_indices(m)
            assert 0.0 <= q <= 1.0
            assert 0.0 <= eps <= 1.0


class TestMeanSquarePeriod:
    def test_single_tone(self):
        acc = make_sine(2.0, dt=0.01, duration=40.0)
        t_ms = mean_square_period(fourier_amplitude_spectrum(acc))
        assert t_ms == pytest.approx(0.5, rel=0.02)

    def test_two_tone_weighted_mean(self):
        t = np.arange(4000) * 0.01
        acc = Accelerogram(dt=0.01, samples=np.sin(2 * np.pi * t)
                           + np.sin(2 * np.pi * 4.0 * t))
        t_ms = mean_square_period(fourier_amplitude_spectrum(acc))
        assert t_ms == pytest.approx(0.625, rel=0.02)

    def test_band_limits_bound_result(self):
        # weighting band is 0.25..20 Hz, so 0.05 <= t_ms <= 4
        rng = np.random.default_rng(21)
        for _ in range(20):
            acc = Accelerogram(dt=0.01, samples=rng.normal(size=3000))
            t_ms = mean_square_period(fourier_amplitude_spectrum(acc))
            assert 0.05 <= t_ms <= 4.0

    def test_rejects_coarse_df(self):
        fas = Spectrum(df=0.1, kind="fourier_amplitude",
                       ordinates=np.ones(100), source_dt=0.01)
        with pytest.raises(ValueError, match="unstable df"):
            mean_square_period(fas)
        assert MAX_STABLE_DF == 0.05

    def test_band_empty(self):
        # Nyquist below the 0.25 Hz band start leaves nothing to weight
        fas = Spectrum(df=0.002, kind="fourier_amplitude",
                       ordinates=np.ones(100), source_dt=4.0)
        with pytest.raises(ValueError, match="band empty"):
            mean_square_period(fas)

    def test_zero_mass_in_band(self):
        acc = Accelerogram(dt=0.01, samples=np.zeros(4000))
        fas = fourier_amplitude_spectrum(acc)
        with pytest.raises(ValueError, match="zero spectral mass"):
            mean_square_period(fas)


class TestPsdPeakPeriods:
    def test_three_isolated_bumps(self):
        df = 0.05
        g = np.zeros(201)
        g[int(0.5 / df)] = 5.0
        g[int(2.0 / df)] = 3.0
        g[int(5.0 / df)] = 1.0
        psd = Spectrum(df=df, kind="psd", ordinates=g, source_dt=0.01)
        assert_allclose(psd_peak_periods(psd, k=3), [2.0, 0.5, 0.2])

    def test_monotone_decreasing_has_no_interior_peak(self):
        g = np.linspace(1.0, 0.0, 50)
        psd = Spectrum(df=0.05, kind="psd", ordinates=g, source_dt=0.01)
        found = psd_peak_periods(psd, k=3, smoothing_bins=1)
        assert found == []

    def test_delta(self):
        psd = delta_psd(f0=1.0, df=0.01)
        assert_allclose(psd_peak_periods(psd, k=3), [1.0])

    def test_plateau_center(self):
        g = np.zeros(30)
        g[10:15] = 2.0  # flat-top peak: report its center bin
        psd = Spectrum(df=0.1, kind="psd", ordinates=g, source_dt=0.01)
        periods = psd_peak_periods(psd, k=1, smoothing_bins=1)
        assert periods == [pytest.approx(1.0 / 1.2)]

    def test_too_short(self):
        psd = Spectrum(df=0.01, kind="psd", ordinates=np.ones(2),
                       source_dt=0.01)
        with pytest.raises(ValueError, match="interior"):
            psd_peak_periods(psd)

    def test_smoothing_preserves_mass_and_centers_plateau(self):
        # a flat kernel turns a spike into a plateau; the peak pick
        # must land on the plateau center, i.e. the original bin
        y = np.zeros(101)
        y[20] = 10.0
        s = smooth_ordinates(y, 5)
        assert s.sum() == pytest.approx(y.sum())
        psd = Spectrum(df=0.05, kind="psd", ordinates=y, source_dt=0.01)
        assert psd_peak_periods(psd, k=1, smoothing_bins=5) == [1.0]


class TestRecordSpectralSummary:
    """Frequency-domain parameters as analyze_record reports them."""

    def test_sine_summary(self):
        acc = make_sine(2.0, dt=0.01, duration=40.0)
        sp, _ = analyze_record(acc)
        assert sp.t_ms == pytest.approx(0.5, rel=0.02)
        assert sp.t_cen == pytest.approx(0.5, rel=0.01)
        assert sp.t_mean == pytest.approx(0.5, rel=0.01)
        assert sp.t1_dsp == pytest.approx(0.5, rel=0.01)
        assert sp.q < 0.1
        assert sp.epsilon < 0.3

    def test_band_noise_summary(self):
        from quakespec import SynthSpec, generate
        acc = generate(SynthSpec(kind="band_noise", dt=0.01, duration=40.0,
                                 band=(0.0, 5.0), seed=7))
        sp, _ = analyze_record(acc)
        assert 0.05 <= sp.t_ms <= 4.0
        assert 0.0 <= sp.q <= 1.0
        assert 0.0 <= sp.epsilon <= 1.0
        assert sp.t_cen <= sp.t_mean * (1 + 1e-12)
