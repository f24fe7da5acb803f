"""Oscillator response, response spectra and the period estimators
that derive from them.

The recurrence is exact for piecewise-linear excitation, so the main
oracles are closed-form harmonic responses and a brute-force
central-difference integrator at a very fine step.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quakespec import (Accelerogram, EffectivePeaks, GroundMotionPeaks,
                       ResponseSpectra, SpectraConfig, SynthSpec,
                       analyze_record, default_period_grid, effective_peaks,
                       generate,
                       heidebrecht_period, peaks, response_spectra,
                       sdof_response)
from quakespec.response import (_window_mean, characteristic_period_t1star,
                                characteristic_period_tc,
                                spectrum_peak_period)
from conftest import make_sine


def central_difference(p, dt, period, damping):
    """Brute-force reference integrator, O(dt^2)."""
    omega = 2 * np.pi / period
    n = p.size
    u = np.zeros(n)
    # start-up consistent with u(0)=v(0)=0: Taylor gives
    # u(-dt) = u0 - dt*v0 + dt^2/2 * u''(0) = dt^2/2 * p[0]
    u_prev = 0.5 * dt * dt * p[0]
    denom = 1.0 / (dt * dt) + damping * omega / dt
    for j in range(n - 1):
        rhs = (p[j] - (omega ** 2 - 2.0 / (dt * dt)) * u[j]
               - (1.0 / (dt * dt) - damping * omega / dt) * u_prev)
        u_next = rhs / denom
        u_prev = u[j]
        u[j + 1] = u_next
    v = np.zeros(n)
    v[1:-1] = (u[2:] - u[:-2]) / (2 * dt)
    v[-1] = (u[-1] - u[-2]) / dt
    return u, v


class TestSdofResponse:
    def test_zero_record(self):
        acc = Accelerogram(dt=0.01, samples=np.zeros(500))
        assert sdof_response(acc, period=1.0) == (0.0, 0.0, 0.0, 0.0)

    def test_resonant_magnification(self):
        # steady-state displacement amplitude A/(omega^2 * 2*zeta)
        f0, zeta = 1.0, 0.05
        acc = make_sine(f0, dt=0.005, duration=120.0)
        sd, sv, sa, ei = sdof_response(acc, period=1.0 / f0, damping=zeta)
        omega = 2 * np.pi * f0
        assert sd == pytest.approx(1.0 / (omega ** 2 * 2 * zeta), rel=0.02)
        assert ei > 0.0

    def test_matches_central_difference(self):
        acc = generate(SynthSpec(kind="band_noise", dt=0.01, duration=20.0,
                                 band=(0.5, 4.0), seed=31))
        for period in (0.3, 1.0, 2.5):
            sub = max(1, int(np.ceil(acc.dt / (0.005 * period))))
            dt_f = acc.dt / sub
            t_fine = np.arange((acc.n - 1) * sub + 1) * dt_f
            p = np.interp(t_fine, acc.times(), -acc.samples)
            u, v = central_difference(p, dt_f, period, 0.05)
            sd_ref = np.max(np.abs(u))
            sd, sv, sa, ei = sdof_response(acc, period=period, damping=0.05)
            assert sd == pytest.approx(sd_ref, rel=0.005)

    def test_substep_consistency(self):
        # coarse record, short oscillator: internal refinement halves
        # the step to 0.025 s; hand it the same piecewise-linear signal
        # pre-sampled at 0.025 s and the peaks must agree to rounding,
        # because the recurrence is exact between breakpoints
        rng = np.random.default_rng(8)
        coarse = Accelerogram(dt=0.05, samples=rng.normal(size=400))
        t_fine = np.arange(2 * coarse.n - 1) * 0.025
        fine = Accelerogram(dt=0.025,
                            samples=np.interp(t_fine, coarse.times(),
                                              coarse.samples))
        got = sdof_response(coarse, period=0.25)
        want = sdof_response(fine, period=0.25)
        assert got[0] == pytest.approx(want[0], rel=1e-9)
        assert got[3] == pytest.approx(want[3], rel=1e-9)

    def test_rejects_hopeless_step(self):
        acc = Accelerogram(dt=0.25, samples=np.zeros(100))
        with pytest.raises(ValueError, match="undersampled oscillator"):
            sdof_response(acc, period=0.02)

    def test_parameter_validation(self):
        acc = Accelerogram(dt=0.01, samples=np.zeros(100))
        with pytest.raises(ValueError, match="period"):
            sdof_response(acc, period=0.0)
        with pytest.raises(ValueError, match="damping"):
            sdof_response(acc, period=1.0, damping=1.5)


class TestResponseSpectra:
    def test_shapes_and_signs(self, sine_1hz):
        rs = response_spectra(sine_1hz)
        n = rs.periods.size
        for arr in (rs.sd, rs.sv, rs.sa, rs.psv, rs.psa, rs.ei):
            assert arr.size == n
            assert np.all(arr >= 0.0)

    def test_pseudo_spectra_identities(self, sine_1hz):
        rs = response_spectra(sine_1hz)
        omega = 2 * np.pi / rs.periods
        assert_allclose(rs.psv, omega * rs.sd, rtol=0, atol=0)
        assert_allclose(rs.psa, omega ** 2 * rs.sd, rtol=0, atol=0)

    def test_short_period_limit_is_pga(self):
        acc = generate(SynthSpec(kind="band_noise", dt=0.005, duration=40.0,
                                 band=(0.5, 8.0), seed=17))
        rs = response_spectra(acc)
        pga = np.max(np.abs(acc.samples))
        assert rs.sa[0] == pytest.approx(pga, rel=0.05)

    def test_long_period_limit_is_pgd(self):
        # needs bounded ground displacement, so taper the burst; a
        # suddenly started sine has linearly drifting displacement
        n = 4000
        t = np.arange(n) * 0.01
        burst = np.sin(2 * np.pi * t) * np.hanning(n)
        acc = Accelerogram(dt=0.01, samples=burst)
        rs = response_spectra(acc)
        pgd = peaks(acc).pgd
        assert rs.sd[-1] == pytest.approx(pgd, rel=0.10)

    @pytest.mark.parametrize("k", [0.1, 7.0])
    def test_scaling(self, k, sine_1hz):
        rs1 = response_spectra(sine_1hz)
        scaled = Accelerogram(dt=sine_1hz.dt, samples=k * sine_1hz.samples)
        rs2 = response_spectra(scaled)
        assert_allclose(rs2.sd, k * rs1.sd, rtol=1e-9)
        assert_allclose(rs2.sa, k * rs1.sa, rtol=1e-9)
        assert_allclose(rs2.ei, k * k * rs1.ei, rtol=1e-9)

    def test_default_grid(self):
        grid = default_period_grid()
        assert grid.size == 200
        assert grid[0] == pytest.approx(0.02)
        assert grid[-1] == pytest.approx(5.0)
        assert np.all(np.diff(grid) > 0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="damping"):
            SpectraConfig(damping=0.0)
        with pytest.raises(ValueError, match="increasing"):
            SpectraConfig(periods=np.array([1.0, 0.5]))


class TestSpectrumPeakPeriod:
    def test_interior_peak(self):
        assert spectrum_peak_period(np.array([1.0, 3.0, 2.0]),
                                    np.array([0.1, 1.0, 2.0])) == 1.0

    def test_tie_takes_shortest_period(self):
        y = np.array([0.0, 2.0, 1.0, 2.0, 0.0])
        t = np.array([0.1, 0.5, 1.0, 1.5, 2.0])
        assert spectrum_peak_period(y, t) == 0.5

    def test_flat_spectrum_rejected(self):
        with pytest.raises(ValueError, match="flat spectrum"):
            spectrum_peak_period(np.ones(5), np.linspace(0.1, 2.0, 5))

    def test_sine_resonance(self):
        acc = make_sine(1.0, dt=0.01, duration=40.0)
        rs = response_spectra(acc)
        t_gsa = spectrum_peak_period(rs.sa, rs.periods)
        step = rs.periods[1] / rs.periods[0]
        assert abs(np.log(t_gsa / 1.0)) <= np.log(step) + 1e-12


class TestT1Star:
    def test_direct_arithmetic(self):
        periods = np.linspace(0.1, 2.0, 5)
        zero = np.zeros(5)
        psv = np.array([0.0, 0.5, 0.2, 0.1, 0.0])
        psa = np.array([0.0, np.pi, 0.1, 0.1, 0.0])
        rs = ResponseSpectra(periods=periods, damping=0.05, sd=zero, sv=zero,
                             sa=zero, psv=psv, psa=psa, ei=zero)
        assert characteristic_period_t1star(rs) == pytest.approx(1.0)

    def test_harmonic_record(self, sine_1hz):
        rs = response_spectra(sine_1hz)
        assert characteristic_period_t1star(rs) == pytest.approx(1.0, rel=0.20)

    def test_scale_invariant(self, sine_1hz):
        rs1 = response_spectra(sine_1hz)
        scaled = Accelerogram(dt=sine_1hz.dt, samples=5.0 * sine_1hz.samples)
        rs2 = response_spectra(scaled)
        assert characteristic_period_t1star(rs2) == pytest.approx(
            characteristic_period_t1star(rs1), rel=1e-12)


class TestEffectivePeaks:
    def test_constant_spectrum(self):
        periods = np.linspace(0.1, 3.0, 300)
        const = np.full(300, 2.5)
        zero = np.zeros(300)
        rs = ResponseSpectra(periods=periods, damping=0.05, sd=zero, sv=const,
                             sa=const, psv=zero, psa=zero, ei=zero)
        ep = effective_peaks(rs)
        assert ep.epa == pytest.approx(1.0, rel=1e-9)
        assert ep.epv == pytest.approx(1.0, rel=1e-9)

    def test_narrow_spike_is_attenuated(self):
        periods = np.linspace(0.1, 3.0, 1000)
        spike = np.where(np.abs(periods - 1.0) < 0.01, 1.0, 0.0)
        zero = np.zeros_like(periods)
        rs = ResponseSpectra(periods=periods, damping=0.05, sd=zero, sv=zero,
                             sa=spike, psv=zero, psa=zero, ei=zero)
        ep = effective_peaks(rs)
        assert ep.epa < spike.max() / 2.5

    def test_smoothed_peak_stays_near_raw_peak(self):
        periods = np.linspace(0.1, 3.0, 500)
        for center in (0.8, 1.5, 2.2):
            y = np.exp(-0.5 * ((periods - center) / 0.3) ** 2)
            smoothed = _window_mean(periods, y, 0.4)
            t_raw = periods[int(np.argmax(y))]
            t_smooth = periods[int(np.argmax(smoothed))]
            assert abs(t_smooth - t_raw) <= 0.2

    def test_narrow_grid_rejected(self):
        periods = np.linspace(0.5, 0.8, 50)
        zero = np.zeros(50)
        rs = ResponseSpectra(periods=periods, damping=0.05, sd=zero, sv=zero,
                             sa=zero, psv=zero, psa=zero, ei=zero)
        with pytest.raises(ValueError, match="window"):
            effective_peaks(rs)

    def test_positive_for_nonzero_record(self, sine_1hz):
        ep = effective_peaks(response_spectra(sine_1hz))
        assert ep.epv > 0.0 and ep.epa > 0.0


class TestCharacteristicPeriods:
    def test_tc_arithmetic(self):
        ep = EffectivePeaks(epv=0.25, epa=np.pi)
        assert characteristic_period_tc(ep) == pytest.approx(0.5)

    def test_tc_scale_invariance(self, sine_1hz):
        rs1 = response_spectra(sine_1hz)
        scaled = Accelerogram(dt=sine_1hz.dt, samples=3.0 * sine_1hz.samples)
        rs2 = response_spectra(scaled)
        t1 = characteristic_period_tc(effective_peaks(rs1))
        t2 = characteristic_period_tc(effective_peaks(rs2))
        assert t2 == pytest.approx(t1, rel=1e-9)

    def test_tc_harmonic(self, sine_1hz):
        tc = characteristic_period_tc(effective_peaks(response_spectra(sine_1hz)))
        assert tc == pytest.approx(1.0, rel=0.25)

    def test_heidebrecht_arithmetic(self):
        assert heidebrecht_period(GroundMotionPeaks(1e-1, 0.1, 0.0)) \
            == pytest.approx(4.3 * 0.1 / 0.1)
        assert heidebrecht_period(GroundMotionPeaks(pga=1.0, pgv=0.1, pgd=0.0)) \
            == pytest.approx(0.43)
        assert heidebrecht_period(GroundMotionPeaks(pga=2.0, pgv=0.7, pgd=0.0)) \
            == pytest.approx(1.505)

    def test_heidebrecht_zero_pga(self):
        with pytest.raises(ValueError, match="zero peak"):
            heidebrecht_period(GroundMotionPeaks(pga=0.0, pgv=0.0, pgd=0.0))

    def test_heidebrecht_harmonic(self):
        acc = make_sine(2.0, dt=0.005, duration=40.0)
        t43 = heidebrecht_period(peaks(acc))
        assert t43 == pytest.approx(4.3 / (2 * np.pi * 2.0), rel=0.03)


class TestRecordPeriodSummary:
    """Response-side periods as analyze_record reports them, plus T1*."""

    def test_sine_integration(self, sine_1hz):
        pp, _ = analyze_record(sine_1hz)
        grid = default_period_grid()
        for value in (pp.t_gsa, pp.t_gsv, pp.t_gei, pp.t_c,
                      characteristic_period_t1star(response_spectra(sine_1hz))):
            assert grid[0] <= value <= grid[-1]
        assert pp.t_gsa == pytest.approx(1.0, rel=0.03)
        assert pp.t_43 == pytest.approx(4.3 / (2 * np.pi), rel=0.03)
