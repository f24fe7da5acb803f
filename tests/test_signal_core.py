import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import cumulative_trapezoid

from quakespec import (Accelerogram, G_ACCEL, GroundMotionPeaks, detrend,
                       integrate, load_accelerogram, load_catalog, peaks)
from conftest import DEMO_DIR, make_sine


class TestAccelerogram:
    def test_basic_properties(self):
        acc = Accelerogram(dt=0.01, samples=np.zeros(101))
        assert acc.n == 101
        assert acc.duration == pytest.approx(1.0)
        assert_allclose(acc.times()[:3], [0.0, 0.01, 0.02])

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            Accelerogram(dt=0.0, samples=np.zeros(10))
        with pytest.raises(ValueError, match="dt"):
            Accelerogram(dt=-0.01, samples=np.zeros(10))

    def test_rejects_short_or_multidim(self):
        with pytest.raises(ValueError):
            Accelerogram(dt=0.01, samples=np.array([1.0]))
        with pytest.raises(ValueError):
            Accelerogram(dt=0.01, samples=np.zeros((4, 4)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Accelerogram(dt=0.01, samples=np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            Accelerogram(dt=0.01, samples=np.array([0.0, np.inf]))

    def test_samples_read_only(self):
        acc = Accelerogram(dt=0.01, samples=np.zeros(4))
        with pytest.raises(ValueError):
            acc.samples[0] = 1.0

    def test_unit_conversion(self):
        acc = Accelerogram.from_samples(0.01, [0.0, 100.0], units_in="cm/s2")
        assert_allclose(acc.samples[1], 1.0)
        acc = Accelerogram.from_samples(0.01, [0.0, 1.0], units_in="g")
        assert_allclose(acc.samples[1], 9.81)
        assert G_ACCEL == 9.81

    def test_unknown_units(self):
        with pytest.raises(ValueError, match="units"):
            Accelerogram.from_samples(0.01, [0.0, 1.0], units_in="gal")


class TestDetrend:
    def test_mean_of_constant_is_zero(self):
        acc = Accelerogram(dt=0.01, samples=np.full(50, 3.0))
        out = detrend(acc, mode="mean")
        assert_allclose(out.samples, 0.0, atol=1e-15)

    def test_linear_removes_exact_line(self):
        acc = Accelerogram(dt=0.01, samples=2.0 * np.arange(100) * 0.01)
        out = detrend(acc, mode="linear")
        assert np.max(np.abs(out.samples)) < 1e-12

    def test_mean_mode_on_sine(self):
        acc = make_sine(1.0, dt=0.01, duration=10.0)
        out = detrend(acc, mode="mean")
        assert abs(out.samples.mean()) < 1e-12
        assert abs(np.max(np.abs(out.samples)) - np.max(np.abs(acc.samples))) < 1e-6

    def test_unknown_mode(self):
        acc = Accelerogram(dt=0.01, samples=np.zeros(4))
        with pytest.raises(ValueError, match="mode"):
            detrend(acc, mode="quadratic")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3,
                    max_size=200),
           st.sampled_from(["mean", "linear"]))
    def test_idempotent(self, values, mode):
        acc = Accelerogram(dt=0.01, samples=np.asarray(values))
        once = detrend(acc, mode=mode)
        twice = detrend(once, mode=mode)
        assert np.max(np.abs(twice.samples - once.samples)) < 1e-9


class TestIntegrate:
    def test_constant_is_exact(self):
        # trapezoid is exact for a constant integrand
        acc = Accelerogram(dt=0.01, samples=np.ones(101))
        v = integrate(acc)
        assert v[0] == 0.0
        assert v[-1] == pytest.approx(1.0, abs=1e-12)

    def test_cosine_antiderivative(self):
        dt = 0.001
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        acc = Accelerogram(dt=dt, samples=np.cos(2 * np.pi * t))
        v = integrate(acc)
        expected = np.sin(2 * np.pi * t) / (2 * np.pi)
        assert np.max(np.abs(v - expected)) < 1e-5

    def test_zeros(self):
        acc = Accelerogram(dt=0.01, samples=np.zeros(32))
        assert_allclose(integrate(acc), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=-1e100, max_value=1e100,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=200),
           st.floats(min_value=1e-6, max_value=1e3))
    def test_bit_identical_to_scipy(self, values, dx):
        acc = Accelerogram(dt=dx, samples=np.asarray(values))
        expected = cumulative_trapezoid(acc.samples, dx=dx, initial=0.0)
        assert np.array_equal(integrate(acc), expected)


class TestPeaks:
    def test_harmonic_record(self):
        # pga = A, pgv = A/omega for a long pure sine
        acc = make_sine(0.5, dt=0.005, duration=40.0, amp=2.0)
        pk = peaks(acc)
        assert pk.pga == pytest.approx(2.0, abs=1e-3)
        assert pk.pgv == pytest.approx(2.0 / (2 * np.pi * 0.5), abs=1e-2)

    def test_zero_record(self):
        acc = Accelerogram(dt=0.01, samples=np.zeros(100))
        pk = peaks(acc)
        assert (pk.pga, pk.pgv, pk.pgd) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("k", [0.5, 2.0, 9.81])
    def test_scaling_linearity(self, k):
        acc = make_sine(0.8, dt=0.01, duration=30.0)
        scaled = Accelerogram(dt=acc.dt, samples=k * acc.samples)
        pk, pks = peaks(acc), peaks(scaled)
        assert pks.pga == pytest.approx(k * pk.pga, rel=1e-12)
        assert pks.pgv == pytest.approx(k * pk.pgv, rel=1e-12)
        assert pks.pgd == pytest.approx(k * pk.pgd, rel=1e-12)

    def test_all_non_negative(self):
        rng = np.random.default_rng(3)
        acc = Accelerogram(dt=0.02, samples=rng.normal(size=500))
        pk = peaks(acc)
        assert pk.pga >= 0 and pk.pgv >= 0 and pk.pgd >= 0

    # (pga, pgv, pgd) of the demo records, computed with scipy's
    # cumulative_trapezoid before it was replaced by numpy.
    @pytest.mark.parametrize("record_id, pga, pgv, pgd", [
        ("R01", 1.5, 0.8334391639850128, 3.3863172399573584),
        ("R02", 1.4999999999999998, 0.5338278422498853, 1.511639124244892),
        ("R03", 1.5, 0.4361475541121221, 1.027962194193591),
        ("R04", 1.5, 0.3933329216997474, 0.8663575816132586),
        ("R05", 1.5, 0.4590584100540406, 1.1193977356288216),
        ("R06", 1.5, 0.42967707351592976, 0.5658085337458136),
    ])
    def test_demo_records_unchanged(self, record_id, pga, pgv, pgd):
        rec = next(r for r in load_catalog(DEMO_DIR).records
                   if r.record_id == record_id)
        acc = load_accelerogram(DEMO_DIR / rec.path, "csv",
                                units_in=rec.units_in)
        pk = peaks(acc)
        assert (pk.pga, pk.pgv, pk.pgd) == (pga, pgv, pgd)

    def test_peaks_type_rejects_negative(self):
        with pytest.raises(ValueError):
            GroundMotionPeaks(pga=-1.0, pgv=0.0, pgd=0.0)
