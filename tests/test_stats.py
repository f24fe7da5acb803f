import numpy as np
import pytest

from quakespec import (PARAM_ORDER, ParameterSet, classify_bandwidth,
                       classify_r2, correlation_matrix, fit_affine,
                       fit_proportional)
from quakespec.stats import (MIN_PAIRS, classification_counts,
                             component_type, read_r2_matrix_csv,
                             write_report_csv, write_report_json)


def pset(record_id="R", event_id="E", component="H", **params):
    if not params:
        params = {"t_ms": 1.0}
    return ParameterSet(record_id=record_id, event_id=event_id,
                        component=component, **params)


class TestParameterSet:
    def test_component_validation(self):
        with pytest.raises(ValueError, match="component"):
            pset(component="X")

    def test_requires_one_parameter(self):
        with pytest.raises(ValueError, match="at least one"):
            ParameterSet(record_id="R", event_id="E", component="H")

    def test_period_positivity(self):
        with pytest.raises(ValueError, match="positive"):
            pset(t_cen=-0.5)
        with pytest.raises(ValueError, match="positive"):
            pset(t_gsa=0.0)

    def test_bandwidth_range(self):
        with pytest.raises(ValueError, match="q"):
            pset(q=1.5)
        pset(q=0.0, epsilon=1.0)  # closed interval endpoints are fine

    def test_get_and_params(self):
        s = pset(t_ms=0.8, q=0.4)
        assert s.get("t_ms") == 0.8
        assert s.get("t_gei") is None
        with pytest.raises(ValueError, match="unknown"):
            s.get("pga")
        assert tuple(s.params()) == PARAM_ORDER

    def test_values_coerced_to_plain_floats(self):
        s = pset(t_ms=np.float64(0.75))
        assert type(s.t_ms) is float

    def test_component_type(self):
        assert component_type("H1") == "H"
        assert component_type("H2") == "H"
        assert component_type("V") == "V"
        with pytest.raises(ValueError):
            component_type("Z")


class TestAffineFit:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = fit_affine(x, 2.0 * x + 1.0)
        assert fit.a == pytest.approx(2.0)
        assert fit.b == pytest.approx(1.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_hand_computed_case(self):
        fit = fit_affine([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert fit.a == pytest.approx(0.5)
        assert fit.b == pytest.approx(1.0 / 6.0)
        assert fit.r2 == pytest.approx(0.75)

    def test_constant_y_convention(self):
        fit = fit_affine([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        assert fit.r2 == 0.0

    def test_zero_variance_x(self):
        with pytest.raises(ValueError, match="zero variance"):
            fit_affine([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            fit_affine([0.0, 1.0], [0.0, 1.0])


class TestProportionalFit:
    def test_exact_proportionality(self):
        x = np.array([1.0, 2.0, 3.0])
        fit = fit_proportional(x, 3.0 * x)
        assert fit.a == pytest.approx(3.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_hand_computed_case(self):
        fit = fit_proportional([1.0, 2.0], [2.0, 3.0])
        assert fit.a == pytest.approx(1.6)
        assert fit.r2 == pytest.approx(0.6)
        assert fit.r2_raw == pytest.approx(0.6)

    def test_bad_fit_clamps_to_zero(self):
        # proportional constraint fits worse than the mean here
        fit = fit_proportional([-1.0, 1.0], [1.0, 1.0])
        assert fit.r2 == 0.0
        assert fit.r2_raw <= 0.0


class TestClassification:
    def test_r2_thresholds_are_strict(self):
        assert classify_r2(0.51) == "good"
        assert classify_r2(0.5) == "moderate"  # > 0.5, not >=
        assert classify_r2(0.1) == "moderate"
        assert classify_r2(0.099) == "weak"

    def test_bandwidth_thresholds(self):
        assert classify_bandwidth(0.667) == "broad"
        assert classify_bandwidth(0.96) == "narrow"
        assert classify_bandwidth(0.90) == "intermediate"
        assert classify_bandwidth(0.85) == "intermediate"
        assert classify_bandwidth(0.95) == "intermediate"


class TestCorrelationMatrix:
    def test_exact_dependence_is_good(self):
        rng = np.random.default_rng(1)
        sets = []
        for i in range(20):
            a = float(rng.uniform(0.2, 2.0))
            sets.append(pset(record_id=f"R{i}", t_ms=a, t_mean=2.0 * a))
        report, = correlation_matrix(sets, params=("t_ms", "t_mean"))
        assert report.cell("t_ms", "t_mean") == pytest.approx(1.0)
        assert report.counts() == {"good": 1, "moderate": 0, "weak": 0,
                                   "missing": 0}

    def test_independent_columns_are_weak(self):
        rng = np.random.default_rng(2024)
        sets = [pset(record_id=f"R{i}", t_ms=float(rng.uniform(0.1, 2)),
                     t_c=float(rng.uniform(0.1, 2))) for i in range(200)]
        report, = correlation_matrix(sets, params=("t_ms", "t_c"))
        assert report.cell("t_ms", "t_c") < 0.1

    def test_diagonal_and_symmetry(self):
        rng = np.random.default_rng(3)
        sets = [pset(record_id=f"R{i}", t_ms=float(rng.uniform(0.1, 2)),
                     t_cen=float(rng.uniform(0.1, 2)),
                     q=float(rng.uniform(0, 1))) for i in range(30)]
        report, = correlation_matrix(sets, params=("t_ms", "t_cen", "q"))
        n = len(report.params)
        for i in range(n):
            assert report.r2[i][i] == pytest.approx(1.0)
            for j in range(n):
                assert report.r2[i][j] == pytest.approx(report.r2[j][i])

    def test_pairwise_deletion(self):
        # t_cen present on only 2 records: below MIN_PAIRS, so the cell
        # is missing while the fully populated pair still resolves
        sets = [pset(record_id="R0", t_ms=0.5, t_mean=1.0, t_cen=0.9),
                pset(record_id="R1", t_ms=0.7, t_mean=1.4, t_cen=1.1),
                pset(record_id="R2", t_ms=0.9, t_mean=1.8),
                pset(record_id="R3", t_ms=1.1, t_mean=2.2)]
        report, = correlation_matrix(sets, params=("t_ms", "t_mean", "t_cen"))
        assert MIN_PAIRS == 3
        assert report.cell("t_ms", "t_mean") == pytest.approx(1.0)
        assert report.cell("t_ms", "t_cen") is None
        assert report.counts()["missing"] == 2

    def test_group_by_event_includes_pooled(self):
        rng = np.random.default_rng(4)
        sets = []
        for i in range(12):
            sets.append(pset(record_id=f"R{i}", event_id=f"EV{i % 2}",
                             t_ms=float(rng.uniform(0.1, 2)),
                             t_43=float(rng.uniform(0.1, 2))))
        reports = correlation_matrix(sets, params=("t_ms", "t_43"),
                                     group_by="event")
        assert [r.group for r in reports] == ["all", "EV0", "EV1"]

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="no parameter sets"):
            correlation_matrix([])
        with pytest.raises(ValueError, match="unknown parameter"):
            correlation_matrix([pset()], params=("pga",))
        with pytest.raises(ValueError, match="unknown model"):
            correlation_matrix([pset()], model="quadratic")
        with pytest.raises(ValueError, match="unknown group_by"):
            correlation_matrix([pset()], group_by="station")

    def test_proportional_model_runs(self):
        rng = np.random.default_rng(5)
        sets = [pset(record_id=f"R{i}", t_ms=float(rng.uniform(0.5, 2)),
                     t_c=float(rng.uniform(0.5, 2))) for i in range(10)]
        report, = correlation_matrix(sets, params=("t_ms", "t_c"),
                                     model="proportional")
        assert report.model == "proportional"
        assert 0.0 <= report.cell("t_ms", "t_c") <= 1.0


class TestReportSerialization:
    def _report(self):
        rng = np.random.default_rng(6)
        sets = [pset(record_id=f"R{i}", t_ms=float(rng.uniform(0.1, 2)),
                     t_mean=float(rng.uniform(0.1, 2)),
                     epsilon=float(rng.uniform(0, 1))) for i in range(25)]
        report, = correlation_matrix(sets, params=("t_ms", "t_mean",
                                                   "epsilon"))
        return report

    def test_csv_matrix_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        write_report_csv(report, path, meta={"model": report.model})
        params, matrix = read_r2_matrix_csv(path)
        assert params == report.params
        for i in range(len(params)):
            for j in range(len(params)):
                assert matrix[i][j] == report.r2[i][j]

    def test_json_report_content(self, tmp_path):
        import json
        report = self._report()
        path = tmp_path / "report.json"
        write_report_json(report, path, meta={"group": "all"})
        doc = json.loads(path.read_text())
        assert doc["group"] == "all"
        assert doc["counts"] == report.counts()
        pair = next(p for p in doc["pairs"]
                    if p["x"] == "t_ms" and p["y"] == "t_mean")
        assert pair["r2"] == pytest.approx(report.cell("t_ms", "t_mean"))
        assert "a" in pair and "b" in pair

    def test_classification_counts_on_handmade_matrix(self):
        params = ("a", "b", "c")
        matrix = ((1.0, 0.7, 0.05), (0.7, 1.0, None), (0.05, None, 1.0))
        counts = classification_counts(params, matrix)
        assert counts == {"good": 1, "moderate": 0, "weak": 1, "missing": 1}
