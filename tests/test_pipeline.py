import csv
import dataclasses
import shutil
from pathlib import Path

import pytest

from quakespec import (Accelerogram, ParameterSet, RecordEntry, analyze_record,
                       load_catalog, write_accelerogram, write_catalog)
from quakespec import pipeline
from quakespec.cli import main
from quakespec.stats import PARAM_ORDER, check_param
from conftest import DEMO_DIR

GOLDEN_TABLE = Path(__file__).resolve().parent / "golden" / "demo_parameters.csv"


def two_sample_record():
    # Mean removal leaves PGV = 0, so t_43 = 4.3*PGV/PGA comes out 0.
    return Accelerogram(dt=0.01, samples=[1.0, -1.0])


def copy_demo(dest, keep=lambda rec: True, extra=()):
    """The demo catalog under dest, filtered by keep, plus extra records."""
    shutil.copytree(DEMO_DIR, dest)
    cat = load_catalog(dest)
    records = tuple(r for r in cat.records if keep(r)) + tuple(extra)
    write_catalog(dataclasses.replace(cat, records=records), dest)
    return dest


def batch_table(catalog, out, jobs, capsys):
    code = main(["batch", str(catalog), "--out", str(out),
                 "--jobs", str(jobs)])
    err = capsys.readouterr().err
    assert code == 0
    return out.read_bytes(), err


def table_rows(text):
    return list(csv.reader(ln for ln in text.splitlines()
                           if not ln.startswith("#")))


class TestGoldenTable:
    """batch demo against the table frozen before the kernels changed."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_demo_matches_golden(self, tmp_path, capsys, jobs):
        got, err = batch_table(DEMO_DIR, tmp_path / "p.csv", jobs, capsys)
        assert "warning:" not in err
        want = table_rows(GOLDEN_TABLE.read_text())
        rows = table_rows(got.decode())
        assert rows[0] == want[0]
        assert [r[:3] for r in rows] == [r[:3] for r in want]
        for row, ref in zip(rows[1:], want[1:]):
            assert len(row) == len(ref)
            for cell, ref_cell in zip(row[3:], ref[3:]):
                if ref_cell == "":
                    assert cell == ""
                else:
                    assert float(cell) == pytest.approx(float(ref_cell),
                                                        rel=1e-9, abs=0.0)


class TestCheckParam:
    @pytest.mark.parametrize("name, value", [
        ("t_43", 0.0), ("t_ms", -1.0), ("t_c", float("nan")),
        ("q", -0.1), ("epsilon", 1.5), ("q", float("nan")),
    ])
    def test_rejects_what_parameter_set_rejects(self, name, value):
        with pytest.raises(ValueError) as from_check:
            check_param(name, value)
        with pytest.raises(ValueError) as from_set:
            ParameterSet(record_id="r", event_id="e", component="H",
                         t_cen=1.0, **{name: value})
        assert str(from_check.value) == str(from_set.value)

    @pytest.mark.parametrize("name, value", [
        ("t_43", 1e-300), ("q", 0.0), ("q", 1.0), ("epsilon", 0.5),
    ])
    def test_accepts_in_range(self, name, value):
        assert check_param(name, value) == value


class TestOutOfRangeValue:
    def test_two_sample_record_warns_on_t_43(self):
        pset, warnings = analyze_record(two_sample_record(), record_id="tiny")
        assert pset is not None
        assert pset.t_43 is None
        assert warnings == {"t_43": "t_43 must be positive, got 0.0"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_keeps_other_rows(self, tmp_path, capsys, jobs):
        plain = copy_demo(tmp_path / "plain")
        tiny = RecordEntry("R07", "EV1977A", "SA", "H2", "wf/r07.csv", "m/s2")
        with_tiny = copy_demo(tmp_path / "tiny", extra=[tiny])
        write_accelerogram(two_sample_record(), with_tiny / "wf" / "r07.csv")

        expected, _ = batch_table(plain, tmp_path / "plain.csv", jobs, capsys)
        got, err = batch_table(with_tiny, tmp_path / "tiny.csv", jobs, capsys)
        assert "warning: R07: t_43: t_43 must be positive" in err
        rows = got.decode().splitlines(keepends=True)
        r07 = [row for row in rows if row.startswith("R07,")]
        assert len(r07) == 1
        assert r07[0].split(",")[3 + PARAM_ORDER.index("t_43")] == ""
        rows.remove(r07[0])
        assert "".join(rows).encode() == expected


class TestPaddingCap:
    def test_mis_scaled_dt_warns_per_parameter(self):
        # 4 samples at 1 ns would need 2**35 points for df <= 0.05 Hz
        acc = Accelerogram(dt=1e-9, samples=[1.0, -1.0, 0.5, 0.2])
        pset, warnings = analyze_record(acc)
        spectral = {"t_ms", "t1_dsp", "t_mean", "t_cen", "q", "epsilon"}
        assert set(warnings) == spectral
        assert len(set(warnings.values())) == 1
        assert "exceeds" in warnings["t_ms"]
        for name in PARAM_ORDER:
            assert (pset.get(name) is None) == (name in spectral)


class TestUnexpectedError:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_other_records_byte_identical(self, tmp_path, capsys,
                                          monkeypatch, jobs):
        without = copy_demo(tmp_path / "without",
                            keep=lambda rec: rec.record_id != "R03")
        expected, _ = batch_table(without, tmp_path / "expected.csv", jobs,
                                  capsys)

        real = pipeline.analyze_record

        def analyze_or_fail(acc, record_id="", **kwargs):
            if record_id == "R03":
                raise RuntimeError("boom")
            return real(acc, record_id=record_id, **kwargs)

        monkeypatch.setattr(pipeline, "analyze_record", analyze_or_fail)
        got, err = batch_table(DEMO_DIR, tmp_path / "got.csv", jobs, capsys)
        assert got == expected
        assert "warning: R03: error: RuntimeError: boom (in analyze_or_fail" \
            in err

    def test_keyboard_interrupt_still_stops_the_run(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "analyze_record", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipeline.analyze_catalog(load_catalog(DEMO_DIR), DEMO_DIR,
                                     pipeline.RunConfig())
