import json

import numpy as np
import pytest

from quakespec import (Catalog, Event, ParameterSet, RecordEntry, Station,
                       SynthSpec, generate, write_accelerogram,
                       write_catalog, write_parameter_table)
from quakespec.catalog_io import TABLE_HEADER
from quakespec.cli import main
from conftest import DEMO_DIR


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_batch_catalog(root, n_records=6):
    """Two events, four H and two V components, noise waveforms."""
    wf = root / "wf"
    wf.mkdir()
    events = {
        "EVA": Event(id="EVA", date="1986-08-30", mw=7.1, depth_km=133.0),
        "EVB": Event(id="EVB", date="1990-05-30", mw=6.9, depth_km=91.0),
    }
    stations = {
        "S1": Station(code="S1", name="one", lat=44.437, lon=26.102),
        "S2": Station(code="S2", name="two", lat=45.1, lon=26.9),
    }
    layout = [("R1", "EVA", "S1", "H1"), ("R2", "EVA", "S1", "H2"),
              ("R3", "EVA", "S2", "V"), ("R4", "EVB", "S1", "H1"),
              ("R5", "EVB", "S2", "H1"), ("R6", "EVB", "S2", "V")]
    records = []
    for i, (rid, ev, st, comp) in enumerate(layout[:n_records]):
        acc = generate(SynthSpec(kind="band_noise", dt=0.01, duration=20.0,
                                 band=(0.5, 4.0), seed=100 + i))
        write_accelerogram(acc, wf / f"{rid.lower()}.csv")
        records.append(RecordEntry(rid, ev, st, comp, f"wf/{rid.lower()}.csv",
                                   "m/s2"))
    cat = Catalog(events=events, stations=stations, records=tuple(records))
    write_catalog(cat, root)
    return cat


def affine_table(path, n_per_event=6):
    """t_mean is exactly 2*t_ms, so the affine fit must come out good."""
    rng = np.random.default_rng(9)
    sets = []
    for i in range(2 * n_per_event):
        a = float(rng.uniform(0.2, 2.0))
        sets.append(ParameterSet(record_id=f"R{i}",
                                 event_id=f"EV{i % 2}", component="H",
                                 t_ms=a, t_mean=2.0 * a))
    write_parameter_table(sets, path)
    return sets


class TestTopLevel:
    def test_version(self, capsys):
        code, out, err = run("--version", capsys=capsys)
        assert code == 0
        assert out.strip() == "quakespec 0.1.0"

    def test_usage_error_is_exit_2(self, capsys):
        code, out, err = run("frobnicate", capsys=capsys)
        assert code == 2


class TestSynthAnalyze:
    def test_sine_pipeline(self, tmp_path, capsys):
        code, out, err = run("synth", "--kind", "sine", "--f0", "1.0",
                             "--dur", "40", "--out", "sine.csv",
                             capsys=capsys)
        assert code == 0
        assert "wrote sine.csv (4000 samples" in out

        code, out, err = run("analyze", "sine.csv", "--record-id", "S",
                             capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        params = doc["parameters"]
        for name in ("t_ms", "t1_dsp", "t_mean", "t_cen", "t_gsa",
                     "t_gsv", "t_gei", "t_c", "t_43"):
            assert 0.4 <= params[name] <= 2.5, name
        assert params["t_cen"] == pytest.approx(1.0, abs=1e-6)
        assert params["q"] < 0.1
        assert params["epsilon"] < 0.3
        assert doc["meta"]["record_id"] == "S"
        assert doc["warnings"] == {}

    def test_synth_is_deterministic(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            assert run("synth", "--kind", "band_noise", "--band", "0.5",
                       "4.0", "--seed", "7", "--out", name) == 0
        assert (tmp_path / "a.csv").read_bytes() == \
               (tmp_path / "b.csv").read_bytes()

    def test_band_reversed(self, capsys):
        code, out, err = run("synth", "--kind", "band_noise", "--band",
                             "5.0", "2.0", "--seed", "1", "--out", "x.csv",
                             capsys=capsys)
        assert code == 2
        assert "invalid band" in err

    def test_stochastic_kind_requires_seed(self, capsys):
        code, out, err = run("synth", "--kind", "band_noise", "--out",
                             "x.csv", capsys=capsys)
        assert code == 2
        assert "seed" in err

    def test_analyze_missing_file(self, capsys):
        code, out, err = run("analyze", "absent.csv", capsys=capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_analyze_all_zero_record(self, tmp_path, capsys):
        (tmp_path / "zero.csv").write_text(
            "dt=0.01\n" + "0.0\n" * 400)
        code, out, err = run("analyze", "zero.csv", capsys=capsys)
        assert code == 3
        assert "no parameter could be computed" in err
        assert "warning: t_43:" in err

    def test_analyze_to_file(self, tmp_path, capsys):
        run("synth", "--kind", "sine", "--f0", "0.5", "--dur", "40",
            "--out", "s.csv")
        capsys.readouterr()  # drop the synth chatter
        code, out, err = run("analyze", "s.csv", "--out", "params.json",
                             capsys=capsys)
        assert code == 0
        assert out == ""
        doc = json.loads((tmp_path / "params.json").read_text())
        assert doc["parameters"]["t_cen"] == pytest.approx(2.0, abs=1e-6)


class TestBatch:
    def test_full_catalog(self, tmp_path, capsys):
        make_batch_catalog(tmp_path)
        code, out, err = run("batch", str(tmp_path), capsys=capsys)
        assert code == 0
        assert "summary: 2 events, 6 components (H=4, V=2)" in out
        assert "EVA: H=2, V=1" in out
        assert "wrote parameters.csv" in out
        rows = (tmp_path / "parameters.csv").read_text().splitlines()
        data = [r for r in rows if r and not r.startswith("#")]
        assert len(data) == 1 + 6

    def test_missing_waveform_is_skipped(self, tmp_path, capsys):
        make_batch_catalog(tmp_path)
        (tmp_path / "wf" / "r2.csv").unlink()
        code, out, err = run("batch", str(tmp_path), capsys=capsys)
        assert code == 0
        assert "warning: R2:" in err
        assert "summary: 2 events, 5 components (H=3, V=2)" in out

    def test_reruns_and_thread_counts_agree(self, tmp_path):
        make_batch_catalog(tmp_path)
        outputs = []
        assert run("batch", str(tmp_path), "--out", "t0.csv") == 0
        assert run("batch", str(tmp_path), "--out", "t1.csv") == 0
        assert run("batch", str(tmp_path), "--out", "t2.csv",
                   "--jobs", "8") == 0
        assert run("batch", str(tmp_path), "--out", "t3.csv",
                   "--jobs", "3") == 0
        outputs = [(tmp_path / f"t{i}.csv").read_bytes() for i in range(4)]
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]

    def test_json_table_by_extension(self, tmp_path, capsys):
        make_batch_catalog(tmp_path)
        code, out, err = run("batch", str(tmp_path), "--out", "p.json",
                             capsys=capsys)
        assert code == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        assert len(doc["parameter_sets"]) == 6
        assert doc["meta"]["damping"] == "0.05"

    def test_missing_catalog(self, capsys):
        code, out, err = run("batch", "nowhere", capsys=capsys)
        assert code == 2


class TestCorrelate:
    def test_perfect_pair_is_good(self, tmp_path, capsys):
        affine_table(tmp_path / "p.csv")
        code, out, err = run("correlate", "p.csv", "--params",
                             "t_ms,t_mean", capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] == \
            "group=all: 1 good / 0 moderate / 0 weak (0 missing)"

    def test_by_event_reports(self, tmp_path, capsys):
        affine_table(tmp_path / "p.csv")
        code, out, err = run("correlate", "p.csv", "--params",
                             "t_ms,t_mean", "--by", "event", "--out-dir",
                             "rep", capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("group=all:")
        assert lines[1].startswith("group=EV0:")
        assert lines[2].startswith("group=EV1:")
        for group in ("all", "EV0", "EV1"):
            assert (tmp_path / "rep" / f"report_{group}.csv").exists()
            assert (tmp_path / "rep" / f"report_{group}.json").exists()

    def test_from_matrix(self, tmp_path, capsys):
        affine_table(tmp_path / "p.csv")
        run("correlate", "p.csv", "--params", "t_ms,t_mean", "--out-dir",
            "rep")
        capsys.readouterr()  # drop the first run's output
        code, out, err = run("correlate", "rep/report_all.csv",
                             "--from-matrix", capsys=capsys)
        assert code == 0
        assert out.splitlines()[0] == \
            "matrix[2 params]: 1 good / 0 moderate / 0 weak (0 missing)"

    def test_too_few_rows(self, tmp_path, capsys):
        sets = [ParameterSet(record_id=f"R{i}", event_id="E",
                             component="H", t_ms=0.5 + i, t_mean=1.0 + i)
                for i in range(2)]
        write_parameter_table(sets, tmp_path / "p.csv")
        code, out, err = run("correlate", "p.csv", "--params",
                             "t_ms,t_mean", capsys=capsys)
        assert code == 4
        assert "fewer than 3" in err

    def test_unknown_param_name(self, tmp_path, capsys):
        affine_table(tmp_path / "p.csv")
        code, out, err = run("correlate", "p.csv", "--params", "pga",
                             capsys=capsys)
        assert code == 2
        assert "unknown parameter 'pga'" in err

    def test_proportional_model(self, tmp_path, capsys):
        affine_table(tmp_path / "p.csv")
        code, out, err = run("correlate", "p.csv", "--params",
                             "t_ms,t_mean", "--model", "proportional",
                             capsys=capsys)
        assert code == 0
        assert "1 good" in out


MALFORMED_TABLES = {
    "short_row.csv": ",".join(TABLE_HEADER) + "\nR1,E1\n",
    "narrow_row.csv": ",".join(TABLE_HEADER) + "\nR1,E1,H,0.5\n",
    "unknown_key.json": json.dumps({"parameter_sets": [
        {"record_id": "R1", "event_id": "E1", "component": "H",
         "t_ms": 0.5, "pga": 1.0}]}),
    "no_sets.json": json.dumps({"meta": {}}),
    "top_level_list.json": json.dumps([]),
}


class TestMalformedTable:
    @pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
    @pytest.mark.parametrize("command", ["correlate", "map"])
    def test_exit_2_with_error_line(self, tmp_path, capsys, command, name):
        (tmp_path / name).write_text(MALFORMED_TABLES[name])
        argv = [command, name]
        if command == "map":
            argv += [str(DEMO_DIR), "--param", "t_ms"]
        code, out, err = run(*argv, capsys=capsys)
        assert code == 2
        assert err.startswith("error: ")


class TestMap:
    def test_map_from_batch_table(self, tmp_path, capsys):
        make_batch_catalog(tmp_path)
        run("batch", str(tmp_path))
        code, out, err = run("map", "parameters.csv", str(tmp_path),
                             "--param", "t_cen", capsys=capsys)
        assert code == 0
        assert "wrote map.geojson (6 features)" in out
        doc = json.loads((tmp_path / "map.geojson").read_text())
        assert doc["type"] == "FeatureCollection"
        lon, lat = doc["features"][0]["geometry"]["coordinates"]
        assert (lon, lat) == (26.102, 44.437)

    def test_map_epsilon_with_event_filter(self, tmp_path, capsys):
        make_batch_catalog(tmp_path)
        run("batch", str(tmp_path))
        code, out, err = run("map", "parameters.csv", str(tmp_path),
                             "--param", "epsilon", "--event", "EVB",
                             "--out", "m.geojson", capsys=capsys)
        assert code == 0
        doc = json.loads((tmp_path / "m.geojson").read_text())
        assert len(doc["features"]) == 3
        assert all(f["properties"]["event_id"] == "EVB"
                   for f in doc["features"])

    def test_combine_horizontal(self, tmp_path, capsys):
        make_batch_catalog(tmp_path)
        run("batch", str(tmp_path))
        code, out, err = run("map", "parameters.csv", str(tmp_path),
                             "--param", "t_cen", "--combine-horizontal",
                             "--out", "m.geojson", capsys=capsys)
        assert code == 0
        doc = json.loads((tmp_path / "m.geojson").read_text())
        # R1/R2 (same station, same event) collapse: 6 -> 5
        assert len(doc["features"]) == 5

    def test_station_without_coordinates(self, tmp_path, capsys):
        cat = make_batch_catalog(tmp_path)
        stations = dict(cat.stations)
        stations["S2"] = Station(code="S2", name="two", lat=None, lon=None)
        from quakespec import write_catalog
        write_catalog(Catalog(events=cat.events, stations=stations,
                              records=cat.records), tmp_path)
        run("batch", str(tmp_path))
        code, out, err = run("map", "parameters.csv", str(tmp_path),
                             "--param", "t_cen", capsys=capsys)
        assert code == 3
        assert "stations without coordinates: S2" in err
