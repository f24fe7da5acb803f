import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakespec import (Accelerogram, Catalog, DanglingReferenceError,
                       DuplicateIdError, EmptyFileError, Event,
                       MalformedRecordError, NonUniformSamplingError,
                       ParameterSet, RecordEntry, Station, emit_geojson_map,
                       load_accelerogram, load_catalog, read_parameter_table,
                       write_accelerogram, write_catalog,
                       write_parameter_table)
from quakespec.catalog_io import TABLE_HEADER
from quakespec.signal_core import G_ACCEL


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n")


class TestWaveformLoading:
    def test_csv_format(self, tmp_path):
        p = tmp_path / "w.csv"
        write_lines(p, "# station=INC", "dt=0.01", "0.0", "1.0", "0.0")
        acc = load_accelerogram(p, "csv")
        assert acc.dt == 0.01
        assert acc.samples.tolist() == [0.0, 1.0, 0.0]
        assert acc.label == "w.csv"

    def test_two_column_with_units(self, tmp_path):
        p = tmp_path / "w.txt"
        write_lines(p, "0.0 0.0", "0.02 9.81")
        acc = load_accelerogram(p, "two_column_text", units_in="g")
        assert acc.dt == pytest.approx(0.02)
        assert acc.samples[1] == pytest.approx(9.81 * G_ACCEL)
        assert acc.samples[1] == pytest.approx(96.2361)

    def test_non_uniform_sampling_rejected(self, tmp_path):
        p = tmp_path / "w.txt"
        # third step is 5% long
        write_lines(p, "0.0 0.1", "0.02 0.2", "0.04 0.3", "0.061 0.4")
        with pytest.raises(NonUniformSamplingError, match="non-uniform sampling"):
            load_accelerogram(p, "two_column_text")

    def test_empty_and_malformed(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("# only a comment\n")
        with pytest.raises(EmptyFileError):
            load_accelerogram(p, "csv")
        write_lines(p, "dt=0.01")
        with pytest.raises(EmptyFileError, match="no samples"):
            load_accelerogram(p, "csv")
        write_lines(p, "0.0 1.0 2.0")
        with pytest.raises(MalformedRecordError):
            load_accelerogram(p, "csv")  # missing dt header
        q = tmp_path / "w.txt"
        write_lines(q, "0.0 1.0 2.0")
        with pytest.raises(MalformedRecordError, match="t a"):
            load_accelerogram(q, "two_column_text")
        write_lines(q, "0.0 abc")
        with pytest.raises(MalformedRecordError):
            load_accelerogram(q, "two_column_text")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown waveform format"):
            load_accelerogram(tmp_path / "w", "sac")

    @pytest.mark.parametrize("fmt", ["csv", "two_column_text"])
    def test_round_trip_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(12)
        acc = Accelerogram.from_samples(0.005, rng.normal(size=300))
        p = tmp_path / "w.dat"
        write_accelerogram(acc, p, fmt=fmt)
        back = load_accelerogram(p, fmt)
        assert back.dt == acc.dt
        np.testing.assert_array_equal(back.samples, acc.samples)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=2, max_size=40),
           st.sampled_from([0.01, 0.02, 0.005]))
    def test_round_trip_exact_property(self, tmp_path_factory, values, dt):
        acc = Accelerogram.from_samples(dt, values)
        p = tmp_path_factory.mktemp("wf") / "w.csv"
        write_accelerogram(acc, p, fmt="csv")
        back = load_accelerogram(p, "csv")
        assert back.dt == acc.dt
        np.testing.assert_array_equal(back.samples, acc.samples)


def demo_catalog():
    """Catalog patterned after four well-studied intermediate-depth
    events; station coordinates here are synthetic test values."""
    events = {
        "EV1977": Event(id="EV1977", date="1977-03-04", mw=7.4, depth_km=109.0),
        "EV1986": Event(id="EV1986", date="1986-08-30", mw=7.1, depth_km=133.0),
        "EV1990A": Event(id="EV1990A", date="1990-05-30", mw=6.9, depth_km=91.0),
        "EV1990B": Event(id="EV1990B", date="1990-05-31", mw=6.4, depth_km=87.0),
    }
    stations = {
        "INC": Station(code="INC", name="Incerc", lat=44.44, lon=26.12),
        "MAG": Station(code="MAG", name="Magurele", lat=44.35, lon=26.03),
        "BLD": Station(code="BLD", name="No fix", lat=None, lon=None),
    }
    records = (
        RecordEntry("R1", "EV1977", "INC", "H1", "wf/r1.csv", "m/s2"),
        RecordEntry("R2", "EV1977", "INC", "H2", "wf/r2.csv", "m/s2"),
        RecordEntry("R3", "EV1986", "MAG", "H1", "wf/r3.csv", "cm/s2"),
        RecordEntry("R4", "EV1990A", "MAG", "V", "wf/r4.csv", "m/s2"),
        RecordEntry("R5", "EV1990B", "BLD", "H1", "wf/r5.csv", "m/s2"),
    )
    return Catalog(events=events, stations=stations, records=records)


class TestCatalog:
    def test_round_trip(self, tmp_path):
        cat = demo_catalog()
        write_catalog(cat, tmp_path)
        back = load_catalog(tmp_path)
        assert back == cat

    def test_coordinates_may_be_absent(self, tmp_path):
        write_catalog(demo_catalog(), tmp_path)
        back = load_catalog(tmp_path)
        assert back.stations["BLD"].lat is None
        assert back.stations["BLD"].lon is None

    def test_station_validation(self):
        with pytest.raises(ValueError, match="together"):
            Station(code="X", name="x", lat=44.0, lon=None)
        with pytest.raises(ValueError, match="lat"):
            Station(code="X", name="x", lat=91.0, lon=0.0)

    def test_duplicate_record_id(self, tmp_path):
        cat = demo_catalog()
        write_catalog(cat, tmp_path)
        rows = (tmp_path / "records.csv").read_text().splitlines()
        write_lines(tmp_path / "records.csv", *rows, rows[1])
        with pytest.raises(DuplicateIdError, match="R1"):
            load_catalog(tmp_path)

    def test_dangling_event_reference(self, tmp_path):
        cat = demo_catalog()
        write_catalog(cat, tmp_path)
        rows = (tmp_path / "records.csv").read_text().splitlines()
        write_lines(tmp_path / "records.csv", rows[0],
                    "R9,EV2004,INC,H1,wf/r9.csv,m/s2")
        with pytest.raises(DanglingReferenceError, match="EV2004"):
            load_catalog(tmp_path)

    def test_empty_records_file_is_valid(self, tmp_path):
        write_catalog(demo_catalog(), tmp_path)
        rows = (tmp_path / "records.csv").read_text().splitlines()
        write_lines(tmp_path / "records.csv", rows[0])
        back = load_catalog(tmp_path)
        assert back.records == ()

    def test_bad_header_rejected(self, tmp_path):
        write_catalog(demo_catalog(), tmp_path)
        write_lines(tmp_path / "events.csv", "id,when,mw,depth_km",
                    "EV1,1977-03-04,7.4,109.0")
        with pytest.raises(MalformedRecordError, match="header"):
            load_catalog(tmp_path)


def table_sets():
    return [
        ParameterSet(record_id="R1", event_id="EV1977", component="H",
                     t_ms=0.91, t1_dsp=1.02, t_mean=0.88, t_cen=0.79,
                     t_gsa=0.95, t_gsv=1.32, t_gei=1.21, t_c=1.05,
                     t_43=0.97, q=0.61, epsilon=0.93),
        # t_gei deliberately missing
        ParameterSet(record_id="R4", event_id="EV1990A", component="V",
                     t_ms=0.31, t_mean=0.30, t_cen=0.28, q=0.41,
                     epsilon=0.88),
    ]


class TestParameterTable:
    def test_csv_has_full_column_set(self, tmp_path):
        p = tmp_path / "params.csv"
        write_parameter_table(table_sets(), p)
        header = p.read_text().splitlines()[0].split(",")
        assert header == TABLE_HEADER
        assert len(header) == 14

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip(self, tmp_path, fmt):
        p = tmp_path / f"params.{fmt}"
        write_parameter_table(table_sets(), p, fmt=fmt,
                              meta={"damping": "0.05"})
        back, meta = read_parameter_table(p, fmt=fmt)
        assert back == table_sets()
        assert meta["damping"] == "0.05"

    def test_missing_value_stays_empty(self, tmp_path):
        p = tmp_path / "params.csv"
        write_parameter_table(table_sets(), p)
        rows = p.read_text().splitlines()
        gei_col = TABLE_HEADER.index("t_gei")
        assert rows[2].split(",")[gei_col] == ""
        back, _ = read_parameter_table(p)
        assert back[1].t_gei is None

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown table format"):
            write_parameter_table(table_sets(), tmp_path / "t", fmt="xml")


class TestGeojsonMap:
    def test_feature_geometry_and_value(self):
        sets = [ParameterSet(record_id="R1", event_id="EV1977",
                             component="H", t_cen=0.8)]
        doc = emit_geojson_map(sets, demo_catalog(), "t_cen")
        assert doc["type"] == "FeatureCollection"
        feat, = doc["features"]
        # GeoJSON wants (lon, lat), not (lat, lon)
        assert feat["geometry"]["coordinates"] == [26.12, 44.44]
        assert feat["properties"]["value"] == 0.8
        assert feat["properties"]["station_code"] == "INC"

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            emit_geojson_map([], demo_catalog(), "pga")

    def test_event_filter(self):
        sets = [ParameterSet(record_id="R1", event_id="EV1977",
                             component="H", t_cen=0.8),
                ParameterSet(record_id="R3", event_id="EV1986",
                             component="H", t_cen=0.5)]
        doc = emit_geojson_map(sets, demo_catalog(), "t_cen",
                               event_id="EV1986")
        feat, = doc["features"]
        assert feat["properties"]["event_id"] == "EV1986"

    def test_combine_horizontal_takes_max(self):
        sets = [ParameterSet(record_id="R1", event_id="EV1977",
                             component="H", t_cen=0.8),
                ParameterSet(record_id="R2", event_id="EV1977",
                             component="H", t_cen=1.1)]
        doc = emit_geojson_map(sets, demo_catalog(), "t_cen",
                               combine_horizontal=True)
        feat, = doc["features"]
        assert feat["properties"]["value"] == 1.1

    def test_vertical_passes_through_combine(self):
        sets = [ParameterSet(record_id="R3", event_id="EV1986",
                             component="H", t_cen=0.5),
                ParameterSet(record_id="R4", event_id="EV1990A",
                             component="V", t_cen=0.3)]
        doc = emit_geojson_map(sets, demo_catalog(), "t_cen",
                               combine_horizontal=True)
        assert len(doc["features"]) == 2

    def test_station_without_coordinates_fails_loudly(self):
        sets = [ParameterSet(record_id="R5", event_id="EV1990B",
                             component="H", t_cen=0.7)]
        with pytest.raises(DanglingReferenceError,
                           match="stations without coordinates: BLD"):
            emit_geojson_map(sets, demo_catalog(), "t_cen")

    def test_no_matching_records(self):
        sets = [ParameterSet(record_id="R1", event_id="EV1977",
                             component="H", t_ms=0.9)]
        with pytest.raises(ValueError, match="no matching records"):
            emit_geojson_map(sets, demo_catalog(), "t_cen")

    def test_set_without_catalog_record(self):
        sets = [ParameterSet(record_id="RX", event_id="EV1977",
                             component="H", t_cen=0.9)]
        with pytest.raises(DanglingReferenceError, match="RX"):
            emit_geojson_map(sets, demo_catalog(), "t_cen")

    def test_deterministic_feature_order(self):
        sets = [ParameterSet(record_id=r, event_id=e, component="H",
                             t_cen=v)
                for r, e, v in [("R3", "EV1986", 0.5), ("R1", "EV1977", 0.8),
                                ("R2", "EV1977", 1.1)]]
        doc = emit_geojson_map(sets, demo_catalog(), "t_cen")
        order = [f["properties"]["station_code"] for f in doc["features"]]
        assert order == ["INC", "INC", "MAG"]
        ids = [f["properties"]["event_id"] for f in doc["features"]]
        assert ids == ["EV1977", "EV1977", "EV1986"]

    def test_meta_is_a_foreign_member(self):
        sets = [ParameterSet(record_id="R1", event_id="EV1977",
                             component="H", t_cen=0.8)]
        doc = emit_geojson_map(sets, demo_catalog(), "t_cen",
                               meta={"tool": "quakespec"})
        assert doc["meta"] == {"tool": "quakespec"}
        json.dumps(doc)  # must be serializable as-is
