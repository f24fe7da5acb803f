"""File formats: waveforms, record catalogs, parameter tables, maps.

Two deliberately simple text formats carry waveforms (the source
dataset is not distributed, so converters are expected):

    two_column_text   whitespace-separated "time acceleration" rows
    csv               optional "# key=value" comment lines, a
                      "dt=<seconds>" header, one sample per line

A catalog is a directory with events.csv, stations.csv and records.csv
(fixed headers).  Parameter tables round-trip through CSV or JSON, and
per-station parameter values can be emitted as a GeoJSON
FeatureCollection with (lon, lat) coordinate order.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .signal_core import Accelerogram, UNIT_FACTORS
from .stats import PARAM_ORDER, ParameterSet, component_type

# Relative tolerance on successive time steps in two_column_text files.
DT_UNIFORMITY_RTOL = 1e-6

WAVEFORM_FORMATS = ("two_column_text", "csv")

EVENTS_HEADER = ["id", "date", "mw", "depth_km"]
STATIONS_HEADER = ["code", "name", "lat", "lon"]
RECORDS_HEADER = ["record_id", "event_id", "station_code", "component",
                  "path", "units"]

COMPONENTS = ("H1", "H2", "V")


class EmptyFileError(ValueError):
    """Waveform file contains no samples."""


class MalformedRecordError(ValueError):
    """Waveform or catalog file contains unparsable content."""


class NonUniformSamplingError(ValueError):
    """Time column of a two-column waveform is not uniformly stepped."""


class DuplicateIdError(ValueError):
    """Catalog declares the same identifier twice."""


class DanglingReferenceError(ValueError):
    """Catalog record points at an unknown event or station."""


@dataclass(frozen=True)
class Event:
    id: str
    date: str  # ISO 8601
    mw: float
    depth_km: float

    def __post_init__(self):
        if not self.mw > 0.0:
            raise ValueError(f"event {self.id}: mw must be positive")
        if not self.depth_km > 0.0:
            raise ValueError(f"event {self.id}: depth_km must be positive")


@dataclass(frozen=True)
class Station:
    """One recording site.  Coordinates may be absent (None); a map
    request touching such a station fails loudly instead of guessing."""

    code: str
    name: str
    lat: float | None
    lon: float | None

    def __post_init__(self):
        if (self.lat is None) != (self.lon is None):
            raise ValueError(f"station {self.code}: lat and lon must come together")
        if self.lat is not None and not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"station {self.code}: lat out of [-90, 90]")
        if self.lon is not None and not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"station {self.code}: lon out of [-180, 180]")


@dataclass(frozen=True)
class RecordEntry:
    record_id: str
    event_id: str
    station_code: str
    component: str
    path: str
    units_in: str

    def __post_init__(self):
        if self.component not in COMPONENTS:
            raise ValueError(
                f"record {self.record_id}: component must be one of {COMPONENTS}")
        if self.units_in not in UNIT_FACTORS:
            raise ValueError(
                f"record {self.record_id}: unknown units {self.units_in!r}")


@dataclass(frozen=True)
class Catalog:
    events: dict
    stations: dict
    records: tuple


def _data_lines(path):
    """Non-empty, non-comment lines of a text file."""
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                yield line


def load_accelerogram(path, fmt: str, units_in: str = "m/s2",
                      label: str = "") -> Accelerogram:
    """Read a waveform file; values are converted to m/s² on load."""
    if fmt not in WAVEFORM_FORMATS:
        raise ValueError(f"unknown waveform format {fmt!r}")
    if fmt == "two_column_text":
        times, values = [], []
        for line in _data_lines(path):
            parts = line.split()
            if len(parts) != 2:
                raise MalformedRecordError(f"{path}: expected 't a' rows, got {line!r}")
            try:
                times.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError:
                raise MalformedRecordError(f"{path}: unparsable row {line!r}") from None
        if not values:
            raise EmptyFileError(f"{path}: no samples")
        if len(values) < 2:
            raise MalformedRecordError(f"{path}: need at least 2 samples")
        t = np.asarray(times)
        dt = t[1] - t[0]
        if not dt > 0.0:
            raise NonUniformSamplingError(f"{path}: non-increasing time column")
        steps = np.diff(t)
        if np.any(np.abs(steps - dt) > DT_UNIFORMITY_RTOL * dt):
            raise NonUniformSamplingError(
                f"{path}: non-uniform sampling (dt varies beyond "
                f"{DT_UNIFORMITY_RTOL:g} relative)")
        return Accelerogram.from_samples(float(dt), values, units_in=units_in,
                                         label=label or os.path.basename(path))

    # csv format: "dt=<seconds>" then one sample per line
    lines = list(_data_lines(path))
    if not lines:
        raise EmptyFileError(f"{path}: empty file")
    if not lines[0].startswith("dt="):
        raise MalformedRecordError(f"{path}: first data line must be dt=<seconds>")
    try:
        dt = float(lines[0][3:])
    except ValueError:
        raise MalformedRecordError(f"{path}: bad dt header {lines[0]!r}") from None
    try:
        values = [float(ln) for ln in lines[1:]]
    except ValueError:
        raise MalformedRecordError(f"{path}: unparsable sample line") from None
    if not values:
        raise EmptyFileError(f"{path}: no samples")
    if len(values) < 2:
        raise MalformedRecordError(f"{path}: need at least 2 samples")
    return Accelerogram.from_samples(dt, values, units_in=units_in,
                                     label=label or os.path.basename(path))


def write_accelerogram(acc: Accelerogram, path, fmt: str = "csv",
                       meta: dict | None = None):
    """Write a waveform in m/s²; reading it back reproduces the samples."""
    if fmt not in WAVEFORM_FORMATS:
        raise ValueError(f"unknown waveform format {fmt!r}")
    with open(path, "w") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key}={value}\n")
        if fmt == "csv":
            fh.write(f"dt={acc.dt!r}\n")
            for v in acc.samples:
                fh.write(f"{float(v)!r}\n")
        else:
            for i, v in enumerate(acc.samples):
                fh.write(f"{float(i * acc.dt)!r} {float(v)!r}\n")


def _read_csv_rows(path, header):
    with open(path, newline="") as fh:
        reader = csv.reader(ln for ln in fh if not ln.startswith("#"))
        rows = [r for r in reader if r]
    if not rows or rows[0] != header:
        raise MalformedRecordError(
            f"{path}: expected header {','.join(header)}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise MalformedRecordError(f"{path}: bad row {row}")
    return rows[1:]


def load_catalog(path) -> Catalog:
    """Load events.csv, stations.csv and records.csv from a directory.

    Waveform paths are interpreted relative to the catalog directory.
    Cross-references are validated; duplicate ids are rejected.
    """
    events = {}
    for row in _read_csv_rows(os.path.join(path, "events.csv"), EVENTS_HEADER):
        ev = Event(id=row[0], date=row[1], mw=float(row[2]), depth_km=float(row[3]))
        if ev.id in events:
            raise DuplicateIdError(f"duplicate event id {ev.id!r}")
        events[ev.id] = ev

    stations = {}
    for row in _read_csv_rows(os.path.join(path, "stations.csv"), STATIONS_HEADER):
        st = Station(code=row[0], name=row[1],
                     lat=float(row[2]) if row[2] else None,
                     lon=float(row[3]) if row[3] else None)
        if st.code in stations:
            raise DuplicateIdError(f"duplicate station code {st.code!r}")
        stations[st.code] = st

    records = []
    seen = set()
    for row in _read_csv_rows(os.path.join(path, "records.csv"), RECORDS_HEADER):
        rec = RecordEntry(record_id=row[0], event_id=row[1], station_code=row[2],
                          component=row[3], path=row[4], units_in=row[5])
        if rec.record_id in seen:
            raise DuplicateIdError(f"duplicate record id {rec.record_id!r}")
        seen.add(rec.record_id)
        if rec.event_id not in events:
            raise DanglingReferenceError(
                f"record {rec.record_id}: unknown event {rec.event_id!r}")
        if rec.station_code not in stations:
            raise DanglingReferenceError(
                f"record {rec.record_id}: unknown station {rec.station_code!r}")
        records.append(rec)

    return Catalog(events=events, stations=stations, records=tuple(records))


def write_catalog(cat: Catalog, path):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "events.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EVENTS_HEADER)
        for ev in cat.events.values():
            w.writerow([ev.id, ev.date, repr(ev.mw), repr(ev.depth_km)])
    with open(os.path.join(path, "stations.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(STATIONS_HEADER)
        for st in cat.stations.values():
            w.writerow([st.code, st.name,
                        "" if st.lat is None else repr(st.lat),
                        "" if st.lon is None else repr(st.lon)])
    with open(os.path.join(path, "records.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORDS_HEADER)
        for rec in cat.records:
            w.writerow([rec.record_id, rec.event_id, rec.station_code,
                        rec.component, rec.path, rec.units_in])


TABLE_HEADER = ["record_id", "event_id", "component", *PARAM_ORDER]


def write_parameter_table(sets, path, fmt: str = "csv", meta: dict | None = None):
    """Persist parameter sets; missing values stay empty/null, never 0."""
    sets = list(sets)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            for key, value in (meta or {}).items():
                fh.write(f"# {key}={value}\n")
            writer = csv.writer(fh)
            writer.writerow(TABLE_HEADER)
            for s in sets:
                row = [s.record_id, s.event_id, s.component]
                row += ["" if s.get(p) is None else repr(s.get(p))
                        for p in PARAM_ORDER]
                writer.writerow(row)
    elif fmt == "json":
        doc = {
            "meta": dict(meta or {}),
            "parameter_sets": [
                {"record_id": s.record_id, "event_id": s.event_id,
                 "component": s.component, **s.params()}
                for s in sets
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown table format {fmt!r}")


def read_parameter_table(path, fmt: str = "csv"):
    """Inverse of write_parameter_table; returns (sets, meta)."""
    if fmt == "csv":
        meta = {}
        with open(path, newline="") as fh:
            lines = fh.readlines()
        for ln in lines:
            if ln.startswith("# ") and "=" in ln:
                key, _, value = ln[2:].rstrip("\n").partition("=")
                meta[key] = value
        rows = [r for r in csv.reader(ln for ln in lines if not ln.startswith("#")) if r]
        if not rows or rows[0] != TABLE_HEADER:
            raise MalformedRecordError(f"{path}: expected parameter table header")
        sets = []
        for row in rows[1:]:
            if len(row) != len(TABLE_HEADER):
                raise MalformedRecordError(f"{path}: bad row {row}")
            values = {p: (None if cell == "" else float(cell))
                      for p, cell in zip(PARAM_ORDER, row[3:])}
            sets.append(ParameterSet(record_id=row[0], event_id=row[1],
                                     component=row[2], **values))
        return sets, meta
    if fmt == "json":
        with open(path) as fh:
            doc = json.load(fh)
        entries = doc.get("parameter_sets") if isinstance(doc, dict) else None
        if not isinstance(entries, list):
            raise MalformedRecordError(
                f"{path}: expected an object holding a parameter_sets list")
        try:
            sets = [ParameterSet(**entry) for entry in entries]
        except TypeError as exc:  # not an object, or unknown/missing keys
            raise MalformedRecordError(f"{path}: bad parameter set: {exc}") from None
        return sets, doc.get("meta", {})
    raise ValueError(f"unknown table format {fmt!r}")


def emit_geojson_map(sets, catalog: Catalog, param_name: str,
                     event_id: str | None = None,
                     combine_horizontal: bool = False,
                     meta: dict | None = None) -> dict:
    """Per-station parameter values as a GeoJSON FeatureCollection.

    One Point feature per record component carrying the value; with
    combine_horizontal the H components at one station (same event)
    collapse to their maximum.  Coordinates are (lon, lat).
    """
    if param_name not in PARAM_ORDER:
        raise ValueError(f"unknown parameter {param_name!r}")
    entries = {r.record_id: r for r in catalog.records}

    rows = []
    missing_stations = []
    for s in sets:
        if s.get(param_name) is None:
            continue
        if event_id is not None and s.event_id != event_id:
            continue
        rec = entries.get(s.record_id)
        if rec is None:
            raise DanglingReferenceError(
                f"parameter set {s.record_id!r} has no catalog record")
        station = catalog.stations.get(rec.station_code)
        if station is None or station.lat is None:
            missing_stations.append(rec.station_code)
            continue
        rows.append((station, s))
    if missing_stations:
        raise DanglingReferenceError(
            "stations without coordinates: " + ", ".join(sorted(set(missing_stations))))
    if not rows:
        raise ValueError("no matching records")

    if combine_horizontal:
        merged = {}
        passthrough = []
        for station, s in rows:
            if s.component == "H":
                key = (station.code, s.event_id)
                prev = merged.get(key)
                if prev is None or s.get(param_name) > prev[1].get(param_name):
                    merged[key] = (station, s)
            else:
                passthrough.append((station, s))
        rows = list(merged.values()) + passthrough

    rows.sort(key=lambda r: (r[0].code, r[1].record_id))
    features = []
    for station, s in rows:
        features.append({
            "type": "Feature",
            "geometry": {
                "type": "Point",
                "coordinates": [station.lon, station.lat],
            },
            "properties": {
                "station_code": station.code,
                "event_id": s.event_id,
                "param_name": param_name,
                "value": s.get(param_name),
                "component": s.component,
            },
        })
    doc = {"type": "FeatureCollection", "features": features}
    if meta:
        doc["meta"] = dict(meta)
    return doc
