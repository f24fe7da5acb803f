"""Seeded inputs for the benchmark workloads.

A workload is a catalog directory written at run time with quakespec's
own writers: seeded filtered-noise records (``synth.generate``) spread
over events, stations and components, and, in ``catalog_short``, a fixed
share of degenerate records whose outcome is known in advance.  Beside
it sit the same records split into BATCH_CHUNKS sub-catalogs, so batch
passes can be interleaved with the other measurements, and a seeded
parameter table with one row per healthy record for the cold
``correlate`` and ``map`` commands, so those need no analysis first.
The same workload and seed always give the same files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from quakespec.catalog_io import (Catalog, Event, RecordEntry, Station,
                                  write_accelerogram, write_catalog,
                                  write_parameter_table)
from quakespec.signal_core import UNIT_FACTORS, Accelerogram
from quakespec.stats import PARAM_ORDER, ParameterSet, component_type
from quakespec.synth import SynthSpec, generate

from measure import null_span

COMPONENTS = ("H1", "H2", "V")
UNITS = ("m/s2", "cm/s2", "g")

# Record kinds and the outcome the benchmark expects for each:
#   ok         loads, and analyze_record computes all eleven parameters
#   zero       all-zero samples: loads, every parameter missing with a
#              warning, absent from the parameter table
#   malformed  one unparsable sample line: load raises a ValueError,
#              batch warns and skips the record
OK, ZERO, MALFORMED = "ok", "zero", "malformed"

BATCH_CHUNKS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    n_records: int
    n_samples: int
    dt: float
    n_events: int
    n_stations: int
    n_zero: int
    n_malformed: int
    latency_analyses: int  # load plus analyze_record calls timed one by one
    trace_healthy: int     # healthy records in the traced subset


WORKLOADS = {
    # Fixed per-record cost paid in Python under the lock: the 200-period
    # response loop with many sub-stepped periods, effective peaks and the
    # loader dominate, so threads barely scale.
    "catalog_short": Workload("catalog_short", n_records=120, n_samples=4000,
                              dt=0.01, n_events=12, n_stations=10,
                              n_zero=2, n_malformed=2, latency_analyses=102,
                              trace_healthy=32),
    # lfilter and the PSD peak scan dominate, so threads do scale and
    # fixed per-period cuts predict little change.
    "record_long": Workload("record_long", n_records=16, n_samples=36000,
                            dt=0.005, n_events=2, n_stations=8,
                            n_zero=0, n_malformed=0, latency_analyses=40,
                            trace_healthy=8),
}


@dataclass(frozen=True)
class RecordInfo:
    record_id: str
    event_id: str
    station: str
    component: str
    path: str      # absolute
    fmt: str       # csv or two_column_text
    units: str
    kind: str


@dataclass(frozen=True)
class Inputs:
    catalog_dir: str
    records: tuple  # RecordInfo, in records.csv order
    chunks: tuple   # (sub-catalog directory, its RecordInfo tuple)
    table: str      # seeded parameter table of the healthy records

    def of_kind(self, kind):
        return [r for r in self.records if r.kind == kind]

    def subset(self, n_healthy):
        """Every degenerate record plus the first n_healthy healthy ones,
        in catalog order: the same composition for every seed."""
        keep = {r.record_id for r in self.of_kind(OK)[:n_healthy]}
        return [r for r in self.records if r.kind != OK or r.record_id in keep]

    def latency_set(self, n_analyses):
        """Records to time one by one: the degenerate ones, then healthy
        ones in catalog order, cycling when the catalog has fewer, until
        n_analyses of them load and reach analyze_record."""
        healthy = self.of_kind(OK)
        n = n_analyses - len(self.of_kind(ZERO))
        return ([r for r in self.records if r.kind != OK]
                + [healthy[i % len(healthy)] for i in range(n)])


def generate_inputs(wl: Workload, seed: int, root: str,
                    span=null_span) -> Inputs:
    """Write the workload's inputs for ``seed`` under ``root``.

    ``span(name, record_id)`` is entered around each ``synth.generate``
    call, so a traced run can time the generator.
    """
    rng = np.random.default_rng(seed)
    out_dir = os.path.join(root, "catalog")
    wf_dir = os.path.join(out_dir, "wf")
    os.makedirs(wf_dir, exist_ok=True)

    events = {}
    for k in range(wl.n_events):
        ev = Event(id=f"e{k + 1:02d}", date=f"2010-{k % 12 + 1:02d}-15",
                   mw=round(float(rng.uniform(4.0, 7.5)), 1),
                   depth_km=round(float(rng.uniform(5.0, 150.0)), 1))
        events[ev.id] = ev
    stations = {}
    for k in range(wl.n_stations):
        st = Station(code=f"S{k + 1:02d}", name=f"station {k + 1}",
                     lat=round(float(rng.uniform(44.0, 48.0)), 4),
                     lon=round(float(rng.uniform(21.0, 29.0)), 4))
        stations[st.code] = st

    # Each event gets the same number of records, filled station by
    # station with all three components, so (event, station, component)
    # is unique and every event keeps enough healthy rows to correlate.
    per_event = wl.n_records // wl.n_events
    slots = []
    for ev in events:
        order = rng.permutation(wl.n_stations)
        pairs = [(f"S{s + 1:02d}", c) for s in order for c in COMPONENTS]
        slots.extend((ev, st, c) for st, c in pairs[:per_event])

    # Degenerate records sit in distinct events, one per event.
    n_bad = wl.n_zero + wl.n_malformed
    bad_events = rng.choice(wl.n_events, size=n_bad, replace=False)
    kinds = [OK] * len(slots)
    for j, e in enumerate(bad_events):
        idx = int(e) * per_event + int(rng.integers(per_event))
        kinds[idx] = ZERO if j < wl.n_zero else MALFORMED

    duration = wl.n_samples * wl.dt
    records, entries = [], []
    for i, ((ev, st, comp), kind) in enumerate(zip(slots, kinds)):
        rid = f"{ev}-{st}-{comp}"
        fn = math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
        zeta = float(rng.uniform(0.2, 0.4))
        peak = float(rng.uniform(0.5, 3.0))
        noise_seed = int(rng.integers(2 ** 62))
        units = UNITS[int(rng.integers(len(UNITS)))]
        fmt = "two_column_text" if i % 4 == 3 else "csv"
        if kind != OK:
            units, fmt = "m/s2", "csv"
        rel = os.path.join("wf", rid + (".csv" if fmt == "csv" else ".txt"))
        path = os.path.join(out_dir, rel)

        if kind == ZERO:
            acc = Accelerogram(dt=wl.dt, samples=np.zeros(wl.n_samples))
        else:
            spec = SynthSpec(kind="filtered_noise", dt=wl.dt,
                             duration=duration, amplitudes=(peak,),
                             natural_freq=fn, filter_damping=zeta,
                             seed=noise_seed)
            with span("synth.generate", rid):
                acc = generate(spec)
        scaled = Accelerogram(dt=acc.dt,
                              samples=acc.samples / UNIT_FACTORS[units])
        write_accelerogram(scaled, path, fmt=fmt,
                           meta={"source": "quakespec benchmark",
                                 "workload": wl.name, "seed": seed})
        if kind == MALFORMED:
            _corrupt(path, int(rng.integers(2, wl.n_samples)))

        records.append(RecordInfo(rid, ev, st, comp, path, fmt, units, kind))
        entries.append(RecordEntry(record_id=rid, event_id=ev,
                                   station_code=st, component=comp,
                                   path=rel, units_in=units))

    write_catalog(Catalog(events=events, stations=stations,
                          records=tuple(entries)), out_dir)

    chunks = []
    size = math.ceil(len(entries) / BATCH_CHUNKS)
    for k in range(0, len(entries), size):
        chunk_dir = os.path.join(root, f"chunk_{k // size}")
        part = [replace(e, path=os.path.relpath(r.path, chunk_dir))
                for e, r in zip(entries[k:k + size], records[k:k + size])]
        write_catalog(Catalog(events=events, stations=stations,
                              records=tuple(part)), chunk_dir)
        chunks.append((chunk_dir, tuple(records[k:k + size])))

    table = os.path.join(root, "parameters.csv")
    _write_table(records, np.random.default_rng([seed, 1]), table)
    return Inputs(catalog_dir=out_dir, records=tuple(records),
                  chunks=tuple(chunks), table=table)


def _write_table(records, rng, path):
    """Plausible values: periods log-uniform in 0.1-5 s, q and epsilon in
    [0.5, 1).  correlate and map cost depends on the rows, not the values."""
    sets = []
    for rec in records:
        if rec.kind != OK:
            continue
        values = {p: float(np.exp(rng.uniform(np.log(0.1), np.log(5.0))))
                  for p in PARAM_ORDER[:9]}
        values.update(q=float(rng.uniform(0.5, 1.0)),
                      epsilon=float(rng.uniform(0.5, 1.0)))
        sets.append(ParameterSet(record_id=rec.record_id,
                                 event_id=rec.event_id,
                                 component=component_type(rec.component),
                                 **values))
    sets.sort(key=lambda s: s.record_id)
    write_parameter_table(sets, path)


def _corrupt(path: str, line_no: int):
    """Replace one data line with a token no float parser accepts."""
    with open(path) as fh:
        lines = fh.readlines()
    data = [k for k, ln in enumerate(lines) if not ln.startswith("#")]
    lines[data[line_no]] = "0.12.3\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
