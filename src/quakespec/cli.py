"""Command line front end.

Subcommands: analyze, batch, correlate, map, synth.  Exit codes:
0 success, 2 I/O or usage error, 3 analysis failure, 4 not enough
data for the requested statistics.  All outputs are deterministic:
no timestamps, fixed ordering, metadata headers carry the full
configuration so runs can be reproduced and diffed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .catalog_io import (emit_geojson_map, load_accelerogram, load_catalog,
                         read_parameter_table, write_accelerogram,
                         write_parameter_table)
from .pipeline import (RunConfig, analyze_catalog, analyze_record,
                       batch_summary, guess_waveform_format)
from .stats import (PARAM_ORDER, classification_counts, correlation_matrix,
                    read_r2_matrix_csv, write_report_csv, write_report_json)
from .synth import SynthSpec, generate

EXIT_OK = 0
EXIT_IO = 2
EXIT_ANALYSIS = 3
EXIT_INSUFFICIENT = 4


def _add_config_flags(p):
    p.add_argument("--damping", type=float, default=0.05,
                   help="oscillator damping ratio (default 0.05)")
    p.add_argument("--t-min", type=float, default=0.02,
                   help="shortest oscillator period, s")
    p.add_argument("--t-max", type=float, default=5.0,
                   help="longest oscillator period, s")
    p.add_argument("--grid-n", type=int, default=200,
                   help="number of oscillator periods")
    p.add_argument("--max-df", type=float, default=0.05,
                   help="coarsest admissible frequency step, Hz")
    p.add_argument("--smoothing-bins", type=int, default=5,
                   help="moving-average width for peak picking")
    p.add_argument("--cutoff-hz", type=float, default=None,
                   help="upper frequency bound for spectral moments")
    p.add_argument("--taper", choices=["hann"], default=None,
                   help="optional window applied before the transform")


def _config(args, jobs: int = 1) -> RunConfig:
    return RunConfig(damping=args.damping, t_min=args.t_min, t_max=args.t_max,
                     grid_n=args.grid_n, max_df=args.max_df,
                     smoothing_bins=args.smoothing_bins,
                     cutoff_hz=args.cutoff_hz, taper=args.taper,
                     jobs=jobs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quakespec",
        description="Period parameters of strong-motion accelerograms.")
    parser.add_argument("--version", action="version",
                        version=f"quakespec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="one record in, parameter set out")
    p.add_argument("waveform", help="path to the record")
    p.add_argument("--format", choices=["auto", "csv", "two_column_text"],
                   default="auto", help="waveform format (auto: by extension)")
    p.add_argument("--units", choices=["m/s2", "cm/s2", "g"], default="m/s2")
    p.add_argument("--record-id", default="")
    p.add_argument("--event-id", default="")
    p.add_argument("--component", choices=["H", "V"], default="H")
    p.add_argument("--out", default=None, help="write JSON here (default stdout)")
    _add_config_flags(p)

    p = sub.add_parser("batch", help="analyze every record of a catalog")
    p.add_argument("catalog", help="catalog directory")
    p.add_argument("--out", default=None,
                   help="parameter table path (default parameters.csv)")
    p.add_argument("--table-format", choices=["auto", "csv", "json"],
                   default="auto")
    p.add_argument("--waveform-format",
                   choices=["auto", "csv", "two_column_text"], default="auto")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads")
    _add_config_flags(p)

    p = sub.add_parser("correlate", help="pairwise fits over a parameter table")
    p.add_argument("table", help="parameter table, or an R2 matrix "
                                 "with --from-matrix")
    p.add_argument("--model", choices=["affine", "proportional"],
                   default="affine")
    p.add_argument("--by", choices=["all", "event"], default="all")
    p.add_argument("--params", default=None,
                   help="comma-separated parameter names (default: all)")
    p.add_argument("--out-dir", default=None,
                   help="write report files here (default: print only)")
    p.add_argument("--from-matrix", action="store_true",
                   help="input is a precomputed R2 matrix CSV")

    p = sub.add_parser("map", help="GeoJSON map of one parameter")
    p.add_argument("table", help="parameter table")
    p.add_argument("catalog", help="catalog directory (station coordinates)")
    p.add_argument("--param", required=True, choices=list(PARAM_ORDER))
    p.add_argument("--event", default=None, help="restrict to one event id")
    p.add_argument("--combine-horizontal", action="store_true",
                   help="collapse H components to their station maximum")
    p.add_argument("--out", default="map.geojson")

    p = sub.add_parser("synth", help="generate a synthetic record")
    p.add_argument("--kind", required=True,
                   choices=["sine", "multisine", "band_noise",
                            "filtered_noise"])
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--dur", type=float, default=40.0)
    p.add_argument("--f0", type=float, default=None,
                   help="sine frequency, Hz (shorthand for --freqs)")
    p.add_argument("--freqs", default="1.0", help="comma-separated Hz")
    p.add_argument("--amps", default="1.0",
                   help="comma-separated amplitudes; first one scales the "
                        "peak of the stochastic kinds")
    p.add_argument("--band", type=float, nargs=2, default=[0.0, 5.0],
                   metavar=("FA", "FB"), help="band edges, Hz")
    p.add_argument("--fn", type=float, default=1.0,
                   help="filter natural frequency, Hz")
    p.add_argument("--zeta", type=float, default=0.3, help="filter damping")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["auto", "csv", "two_column_text"],
                   default="auto")
    return parser


def _float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _param_values(pset) -> dict:
    return {name: pset.get(name) for name in PARAM_ORDER}


def _cmd_analyze(args) -> int:
    cfg = _config(args)
    fmt = args.format
    if fmt == "auto":
        fmt = guess_waveform_format(args.waveform)
    try:
        acc = load_accelerogram(args.waveform, fmt, units_in=args.units,
                                label=args.record_id)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    pset, warnings = analyze_record(acc, record_id=args.record_id,
                                    event_id=args.event_id,
                                    component=args.component, cfg=cfg)
    for name in sorted(warnings):
        print(f"warning: {name}: {warnings[name]}", file=sys.stderr)
    if pset is None:
        print("error: no parameter could be computed", file=sys.stderr)
        return EXIT_ANALYSIS
    doc = {"meta": {**cfg.meta(), "record_id": args.record_id,
                    "event_id": args.event_id, "component": args.component},
           "parameters": _param_values(pset),
           "warnings": {k: warnings[k] for k in sorted(warnings)}}
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_batch(args) -> int:
    try:
        cfg = _config(args, jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cat = load_catalog(args.catalog)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    sets, problems = analyze_catalog(cat, args.catalog, cfg,
                                     waveform_format=args.waveform_format)
    for record_id, message in problems:
        print(f"warning: {record_id}: {message}", file=sys.stderr)
    if not sets:
        print("error: no record could be analyzed", file=sys.stderr)
        return EXIT_ANALYSIS
    out = args.out or "parameters.csv"
    fmt = args.table_format
    if fmt == "auto":
        fmt = "json" if out.lower().endswith(".json") else "csv"
    try:
        write_parameter_table(sets, out, fmt=fmt, meta=cfg.meta())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    for line in batch_summary(sets):
        print(line)
    print(f"wrote {out}")
    return EXIT_OK


def _print_counts(label: str, counts: dict):
    print(f"{label}: {counts['good']} good / {counts['moderate']} moderate / "
          f"{counts['weak']} weak ({counts['missing']} missing)")


def _cmd_correlate(args) -> int:
    if args.from_matrix:
        try:
            params, matrix = read_r2_matrix_csv(args.table)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        _print_counts(f"matrix[{len(params)} params]",
                      classification_counts(params, matrix))
        return EXIT_OK

    fmt = "json" if args.table.lower().endswith(".json") else "csv"
    try:
        sets, meta = read_parameter_table(args.table, fmt=fmt)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    params = _parse_params(args.params)
    if params is None and args.params is not None:
        return EXIT_IO
    try:
        reports = correlation_matrix(sets, params=params, model=args.model,
                                     group_by=args.by)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    wrote = []
    for report in reports:
        counts = report.counts()
        usable = counts["good"] + counts["moderate"] + counts["weak"]
        if usable == 0:
            print(f"error: group {report.group}: fewer than 3 complete "
                  f"pairs for every parameter pair", file=sys.stderr)
            return EXIT_INSUFFICIENT
        _print_counts(f"group={report.group}", counts)
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            meta_out = {"tool": f"quakespec {__version__}",
                        "source": os.path.basename(args.table),
                        "model": report.model, "group": report.group}
            stem = os.path.join(args.out_dir, f"report_{report.group}")
            try:
                write_report_csv(report, stem + ".csv", meta=meta_out)
                write_report_json(report, stem + ".json", meta=meta_out)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_IO
            wrote.extend([stem + ".csv", stem + ".json"])
    for path in wrote:
        print(f"wrote {path}")
    return EXIT_OK


def _parse_params(text):
    if text is None:
        return None
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for name in names:
        if name not in PARAM_ORDER:
            print(f"error: unknown parameter {name!r}; choose from "
                  f"{', '.join(PARAM_ORDER)}", file=sys.stderr)
            return None
    return names


def _cmd_map(args) -> int:
    fmt = "json" if args.table.lower().endswith(".json") else "csv"
    try:
        sets, _ = read_parameter_table(args.table, fmt=fmt)
        cat = load_catalog(args.catalog)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    meta = {"tool": f"quakespec {__version__}", "parameter": args.param,
            "event": args.event or "all",
            "combine_horizontal": args.combine_horizontal}
    try:
        doc = emit_geojson_map(sets, cat, args.param, event_id=args.event,
                               combine_horizontal=args.combine_horizontal,
                               meta=meta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    try:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out} ({len(doc['features'])} features)")
    return EXIT_OK


def _cmd_synth(args) -> int:
    freqs = _float_list(args.freqs)
    if args.f0 is not None:
        freqs = (args.f0,)
    amps = _float_list(args.amps)
    if len(amps) < len(freqs):
        amps = amps + (1.0,) * (len(freqs) - len(amps))
    try:
        spec = SynthSpec(kind=args.kind, dt=args.dt, duration=args.dur,
                         frequencies=freqs, amplitudes=amps,
                         band=tuple(args.band), natural_freq=args.fn,
                         filter_damping=args.zeta, seed=args.seed)
        acc = generate(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    fmt = args.format
    if fmt == "auto":
        fmt = guess_waveform_format(args.out)
    meta = {"tool": f"quakespec {__version__}", "kind": spec.kind,
            "duration": repr(spec.duration),
            "seed": "none" if spec.seed is None else spec.seed}
    if spec.kind in ("sine", "multisine"):
        meta["frequencies"] = ",".join(repr(f) for f in spec.frequencies)
        meta["amplitudes"] = ",".join(repr(a) for a in spec.amplitudes)
    elif spec.kind == "band_noise":
        meta["band"] = f"{spec.band[0]!r}:{spec.band[1]!r}"
    else:
        meta["natural_freq"] = repr(spec.natural_freq)
        meta["filter_damping"] = repr(spec.filter_damping)
    try:
        write_accelerogram(acc, args.out, fmt=fmt, meta=meta)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out} ({acc.n} samples, dt={acc.dt!r})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    handler = {"analyze": _cmd_analyze, "batch": _cmd_batch,
               "correlate": _cmd_correlate, "map": _cmd_map,
               "synth": _cmd_synth}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
