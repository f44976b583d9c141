"""Batch command-line surface: qc -> rewire -> resist -> train.

Every command writes all outputs, plus a manifest JSON recording the
effective parameters, into its --out directory and nowhere else. Exit codes:
0 success, 2 input error, 3 computation error, 64 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adjacency import (AdjacencyMatrix, RewireConfig, build_adjacency,
                        read_adjacency_csv, resolve_sigma, write_adjacency_csv,
                        write_adjacency_meta)
from .errors import (CsvFormatError, CycleDetected, DuplicateEdge,
                     NonpositiveLength, RiverDenseError, UnknownStation)
from .forecast import (ForecastModel, ForecastTask, TrainConfig, nse_by_horizon,
                       prepare_dataset, save_model, train)
from .network import (distance_path, read_edge_csv, topological_distances,
                      write_edge_csv)
from .preprocess import (DEFAULT_COLUMN_MAP, HOUR, QCReport, _as_datetime64,
                         extract_subgraph, qc_station, read_gauge_csv,
                         write_qc_json)
from .resistance import resistance_report, write_report_csv, write_report_json

_INPUT_ERRORS = (CsvFormatError, CycleDetected, DuplicateEdge, NonpositiveLength,
                 UnknownStation, FileNotFoundError, NotADirectoryError, ValueError)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riverdense",
                     description="River-network rewiring, resistance diagnostics "
                                 "and desk-scale forecast evaluation.")
    parser.add_argument("--version", action="version", version=f"riverdense {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    qc = sub.add_parser("qc", help="screen gauges and emit the filtered network")
    qc.add_argument("--edges", required=True, help="edge CSV (src,dst,stream_length_km,elevation_diff_m)")
    qc.add_argument("--gauges", required=True, help="directory of per-station CSV files")
    qc.add_argument("--config", default=None, help="INI config (column_map, period)")
    qc.add_argument("--period-start", default=None, help="ISO-8601 start of the study period")
    qc.add_argument("--period-end", default=None, help="ISO-8601 end (exclusive)")
    qc.add_argument("--out", required=True, help="output directory")

    rw = sub.add_parser("rewire", help="build an adjacency matrix from a network")
    rw.add_argument("--edges", required=True)
    rw.add_argument("--kind", choices=("isolated", "topology", "dense", "learned"),
                    default="dense")
    rw.add_argument("--sigma", default="auto", help="kernel bandwidth in km, or 'auto'")
    rw.add_argument("--prune", type=float, default=0.0, help="zero kernel weights below this")
    rw.add_argument("--out", required=True)

    rs = sub.add_parser("resist", help="effective-resistance report for an adjacency")
    rs.add_argument("--adjacency", required=True, help="coordinate-list CSV src,dst,weight")
    rs.add_argument("--meta", default=None, help="metadata JSON (defaults to sibling *_meta.json)")
    rs.add_argument("--mode", choices=("symmetric", "random-walk"), default="symmetric")
    rs.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="train and score the message-passing forecaster")
    tr.add_argument("--edges", required=True)
    tr.add_argument("--gauges", required=True)
    tr.add_argument("--adjacency", default=None, help="load adjacency CSV instead of building one")
    tr.add_argument("--kind", choices=("isolated", "topology", "dense", "learned"),
                    default="dense")
    tr.add_argument("--sigma", default="auto")
    tr.add_argument("--config", default=None)
    tr.add_argument("--history", type=int, default=24, help="input window length (hours)")
    tr.add_argument("--horizon", type=int, default=24, help="forecast steps (hours)")
    tr.add_argument("--latent", type=int, default=32)
    tr.add_argument("--layers", type=int, default=3)
    tr.add_argument("--epochs", type=int, default=100)
    tr.add_argument("--lr", type=float, default=2e-3)
    tr.add_argument("--optimizer", choices=("gd", "adam"), default="gd")
    tr.add_argument("--stride", type=int, default=1, help="window stride in hours")
    tr.add_argument("--train-frac", type=float, default=0.7)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 64
    handler = {"qc": cmd_qc, "rewire": cmd_rewire,
               "resist": cmd_resist, "train": cmd_train}[args.command]
    try:
        return handler(args)
    except _INPUT_ERRORS as exc:
        print(f"riverdense {args.command}: input error: {exc}", file=sys.stderr)
        return 2
    except RiverDenseError as exc:
        print(f"riverdense {args.command}: computation error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# helpers

def _load_config(path) -> configparser.ConfigParser:
    config = configparser.ConfigParser()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"config file {path} does not exist")
        config.read(path)
    return config


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, inputs: list, parameters: dict, started: float) -> None:
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "config_path": getattr(args, "config", None),
        "input_paths": [str(p) for p in inputs],
        "output_dir": str(out),
        "seed": getattr(args, "seed", None),
        "wall_clock_seconds": round(time.perf_counter() - started, 6),
        "parameters": parameters,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       encoding="utf-8")


def _read_gauge_dir(gauge_dir, column_map) -> dict[int, object]:
    gauge_dir = Path(gauge_dir)
    if not gauge_dir.is_dir():
        raise NotADirectoryError(f"gauge directory {gauge_dir} does not exist")
    files = sorted(gauge_dir.glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no stations found in {gauge_dir}")
    series = {}
    for path in files:
        gauge = read_gauge_csv(path, column_map)
        series[gauge.station] = gauge
    return series


def _column_map(config: configparser.ConfigParser) -> dict[str, str]:
    cmap = dict(DEFAULT_COLUMN_MAP)
    if config.has_section("column_map"):
        for key in ("timestamp", "discharge"):
            if config.has_option("column_map", key):
                cmap[key] = config.get("column_map", key)
    return cmap


# ---------------------------------------------------------------------------
# commands

def cmd_qc(args) -> int:
    started = time.perf_counter()
    out = _outdir(args)
    config = _load_config(args.config)
    cmap = _column_map(config)
    net = read_edge_csv(args.edges)
    series = _read_gauge_dir(args.gauges, cmap)

    period_start = args.period_start or config.get("period", "start", fallback=None)
    period_end = args.period_end or config.get("period", "end", fallback=None)
    if period_start is None or period_end is None:
        # fall back to the union span of all series, end exclusive
        all_min = min(s.timestamps.min() for s in series.values() if len(s))
        all_max = max(s.timestamps.max() for s in series.values() if len(s))
        period_start = period_start or str(all_min)
        period_end = period_end or str(all_max + np.timedelta64(1, "h"))

    reports = [qc_station(series[s], period_start, period_end) for s in sorted(series)]

    # network nodes without any gauge file fail by vacuous coverage
    span = int((_as_datetime64(period_end) - _as_datetime64(period_start)) // HOUR)
    for node in net.nodes:
        if node not in series:
            reports.append(QCReport(node, negative_count=0, missing_hours=span))
    reports.sort(key=lambda r: r.station)

    keep = {r.station for r in reports if r.passed} & set(net.nodes)
    filtered = extract_subgraph(net, keep)

    write_qc_json(reports, out / "qc_report.json")
    write_edge_csv(filtered, out / "network_filtered.csv")
    _write_manifest(out, args, [args.edges, args.gauges],
                    {"period_start": str(period_start), "period_end": str(period_end),
                     "column_map": cmap,
                     "stations_in": len(reports), "stations_kept": len(keep)},
                    started)
    return 0


def cmd_rewire(args) -> int:
    started = time.perf_counter()
    out = _outdir(args)
    net = read_edge_csv(args.edges)
    distances = topological_distances(net)
    sigma = args.sigma if args.sigma == "auto" else float(args.sigma)
    config = RewireConfig(sigma=sigma, kind=args.kind, epsilon_prune=args.prune)
    adj = build_adjacency(net, distances, config)
    resolved = None if args.kind == "isolated" else resolve_sigma(distances, sigma)

    write_adjacency_csv(adj, out / "adjacency.csv", nodes=net.nodes)
    write_adjacency_meta(adj, out / "adjacency_meta.json", sigma=resolved, nodes=net.nodes)
    _write_manifest(out, args, [args.edges],
                    {"kind": args.kind, "sigma": args.sigma,
                     "sigma_resolved": resolved, "prune": args.prune, "n": adj.n,
                     "nnz": adj.nnz, "distance_path": distance_path(net)},
                    started)
    return 0


def cmd_resist(args) -> int:
    started = time.perf_counter()
    out = _outdir(args)
    adj_path = Path(args.adjacency)
    if not adj_path.exists():
        raise FileNotFoundError(f"adjacency file {adj_path} does not exist")

    meta_path = Path(args.meta) if args.meta else adj_path.with_name(
        adj_path.stem + "_meta.json")
    nodes = None
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        nodes = meta.get("nodes")
    w, order = read_adjacency_csv(adj_path, nodes=nodes)

    report = resistance_report(w, mode=args.mode)
    write_report_json(report, out / "resistance.json")
    write_report_csv(report, out / "resistance_hist.csv")
    _write_manifest(out, args, [str(adj_path)],
                    {"mode": args.mode, "n": report.n, "mean": report.mean,
                     "excluded_pairs": report.excluded_pairs,
                     "nodes": order},
                    started)
    return 0


def cmd_train(args) -> int:
    started = time.perf_counter()
    out = _outdir(args)
    config = _load_config(args.config)
    cmap = _column_map(config)
    net = read_edge_csv(args.edges)
    series = _read_gauge_dir(args.gauges, cmap)

    missing = [node for node in net.nodes if node not in series]
    if missing:
        raise FileNotFoundError(f"no gauge series for stations {missing}")

    # stack observations as (T, N, C); all stations must share the time axis
    ordered = [series[node] for node in net.nodes]
    base = ordered[0].timestamps
    for gauge in ordered[1:]:
        if len(gauge) != len(ordered[0]) or np.any(gauge.timestamps != base):
            raise ValueError(f"station {gauge.station} timestamps differ from "
                             f"station {ordered[0].station}")
    channel_names = ["discharge"] + sorted(ordered[0].features)
    features = np.stack(
        [np.stack([g.channels()[c] for c in channel_names], axis=1) for g in ordered],
        axis=1)  # (T, N, C)
    task = ForecastTask(alpha_hist=args.history, beta_horizon=args.horizon,
                        feature_dim=len(channel_names))

    if args.adjacency:
        adj_path = Path(args.adjacency)
        if not adj_path.exists():
            raise FileNotFoundError(f"adjacency file {adj_path} does not exist")
        w, _ = read_adjacency_csv(adj_path, nodes=net.nodes)
        kind = args.kind
        adj = AdjacencyMatrix(kind, w, support=(w > 0) if kind == "topology" else None)
    else:
        distances = topological_distances(net)
        adj = build_adjacency(net, distances,
                              RewireConfig(sigma=args.sigma if args.sigma == "auto"
                                           else float(args.sigma), kind=args.kind))

    (x_tr, y_tr), (x_te, y_te) = prepare_dataset(features, task, args.train_frac,
                                                 args.stride)

    model = ForecastModel(task, adj, latent=args.latent, n_layers=args.layers,
                          seed=args.seed)
    train_cfg = TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed,
                            optimizer=args.optimizer)
    result = train(model, (x_tr, y_tr), train_cfg)
    horizon_nse = nse_by_horizon(model, x_te, y_te)

    with (out / "metrics.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write("horizon,adjacency_kind,seed,nse\n")
        for step, score in enumerate(horizon_nse, start=1):
            fh.write(f"{step},{adj.kind},{args.seed},{repr(float(score))}\n")
    save_model(model, out / "checkpoint.json")
    _write_manifest(out, args, [p for p in (args.edges, args.gauges, args.adjacency) if p],
                    {"kind": adj.kind, "history": args.history, "horizon": args.horizon,
                     "latent": args.latent, "layers": args.layers,
                     "epochs": args.epochs, "lr": args.lr,
                     "optimizer": args.optimizer, "stride": args.stride,
                     "train_frac": args.train_frac,
                     "train_windows": int(x_tr.shape[0]),
                     "test_windows": int(x_te.shape[0]),
                     "final_train_mae": float(result.losses[-1]),
                     "distance_path": None if args.adjacency else distance_path(net),
                     "channels": channel_names},
                    started)
    return 0
