"""Batch command-line surface: qc -> rewire -> resist -> train.

A command's handler reads its inputs, computes, creates --out only after
every input is read, writes its outputs there and nowhere else, and returns
``(out, parameters)``. :func:`main` then writes ``manifest.json`` last,
recording those effective parameters, the input paths and the wall time
since the handler started. Exit codes: 0 success, 2 input error,
3 computation error, 64 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adjacency import (ADJACENCY_KINDS, AdjacencyMatrix, RewireConfig,
                        build_adjacency, read_adjacency_csv, write_adjacency_csv)
from .errors import (CsvFormatError, CycleDetected, DuplicateEdge,
                     NonpositiveLength, RiverDenseError, UnknownStation)
from .forecast import (ForecastModel, ForecastTask, TrainConfig, nse_by_horizon,
                       prepare_dataset, save_model, train)
from .network import (RiverNetwork, read_edge_csv, text_lines, topological_distances,
                      write_edge_csv)
from .preprocess import (DEFAULT_COLUMN_MAP, HOUR, GaugeSeries, GaugeTally, extract_subgraph,
                         parse_timestamp, qc_station, read_gauge_csv, write_qc_json)
from .resistance import resistance_report, write_report_csv, write_report_json

_INPUT_ERRORS = (CsvFormatError, CycleDetected, DuplicateEdge, NonpositiveLength,
                 UnknownStation, FileNotFoundError, IsADirectoryError,
                 NotADirectoryError, ValueError)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64, not argparse's default 2; -1e-3 is a value, not an option
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

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
    qc.add_argument("--config", default=None, help="INI config ([column_map] only)")
    qc.add_argument("--period-start", default=None, help="ISO-8601 start of the study period")
    qc.add_argument("--period-end", default=None, help="ISO-8601 end (exclusive)")
    qc.add_argument("--out", required=True, help="output directory")

    rw = sub.add_parser("rewire", help="build an adjacency matrix from a network")
    rw.add_argument("--edges", required=True)
    rw.add_argument("--kind", choices=ADJACENCY_KINDS, default="dense")
    rw.add_argument("--sigma", default="auto", help="kernel bandwidth in km, or 'auto'")
    rw.add_argument("--prune", type=float, default=0.0, help="zero kernel weights below this")
    rw.add_argument("--out", required=True)

    rs = sub.add_parser("resist", help="effective-resistance report for an adjacency")
    rs.add_argument("--adjacency", required=True, help="coordinate-list CSV src,dst,weight")
    rs.add_argument("--meta", default=None, help="metadata JSON (default: the one beside it)")
    rs.add_argument("--mode", choices=("symmetric", "random-walk"), default="symmetric")
    rs.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="train and score the message-passing forecaster")
    tr.add_argument("--edges", required=True)
    tr.add_argument("--gauges", required=True)
    tr.add_argument("--adjacency", default=None, help="load adjacency CSV instead of building one")
    tr.add_argument("--kind", choices=ADJACENCY_KINDS, default="dense")
    tr.add_argument("--sigma", default="auto")
    tr.add_argument("--config", default=None)
    tr.add_argument("--history", type=int, default=24, help="input window length (hours)")
    tr.add_argument("--horizon", type=int, default=24, help="forecast steps (hours)")
    tr.add_argument("--latent", type=int, default=32)
    tr.add_argument("--layers", type=int, default=3)
    tr.add_argument("--epochs", type=int, default=100)
    tr.add_argument("--lr", type=float, default=2e-3)
    tr.add_argument("--optimizer", choices=("adam",), default="adam")
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
    conflict = _ignored_flag(args)
    if conflict:
        parser.error(conflict)
    handler = {"qc": cmd_qc, "rewire": cmd_rewire,
               "resist": cmd_resist, "train": cmd_train}[args.command]
    try:
        for flag in ("gauges", "out"):  # Path("") is the working directory
            if getattr(args, flag, None) == "":
                raise ValueError(f"--{flag} is an empty path")
        started = time.perf_counter()
        out, parameters = handler(args)
        _write_manifest(out, args, parameters, started)
        return 0
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

def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, parameters: dict, started: float) -> None:
    """``out/manifest.json``; its inputs are the command's --edges, --gauges and
    --adjacency, in that order, where given."""
    inputs = (getattr(args, flag, None) for flag in ("edges", "gauges", "adjacency"))
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "config_path": getattr(args, "config", None),
        "input_paths": [str(p) for p in inputs if p is not None],
        "output_dir": str(out),
        "seed": getattr(args, "seed", None),
        "wall_clock_seconds": round(time.perf_counter() - started, 6),
        "parameters": parameters,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n",
                                       encoding="utf-8")


def _read_gauge_dir(gauge_dir, column_map, keep=lambda gauge: gauge) -> tuple[dict, dict]:
    """``keep`` of every station's series, taken as each file is read, plus the
    manifest's ingest counts: rows read and files that took the row-by-row
    reader."""
    gauge_dir = Path(gauge_dir)
    if not gauge_dir.is_dir():
        raise NotADirectoryError(f"gauge directory {gauge_dir} does not exist or is not a "
                                 "directory")
    files = sorted(gauge_dir.glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no stations found in {gauge_dir}")
    kept, sources, rows, fallbacks = {}, {}, 0, []
    for path in files:
        gauge = read_gauge_csv(path, column_map, fallbacks=fallbacks)
        if gauge.station in sources:
            raise ValueError(f"gauge files {sources[gauge.station]} and {path} both hold "
                             f"station {gauge.station}")
        kept[gauge.station], sources[gauge.station] = keep(gauge), path
        rows += len(gauge)
        del gauge  # not held while the next file is read
    return kept, {"rows_ingested": rows, "row_loop_files": len(fallbacks)}


def _read_stations(path) -> RiverNetwork:
    """The network in edge CSV ``path``, refused when it has no station to rewire or train."""
    net = read_edge_csv(path)
    if not net.n:
        raise ValueError(f"edge file {path} has no edges, so no stations")
    return net


def _ignored_flag(args) -> str | None:
    """A usage error for a flag the chosen mode would silently ignore."""
    if args.command == "rewire" and args.kind in ("topology", "isolated") and args.prune > 0:
        return f"--prune applies to the dense and learned kinds, not --kind {args.kind}"
    if args.command == "train" and args.adjacency is not None and args.sigma != "auto":
        return "--sigma cannot be combined with --adjacency, whose weights are used as loaded"
    return None


def _rewire(net, kind: str, sigma: str, prune: float = 0.0) -> AdjacencyMatrix:
    """The adjacency of one kind; its ``sigma`` is the bandwidth it used."""
    try:
        sigma = float(sigma)
    except ValueError:
        pass  # 'auto', or text RewireConfig refuses naming --sigma
    return build_adjacency(net, topological_distances(net),
                           RewireConfig(sigma=sigma, kind=kind, epsilon_prune=prune))


def _period_bound(args, bound: str) -> tuple[str | None, np.datetime64 | None, str]:
    """The study period's start or end as given by --period-<bound>, as parsed,
    and where it came from: the flag, else (None, None) and the gauge data's
    union span that ``cmd_qc`` falls back to. A value that does not parse, an
    empty one included, raises ValueError naming the flag."""
    text = getattr(args, f"period_{bound}")
    if text is None:
        return None, None, "the gauge data's union span"
    try:
        return text, parse_timestamp(text), f"--period-{bound}"
    except ValueError as exc:
        raise ValueError(f"--period-{bound}: {exc}") from None


def _column_map(path) -> dict[str, str]:
    """The gauge column names: the defaults, overridden by the ``[column_map]``
    section of the INI file ``path`` when one is given. Values are taken
    literally, ``%`` included; any other section (``[DEFAULT]`` too) or option,
    bytes that are not UTF-8 and malformed lines raise ValueError at file:line."""
    cmap = dict(DEFAULT_COLUMN_MAP)
    if path is None:
        return cmap
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file {path} does not exist or is not a file")
    config = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        config.read_file(text_lines(path), source=str(path))
    except CsvFormatError as exc:
        raise ValueError(f"config file {exc}") from None
    except configparser.Error as exc:
        # a missing header or a repeat carries .lineno; ParsingError lists its lines
        line = getattr(exc, "lineno", None) or exc.errors[0][0]
        reason = (exc.message.splitlines()[0].split("]: ")[-1] if hasattr(exc, "lineno")
                  else "expected a [section] header or an option = value line")
        raise ValueError(f"config file {path}:{line}: {reason}") from None
    for section in config.sections():
        if section != "column_map":
            raise ValueError(f"config file {path}: unknown section [{section}], expected "
                             "[column_map]")
        for option, value in config.items(section):
            if option not in cmap:
                raise ValueError(f"config file {path}: unknown option {option!r} in "
                                 "[column_map], expected " + " or ".join(DEFAULT_COLUMN_MAP))
            cmap[option] = value
    return cmap


# ---------------------------------------------------------------------------
# commands

def cmd_qc(args) -> tuple[Path, dict]:
    cmap = _column_map(args.config)
    net = read_edge_csv(args.edges)
    tallies, ingest = _read_gauge_dir(args.gauges, cmap, keep=GaugeTally)

    start_text, start, start_source = _period_bound(args, "start")
    end_text, end, end_source = _period_bound(args, "end")
    if start is None or end is None:
        # fall back to the union span of all series, end exclusive
        spans = [t.span for t in tallies.values() if t.span is not None]
        if not spans:
            raise ValueError("no gauge file has a data row to take the study period from; "
                             "pass --period-start and --period-end")
        if start is None:
            start = min(first for first, _ in spans)
            start_text = str(start)
        if end is None:
            # the first slot of start's hour grid after the last stamp, so none lies past it
            last = max(last for _, last in spans)
            end = start + ((last - start) // HOUR + 1) * HOUR
            end_text = str(end)
    if not start < end:
        raise ValueError(f"study period start {start} ({start_source}) must precede "
                         f"its end {end} ({end_source})")

    # a network node without a gauge file fails by vacuous coverage
    reports = [qc_station(tallies[s] if s in tallies else GaugeTally(GaugeSeries(s, [], [])),
                          start, end)
               for s in sorted(set(tallies) | set(net.nodes))]
    keep = {r.station for r in reports if r.passed} & set(net.nodes)
    filtered = extract_subgraph(net, keep)

    out = _outdir(args)
    write_qc_json(reports, out / "qc_report.json")
    write_edge_csv(filtered, out / "network_filtered.csv")
    return out, {"period_start": start_text, "period_end": end_text, "column_map": cmap,
                 "stations_in": len(reports), "stations_kept": len(keep), **ingest}


def cmd_rewire(args) -> tuple[Path, dict]:
    net = _read_stations(args.edges)
    adj = _rewire(net, args.kind, args.sigma, args.prune)

    out = _outdir(args)
    written = write_adjacency_csv(adj, out / "adjacency.csv", net.nodes)
    return out, {"kind": args.kind, "sigma": args.sigma, "sigma_resolved": adj.sigma,
                 "prune": args.prune, "n": adj.n, "nnz": adj.nnz, **written}


def cmd_resist(args) -> tuple[Path, dict]:
    w, order, source = read_adjacency_csv(args.adjacency, meta=args.meta)
    if not order:
        raise ValueError(f"adjacency file {args.adjacency} has no entries and no meta lists "
                         "its stations")

    report = resistance_report(w, mode=args.mode)
    out = _outdir(args)
    write_report_json(report, out / "resistance.json")
    write_report_csv(report, out / "resistance_hist.csv")
    return out, {"mode": args.mode, "n": report.n, "mean": report.mean,
                 "excluded_pairs": report.excluded_pairs, "adjacency_source": source,
                 "nodes": order,
                 "numerics": {"components": report.components, "solver": report.solver,
                              "pinv_residual": report.pinv_residual}}


def cmd_train(args) -> tuple[Path, dict]:
    cmap = _column_map(args.config)
    net = _read_stations(args.edges)
    series, ingest = _read_gauge_dir(args.gauges, cmap)

    missing = [node for node in net.nodes if node not in series]
    if missing:
        raise FileNotFoundError(f"no gauge series for stations {missing}")

    # stack observations as (T, N, C); all stations must share the time axis and channels
    ordered = [series[node] for node in net.nodes]
    first, base = ordered[0], ordered[0].timestamps
    for gauge in ordered[1:]:
        if len(gauge) != len(first) or np.any(gauge.timestamps != base):
            raise ValueError(f"station {gauge.station} timestamps differ from "
                             f"station {first.station}")
        differ = set(gauge.features) ^ set(first.features)
        if differ:
            has, lacks = (gauge, first) if min(differ) in gauge.features else (first, gauge)
            raise ValueError(f"station {has.station} has channel {min(differ)!r}, "
                             f"station {lacks.station} does not")
    channel_names = ["discharge"] + sorted(first.features)
    features = np.stack(
        [np.stack([g.channels()[c] for c in channel_names], axis=1) for g in ordered],
        axis=1)  # (T, N, C)
    if not np.isfinite(features).all():
        t, i, c = np.argwhere(~np.isfinite(features))[0]  # the first hour holding one
        raise ValueError(f"station {ordered[i].station} channel {channel_names[c]!r} has a "
                         f"non-finite value at {base[t]}")
    task = ForecastTask(alpha_hist=args.history, beta_horizon=args.horizon,
                        feature_dim=len(channel_names))

    source = None
    if args.adjacency is not None:
        w, _, source = read_adjacency_csv(args.adjacency, nodes=net.nodes)
        adj = AdjacencyMatrix(args.kind, w,
                              support=net.edge_mask() if args.kind == "topology" else None)
    else:
        adj = _rewire(net, args.kind, args.sigma)

    (x_tr, y_tr), (x_te, y_te) = prepare_dataset(features, task, args.train_frac,
                                                 args.stride)

    model = ForecastModel(task, adj, latent=args.latent, n_layers=args.layers,
                          seed=args.seed)
    result = train(model, (x_tr, y_tr),
                   TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed))
    horizon_nse = nse_by_horizon(model, x_te, y_te)

    out = _outdir(args)
    with (out / "metrics.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write("horizon,adjacency_kind,seed,nse\n")
        for step, score in enumerate(horizon_nse, start=1):
            fh.write(f"{step},{adj.kind},{args.seed},{repr(float(score))}\n")
    with (out / "train_log.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write("epoch,lr,mae,clipped_batches\n")
        for epoch, (lr, mae, clipped) in enumerate(
                zip(result.lrs.tolist(), result.losses.tolist(), result.clipped.tolist()),
                start=1):
            fh.write(f"{epoch},{lr!r},{mae!r},{clipped}\n")
    save_model(model, out / "checkpoint.json")
    return out, {"kind": adj.kind, "sigma_resolved": adj.sigma, "adjacency_source": source,
                 "history": args.history, "horizon": args.horizon,
                 "latent": args.latent, "layers": args.layers,
                 "epochs": args.epochs, "lr": args.lr,
                 "optimizer": args.optimizer, "stride": args.stride,
                 "train_frac": args.train_frac,
                 "train_windows": int(x_tr.shape[0]), "test_windows": int(x_te.shape[0]),
                 "final_train_mae": float(result.losses[-1]),
                 "channels": channel_names, **ingest}
