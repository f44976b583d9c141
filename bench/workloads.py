"""Command sequences of the three workloads and their output checks.

The checks use only the standard library and numpy, never riverdense: each
compares an output file with a value the benchmark derives on its own from
the inputs it wrote (a tree walk, a hop count, a row sum).
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

WORKLOADS = ("gauge_year", "dense_graph", "forecast_lab")
HORIZON = 12
TRAIN_ARGS = ["--history", "24", "--horizon", str(HORIZON), "--stride", "2",
              "--epochs", "30", "--optimizer", "adam"]
TRAIN_KINDS = ("isolated", "dense", "learned")


class Step(NamedTuple):
    """One CLI command and the check of what it wrote."""

    argv: list[str]
    check: Callable[[], None]  # raises CheckFailed


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def plan(workload: str, inputs: Path, out: Path, seed: int, expect: dict) -> list[Step]:
    edges = str(inputs / "edges.csv")
    gauges = str(inputs / "gauges")
    if workload == "gauge_year":
        qc = out / "qc"
        return [Step(["qc", "--edges", edges, "--gauges", gauges, "--out", str(qc)],
                     lambda: check_qc(inputs, qc, set(expect["corrupted"])))]

    if workload == "dense_graph":
        tree = read_edges(inputs / "edges.csv")
        n = len(tree_nodes(tree))
        topo, dense = out / "rewire_topology", out / "rewire_dense"

        def resist(adj: Path, mode: str, name: str, check) -> Step:
            target = out / name
            return Step(["resist", "--adjacency", str(adj / "adjacency.csv"),
                         "--mode", mode, "--out", str(target)], lambda: check(target))

        return [
            Step(["rewire", "--edges", edges, "--kind", "topology", "--out", str(topo)],
                 lambda: check_topology_adjacency(topo, tree)),
            resist(topo, "symmetric", "resist_topology", lambda r: check_tree_resistance(r, tree)),
            resist(topo, "random-walk", "resist_topology_rw", lambda r: check_resistance(r, n)),
            Step(["rewire", "--edges", edges, "--kind", "dense", "--out", str(dense)],
                 lambda: check_dense_adjacency(dense, n)),
            resist(dense, "symmetric", "resist_dense", lambda r: check_resistance(r, n)),
        ]

    if workload == "forecast_lab":
        qc, rewire, resist = out / "qc", out / "rewire", out / "resist"
        filtered = str(qc / "network_filtered.csv")
        n = len(tree_nodes(read_edges(inputs / "edges.csv")))
        steps = [
            Step(["qc", "--edges", edges, "--gauges", gauges, "--out", str(qc)],
                 lambda: check_qc(inputs, qc, set())),
            Step(["rewire", "--edges", filtered, "--kind", "dense", "--out", str(rewire)],
                 lambda: check_dense_adjacency(rewire, n)),
            Step(["resist", "--adjacency", str(rewire / "adjacency.csv"), "--out", str(resist)],
                 lambda: check_resistance(resist, n)),
        ]
        for kind in TRAIN_KINDS:
            target = out / f"train_{kind}"
            # dense reads the rewired CSV; isolated and learned build their own
            adjacency = ["--adjacency", str(rewire / "adjacency.csv")] if kind == "dense" else []
            argv = ["train", "--edges", filtered, "--gauges", gauges, *adjacency, "--kind", kind,
                    *TRAIN_ARGS, "--seed", str(seed), "--out", str(target)]
            steps.append(Step(argv, lambda t=target, k=kind: check_train(t, k, n)))
        return steps

    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def figures(workload: str, out: Path) -> dict[str, tuple[float, str]]:
    """The workload's headline numbers, read from checked outputs."""
    if workload == "dense_graph":
        topo = read_json(out / "resist_topology" / "resistance.json")["mean"]
        dense = read_json(out / "resist_dense" / "resistance.json")["mean"]
        return {"resistance_drop": (topo / dense, "ratio")}
    if workload == "forecast_lab":
        far = {kind: read_nse(out / f"train_{kind}")[HORIZON] for kind in TRAIN_KINDS}
        return {"nse_far_dense": (far["dense"], "nse"),
                "nse_far_margin": (far["dense"] - far["isolated"], "nse")}
    return {}


# -- file readers -------------------------------------------------------------

def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_edges(path: Path) -> dict[tuple[int, int], tuple[float, float]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["src", "dst", "stream_length_km", "elevation_diff_m"],
             f"{path}: unexpected header")
    return {(int(r[0]), int(r[1])): (float(r[2]), float(r[3])) for r in rows[1:] if r}


def tree_nodes(tree) -> set[int]:
    return {node for pair in tree for node in pair}


def read_nse(train_dir: Path) -> dict[int, float]:
    with (train_dir / "metrics.csv").open(newline="", encoding="utf-8") as fh:
        return {int(r["horizon"]): float(r["nse"]) for r in csv.DictReader(fh)}


# -- checks -------------------------------------------------------------------

def check_qc(inputs: Path, qc: Path, corrupted: set[int]) -> None:
    """Exactly the corrupted stations fail, and every surviving edge spans
    the original channel path between two kept stations."""
    tree = read_edges(inputs / "edges.csv")
    report = read_json(qc / "qc_report.json")
    stations = {r["station"] for r in report}
    _require(stations == tree_nodes(tree), "qc report does not cover every station")
    failed = {r["station"] for r in report if not r["passed"]}
    _require(failed == corrupted,
             f"failed stations {sorted(failed)}, corrupted {sorted(corrupted)}")

    downstream = {src: (dst, length, elev) for (src, dst), (length, elev) in tree.items()}
    expected = {}
    for station in stations - corrupted:
        length = elev = 0.0
        node = station
        while node in downstream:
            node, step_length, step_elev = downstream[node]
            length += step_length
            elev += step_elev
            if node not in corrupted:
                expected[(station, node)] = (length, elev)
                break
    got = read_edges(qc / "network_filtered.csv")
    _require(set(got) == set(expected),
             f"filtered edges differ: {sorted(set(got) ^ set(expected))[:5]}")
    for pair, (length, elev) in expected.items():
        _require(math.isclose(got[pair][0], length, rel_tol=1e-12)
                 and math.isclose(got[pair][1], elev, rel_tol=1e-12, abs_tol=1e-9),
                 f"edge {pair} carries {got[pair]}, path gives {(length, elev)}")


def _read_adjacency(rewire: Path) -> np.ndarray:
    return np.loadtxt(rewire / "adjacency.csv", delimiter=",", skiprows=1, ndmin=2)


def check_topology_adjacency(rewire: Path, tree) -> None:
    """Out-degree 1 makes every physical edge carry weight exactly 1."""
    data = _read_adjacency(rewire)
    pairs = {(int(s), int(d)) for s, d in data[:, :2]}
    _require(pairs == set(tree) and len(pairs) == len(data), "topology support != edges")
    _require(bool(np.all(data[:, 2] == 1.0)), "topology weights are not all 1")


def check_dense_adjacency(rewire: Path, n: int) -> None:
    """Rows read back sum to 1 within 1e-12 over a zero diagonal."""
    data = _read_adjacency(rewire)
    ids = np.unique(data[:, :2])
    _require(ids.size == n, f"adjacency covers {ids.size} of {n} stations")
    _require(bool(np.all(data[:, 0] != data[:, 1])), "dense adjacency has a self-loop")
    rows = np.bincount(np.searchsorted(ids, data[:, 0]), weights=data[:, 2], minlength=n)
    _require(bool(np.all(np.abs(rows - 1.0) <= 1e-12)),
             f"row sums off by up to {np.max(np.abs(rows - 1.0)):.3g}")


def check_resistance(resist: Path, n: int) -> dict:
    report = read_json(resist / "resistance.json")
    _require(report["n"] == n and report["excluded_pairs"] == 0,
             f"resistance report n={report['n']} excluded={report['excluded_pairs']}")
    _require(math.isfinite(report["mean"]) and report["mean"] > 0,
             f"mean resistance {report['mean']}")
    return report


def check_tree_resistance(resist: Path, tree) -> None:
    """Symmetrized unit-weight edges conduct 1/2, so on a tree the mean
    resistance is twice the mean hop count over all pairs."""
    nodes = tree_nodes(tree)
    report = check_resistance(resist, len(nodes))
    downstream = {src: dst for src, dst in tree}
    below = defaultdict(int)  # nodes upstream of each edge, keyed by its source
    for node in nodes:
        while node in downstream:
            below[node] += 1
            node = downstream[node]
    n = len(nodes)
    hops = sum(s * (n - s) for s in below.values()) / (n * (n - 1) / 2)
    _require(math.isclose(report["mean"], 2.0 * hops, rel_tol=1e-6),
             f"mean resistance {report['mean']}, expected 2 x {hops}")


def check_train(train_dir: Path, kind: str, n: int) -> None:
    """metrics.csv has one finite score per horizon step, and the checkpoint
    parses with every array matching its shape header."""
    with (train_dir / "metrics.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == HORIZON and all(r["adjacency_kind"] == kind for r in rows),
             f"metrics.csv has {len(rows)} rows for kind {kind}")
    _require([int(r["horizon"]) for r in rows] == list(range(1, HORIZON + 1))
             and all(math.isfinite(float(r["nse"])) for r in rows), "non-finite NSE")
    checkpoint = read_json(train_dir / "checkpoint.json")
    _require(checkpoint.get("adjacency_kind") == kind, "checkpoint kind differs")
    adjacency = np.asarray(checkpoint["adjacency"], dtype=float)
    _require(adjacency.shape == (n, n), f"checkpoint adjacency {adjacency.shape}")
    for name, values in checkpoint["params"].items():
        arr = np.asarray(values, dtype=float)
        _require(list(arr.shape) == checkpoint["shapes"][name]
                 and bool(np.all(np.isfinite(arr))), f"checkpoint param {name} malformed")
