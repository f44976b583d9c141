"""Effective resistance, resistance distributions, and the sensitivity bound.

Two Laplacian formulations are available. The symmetric mode symmetrizes the
weights as (W + W^T)/2 and uses L = D - W with plain indicator vectors. The
random-walk mode uses L_rw = I - D_out^{-1} W with indicators scaled by
1/sqrt(d_out). High resistance between two nodes marks a message-passing
bottleneck; the bound turns a resistance into a cap on cross-node influence.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adjacency import AdjacencyMatrix
from .errors import DifferentComponents, MuOutOfRange

EIG_ZERO_RTOL = 1e-10


@dataclass(frozen=True)
class LaplacianBundle:
    """Laplacian, its pseudoinverse, and connectivity labels for one graph."""

    laplacian: np.ndarray
    pseudoinverse: np.ndarray
    component_labels: np.ndarray
    mode: str
    indicator_scale: np.ndarray  # per-node factor applied to indicator vectors

    @property
    def n(self) -> int:
        return self.laplacian.shape[0]


@dataclass(frozen=True)
class ResistanceReport:
    """All-pairs resistances plus distribution statistics for one adjacency."""

    n: int
    mode: str
    pairwise: np.ndarray
    mean: float
    median: float
    p95: float
    histogram: tuple[np.ndarray, np.ndarray]  # (bin_edges, counts)
    excluded_pairs: int


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the layer-r cross-node sensitivity bound.

    alpha_model and beta_model are model-dependent constants, mu relates to
    the spectrum of the normalized adjacency; none of them is derived here,
    callers supply all values explicitly.
    """

    r: int
    alpha_model: float
    beta_model: float
    d_max: int
    d_min: int
    mu: float

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"layer count r must be >= 1, got {self.r}")
        if not (self.alpha_model > 0 and self.beta_model > 0):
            raise ValueError("alpha_model and beta_model must be positive")
        if not (0 < self.d_min <= self.d_max):
            raise ValueError(f"need 0 < d_min <= d_max, got {self.d_min}, {self.d_max}")
        if self.mu >= 1 or self.mu < 0:
            raise MuOutOfRange(f"mu must lie in [0, 1), got {self.mu}")


def _weights(adj) -> np.ndarray:
    w = adj.w if isinstance(adj, AdjacencyMatrix) else np.asarray(adj, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"adjacency must be a square matrix, got shape {w.shape}")
    if np.any(w < 0):
        raise ValueError("adjacency weights must be nonnegative")
    return w


def _component_labels(support: np.ndarray) -> np.ndarray:
    n = support.shape[0]
    labels = np.full(n, -1, dtype=int)
    undirected = support | support.T
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(undirected[u]):
                if labels[v] < 0:
                    labels[v] = current
                    stack.append(int(v))
        current += 1
    return labels


def _eigh_pinv(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    cutoff = EIG_ZERO_RTOL * max(np.abs(vals).max(), 1e-300)
    inv = np.divide(1.0, vals, out=np.zeros_like(vals), where=np.abs(vals) >= cutoff)
    return (vecs * inv) @ vecs.T


def _svd_pinv(mat: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(mat)
    cutoff = EIG_ZERO_RTOL * max(s.max(initial=0.0), 1e-300)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s >= cutoff)
    return (vt.T * inv) @ u.T


def graph_laplacian(adj, mode: str = "symmetric") -> LaplacianBundle:
    """Build the Laplacian and its Moore-Penrose pseudoinverse.

    Parameters
    ----------
    adj : AdjacencyMatrix or ndarray
        Nonnegative weight matrix.
    mode : {'symmetric', 'random-walk'}
        'symmetric' uses L = D - (W + W^T)/2 and an eigendecomposition;
        'random-walk' uses L_rw = I - D_out^{-1} W and an SVD, since L_rw is
        asymmetric. The outlet has no outgoing weight; a zero out-degree
        always counts as 1, both in D_out^{-1} and in indicator scaling.
    """
    w = _weights(adj)
    n = w.shape[0]
    labels = _component_labels(w != 0)

    if mode == "symmetric":
        sym = 0.5 * (w + w.T)
        lap = np.diag(sym.sum(axis=1)) - sym
        pinv = _eigh_pinv(lap)
        scale = np.ones(n)
    elif mode == "random-walk":
        d_out = w.sum(axis=1)
        d_out = np.where(d_out == 0, 1.0, d_out)
        lap = np.eye(n) - w / d_out[:, None]
        pinv = _svd_pinv(lap)
        scale = 1.0 / np.sqrt(d_out)
    else:
        raise ValueError(f"mode must be 'symmetric' or 'random-walk', got {mode!r}")

    lap.flags.writeable = False
    pinv.flags.writeable = False
    labels.flags.writeable = False
    scale.flags.writeable = False
    return LaplacianBundle(laplacian=lap, pseudoinverse=pinv,
                           component_labels=labels, mode=mode, indicator_scale=scale)


def effective_resistance(bundle: LaplacianBundle, u: int, v: int) -> float:
    """Resistance between matrix positions u and v under the bundle's mode."""
    if u == v:
        raise ValueError("effective resistance needs two distinct nodes")
    if bundle.component_labels[u] != bundle.component_labels[v]:
        raise DifferentComponents(
            f"nodes {u} and {v} sit in different components; resistance is infinite")
    x = np.zeros(bundle.n)
    x[u] = bundle.indicator_scale[u]
    x[v] = -bundle.indicator_scale[v]
    return float(x @ bundle.pseudoinverse @ x)


def pairwise_resistances(bundle: LaplacianBundle) -> np.ndarray:
    """Full resistance matrix; +inf across components, zero diagonal."""
    m = bundle.pseudoinverse
    s = bundle.indicator_scale
    q = np.diag(m) * s * s
    r = q[:, None] + q[None, :] - (m + m.T) * np.outer(s, s)
    np.fill_diagonal(r, 0.0)
    r = np.maximum(r, 0.0)  # clamp -1e-17-style eigensolver noise
    cross = bundle.component_labels[:, None] != bundle.component_labels[None, :]
    r[cross] = np.inf
    return r


def resistance_report(adj, mode: str = "symmetric", bins: int = 50) -> ResistanceReport:
    """Evaluate every unordered pair and summarize the distribution.

    Disconnected adjacencies are summarized over the largest component; pairs
    outside it are reported in ``excluded_pairs`` and left infinite in the
    pairwise matrix.
    """
    bundle = graph_laplacian(adj, mode=mode)
    n = bundle.n
    r = pairwise_resistances(bundle)

    labels = bundle.component_labels
    sizes = np.bincount(labels)
    main = int(np.argmax(sizes))  # ties resolve to the lowest label
    members = np.flatnonzero(labels == main)
    iu, ju = np.triu_indices(len(members), k=1)
    vals = r[members[iu], members[ju]]
    total_pairs = n * (n - 1) // 2
    excluded = total_pairs - vals.size

    if vals.size == 0:
        edges = np.linspace(0.0, 1.0, bins + 1)
        counts = np.zeros(bins, dtype=int)
        mean = median = p95 = float("nan")
    else:
        top = float(vals.max())
        edges = np.linspace(0.0, top if top > 0 else 1.0, bins + 1)
        counts, _ = np.histogram(vals, bins=edges)
        mean = float(vals.mean())
        median = float(np.median(vals))
        p95 = float(np.percentile(vals, 95))

    return ResistanceReport(n=n, mode=mode, pairwise=r, mean=mean, median=median,
                            p95=p95, histogram=(edges, counts), excluded_pairs=excluded)


def report_to_json(report: ResistanceReport) -> dict:
    edges, counts = report.histogram
    return {
        "n": report.n,
        "mode": report.mode,
        "mean": report.mean,
        "median": report.median,
        "p95": report.p95,
        "histogram": {"edges": edges.tolist(), "counts": counts.tolist()},
        "excluded_pairs": report.excluded_pairs,
    }


def write_report_json(report: ResistanceReport, path) -> None:
    Path(path).write_text(json.dumps(report_to_json(report), indent=2) + "\n",
                          encoding="utf-8")


def write_report_csv(report: ResistanceReport, path) -> None:
    """Two-column histogram export: left bin edge, count."""
    edges, counts = report.histogram
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_edge", "count"])
        for edge, count in zip(edges[:-1], counts):
            writer.writerow([repr(float(edge)), int(count)])


def jacobian_bound(params: BoundParams, resistance: float) -> float:
    """Cap on how strongly node v's input can move node u's layer-r state.

    Evaluates (2 a b)^r * (d_max / 2) * (2 / d_min) *
    ((r + 1 + mu^(r+1)) / (1 - mu) - R). Large resistances drive the bound
    down; a negative value certifies vanishing cross-node sensitivity.
    """
    if resistance < 0:
        raise ValueError(f"resistance must be nonnegative, got {resistance}")
    lead = ((2.0 * params.alpha_model * params.beta_model) ** params.r
            * (params.d_max / 2.0) * (2.0 / params.d_min))
    tail = (params.r + 1 + params.mu ** (params.r + 1)) / (1.0 - params.mu)
    return lead * (tail - resistance)
