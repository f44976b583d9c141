"""Effective resistance, resistance distributions, and the sensitivity bound.

Two Laplacian formulations are available. The symmetric mode symmetrizes the
weights as (W + W^T)/2 and uses L = D - W with plain indicator vectors; its
pseudoinverse is a grounded inverse per connected component. The random-walk
mode uses L_rw = I - D_out^{-1} W with indicators scaled by 1/sqrt(d_out); its
pseudoinverse is a plain inverse when the support is acyclic and an SVD
otherwise. High resistance between two nodes marks a message-passing
bottleneck; the bound turns a resistance into a cap on cross-node influence.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adjacency import AdjacencyMatrix
from .errors import MuOutOfRange

EIG_ZERO_RTOL = 1e-10  # singular values below this share of the largest count as zero
HIST_BINS = 50  # uniform bins of the resistance histogram over [0, max]
HIST_BLOCK = 1 << 16  # values snapped and counted at a time
SNAP_RTOL = 1e-9  # a resistance this share of the largest from a bin edge is on it


@dataclass(frozen=True)
class LaplacianBundle:
    """Laplacian, its pseudoinverse, and connectivity labels for one graph."""

    laplacian: np.ndarray
    pseudoinverse: np.ndarray
    component_labels: np.ndarray
    mode: str
    indicator_scale: np.ndarray  # per-node factor applied to indicator vectors
    solver: str  # 'grounded-inverse', 'triangular-inverse' or 'svd'

    @property
    def n(self) -> int:
        return self.laplacian.shape[0]


@dataclass(frozen=True)
class ResistanceReport:
    """All-pairs resistances plus distribution statistics for one adjacency."""

    n: int
    mode: str
    pairwise: np.ndarray
    mean: float | None  # None, like median and p95, when the main component has no pair
    median: float | None
    p95: float | None
    histogram: tuple[np.ndarray, np.ndarray]  # (bin_edges, counts)
    excluded_pairs: int
    components: int
    solver: str
    pinv_residual: float  # ||L L+ (L x) - L x|| / ||L x|| for a fixed probe x


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
    if not (np.all(w >= 0) and np.all(np.isfinite(w))):
        raise ValueError("adjacency weights must be finite and nonnegative")
    return w


def _component_labels(support: np.ndarray) -> np.ndarray:
    """Weakly connected components, numbered in order of their lowest node."""
    n = support.shape[0]
    labels = np.full(n, -1, dtype=int)
    undirected = support | support.T
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = current
        frontier = np.zeros(n, dtype=bool)
        frontier[start] = True
        while frontier.any():
            frontier = undirected[frontier].any(axis=0) & (labels < 0)
            labels[frontier] = current
        current += 1
    return labels


def _grounded_pinv(lap: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a symmetric Laplacian, one grounded inverse per component.

    On a connected component of k nodes the null space of L is spanned by the
    all-ones vector, and J/k is the projector onto it. For any a > 0,
    L + aJ/k is nonsingular with inverse L+ + J/(a k), so
    L+ = (L + aJ/k)^-1 - J/(a k); across components L+ is block diagonal.
    a is the component's mean degree, the mean of L's eigenvalues: at most the
    largest and at least (k - 1)/k of the smallest nonzero one. So the
    grounding at most doubles the condition number of L on the range of L,
    and the result scales with the weights. The shift is added to ``lap``
    itself, so a connected ``lap`` comes back shifted by a/k.
    """
    sizes = np.bincount(labels)
    if sizes.size == 1 and sizes[0] > 1:  # one component: no n x n copy through np.ix_
        return _grounded_block(lap)
    pinv = np.zeros_like(lap)
    for component, size in enumerate(sizes):
        if size > 1:  # a lone node's block is 0, with no degree to ground by
            idx = np.ix_(*[np.flatnonzero(labels == component)] * 2)
            pinv[idx] = _grounded_block(lap[idx])
    return pinv


def _grounded_block(lap: np.ndarray) -> np.ndarray:
    k = lap.shape[0]
    a = np.trace(lap) / k
    lap += a / k  # in place: no second n x n array beside LAPACK's copies
    pinv = np.linalg.inv(lap)
    pinv -= 1.0 / (a * k)
    return pinv


def _is_acyclic(support: np.ndarray) -> bool:
    """True when the directed graph i -> j for support[i, j] has no cycle; a
    self-loop is a cycle. Peels nodes whose remaining out-degree is zero."""
    out = support.sum(axis=1)
    alive = np.ones(support.shape[0], dtype=bool)
    while True:
        sinks = alive & (out == 0)
        if not sinks.any():
            return not alive.any()
        alive &= ~sinks
        out -= support[:, sinks].sum(axis=1)


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
        'symmetric' uses L = D - (W + W^T)/2 and a grounded inverse per
        connected component, so the components set the rank.
        'random-walk' uses L_rw = I - D_out^{-1} W. The outlet has no outgoing
        weight; a zero out-degree always counts as 1, both in D_out^{-1} and in
        indicator scaling.

    Notes
    -----
    When the support W != 0 has no directed cycle (a self-loop counts as one),
    L_rw is inverted directly. Order the nodes topologically, so that
    W[i, j] != 0 only for i before j: then P = D_out^{-1} W is strictly upper
    triangular. Every row of L_rw = I - P has diagonal 1 - P[i, i] = 1, as
    there is no self-loop, and an outlet row is e_i, because its zero
    out-degree counts as 1 and its weights are 0. So L_rw is unit triangular,
    det L_rw = 1, and it is nonsingular. P is nilpotent and substochastic, so
    (I - P)^-1 = sum_{k<n} P^k has entries >= 0; entry (i, j) is the expected
    number of visits to j by a walk from i, at most 1 on an acyclic graph, so
    its row and column sums are <= n. With ||L_rw||_inf <= 2 and
    ||L_rw||_1 <= n, cond_2(L_rw) <= 2 n^1.5, which stays far inside
    1 / EIG_ZERO_RTOL for every n a dense matrix can hold: the SVD cutoff
    would drop no singular value, and the inverse is the Moore-Penrose
    pseudoinverse. Cyclic supports, such as the dense and learned kinds, keep
    the SVD, since L_rw is asymmetric and may be singular.
    """
    w = _weights(adj)
    support = w != 0
    labels = _component_labels(support)

    if mode == "symmetric":
        lap = np.add(w, w.T)
        lap *= 0.5
        diagonal = lap.sum(axis=1) - np.diagonal(lap)
        scale = np.ones(w.shape[0])
    elif mode == "random-walk":
        d_out = w.sum(axis=1)
        d_out = np.where(d_out == 0, 1.0, d_out)
        lap = w / d_out[:, None]
        diagonal = 1.0 - np.diagonal(lap)
        scale = 1.0 / np.sqrt(d_out)
    else:
        raise ValueError(f"mode must be 'symmetric' or 'random-walk', got {mode!r}")
    # L = diag(d) - W or I - P, in place: off the diagonal 0.0 - w, +0.0 where w is 0
    np.subtract(0.0, lap, out=lap)
    np.fill_diagonal(lap, diagonal)
    if mode == "symmetric":
        pinv, solver = _grounded_pinv(lap, labels), "grounded-inverse"
        np.add(w, w.T, out=lap)  # L again, bit for bit, after the grounding shifted it
        lap *= 0.5
        np.subtract(0.0, lap, out=lap)
        np.fill_diagonal(lap, diagonal)
    elif _is_acyclic(support):
        pinv, solver = np.linalg.inv(lap), "triangular-inverse"
    else:
        pinv, solver = _svd_pinv(lap), "svd"

    lap.flags.writeable = False
    pinv.flags.writeable = False
    labels.flags.writeable = False
    scale.flags.writeable = False
    return LaplacianBundle(laplacian=lap, pseudoinverse=pinv, component_labels=labels,
                           mode=mode, indicator_scale=scale, solver=solver)


def _pinv_residual(bundle: LaplacianBundle) -> float:
    """||L (L+ (L x)) - L x|| / ||L x|| for a fixed probe x, in O(n^2): how far
    L L+ is from the identity on the range of L. 0 for an empty graph.

    x is the golden-ratio sequence frac(0.618 i) - 1/2: its entries are
    distinct, so it is constant on no component of two or more nodes, and it
    needs no numpy.random, whose first use costs ~20 ms of imports.
    """
    lap = bundle.laplacian
    lx = lap @ (np.modf(np.arange(bundle.n) * 0.6180339887498949)[0] - 0.5)
    norm = float(np.linalg.norm(lx))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(lap @ (bundle.pseudoinverse @ lx) - lx)) / norm


def pairwise_resistances(bundle: LaplacianBundle) -> np.ndarray:
    """Full resistance matrix; +inf across components, zero diagonal."""
    m = bundle.pseudoinverse
    s = bundle.indicator_scale
    q = np.diag(m) * s * s
    r = np.add(m, m.T)  # q_i + q_j - (m + m.T) * s_i s_j, in place
    r *= np.outer(s, s)
    np.subtract(np.add.outer(q, q), r, out=r)
    np.fill_diagonal(r, 0.0)
    np.maximum(r, 0.0, out=r)  # clamp -1e-17-style rounding noise of the pseudoinverse
    cross = bundle.component_labels[:, None] != bundle.component_labels[None, :]
    r[cross] = np.inf
    return r


def resistance_report(adj, mode: str = "symmetric") -> ResistanceReport:
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
    inside = labels == np.argmax(sizes)  # ties resolve to the lowest label
    # pairs i < j of the main component, row by row, through an n^2 bool mask
    vals = r[np.triu(np.logical_and.outer(inside, inside), k=1)]
    total_pairs = n * (n - 1) // 2
    excluded = total_pairs - vals.size

    edges, counts = _histogram(vals)
    if vals.size == 0:
        mean = median = p95 = None
    else:
        mean = float(vals.mean())
        # vals is the mask's fresh copy, so the order-free median and p95 may partition
        # it in place; the mean, which sums in order, comes first
        median = float(np.median(vals, overwrite_input=True))
        p95 = float(np.percentile(vals, 95, overwrite_input=True))

    return ResistanceReport(n=n, mode=mode, pairwise=r, mean=mean, median=median,
                            p95=p95, histogram=(edges, counts), excluded_pairs=excluded,
                            components=sizes.size, solver=bundle.solver,
                            pinv_residual=_pinv_residual(bundle))


def _histogram(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges and counts of HIST_BINS uniform bins over [0, max(vals)].

    On trees many resistances are exact multiples of the bin width, which the
    solver leaves up to ~1e-13 of the largest off their edge. Each value within
    SNAP_RTOL of the largest of an edge is counted as on it, so that neither
    that noise nor a last-bit change in any value picks its bin. Values are
    snapped and counted HIST_BLOCK at a time; the counts add up across blocks."""
    top = float(vals.max()) if vals.size else 0.0
    edges = np.linspace(0.0, top if top > 0 else 1.0, HIST_BINS + 1)
    counts = np.zeros(HIST_BINS, dtype=np.intp)
    for lo in range(0, vals.size, HIST_BLOCK):
        block = vals[lo:lo + HIST_BLOCK]
        nearest = edges[np.rint(block / edges[1]).astype(int)]
        on_edge = np.abs(block - nearest) <= SNAP_RTOL * edges[-1]
        counts += np.histogram(np.where(on_edge, nearest, block), bins=edges)[0]
    return edges, counts


def write_report_json(report: ResistanceReport, path) -> None:
    edges, counts = report.histogram
    payload = {
        "n": report.n,
        "mode": report.mode,
        "mean": report.mean,
        "median": report.median,
        "p95": report.p95,
        "histogram": {"edges": edges.tolist(), "counts": counts.tolist()},
        "excluded_pairs": report.excluded_pairs,
    }
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")


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
