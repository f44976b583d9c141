"""Adjacency construction: the dense reachability transform and its siblings.

Four adjacency kinds are supported. ``isolated`` removes all message paths,
``topology`` keeps the physical river edges, ``dense`` applies the RBF
reachability transform over pairwise stream distances, and ``learned`` starts
from the dense support with uniform trainable weights.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CsvFormatError, DegenerateSigma, IsolatedRow
from .network import DistanceMatrix, RiverNetwork

ADJACENCY_KINDS = ("isolated", "topology", "dense", "learned")
ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class RewireConfig:
    """Kernel bandwidth, target kind and optional pre-normalization pruning."""

    sigma: float | str = "auto"
    kind: str = "dense"
    epsilon_prune: float = 0.0

    def __post_init__(self):
        if self.kind not in ADJACENCY_KINDS:
            raise ValueError(f"kind must be one of {ADJACENCY_KINDS}, got {self.kind!r}")
        if isinstance(self.sigma, str):
            if self.sigma != "auto":
                raise ValueError(f"sigma must be a positive number or 'auto', got {self.sigma!r}")
        elif not self.sigma > 0:
            raise ValueError(f"explicit sigma must be positive, got {self.sigma}")
        if not 0 <= self.epsilon_prune < 1:
            raise ValueError(f"epsilon_prune must be in [0, 1), got {self.epsilon_prune}")


class AdjacencyMatrix:
    """N x N nonnegative weight matrix tagged with its kind.

    Kind invariants are enforced on construction: ``isolated`` is all zero,
    ``dense``/``learned`` are row-stochastic with zero diagonal, ``topology``
    only carries weight on existing directed edges.
    """

    __slots__ = ("kind", "w", "trainable")

    def __init__(self, kind: str, w: np.ndarray, *, support: np.ndarray | None = None):
        if kind not in ADJACENCY_KINDS:
            raise ValueError(f"unknown adjacency kind {kind!r}")
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {w.shape}")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("adjacency weights must be finite and nonnegative")

        if kind == "isolated":
            if np.any(w != 0):
                raise ValueError("isolated adjacency must be the zero matrix")
        elif kind in ("dense", "learned"):
            if np.any(np.diag(w) != 0):
                raise ValueError(f"{kind} adjacency must have a zero diagonal")
            rows = w.sum(axis=1)
            if np.any(np.abs(rows - 1.0) > ROW_SUM_TOL):
                worst = int(np.argmax(np.abs(rows - 1.0)))
                raise ValueError(f"{kind} adjacency row {worst} sums to {rows[worst]!r}, not 1")
            if np.any(w > 1.0):
                raise ValueError(f"{kind} adjacency entries must lie in [0, 1]")
        elif kind == "topology":
            if support is None:
                raise ValueError("topology adjacency needs the directed-edge support mask")
            if np.any((w > 0) & ~support):
                raise ValueError("topology adjacency has weight off the directed edge set")

        w = w.copy()
        w.flags.writeable = False
        self.kind = kind
        self.w = w
        self.trainable = kind == "learned"

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.w))

    def __repr__(self) -> str:
        return f"AdjacencyMatrix(kind={self.kind!r}, n={self.n}, nnz={self.nnz})"


def resolve_sigma(D: DistanceMatrix, sigma: float | str) -> float:
    """Resolve 'auto' to the population standard deviation of finite distances."""
    if sigma != "auto":
        return float(sigma)
    off = ~np.eye(D.n, dtype=bool)
    vals = D.d[off]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise DegenerateSigma("no finite off-diagonal distances to take sigma from")
    resolved = float(np.std(vals))  # population std, ddof=0
    if resolved == 0.0:
        raise DegenerateSigma("all pairwise distances are equal, sigma resolved to 0")
    return resolved


def rbf_kernel(d: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-d^2 / (2 sigma^2)); infinite distances map to weight 0."""
    out = np.zeros_like(d, dtype=float)
    finite = np.isfinite(d)
    out[finite] = np.exp(-(d[finite] ** 2) / (2.0 * sigma * sigma))
    return out


def dense_transform(D: DistanceMatrix, config: RewireConfig) -> AdjacencyMatrix:
    """Turn a distance matrix into the dense row-stochastic reachability graph.

    Parameters
    ----------
    D : DistanceMatrix
        Pairwise stream distances; +inf marks unreachable pairs.
    config : RewireConfig
        Bandwidth (or 'auto') and the pruning threshold applied to kernel
        weights before row normalization.

    Returns
    -------
    AdjacencyMatrix
        kind='dense'; zero diagonal, rows summing to 1, entries in [0, 1].

    Raises
    ------
    IsolatedRow
        Some node has no positive weight left after pruning.
    DegenerateSigma
        'auto' bandwidth resolved to zero.
    """
    sigma = resolve_sigma(D, config.sigma)
    k = rbf_kernel(D.d, sigma)
    np.fill_diagonal(k, 0.0)
    if config.epsilon_prune > 0:
        k[k < config.epsilon_prune] = 0.0
    row_sums = k.sum(axis=1)
    dead = np.flatnonzero(row_sums == 0.0)
    if dead.size:
        raise IsolatedRow(f"rows {dead.tolist()} have zero weight before normalization")
    w = k / row_sums[:, None]
    return AdjacencyMatrix("dense", w)


def build_adjacency(net: RiverNetwork, D: DistanceMatrix,
                    config: RewireConfig) -> AdjacencyMatrix:
    """Build the adjacency of the configured kind for one network.

    The topology kind reuses the same RBF kernel restricted to the directed
    edge set, so topology and dense differ only in support.
    """
    if net.n != D.n:
        raise ValueError(f"network has {net.n} nodes but distance matrix has {D.n}")
    n = net.n
    if config.kind == "isolated":
        return AdjacencyMatrix("isolated", np.zeros((n, n)))

    if config.kind == "topology":
        sigma = resolve_sigma(D, config.sigma)
        support = np.zeros((n, n), dtype=bool)
        for e in net.edges:
            support[net.index(e.src), net.index(e.dst)] = True
        w = np.where(support, rbf_kernel(D.d, sigma), 0.0)
        rows = w.sum(axis=1)
        nonzero = rows > 0
        w[nonzero] = w[nonzero] / rows[nonzero, None]
        return AdjacencyMatrix("topology", w, support=support)

    dense = dense_transform(D, config)
    if config.kind == "dense":
        return dense

    # learned: uniform initial weights over the dense support, trainable flag set
    support = dense.w > 0
    counts = support.sum(axis=1)
    w = support / counts[:, None]
    return AdjacencyMatrix("learned", w)


# ---------------------------------------------------------------------------
# export / import

def write_adjacency_csv(adj: AdjacencyMatrix, path, nodes: Sequence[int] | None = None) -> None:
    """Coordinate-list export `src,dst,weight`, row-major by node index.

    Lines are written as :mod:`csv` writes them: ``repr`` weights, ``\\r\\n``
    endings, so every weight reads back exactly. One matrix row is formatted
    at a time.
    """
    path = Path(path)
    n = adj.n
    ids = [str(x) for x in (nodes if nodes is not None else range(n))]
    if len(ids) != n:
        raise ValueError(f"{len(ids)} node ids for an {n}-node adjacency")
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("src,dst,weight\r\n")
        for src, row in zip(ids, adj.w):
            cols = np.flatnonzero(row)
            fh.write("".join([f"{src},{ids[j]},{v!r}\r\n"
                              for j, v in zip(cols.tolist(), row[cols].tolist())]))


def write_adjacency_meta(adj: AdjacencyMatrix, path, *, sigma: float | None,
                         nodes: Sequence[int] | None = None) -> None:
    path = Path(path)
    meta = {
        "kind": adj.kind,
        "sigma": sigma,
        "n": adj.n,
        "nnz": adj.nnz,
        "nodes": list(nodes) if nodes is not None else list(range(adj.n)),
    }
    path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def read_adjacency_csv(path, *, nodes: Sequence[int] | None = None) -> tuple[np.ndarray, list[int]]:
    """Read a coordinate-list adjacency back into a weight matrix.

    Without an explicit node list the ids appearing in the file define the
    index order (sorted). Returns the raw matrix plus the node order; callers
    wrap it in :class:`AdjacencyMatrix` when the kind invariants apply.
    Repeated ``(src, dst)`` entries and, with ``nodes``, entries outside that
    set raise :class:`CsvFormatError` at their line.

    The body is parsed with numpy's C reader. A file it cannot take, or one
    that fails a check, is read again row by row, which either raises the
    error at its line or returns the matrix.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(path, 1, "empty file, expected header src,dst,weight") from None
        if tuple(h.strip() for h in header) != ("src", "dst", "weight"):
            raise CsvFormatError(path, 1, f"bad header {header!r}, expected src,dst,weight")
        fast = _read_adjacency_body(fh, nodes)
        if fast is not None:
            return fast
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        return _read_adjacency_rows(path, reader, nodes)


def _read_adjacency_body(fh, nodes: Sequence[int] | None) -> tuple[np.ndarray, list[int]] | None:
    """The matrix and node order of a well-formed body, else None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. an empty body
            body = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=1,
                              dtype=[("src", "i8"), ("dst", "i8"), ("weight", "f8")])
        ids = np.array(sorted(set(int(x) for x in nodes)), dtype=np.int64) if nodes is not None \
            else np.unique(np.concatenate([body["src"], body["dst"]]))
    except (ValueError, OverflowError, Warning):
        return None
    n = ids.size
    if n == 0:
        return None
    i = np.minimum(np.searchsorted(ids, body["src"]), n - 1)
    j = np.minimum(np.searchsorted(ids, body["dst"]), n - 1)
    if np.any(ids[i] != body["src"]) or np.any(ids[j] != body["dst"]):
        return None  # outside the declared node set
    cells = np.sort(i * n + j)
    if np.any(cells[1:] == cells[:-1]):
        return None  # repeated entry
    w = np.zeros((n, n))
    w[i, j] = body["weight"]
    return w, ids.tolist()


def _read_adjacency_rows(path: Path, reader, nodes: Sequence[int] | None):
    """Row-by-row parse after the header; reports the line of the first bad row."""
    # one slot per data line, None for blank ones, so slot k sits on line k + 2
    entries: list[tuple[int, int, float] | None] = []
    seen: set[int] = set(int(x) for x in nodes) if nodes is not None else set()
    for lineno, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            entries.append(None)
            continue
        if len(row) != 3:
            raise CsvFormatError(path, lineno, f"expected 3 columns, got {len(row)}")
        try:
            src, dst, weight = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise CsvFormatError(path, lineno, str(exc)) from None
        entries.append((src, dst, weight))
        if nodes is None:
            seen.add(src)
            seen.add(dst)
    order = sorted(seen)
    pos = {node: k for k, node in enumerate(order)}
    n = len(order)
    w = np.zeros((n, n))
    filled = bytearray(n * n)  # row-major flags of the cells set so far
    for lineno, entry in enumerate(entries, start=2):
        if entry is None:
            continue
        src, dst, weight = entry
        try:
            i, j = pos[src], pos[dst]
        except KeyError:
            raise CsvFormatError(path, lineno, f"entry ({src},{dst}) outside the declared "
                                 "node set") from None
        if filled[i * n + j]:
            raise CsvFormatError(path, lineno, f"duplicate entry ({src},{dst})")
        filled[i * n + j] = 1
        w[i, j] = weight
    return w, order
