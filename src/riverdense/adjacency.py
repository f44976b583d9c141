"""Adjacency construction: the dense reachability transform and its siblings.

Four adjacency kinds are supported. ``isolated`` removes all message paths,
``topology`` keeps the physical river edges, ``dense`` applies the RBF
reachability transform over pairwise stream distances, and ``learned`` starts
from the dense support with uniform weights that training then updates.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
import tempfile
from _blake2 import blake2b  # hashlib's import loads OpenSSL, ~3.5 MB more memory
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._csvrows import write_rows
from .errors import CsvFormatError, DegenerateSigma, IsolatedRow, RowWriterFailed
from .network import DistanceMatrix, RiverNetwork, read_csv_rows, text_lines

ADJACENCY_KINDS = ("isolated", "topology", "dense", "learned")
ROW_SUM_TOL = 1e-12
ADJACENCY_CSV_HEADER = ("src", "dst", "weight")
CSV_SPLIT_NNZ = 50_000  # entries; a child starts in ~15-20 ms, one core formats these in ~0.1 s
_CSV_ROWS = str(Path(__file__).with_name("_csvrows.py"))


@dataclass(frozen=True)
class RewireConfig:
    """Kernel bandwidth, target kind and optional pre-normalization pruning."""

    sigma: float | str = "auto"
    kind: str = "dense"
    epsilon_prune: float = 0.0

    def __post_init__(self):
        if self.kind not in ADJACENCY_KINDS:
            raise ValueError(f"kind must be one of {ADJACENCY_KINDS}, got {self.kind!r}")
        if self.sigma != "auto" and (isinstance(self.sigma, str) or not 0 < self.sigma < np.inf):
            raise ValueError(f"sigma (--sigma) must be 'auto' or positive and finite, "
                             f"got {self.sigma!r}")
        if not 0 <= self.epsilon_prune < 1:
            raise ValueError(f"epsilon_prune (--prune) must be in [0, 1), "
                             f"got {self.epsilon_prune}")


class AdjacencyMatrix:
    """N x N nonnegative weight matrix tagged with its kind and kernel bandwidth.

    Kind invariants are enforced on construction: ``isolated`` is all zero,
    ``dense``/``learned`` are row-stochastic with zero diagonal, ``topology``
    only carries weight on existing directed edges. ``sigma`` is the bandwidth
    the weights were built with, None when unknown (a loaded file) or kernel-free.
    """

    __slots__ = ("_kind", "_w", "_sigma")

    def __init__(self, kind: str, w: np.ndarray, *, support: np.ndarray | None = None,
                 sigma: float | None = None):
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
                raise ValueError(f"{kind} adjacency row {worst} sums to {float(rows[worst])!r}, "
                                 "not 1")
            if np.any(w > 1.0):
                raise ValueError(f"{kind} adjacency entries must lie in [0, 1]")
        elif kind == "topology":
            if support is None:
                raise ValueError("topology adjacency needs the directed-edge support mask")
            if np.any((w > 0) & ~support):
                raise ValueError("topology adjacency has weight off the directed edge set")

        self._kind, self._w, self._sigma = kind, w.copy(), sigma
        self._w.flags.writeable = False

    kind = property(lambda self: self._kind)  # read-only, as the weights are
    w = property(lambda self: self._w)
    sigma = property(lambda self: self._sigma)

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
    keep = np.isfinite(D.d)
    np.fill_diagonal(keep, False)
    vals = D.d[keep]
    if vals.size == 0:
        raise DegenerateSigma("no finite off-diagonal distances to take sigma from")
    resolved = float(np.std(vals))  # population std, ddof=0
    if resolved == 0.0:
        raise DegenerateSigma("all pairwise distances are equal, sigma resolved to 0")
    return resolved


def rbf_kernel(d: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-d^2 / (2 sigma^2)) in one array; an infinite distance maps to exp(-inf) = 0.0."""
    out = np.square(d, dtype=float)
    np.divide(np.negative(out, out=out), 2.0 * sigma * sigma, out=out)
    return np.exp(out, out=out)


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
    return AdjacencyMatrix("dense", _normalize_rows(k), sigma=sigma)


def _normalize_rows(w: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
    """Divide each row of ``w`` by its sum in place; a row summing to zero raises IsolatedRow
    if it has support (all rows have when ``support`` is None), else it stays zero."""
    sums = w.sum(axis=1)
    live = np.ones(len(w), dtype=bool) if support is None else support.any(axis=1)
    dead = np.flatnonzero(live & (sums == 0.0))
    if dead.size:
        raise IsolatedRow(f"rows {dead.tolist()} have zero weight before normalization")
    return np.divide(w, sums[:, None], out=w, where=live[:, None])


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
        support = net.edge_mask()
        w = _normalize_rows(np.where(support, rbf_kernel(D.d, sigma), 0.0), support)
        return AdjacencyMatrix("topology", w, support=support, sigma=sigma)

    dense = dense_transform(D, config)
    if config.kind == "dense":
        return dense
    # learned: uniform initial weights over the dense support
    return AdjacencyMatrix("learned", _normalize_rows((dense.w > 0) * 1.0), sigma=dense.sigma)


# ---------------------------------------------------------------------------
# export / import

def write_adjacency_csv(adj: AdjacencyMatrix, path, nodes: Sequence[int] | None = None) -> dict:
    """Coordinate-list export `src,dst,weight`, row-major by node index, and its meta.

    Lines are written as :mod:`csv` writes them: ``repr`` weights, ``\\r\\n``
    endings, so every weight reads back exactly. From CSV_SPLIT_NNZ entries on, a
    ``_csvrows.py`` child per further usable CPU formats a row slice, balanced by entry
    count, into an unnamed temp file appended in order. The text goes to
    ``<name>.part``, which replaces ``path`` once complete and is removed if the write
    fails, so a failed write leaves an earlier ``path`` as it was.

    ``<stem>_meta.json`` beside it records kind, ``adj.sigma``, n, nnz and the node ids.
    When its n²·8 bytes are fewer than the text's, the matrix is also saved as
    ``<stem>.npy``, and the meta's ``sidecar`` entry lets :func:`read_adjacency_csv`
    load that copy. Returns the ``.npy`` name (or None) and the writer count.
    """
    path = Path(path)
    n, w = adj.n, adj.w
    nodes = list(range(n)) if nodes is None else [operator.index(x) for x in nodes]  # json's ints
    ids = [str(x) for x in nodes]
    if len(ids) != n:
        raise ValueError(f"{len(ids)} node ids for an {n}-node adjacency")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = cpus if adj.nnz >= CSV_SPLIT_NNZ else 1
    ends = np.count_nonzero(w, axis=1).cumsum()  # entries up to each row's end
    cuts = np.unique([0, n, *np.searchsorted(ends, adj.nnz * np.arange(1, parts) / parts) + 1])
    digest, children, part = blake2b(), [], path.with_name(path.name + ".part")
    with part.open("wb") as fh, ExitStack() as stack:
        stack.callback(part.unlink, missing_ok=True)  # nothing is left once it replaced path
        stack.callback(lambda: [child.kill() or child.wait() for child, _ in children])
        for lo, hi in zip(cuts[1:], cuts[2:]):
            import subprocess  # ~0.6 MB of modules that a write without children never needs
            rows, lines = (stack.enter_context(tempfile.TemporaryFile(dir=path.parent))
                           for _ in range(2))
            rows.writelines([(",".join(ids) + "\n").encode(), w[lo:hi]])
            rows.seek(0)
            children.append((subprocess.Popen([sys.executable, "-I", "-S", _CSV_ROWS, str(lo)],
                                              stdin=rows, stdout=lines), lines))

        def emit(data: bytes) -> None:
            fh.write(data)
            digest.update(data)

        emit(",".join(ADJACENCY_CSV_HEADER).encode() + b"\r\n")
        write_rows(lambda text: emit(text.encode()), ids,
                   ((i, (cols := np.flatnonzero(w[i])).tolist(), w[i, cols].tolist())
                    for i in range(*cuts[:2])))
        for child, lines in children:
            if child.wait():
                raise RowWriterFailed(f"adjacency row writer for {path} exited with status "
                                      f"{child.returncode}")
            lines.seek(0)
            while chunk := lines.read(1 << 20):
                emit(chunk)
        fh.close()  # flushed first, so a failed flush cannot take the name
        os.replace(part, path)
    meta = {"kind": adj.kind, "sigma": adj.sigma, "n": n, "nnz": adj.nnz, "nodes": nodes}
    npy = path.with_suffix(".npy")
    order = [int(x) for x in ids if x.isdecimal()]  # the ids as the reader parses them
    if not (n * n * 8 >= path.stat().st_size or npy == path or len(order) != n
            or order != sorted(set(order)) or np.signbit(w).any()):  # -0.0 parses as +0.0
        np.save(npy, w, allow_pickle=False)
        meta["sidecar"] = {"file": npy.name, "csv_blake2b": digest.hexdigest(),
                           "npy_blake2b": _file_digest(npy), "nodes": order}
    path.with_name(path.stem + "_meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                                        encoding="utf-8")
    return {"sidecar": npy.name if "sidecar" in meta else None, "csv_writers": 1 + len(children)}


def read_adjacency_csv(path, *, meta=None,
                       nodes: Sequence[int] | None = None) -> tuple[np.ndarray, list[int], str]:
    """Read a coordinate-list adjacency back into a weight matrix.

    The meta is the file ``meta`` names, else ``<stem>_meta.json`` beside ``path`` when
    there is one; one that is not a JSON object whose ``nodes`` lists integer ids raises
    ValueError naming it. The node ids are ``nodes``, else the meta's, else the file's;
    sorted, they are the index order. Returns the raw matrix, that order and its source,
    ``"sidecar"`` or ``"csv"``; callers wrap the matrix in :class:`AdjacencyMatrix` when
    the kind invariants apply. Repeated ``(src, dst)`` entries, entries outside a given
    node set and weights that are not finite raise :class:`CsvFormatError` at their line.

    Given node ids, the ``.npy`` the meta's ``sidecar`` entry names is read into the matrix
    when its 1.0 or 2.0 header gives float64 (n, n) in C order, the data fill the rest of the
    file, and the node order and the digests of the CSV and the bytes read match the entry.
    Else the text is parsed row by row, and a bad row raises its error at its line.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"adjacency file {path} does not exist or is not a file")
    meta_path = path.with_name(path.stem + "_meta.json") if meta is None else Path(meta)
    if meta is not None and not meta_path.is_file():  # the sibling *_meta.json is optional
        raise FileNotFoundError(f"metadata file {meta_path} does not exist or is not a file")
    info = {}
    if meta_path.exists():
        try:
            info = json.loads("".join(text_lines(meta_path)))
        except CsvFormatError as exc:
            raise ValueError(f"metadata file {exc}") from None
        except ValueError as exc:
            raise ValueError(f"metadata file {meta_path}: {exc}") from None
        if not isinstance(info, dict):
            raise ValueError(f"metadata file {meta_path}: expected an object, "
                             f"got {type(info).__name__}")
        ids = info.get("nodes")
        if ids is not None and not (isinstance(ids, list) and all(type(x) is int for x in ids)):
            raise ValueError(f"metadata file {meta_path}: key 'nodes' must list integer "
                             "station ids")
    nodes = info.get("nodes") if nodes is None else nodes
    order = None if nodes is None else sorted(set(int(x) for x in nodes))
    try:  # no node ids, no entry, a file missing or not .npy: parse the text
        entry = info["sidecar"]
        if order is not None and entry["nodes"] == order:
            with path.with_name(entry["file"]).open("rb") as fh:  # read into w, no second copy
                read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                               (2, 0): np.lib.format.read_array_header_2_0}
                header = read_header[np.lib.format.read_magic(fh)](fh)  # KeyError: other versions
                w, end = np.empty((len(order),) * 2), fh.tell()
                fh.seek(0)
                digest = blake2b(fh.read(end))  # the magic and header bytes, then w's
                if (header == (w.shape, False, w.dtype) and fh.readinto(w) == w.nbytes
                        and not fh.read(1)):
                    digest.update(w)
                    if (digest.hexdigest() == entry["npy_blake2b"]
                            and _file_digest(path) == entry["csv_blake2b"]):
                        return w, order, "sidecar"
    except (KeyError, TypeError, OSError, ValueError):
        pass
    return *_read_adjacency_rows(path, order), "csv"


def _file_digest(path: Path) -> str:
    digest = blake2b()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_adjacency_rows(path: Path, order: list[int] | None):
    """The matrix and node order of the text file ``path``. Each row fills the matrix as it is
    read, so the first bad row raises at its line, whatever is wrong with it. Without the
    node order, a first pass takes it from the ids the rows name, up to the first row that
    does not parse, and the text is read again."""
    columns = (int, int, float)
    if order is None:
        ids, rows = set(), read_csv_rows(path, ADJACENCY_CSV_HEADER, columns)
        with suppress(CsvFormatError):  # raised again at its line unless an earlier row is bad
            for _, (src, dst, _) in rows:
                ids.update((src, dst))
        order = sorted(ids)
    rows = read_csv_rows(path, ADJACENCY_CSV_HEADER, columns)
    pos = {node: k for k, node in enumerate(order)}
    n = len(order)
    w = np.zeros((n, n))
    filled = bytearray(n * n)  # row-major flags of the cells set so far
    for lineno, (src, dst, weight) in rows:
        try:
            i, j = pos[src], pos[dst]
        except KeyError:
            raise CsvFormatError(path, lineno, f"entry ({src},{dst}) outside the declared "
                                 "node set") from None
        if filled[i * n + j]:
            raise CsvFormatError(path, lineno, f"duplicate entry ({src},{dst})")
        if not 0 <= weight < math.inf:
            raise CsvFormatError(path, lineno, f"weight {weight!r} of ({src},{dst}) is not "
                                 "finite and nonnegative")
        filled[i * n + j] = 1
        w[i, j] = weight
    return w, order
