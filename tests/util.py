"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import csv
import heapq
import json
import tracemalloc
from pathlib import Path

import numpy as np

import riverdense as rd
from riverdense.adjacency import ADJACENCY_CSV_HEADER, _file_digest


def random_weighted_tree(n: int, rng: np.random.Generator) -> rd.RiverNetwork:
    return rd.random_river_tree(n, rng)


def is_river_tree(net: rd.RiverNetwork) -> bool:
    """True when every station has at most one downstream edge."""
    return all(len(net.out_edges(node)) <= 1 for node in net.nodes)


def outlets(net: rd.RiverNetwork) -> list[int]:
    """Stations with no downstream edge."""
    return [node for node in net.nodes if not net.out_edges(node)]


def random_connected_graph(n: int, rng: np.random.Generator,
                           extra_edges: int | None = None) -> np.ndarray:
    """Symmetric positive weight matrix of a connected graph."""
    w = np.zeros((n, n))
    for node in range(1, n):
        parent = int(rng.integers(0, node))
        weight = float(rng.uniform(0.5, 2.0))
        w[node, parent] = w[parent, node] = weight
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n))
    for _ in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        if i != j and w[i, j] == 0:
            weight = float(rng.uniform(0.5, 2.0))
            w[i, j] = w[j, i] = weight
    return w


def disconnected_graph(sizes, rng: np.random.Generator,
                       extra_edges: int | None = None) -> np.ndarray:
    """Symmetric weight matrix with one random connected block per size,
    scattered over a random node order; extra_edges=0 gives a forest."""
    n = sum(sizes)
    order = rng.permutation(n)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        idx = order[start:start + size]
        w[np.ix_(idx, idx)] = random_connected_graph(size, rng, extra_edges)
        start += size
    return w


def random_weighted_dag(n: int, rng: np.random.Generator, density: float) -> np.ndarray:
    """Nonnegative weights on the edges of a random DAG over shuffled nodes;
    nodes without an outgoing edge keep zero rows."""
    upper = np.triu(rng.random((n, n)) < density, k=1)
    w = np.where(upper, rng.uniform(0.1, 3.0, size=(n, n)), 0.0)
    order = rng.permutation(n)
    return w[np.ix_(order, order)]


def conductance_matrix(net: rd.RiverNetwork) -> np.ndarray:
    """Symmetric adjacency with edge conductance 1/stream_length."""
    w = np.zeros((net.n, net.n))
    for e in net.edges:
        i, j = net.index(e.src), net.index(e.dst)
        w[i, j] = w[j, i] = 1.0 / e.stream_length
    return w


def tree_path_distance(net: rd.RiverNetwork, u: int, v: int) -> float:
    """Walk the unique u-v path of a river tree, summing stream lengths.

    Independent of the Dijkstra implementation: every node has at most one
    downstream edge, so paths to the outlet are unambiguous.
    """
    def downstream_walk(start):
        dist = {start: 0.0}
        node, acc = start, 0.0
        while True:
            outgoing = net.out_edges(node)
            if not outgoing:
                return dist
            edge = outgoing[0]
            acc += edge.stream_length
            node = edge.dst
            dist[node] = acc

    from_u = downstream_walk(u)
    node, acc = v, 0.0
    while node not in from_u:
        edge = net.out_edges(node)[0]
        acc += edge.stream_length
        node = edge.dst
    return acc + from_u[node]


def dijkstra_distances(net: rd.RiverNetwork) -> np.ndarray:
    """All-pairs stream distances by a plain-Python Dijkstra from every station.

    Walks the undirected edge list with dicts keyed by station id, then keeps
    the smaller of the two directions per pair, as the library does; a
    reference independent of its matrix code.
    """
    neighbours: dict[int, list[tuple[int, float]]] = {node: [] for node in net.nodes}
    for e in net.edges:
        neighbours[e.src].append((e.dst, e.stream_length))
        neighbours[e.dst].append((e.src, e.stream_length))
    d = np.full((net.n, net.n), np.inf)
    for source in net.nodes:
        best = {source: 0.0}
        heap = [(0.0, source)]
        settled: set[int] = set()
        while heap:
            dist, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for other, length in neighbours[node]:
                if other not in best or dist + length < best[other]:
                    best[other] = dist + length
                    heapq.heappush(heap, (best[other], other))
        for node, dist in best.items():
            d[net.index(source), net.index(node)] = dist
    return np.minimum(d, d.T)


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """Min-plus all-pairs distances; an oracle independent of Dijkstra."""
    n = weights.shape[0]
    d = np.where(weights > 0, weights, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def undirected_length_matrix(net: rd.RiverNetwork) -> np.ndarray:
    w = np.zeros((net.n, net.n))
    for e in net.edges:
        i, j = net.index(e.src), net.index(e.dst)
        w[i, j] = w[j, i] = e.stream_length
    return w


def hop_distances(support: np.ndarray) -> np.ndarray:
    """BFS hop counts over the directed support graph (column feeds row)."""
    n = support.shape[0]
    dist = np.full((n, n), np.inf)
    for source in range(n):
        dist[source, source] = 0
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            nxt = []
            for node in frontier:
                for receiver in np.flatnonzero(support[:, node]):
                    if dist[receiver, source] == np.inf:
                        dist[receiver, source] = hops
                        nxt.append(int(receiver))
            frontier = nxt
    return dist


def reference_rbf_kernel(d: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-d^2 / (2 sigma^2)) over the finite distances only; 0.0 elsewhere."""
    out = np.zeros_like(d, dtype=float)
    finite = np.isfinite(d)
    out[finite] = np.exp(-(d[finite] ** 2) / (2.0 * sigma * sigma))
    return out


# ---------------------------------------------------------------------------
# adjacency export reference: one process, one matrix row at a time

def write_adjacency_meta(adj: rd.AdjacencyMatrix, path, *, sigma: float | None,
                         nodes=None, sidecar: dict | None = None) -> None:
    """The ``<stem>_meta.json`` of an adjacency export: kind, sigma, n, nnz and
    the node ids, then the ``sidecar`` entry when a ``.npy`` copy was saved."""
    meta = {"kind": adj.kind, "sigma": sigma, "n": adj.n, "nnz": adj.nnz,
            "nodes": list(nodes) if nodes is not None else list(range(adj.n))}
    if sidecar is not None:
        meta["sidecar"] = sidecar
    Path(path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def write_adjacency_csv_by_rows(adj: rd.AdjacencyMatrix, path, nodes=None, *,
                                sigma: float | None = None) -> dict | None:
    """The coordinate-list export with every row formatted in this process,
    the sidecar saved on the same rule, the CSV digested by reading it back
    and the meta written by :func:`write_adjacency_meta`. Returns the sidecar
    entry, or None."""
    path = Path(path)
    n = adj.n
    ids = [str(x) for x in (nodes if nodes is not None else range(n))]
    if len(ids) != n:
        raise ValueError(f"{len(ids)} node ids for an {n}-node adjacency")
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(ADJACENCY_CSV_HEADER) + "\r\n")
        for src, row in zip(ids, adj.w):
            cols = np.flatnonzero(row)
            fh.write("".join([f"{src},{ids[j]},{v!r}\r\n"
                              for j, v in zip(cols.tolist(), row[cols].tolist())]))
    npy, entry = path.with_suffix(".npy"), None
    order = [int(x) for x in ids if x.isdecimal()]
    if not (n * n * 8 >= path.stat().st_size or npy == path or len(order) != n
            or order != sorted(set(order)) or np.signbit(adj.w).any()):
        np.save(npy, adj.w, allow_pickle=False)
        entry = {"file": npy.name, "csv_blake2b": _file_digest(path),
                 "npy_blake2b": _file_digest(npy), "nodes": order}
    write_adjacency_meta(adj, path.with_name(path.stem + "_meta.json"), sigma=sigma,
                         nodes=nodes, sidecar=entry)
    return entry


def read_adjacency_csv_by_rows(path, nodes=None) -> tuple[np.ndarray, list[int]]:
    """A well-formed coordinate-list CSV as its matrix and sorted node order: every
    non-blank row after the header is listed first, then set into the matrix over
    ``nodes``, else over the ids the rows name."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in list(csv.reader(fh))[1:] if "".join(row).strip()]
    entries = [(int(src), int(dst), float(weight)) for src, dst, weight in rows]
    order = sorted(set(nodes) if nodes is not None else {x for e in entries for x in e[:2]})
    w = np.zeros((len(order), len(order)))
    for src, dst, weight in entries:
        w[order.index(src), order.index(dst)] = weight
    return w, order


# ---------------------------------------------------------------------------
# forecaster reference: the sample-major einsum forward/backward

def _reference_forward(model: rd.ForecastModel, history: np.ndarray):
    """Forward pass over (S, N, .) activations with batched propagation."""
    task = model.task
    s = history.shape[0]
    x = np.transpose(history, (0, 2, 1, 3)).reshape(s, model.n,
                                                    task.alpha_hist * task.feature_dim)
    a_hat = model.propagation()
    cache = {"x": x, "a": a_hat}
    z = x @ model.params["w_in"] + model.params["b_in"]
    h = np.maximum(z, 0.0)
    cache["z0"], cache["h0"] = z, h
    for layer in range(1, model.n_layers + 1):
        m = np.matmul(a_hat, h)
        z = m @ model.params[f"w_l{layer}"] + model.params[f"b_l{layer}"]
        h = np.maximum(z, 0.0)
        cache[f"m{layer}"], cache[f"z{layer}"], cache[f"h{layer}"] = m, z, h
    y = h @ model.params["w_out"] + model.params["b_out"]  # (S, N, beta)
    return y, cache


def _reference_backward(model: rd.ForecastModel, cache: dict, dy: np.ndarray,
                        with_params: bool = True):
    """Backprop from dLoss/dY (S, N, beta) to parameter grads and dLoss/dX."""
    grads = {} if with_params else None
    a_hat = cache["a"]
    h_last = cache[f"h{model.n_layers}"]
    if with_params:
        grads["w_out"] = np.einsum("snl,snb->lb", h_last, dy)
        grads["b_out"] = dy.sum(axis=(0, 1))
    dh = dy @ model.params["w_out"].T
    support = model.adjacency.w > 0 if model.adjacency.kind == "learned" else None
    d_adj = np.zeros_like(a_hat) if (with_params and support is not None) else None
    for layer in range(model.n_layers, 0, -1):
        dz = dh * (cache[f"z{layer}"] > 0)
        if with_params:
            grads[f"w_l{layer}"] = np.einsum("snl,snk->lk", cache[f"m{layer}"], dz)
            grads[f"b_l{layer}"] = dz.sum(axis=(0, 1))
        dm = dz @ model.params[f"w_l{layer}"].T
        if d_adj is not None:
            d_adj += np.einsum("snk,smk->nm", dm, cache[f"h{layer - 1}"])
        dh = np.matmul(a_hat.T, dm)
    dz0 = dh * (cache["z0"] > 0)
    if with_params:
        grads["w_in"] = np.einsum("snf,snl->fl", cache["x"], dz0)
        grads["b_in"] = dz0.sum(axis=(0, 1))
        if d_adj is not None:
            grads["adj"] = 0.5 * d_adj * support
    dx = dz0 @ model.params["w_in"].T
    return grads, dx


def reference_loss_and_gradients(model: rd.ForecastModel, history: np.ndarray,
                                 target: np.ndarray):
    """MAE loss and gradients of a (S, alpha, N, C) batch, computed sample-major."""
    y, cache = _reference_forward(model, history)
    diff = y - np.transpose(target, (0, 2, 1))
    dy = np.sign(diff) / diff.size
    grads, _ = _reference_backward(model, cache, dy)
    return float(np.mean(np.abs(diff))), grads


def reference_input_jacobian(model: rd.ForecastModel, u: int, v: int,
                             history: np.ndarray) -> np.ndarray:
    """(beta, alpha*C) Jacobian by one backward pass per forecast step."""
    task = model.task
    _, cache = _reference_forward(model, history[None])
    width = task.alpha_hist * task.feature_dim
    jac = np.empty((task.beta_horizon, width))
    for step in range(task.beta_horizon):
        dy = np.zeros((1, model.n, task.beta_horizon))
        dy[0, u, step] = 1.0
        _, dx = _reference_backward(model, cache, dy, with_params=False)
        jac[step] = dx[0, v]
    return jac


def reference_train(model: rd.ForecastModel, data, config: rd.TrainConfig) -> rd.TrainResult:
    """``train`` as a per-parameter loop: each gradient is clipped, then stepped
    by Adam and weight-decayed one name at a time, with Adam moments kept per
    name. ``model.params`` is updated in place."""
    history, target = data
    n_samples = history.shape[0]
    rng = np.random.default_rng(config.seed)
    decayed = [name for name in model.params if name.startswith("w_") or name == "adj"]
    losses, lrs = np.empty(config.epochs), np.empty(config.epochs)
    clipped = np.zeros(config.epochs, dtype=int)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moment1 = {k: np.zeros_like(v) for k, v in model.params.items()}
    moment2 = {k: np.zeros_like(v) for k, v in model.params.items()}
    steps = 0
    for epoch in range(1, config.epochs + 1):
        lr = config.lr_at(epoch)
        order = rng.permutation(n_samples)
        epoch_abs_sum = 0.0
        for start in range(0, n_samples, rd.forecast.BATCH_SIZE):
            batch = order[start:start + rd.forecast.BATCH_SIZE]
            loss, grads = rd.loss_and_gradients(model, history[batch], target[batch])
            grads = {name: grad.copy() for name, grad in grads.items()}  # one array each
            epoch_abs_sum += loss * batch.size
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if total > rd.forecast.CLIP_NORM:
                scale = rd.forecast.CLIP_NORM / total
                for g in grads.values():
                    g *= scale
                clipped[epoch - 1] += 1
            steps += 1
            for name, grad in grads.items():
                moment1[name] = beta1 * moment1[name] + (1 - beta1) * grad
                moment2[name] = beta2 * moment2[name] + (1 - beta2) * grad * grad
                m_hat = moment1[name] / (1 - beta1 ** steps)
                v_hat = moment2[name] / (1 - beta2 ** steps)
                param = model.params[name]
                param -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for name in decayed:
                param = model.params[name]
                param -= lr * rd.forecast.WEIGHT_DECAY * param
        losses[epoch - 1] = epoch_abs_sum / n_samples
        lrs[epoch - 1] = lr
    return rd.TrainResult(losses=losses, lrs=lrs, clipped=clipped)


# ---------------------------------------------------------------------------
# resistance reference: eigendecomposition and SVD pseudoinverses, DFS labels,
# and the n^2 matrices built from fresh temporaries

ZERO_RTOL = 1e-10


def eigh_pinv(mat: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a symmetric matrix, dropping eigenvalues below
    ZERO_RTOL of the largest."""
    vals, vecs = np.linalg.eigh(mat)
    cutoff = ZERO_RTOL * max(np.abs(vals).max(), 1e-300)
    inv = np.divide(1.0, vals, out=np.zeros_like(vals), where=np.abs(vals) >= cutoff)
    return (vecs * inv) @ vecs.T


def svd_pinv(mat: np.ndarray) -> np.ndarray:
    """Pseudoinverse of any square matrix, dropping singular values below
    ZERO_RTOL of the largest."""
    u, s, vt = np.linalg.svd(mat)
    cutoff = ZERO_RTOL * max(s.max(initial=0.0), 1e-300)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s >= cutoff)
    return (vt.T * inv) @ u.T


def dfs_component_labels(support: np.ndarray) -> np.ndarray:
    """Weakly connected components by a stack DFS, numbered in order of their
    lowest node."""
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


def reference_laplacian(w: np.ndarray, mode: str) -> np.ndarray:
    """L from fresh temporaries: diag(d) - (W + W^T)/2, or I - D_out^-1 W with
    a zero out-degree counted as 1."""
    if mode == "symmetric":
        sym = 0.5 * (w + w.T)
        return np.diag(sym.sum(axis=1)) - sym
    d_out = w.sum(axis=1)
    d_out = np.where(d_out == 0, 1.0, d_out)
    return np.eye(w.shape[0]) - w / d_out[:, None]


def reference_pairwise_resistances(bundle) -> np.ndarray:
    """q_i + q_j - (m_ij + m_ji) s_i s_j from fresh temporaries, clamped at 0,
    with a zero diagonal and +inf across components."""
    m, s = bundle.pseudoinverse, bundle.indicator_scale
    q = np.diag(m) * s * s
    r = q[:, None] + q[None, :] - (m + m.T) * np.outer(s, s)
    np.fill_diagonal(r, 0.0)
    r = np.maximum(r, 0.0)
    labels = bundle.component_labels
    r[labels[:, None] != labels[None, :]] = np.inf
    return r


def reference_main_component_pairs(r: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """r[i, j] for i < j both in the largest component (ties to the lowest
    label), gathered through triu_indices over the member list."""
    members = np.flatnonzero(labels == int(np.argmax(np.bincount(labels))))
    iu, ju = np.triu_indices(len(members), k=1)
    return r[members[iu], members[ju]]


# ---------------------------------------------------------------------------
# memory: tracemalloc sees numpy's data buffers, so a peak repeats exactly

def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes tracemalloc traced while it ran. An
    untraced call first does the one-time work, such as numpy's lazy imports."""
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# gauge-stamp reference: numpy's parse written back to text

_STAMP_BYTES = 32  # the width of the stamp field of preprocess's record arrays
_FIRST_SECOND = np.datetime64("0001-01-01T00:00:00", "s")  # datetime.MINYEAR
_ROUND_TRIP_ROWS = 1024  # datetime_as_string makes 152-byte U38 strings; bounds the peak


def round_trip_stamps(body: np.ndarray, field: str) -> np.ndarray | None:
    """The ``field`` column of ``body`` as datetime64[s] when every stamp
    reads ``YYYY-MM-DDTHH:MM:SS`` plus an optional ``Z`` or ``+00:00``, else
    None: a stamp is canonical when numpy parses its head to an instant from
    year 1 and ``np.datetime_as_string`` writes that head back byte for byte.
    Raises ValueError where numpy cannot read one."""
    offset = body.dtype.fields[field][1]
    raw = body.view(np.uint8).reshape(body.size, body.dtype.itemsize)
    head = raw[:, offset:offset + 19].view("S19")[:, 0]
    tail = raw[:, offset + 19:offset + _STAMP_BYTES].view(f"S{_STAMP_BYTES - 19}")[:, 0]
    if not np.all((tail == b"") | (tail == b"Z") | (tail == b"+00:00")):
        return None
    stamps = head.astype("datetime64[s]")
    # numpy also reads year 0, negative years and "NaT", which datetime rejects
    if not np.all(stamps >= _FIRST_SECOND):
        return None
    for lo in range(0, stamps.size, _ROUND_TRIP_ROWS):
        text = np.datetime_as_string(stamps[lo:lo + _ROUND_TRIP_ROWS], unit="s")
        # one byte wider than the head, so a five-digit year never matches it
        if not np.array_equal(text.astype("S20"), head[lo:lo + _ROUND_TRIP_ROWS]):
            return None
    return stamps


# ---------------------------------------------------------------------------
# quality-control reference: the verdict read off the whole series

def reference_qc_station(series: rd.GaugeSeries, start: np.datetime64,
                         end: np.datetime64) -> rd.QCReport:
    """Count negative discharge values and missing hourly slots over [start, end).

    A slot counts as present only when an exactly grid-aligned timestamp with
    a finite reading on every channel exists; duplicated timestamps are
    counted as gaps on top.
    """
    if not start < end:
        raise ValueError(f"period_start {start} must precede period_end {end}")
    hour = np.timedelta64(1, "h")
    expected = int((end - start) // hour)

    stamps = series.timestamps
    unique, counts = np.unique(stamps, return_counts=True)
    duplicates = int((counts - 1).sum())
    finite = True
    for values in series.channels().values():
        finite = finite & (values < np.inf) & (values > -np.inf)
    if not finite.all():  # an hour where any channel reads NaN or ±inf is missing
        unique = unique[~np.isin(unique, stamps[~finite])]
    in_window = unique[(unique >= start) & (unique < end)]
    offsets = (in_window - start) // hour
    aligned = in_window[start + offsets * hour == in_window]
    missing = expected - aligned.size + duplicates
    negative = int(np.sum(series.discharge < 0))
    return rd.QCReport(series.station, negative_count=negative, missing_hours=missing)


# ---------------------------------------------------------------------------
# windowing reference: one anchor at a time, then a split with a window gap

def make_windows(features: np.ndarray, targets: np.ndarray, task: rd.ForecastTask,
                 stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Slice (T, N, C) observations into supervised forecasting windows.

    Returns history windows (S, alpha, N, C) and target windows (S, beta, N),
    ordered chronologically; raises ValueError when no window fits.
    """
    t_total = features.shape[0]
    alpha, beta = task.alpha_hist, task.beta_horizon
    anchors = range(alpha, t_total - beta + 1, stride)
    if not anchors:
        raise ValueError(f"alpha_hist (--history) {alpha} + beta_horizon (--horizon) {beta} "
                         f"do not fit in a series of {t_total} time steps")
    xs = np.stack([features[t - alpha:t] for t in anchors])
    ys = np.stack([targets[t:t + beta] for t in anchors])
    return xs, ys


def chronological_split(xs: np.ndarray, ys: np.ndarray, train_frac: float = 0.7,
                        gap: int = 0):
    """Split windows into earlier train and later test blocks.

    ``gap`` drops that many windows at the boundary so train and test never
    share raw observations.
    """
    total = xs.shape[0]
    cut = int(total * train_frac)
    train = (xs[:max(cut - gap, 0)], ys[:max(cut - gap, 0)])
    test = (xs[cut:], ys[cut:])
    return train, test
