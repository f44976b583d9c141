"""Desk-scale message-passing forecaster plus the synthetic basin generator.

The network is a GCN-style stack implemented directly in numpy: an input
projection over each node's flattened history window, a fixed number of
propagation layers H' = relu(A_hat @ H @ W), and a linear output head that
emits one value per forecast step. Gradients are hand-derived backprop, which
keeps training deterministic and lets input Jacobians be computed analytically.

Activations are node-major: a batch of S windows over N nodes is held as
(N*S, latent) rows, row n*S + k for node n in window k. Every weight product
is then one GEMM over all rows, propagation is one GEMM of the (N, N)
operator with the same memory viewed as (N, S*latent), and the backward pass
is the same handful of GEMMs transposed. ``train`` hands each shuffled batch,
``history[batch]``, to ``loss_and_gradients``, which writes its node-major
input rows and activations into one buffer set the model keeps, sized for the
largest batch, until ``train`` returns; Adam updates the weight vector in
place. A forward-only pass runs ``BATCH_SIZE`` windows at a time through one
layer state and one scratch array.

Propagation operator per adjacency kind:
  isolated -> identity (no message paths, the model degenerates to an MLP)
  dense / learned -> (W + I) / 2, the row-stochastic matrix averaged with a
    self-loop; a node keeps half of its own state per hop. Without the
    self-loop three averaging layers wash each node's own history out of its
    representation and the forecaster cannot even express per-node
    autoregression, which empirically makes the dense graph lose to the
    isolated one once training converges.
  topology -> symmetric-normalized D^-1/2 (S + I) D^-1/2 with S = (W + W^T)/2
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .adjacency import AdjacencyMatrix
from .errors import ConstantObserved, NonfiniteLoss, ShapeMismatch
from .network import Edge, RiverNetwork, build_network

CHECKPOINT_FORMAT = "riverdense-forecast"
CHECKPOINT_VERSION = 2


def _check_counts(*named: tuple[str, int]) -> None:
    """Raise ValueError naming the first ``(name, value)`` pair below 1."""
    for name, value in named:
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")


@dataclass(frozen=True)
class ForecastTask:
    """History length, forecast horizon (both hours) and channel count."""

    alpha_hist: int = 24
    beta_horizon: int = 24
    feature_dim: int = 1

    def __post_init__(self):
        _check_counts(("alpha_hist (--history)", self.alpha_hist),
                      ("beta_horizon (--horizon)", self.beta_horizon),
                      ("feature_dim", self.feature_dim))

    @property
    def input_width(self) -> int:
        return self.alpha_hist * self.feature_dim


WEIGHT_DECAY = 1e-4                # decoupled, on the weight matrices and learned adjacency
LR_HALVING_EPOCHS = (1, 50, 80)    # the lr halves after each of these epochs completes
CLIP_NORM = 5.0                    # global gradient norm bound per batch
BATCH_SIZE = 64                    # windows per batch and per forward chunk; the last may be short


@dataclass
class TrainConfig:
    """Optimization settings; loss is mean absolute error.

    The optimizer is Adam (beta1 0.9, beta2 0.999, eps 1e-8) with decoupled
    weight decay ``WEIGHT_DECAY`` on the weight matrices and the learned
    adjacency, applied after each Adam step; the lr default and
    ``LR_HALVING_EPOCHS`` were tuned for it.
    """

    lr: float = 2e-3
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < np.inf:  # false for NaN too
            raise ValueError(f"lr (--lr) must be positive and finite, got {self.lr!r}")
        _check_counts(("epochs (--epochs)", self.epochs))

    def lr_at(self, epoch: int) -> float:
        """Effective learning rate during a 1-indexed epoch; halvings apply
        after each epoch in ``LR_HALVING_EPOCHS`` completes."""
        halvings = sum(1 for m in LR_HALVING_EPOCHS if m < epoch)
        return self.lr * 0.5 ** halvings


@dataclass
class TrainResult:
    losses: np.ndarray   # epoch-mean MAE
    lrs: np.ndarray
    clipped: np.ndarray  # batches per epoch whose gradient norm was clipped


class ForecastModel:
    """Layered message-passing forecaster whose weights are one vector, ``flat``.

    ``params`` maps each name, in checkpoint order, to a reshaped view of
    ``flat``; it is read-only, so weights are written in place. For the learned
    adjacency kind the propagation matrix itself lives in ``params['adj']``
    (masked to the dense support) and receives gradients like any other weight.
    """

    def __init__(self, task: ForecastTask, adjacency: AdjacencyMatrix,
                 latent: int = 32, n_layers: int = 3, seed: int = 0):
        _check_counts(("latent (--latent)", latent), ("n_layers (--layers)", n_layers))
        self.task = task
        self.adjacency = adjacency
        self.latent = latent
        self.n_layers = n_layers
        self.n = adjacency.n

        rng = np.random.default_rng(seed)
        # biases start small but nonzero; an all-zero bias vector parks every
        # dead-relu unit exactly on the kink, where subgradients are ambiguous
        drawn = {
            "w_in": _glorot(rng, task.input_width, latent),
            "b_in": rng.uniform(-0.05, 0.05, size=latent),
        }
        for layer in range(1, n_layers + 1):
            drawn[f"w_l{layer}"] = _glorot(rng, latent, latent)
            drawn[f"b_l{layer}"] = rng.uniform(-0.05, 0.05, size=latent)
        drawn["w_out"] = _glorot(rng, latent, task.beta_horizon)
        drawn["b_out"] = rng.uniform(-0.05, 0.05, size=task.beta_horizon)

        self._buffers: _Buffers | None = None
        self._support = None
        if adjacency.kind == "learned":
            self._support = adjacency.w > 0
            drawn["adj"] = adjacency.w
            self._prop = None
        else:
            self._prop = _propagation_matrix(adjacency)
        ends = np.cumsum([arr.size for arr in drawn.values()]).tolist()
        self._slots = {name: (slice(end - arr.size, end), arr.shape)
                       for (name, arr), end in zip(drawn.items(), ends)}
        self.flat = np.concatenate([arr.ravel() for arr in drawn.values()])
        self.params = MappingProxyType(self._views(self.flat))

    def _views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's reshaped view of ``vector``, laid out as ``flat``."""
        return {name: vector[at].reshape(shape) for name, (at, shape) in self._slots.items()}

    def propagation(self) -> np.ndarray:
        if self._prop is not None:
            return self._prop
        # only the dense support is trainable; off-support entries are inert
        return 0.5 * (self.params["adj"] * self._support + np.eye(self.n))


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _propagation_matrix(adjacency: AdjacencyMatrix) -> np.ndarray:
    n = adjacency.n
    if adjacency.kind == "isolated":
        return np.eye(n)
    if adjacency.kind == "dense":
        return 0.5 * (adjacency.w + np.eye(n))
    # topology: symmetric renormalization with self-loops
    sym = 0.5 * (adjacency.w + adjacency.w.T) + np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(sym.sum(axis=1))
    return sym * np.outer(inv_sqrt, inv_sqrt)


class _Buffers:
    """Input rows and activations of one batch of ``s`` windows, plus backward buffers.

    Rows are node-major: row ``n * s + k`` holds node n in window k, so a
    (N*S, L) state viewed as (N, S*L) is the operand of one propagation GEMM.
    Without ``backward`` one state serves every layer, and the input rows, message
    and output share one scratch array, each dead before the next is written.
    ``first(rows)`` lays the same memory out for a batch with fewer rows.
    """

    def __init__(self, model: ForecastModel, s: int, backward: bool):
        rows, latent = model.n * s, model.latent
        widths = (model.task.input_width, latent, model.task.beta_horizon)
        if not backward:
            scratch = np.empty(rows * max(widths))
            self.x, message, self.y = (scratch[:rows * w].reshape(rows, w) for w in widths)
            self.h, self.m = [np.empty((rows, latent))], [message]
            return
        self.x = np.empty((rows, widths[0]))
        self.h = [np.empty((rows, latent)) for _ in range(model.n_layers + 1)]
        self.m = [np.empty((rows, latent)) for _ in range(model.n_layers)]
        self.y, self.dy = np.empty((rows, widths[2])), np.empty((rows, widths[2]))
        self.dh, self.dm = np.empty((rows, latent)), np.empty((rows, latent))

    def first(self, rows: int) -> _Buffers:
        """Views of every array's first ``rows`` rows: the buffers of a smaller batch,
        since each array is row-major and a batch's rows are contiguous."""
        view = object.__new__(_Buffers)
        for name, arr in vars(self).items():
            setattr(view, name, [a[:rows] for a in arr] if isinstance(arr, list) else arr[:rows])
        return view


def _batch_buffers(model: ForecastModel, s: int) -> _Buffers:
    """Buffers for an s-window batch: row-prefix views of the one set the model
    keeps, which is replaced by a larger one when a batch outgrows it."""
    rows = model.n * s
    if model._buffers is None or len(model._buffers.x) < rows:
        model._buffers = None  # the old set goes before the new one is allocated
        model._buffers = _Buffers(model, s, backward=True)
    return model._buffers.first(rows)


def _flatten_history(model: ForecastModel, history: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(S, alpha, N, C) -> node-major (N*S, alpha*C) input rows, written to ``out``."""
    rows = out.reshape(model.n, history.shape[0], model.task.alpha_hist, model.task.feature_dim)
    for c in range(model.task.feature_dim):
        # a copy per channel runs along alpha, not along C's few values (3x faster at C = 2)
        np.copyto(rows[..., c], np.transpose(history[..., c], (2, 0, 1)))
    return out


def _check_history(model: ForecastModel, history: np.ndarray) -> tuple[np.ndarray, bool]:
    history = np.asarray(history, dtype=float)
    single = history.ndim == 3
    if single:
        history = history[None]
    expected = (model.task.alpha_hist, model.n, model.task.feature_dim)
    if history.ndim != 4 or history.shape[1:] != expected:
        raise ShapeMismatch(f"history shape {history.shape} does not match "
                            f"(batch, alpha={expected[0]}, n={expected[1]}, c={expected[2]})")
    return history, single


def _check_batch(model: ForecastModel, history: np.ndarray,
                 target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated (S, alpha, N, C) history and (S, beta, N) target arrays."""
    history, single = _check_history(model, history)
    target = np.asarray(target, dtype=float)
    if single:
        target = target[None]
    expected = (history.shape[0], model.task.beta_horizon, model.n)
    if target.shape != expected:
        raise ShapeMismatch(f"target shape {target.shape}, expected {expected}")
    return history, target


def _forward(model: ForecastModel, x: np.ndarray, buf: _Buffers) -> np.ndarray:
    """Fill ``buf`` from node-major input rows x; returns the operator used."""
    a_hat = model.propagation()
    params = model.params
    n = model.n
    h = buf.h[0]
    np.matmul(x, params["w_in"], out=h)
    h += params["b_in"]
    np.maximum(h, 0.0, out=h)
    for layer in range(1, model.n_layers + 1):
        m, h_in, h = buf.m[(layer - 1) % len(buf.m)], h, buf.h[layer % len(buf.h)]
        np.matmul(a_hat, h_in.reshape(n, -1), out=m.reshape(n, -1))
        np.matmul(m, params[f"w_l{layer}"], out=h)
        h += params[f"b_l{layer}"]
        np.maximum(h, 0.0, out=h)
    np.matmul(h, params["w_out"], out=buf.y)
    buf.y += params["b_out"]
    return a_hat


def _backward(model: ForecastModel, x: np.ndarray, buf: _Buffers,
              a_hat: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backprop from dLoss/dY in ``buf.dy`` to parameter grads and dLoss/dZ0.

    The gradients, keyed in backprop order, are views of one fresh vector laid
    out as ``model.flat`` (their common ``.base``); dLoss/dZ0 is ``buf.dh``.
    """
    g = model._views(np.empty_like(model.flat))
    grads: dict[str, np.ndarray] = {}
    params = model.params
    n = model.n
    dh, dm = buf.dh, buf.dm
    grads["w_out"] = np.matmul(buf.h[model.n_layers].T, buf.dy, out=g["w_out"])
    grads["b_out"] = buf.dy.sum(axis=0, out=g["b_out"])
    np.matmul(buf.dy, params["w_out"].T, out=dh)
    d_adj = np.zeros((n, n)) if model._support is not None else None
    for layer in range(model.n_layers, 0, -1):
        dh *= buf.h[layer] > 0  # now dLoss/dZ; relu(z) > 0 exactly where z > 0
        grads[f"w_l{layer}"] = np.matmul(buf.m[layer - 1].T, dh, out=g[f"w_l{layer}"])
        grads[f"b_l{layer}"] = dh.sum(axis=0, out=g[f"b_l{layer}"])
        np.matmul(dh, params[f"w_l{layer}"].T, out=dm)
        if d_adj is not None:
            d_adj += dm.reshape(n, -1) @ buf.h[layer - 1].reshape(n, -1).T
        np.matmul(a_hat.T, dm.reshape(n, -1), out=dh.reshape(n, -1))
    dh *= buf.h[0] > 0
    grads["w_in"] = np.matmul(x.T, dh, out=g["w_in"])
    grads["b_in"] = dh.sum(axis=0, out=g["b_in"])
    if d_adj is not None:
        # operator is (P + I)/2, so dL/dP carries the 1/2 factor
        grads["adj"] = np.multiply(0.5 * d_adj, model._support, out=g["adj"])
    return grads, dh


def forward(model: ForecastModel, history: np.ndarray) -> np.ndarray:
    """Predict discharge; (alpha, N, C) -> (beta, N), batches add a lead axis.

    Windows run ``BATCH_SIZE`` at a time through one forward-only buffer set,
    so beside the (S, beta, N) result the pass holds a batch's activations
    whatever the window count.
    """
    history, single = _check_history(model, history)
    s = history.shape[0]
    out = np.empty((s, model.task.beta_horizon, model.n))
    buf = _Buffers(model, min(s, BATCH_SIZE), backward=False)
    for lo in range(0, s, BATCH_SIZE):
        chunk = history[lo:lo + BATCH_SIZE]
        k = chunk.shape[0]
        part = buf.first(model.n * k)
        _forward(model, _flatten_history(model, chunk, part.x), part)
        out[lo:lo + k] = part.y.reshape(model.n, k, -1).transpose(1, 2, 0)
    return out[0] if single else out


def input_jacobian(model: ForecastModel, u: int, history: np.ndarray) -> np.ndarray:
    """(N, beta, alpha*C) Jacobian of node u's forecast; block v is its
    derivative w.r.t. node v's history window, in (alpha, C) order.

    Evaluated at the (alpha, N, C) window ``history``, since gradients depend
    on the linearization point through the ReLU gates. One backward pass: the
    window is tiled beta times on the batch axis and copy k seeds d(forecast
    step k at node u), so copy k's input gradient is row k of every block.
    """
    beta = model.task.beta_horizon
    history, single = _check_history(model, history)
    if not single:
        raise ShapeMismatch("input_jacobian expects a single window, not a batch")
    buf = _Buffers(model, beta, backward=True)
    x = _flatten_history(model, np.broadcast_to(history, (beta,) + history.shape[1:]), buf.x)
    a_hat = _forward(model, x, buf)
    buf.dy.fill(0.0)
    steps = np.arange(beta)
    buf.dy.reshape(model.n, beta, beta)[u, steps, steps] = 1.0
    _, dz0 = _backward(model, x, buf, a_hat)  # the parameter gradients go unused
    return dz0.reshape(model.n, beta, -1) @ model.params["w_in"].T


def loss_and_gradients(model: ForecastModel, history: np.ndarray,
                       target: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """MAE loss over one batch plus analytic gradients for every parameter.

    Activations go to the one buffer set the model keeps, so one model must
    not run this from two threads at once. The gradients are views of
    one vector allocated by this call, laid out as ``model.flat`` and keyed
    in backprop order; no later call writes to them.
    """
    history, target = _check_batch(model, history, target)
    s = history.shape[0]
    buf = _batch_buffers(model, s)
    x = _flatten_history(model, history, buf.x)
    a_hat = _forward(model, x, buf)
    diff, shape = buf.dy, (model.n, s, model.task.beta_horizon)
    np.subtract(buf.y.reshape(shape), np.transpose(target, (2, 0, 1)), out=diff.reshape(shape))
    loss = float(np.mean(np.abs(diff, out=buf.y)))  # y is spent once diff exists
    np.sign(diff, out=buf.dy)
    buf.dy /= diff.size
    grads, _ = _backward(model, x, buf, a_hat)
    return loss, grads


def _clip_global_norm(grads: dict[str, np.ndarray]) -> bool:
    """Scale ``grads`` in place to ``CLIP_NORM``; True when they were clipped."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > CLIP_NORM:
        scale = CLIP_NORM / total
        for g in grads.values():
            g *= scale
        return True
    return False


def train(model: ForecastModel, data, config: TrainConfig) -> TrainResult:
    """Mini-batch Adam with decoupled weight decay.

    Parameters
    ----------
    model : ForecastModel
        Updated in place; owns its weights for the duration of the run.
    data : tuple
        ``(history, target)`` with shapes (S, alpha, N, C) and (S, beta, N),
        already split chronologically by the caller.
    config : TrainConfig
        Learning rate, epoch count and shuffling seed; batches of
        ``BATCH_SIZE`` windows are clipped to ``CLIP_NORM``.

    Returns
    -------
    TrainResult
        Epoch-mean MAE curve, the learning rate actually used per epoch and
        the number of batches per epoch whose gradients were clipped.

    Raises
    ------
    NonfiniteLoss
        A batch produced a NaN or infinite loss; message carries epoch,
        batch index and the learning rate in effect.
    """
    history, target = _check_batch(model, *data)
    n_samples = history.shape[0]
    if n_samples == 0:
        raise ValueError("empty training set")

    rng = np.random.default_rng(config.seed)
    flat = model.flat
    decay_mask = np.concatenate([np.full(p.size, name.startswith("w_") or name == "adj")
                                 for name, p in model.params.items()])
    losses = np.empty(config.epochs)
    lrs = np.empty(config.epochs)
    clipped = np.zeros(config.epochs, dtype=int)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m, v, step, denom = np.zeros((4, flat.size))  # Adam's two moments, then scratch
    steps = 0

    try:
        for epoch in range(1, config.epochs + 1):
            lr = config.lr_at(epoch)
            order = rng.permutation(n_samples)
            epoch_abs_sum = 0.0
            for start in range(0, n_samples, BATCH_SIZE):
                batch = order[start:start + BATCH_SIZE]
                loss, grads = loss_and_gradients(model, history[batch], target[batch])
                if not np.isfinite(loss):
                    raise NonfiniteLoss(f"non-finite loss at epoch {epoch}, "
                                        f"batch {start // BATCH_SIZE}, lr {lr}")
                epoch_abs_sum += loss * batch.size
                clipped[epoch - 1] += _clip_global_norm(grads)
                grad = grads["w_in"].base  # the whole gradient vector, laid out as flat
                steps += 1
                # m = beta1 * m + (1 - beta1) * grad and so on, operation for operation
                m *= beta1
                m += np.multiply(1 - beta1, grad, out=step)
                v *= beta2
                v += np.multiply(np.multiply(1 - beta2, grad, out=step), grad, out=step)
                np.sqrt(np.divide(v, 1 - beta2 ** steps, out=denom), out=denom)
                denom += eps
                np.multiply(lr, np.divide(m, 1 - beta1 ** steps, out=step), out=step)
                flat -= np.divide(step, denom, out=step)  # lr * m_hat / (sqrt(v_hat) + eps)
                np.subtract(flat, np.multiply(lr * WEIGHT_DECAY, flat, out=step),
                            out=flat, where=decay_mask)
            losses[epoch - 1] = epoch_abs_sum / n_samples
            lrs[epoch - 1] = lr
    finally:
        model._buffers = None  # the batch buffers are dead once training ends
    return TrainResult(losses=losses, lrs=lrs, clipped=clipped)


def nse(predicted, observed) -> float:
    """Nash-Sutcliffe efficiency: 1 - sum(p-o)^2 / sum(o-mean)^2.

    1 means a perfect forecast, 0 matches the mean predictor.
    """
    p = np.asarray(predicted, dtype=float).ravel()
    o = np.asarray(observed, dtype=float).ravel()
    if p.shape != o.shape or p.size < 2:
        raise ValueError("predicted and observed must share a length >= 2")
    o_mean = float(np.sum(o) / o.size)
    denom = float(np.sum((o - o_mean) ** 2))
    if denom == 0.0:
        raise ConstantObserved("observed series has zero variance, NSE undefined")
    return 1.0 - float(np.sum((p - o) ** 2)) / denom


# ---------------------------------------------------------------------------
# synthetic basin

LENGTH_RANGE_KM = (1.0, 10.0)   # stream length of each generated edge
ELEV_RANGE_M = (0.5, 30.0)      # elevation drop of each generated edge
CHAIN_BIAS = 0.5                # chance a new node extends the latest branch
WAVE_SPEED_KMH = 0.5            # flood-wave celerity; lag = length / speed
RELEASE_RANGE = (0.1, 0.35)     # per-node linear-reservoir release fraction
RAIN_PROB = 0.12                # chance of a storm at a node in a given hour
GAUGE_START = np.datetime64("2000-01-01T00:00:00", "s")  # first stamp of the gauge CSVs


@dataclass
class SyntheticBasin:
    """Random river tree with linear routing dynamics, reproducible by seed."""

    network: RiverNetwork
    routing: dict[tuple[int, int], int]  # (src, dst) -> travel time in hours, >= 1
    rainfall: np.ndarray   # (T, N)
    local_response: np.ndarray  # (T, N) reservoir outflow before routing
    discharge: np.ndarray  # (T, N)

    @property
    def hours(self) -> int:
        return self.rainfall.shape[0]

    def feature_tensor(self) -> np.ndarray:
        """(T, N, 2) observation stack: discharge then rainfall."""
        return np.stack([self.discharge, self.rainfall], axis=2)


def random_river_tree(size: int, rng: np.random.Generator) -> RiverNetwork:
    """Random tree where every non-outlet node has one downstream edge.

    With probability ``CHAIN_BIAS`` a new node extends the most recent branch
    instead of attaching uniformly at random, giving the elongated shapes
    typical of river networks.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    edges = []
    for node in range(1, size):
        if node == 1 or rng.random() < CHAIN_BIAS:
            parent = node - 1
        else:
            parent = int(rng.integers(0, node))
        edges.append(Edge(node, parent,
                          float(rng.uniform(*LENGTH_RANGE_KM)),
                          float(rng.uniform(*ELEV_RANGE_M))))
    return build_network(range(size), edges)


def generate_basin(size: int, seed: int, hours: int = 2400) -> SyntheticBasin:
    """Generate a random basin and simulate its discharge series.

    Discharge at each node is the lagged sum of upstream discharge plus a
    local rainfall response (a linear reservoir driven by sparse random
    storms). ``WAVE_SPEED_KMH`` gives per-edge travel times of a few hours up
    to a day, so at double-digit forecast horizons a large share of a
    downstream node's future inflow is already observable upstream. Routing
    loses no water, so the long-run mean outlet discharge equals the summed
    mean local inputs.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    rng = np.random.default_rng(seed)
    net = random_river_tree(size, rng)
    n = net.n

    routing = {(e.src, e.dst): max(1, int(round(e.stream_length / WAVE_SPEED_KMH)))
               for e in net.edges}

    storms = rng.random((hours, n)) < RAIN_PROB
    rainfall = np.where(storms, rng.gamma(2.0, 2.0, size=(hours, n)), 0.0)

    # linear reservoir per node: local[t] = (1-a) local[t-1] + a rain[t]
    release = rng.uniform(*RELEASE_RANGE, size=n)
    local = np.zeros((hours, n))
    for t in range(hours):
        prev = local[t - 1] if t > 0 else 0.0
        local[t] = (1.0 - release) * prev + release * rainfall[t]

    discharge = np.zeros((hours, n))
    for station in net.topological_order():
        k = net.index(station)
        q = local[:, k].copy()
        for e in net.in_edges(station):
            lag = routing[(e.src, e.dst)]
            if lag >= hours:
                continue  # still in transit past the simulated window
            q[lag:] += discharge[:hours - lag, net.index(e.src)]
        discharge[:, k] = q

    return SyntheticBasin(network=net, routing=routing, rainfall=rainfall,
                          local_response=local, discharge=discharge)


# ---------------------------------------------------------------------------
# windowing and evaluation

def prepare_dataset(features: np.ndarray, task: ForecastTask, train_frac: float,
                    stride: int):
    """Normalize, window and split a (T, N, C) observation stack.

    Every station and channel is z-scored with statistics from the first
    ``train_frac`` of the time axis only, so test values never leak into
    them; discharge scales span orders of magnitude between stations, and
    pooled statistics would drown the headwaters. Channel 0 is the forecast
    target. Window k reads hours [s, s + alpha) and predicts [s + alpha,
    s + alpha + beta) for s = k * stride. Of S windows, test holds those from
    int(S * train_frac) on and train those before, less the last
    ceil((alpha + beta) / stride), so train and test share no raw observation.

    Returns ``((x_train, y_train), (x_test, y_test))``, read-only views of
    one z-scored copy of the series (copy before writing); raises ValueError
    when ``train_frac`` is outside (0, 1), ``stride`` is below 1, no window
    fits, or either block is empty.
    """
    if not 0 < train_frac < 1:
        raise ValueError(f"train_frac (--train-frac) must lie in (0, 1), got {train_frac!r}")
    if stride < 1:
        raise ValueError(f"stride (--stride) must be at least 1, got {stride!r}")
    cut = int(features.shape[0] * train_frac)
    if cut == 0:
        raise ValueError(f"train_frac (--train-frac) {train_frac!r} leaves none of "
                         f"{features.shape[0]} time steps for training")
    mean = features[:cut].mean(axis=0)
    std = features[:cut].std(axis=0)
    std = np.where(std == 0, 1.0, std)
    features = features - mean
    features /= std
    alpha, beta = task.alpha_hist, task.beta_horizon
    if features.shape[0] < alpha + beta:
        raise ValueError(f"alpha_hist (--history) {alpha} + beta_horizon (--horizon) {beta} "
                         f"do not fit in a series of {features.shape[0]} time steps")
    # a basic slice of the sliding view copies no window
    windows = np.lib.stride_tricks.sliding_window_view(features, alpha + beta, axis=0)[::stride]
    xs = np.moveaxis(windows[..., :alpha], -1, 1)
    ys = np.moveaxis(windows[:, :, 0, alpha:], -1, 1)
    split = int(len(windows) * train_frac)
    gap = -(-(alpha + beta) // stride)
    n_train, n_test = max(split - gap, 0), len(windows) - split
    if n_train == 0 or n_test == 0:
        raise ValueError(f"window split left train={n_train} test={n_test}; "
                         "series too short for the requested task")
    return (xs[:n_train], ys[:n_train]), (xs[split:], ys[split:])


def nse_by_horizon(model: ForecastModel, history: np.ndarray,
                   target: np.ndarray) -> np.ndarray:
    """Mean per-node NSE at each forecast step over a window set.

    Nodes whose observed slice is constant are skipped (their NSE is
    undefined); the mean runs over the rest. The forecasts come from
    ``forward``, so scoring holds the (S, beta, N) forecasts plus one batch's
    activations, not activations for every window.
    """
    preds = forward(model, history)  # (S, beta, N)
    beta = model.task.beta_horizon
    out = np.empty(beta)
    for step in range(beta):
        scores = []
        for node in range(model.n):
            obs = target[:, step, node]
            if np.ptp(obs) == 0:
                continue
            scores.append(nse(preds[:, step, node], obs))
        out[step] = np.mean(scores) if scores else np.nan
    return out


# ---------------------------------------------------------------------------
# checkpoints and fixtures

def save_model(model: ForecastModel, path) -> None:
    """Versioned JSON weight dump with a shape header."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "task": {"alpha_hist": model.task.alpha_hist,
                 "beta_horizon": model.task.beta_horizon,
                 "feature_dim": model.task.feature_dim},
        "latent": model.latent,
        "n_layers": model.n_layers,
        "adjacency_kind": model.adjacency.kind,
        "adjacency": model.adjacency.w.tolist(),
        "shapes": {name: list(arr.shape) for name, arr in model.params.items()},
        "params": {name: arr.tolist() for name, arr in model.params.items()},
    }
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_model(path) -> ForecastModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} checkpoint: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')} in "
                         f"{path}; this build reads version {CHECKPOINT_VERSION}")
    unknown = sorted(set(payload["task"]) - {f.name for f in fields(ForecastTask)})
    if unknown:
        raise ValueError(f"checkpoint {path}: unknown task key {unknown[0]!r}")
    task = ForecastTask(**payload["task"])
    kind = payload["adjacency_kind"]
    w = np.asarray(payload["adjacency"], dtype=float)
    adjacency = AdjacencyMatrix(kind, w, support=w > 0 if kind == "topology" else None)
    model = ForecastModel(task, adjacency, latent=payload["latent"],
                          n_layers=payload["n_layers"])
    params = payload["params"]
    missing = sorted(model.params.keys() - params.keys())
    unexpected = sorted(params.keys() - model.params.keys())
    if missing or unexpected:
        raise ValueError(f"checkpoint {path}: parameters {missing} missing and {unexpected} "
                         "unexpected for the architecture its header declares")
    for name, values in params.items():
        arr = np.asarray(values, dtype=float)
        shape = payload["shapes"].get(name)
        if shape is None or arr.shape != tuple(shape):
            raise ValueError(f"checkpoint {path}: shapes entry for parameter {name} is {shape}, "
                             f"its values have shape {arr.shape}")
        if arr.shape != model.params[name].shape:
            raise ValueError(f"checkpoint {path}: parameter {name} has shape {arr.shape}, "
                             f"the architecture needs {model.params[name].shape}")
        model.params[name][...] = arr
    return model


def basin_to_gauge_csvs(basin: SyntheticBasin, directory) -> list[Path]:
    """Write one `timestamp,qobs,rain` CSV per station, hourly from ``GAUGE_START``.

    Lines are written as :mod:`csv` writes them: ``repr`` values and ``\\r\\n``
    endings.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    hours = GAUGE_START + np.arange(basin.hours) * np.timedelta64(1, "h")
    stamps = [f"{stamp}Z" for stamp in np.datetime_as_string(hours).tolist()]
    written = []
    for station in basin.network.nodes:
        k = basin.network.index(station)
        path = directory / f"{station}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write("timestamp,qobs,rain\r\n")
            fh.write("".join([f"{stamp},{q!r},{r!r}\r\n" for stamp, q, r in zip(
                stamps, basin.discharge[:, k].tolist(), basin.rainfall[:, k].tolist())]))
        written.append(path)
    return written
