"""Desk-scale message-passing forecaster plus the synthetic basin generator.

The network is a GCN-style stack implemented directly in numpy: an input
projection over each node's flattened history window, a fixed number of
propagation layers H' = relu(A_hat @ H @ W), and a linear output head that
emits one value per forecast step. Gradients are hand-derived backprop, which
keeps training deterministic and lets sensitivities be computed analytically.

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

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adjacency import AdjacencyMatrix
from .errors import ConstantObserved, NonfiniteLoss, ShapeMismatch
from .network import Edge, RiverNetwork, build_network

CHECKPOINT_FORMAT = "riverdense-forecast"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ForecastTask:
    """History length, forecast horizon (both hours) and channel count."""

    alpha_hist: int = 24
    beta_horizon: int = 24
    feature_dim: int = 1
    static_dim: int = 0

    def __post_init__(self):
        if self.alpha_hist < 1 or self.beta_horizon < 1:
            raise ValueError("alpha_hist and beta_horizon must be >= 1")
        if self.feature_dim < 1 or self.static_dim < 0:
            raise ValueError("feature_dim must be >= 1 and static_dim >= 0")

    @property
    def input_width(self) -> int:
        return self.alpha_hist * self.feature_dim + self.static_dim


@dataclass
class TrainConfig:
    """Optimization settings; loss is mean absolute error.

    The default optimizer is plain gradient descent with decoupled weight
    decay, which keeps the update rule transparent. 'adam' enables the
    moment-based variant the lr/halving defaults were tuned for; plain GD at
    lr 2e-3 underfits noticeably on the synthetic basins.
    """

    lr: float = 2e-3
    weight_decay: float = 1e-4
    lr_halving_epochs: tuple[int, ...] = (1, 50, 80)
    clip_norm: float = 5.0
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    optimizer: str = "gd"

    def __post_init__(self):
        if min(self.lr, self.weight_decay, self.clip_norm) < 0 or self.lr == 0:
            raise ValueError("lr must be positive; weight_decay and clip_norm nonnegative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.optimizer not in ("gd", "adam"):
            raise ValueError(f"optimizer must be 'gd' or 'adam', got {self.optimizer!r}")

    def lr_at(self, epoch: int) -> float:
        """Effective learning rate during a 1-indexed epoch; halvings apply
        after each listed epoch completes."""
        halvings = sum(1 for m in self.lr_halving_epochs if m < epoch)
        return self.lr * 0.5 ** halvings


@dataclass
class TrainResult:
    losses: np.ndarray   # epoch-mean MAE
    lrs: np.ndarray


class ForecastModel:
    """Layered message-passing forecaster with explicit weight arrays.

    ``params`` maps names to numpy arrays. For the learned adjacency kind the
    propagation matrix itself lives in ``params['adj']`` (masked to the dense
    support) and receives gradients like any other weight.
    """

    def __init__(self, task: ForecastTask, adjacency: AdjacencyMatrix,
                 latent: int = 32, n_layers: int = 3, seed: int = 0,
                 static_features: np.ndarray | None = None):
        if latent < 1 or n_layers < 1:
            raise ValueError("latent and n_layers must be >= 1")
        self.task = task
        self.adjacency = adjacency
        self.latent = latent
        self.n_layers = n_layers
        self.n = adjacency.n

        if static_features is not None:
            static_features = np.asarray(static_features, dtype=float)
            if static_features.shape != (self.n, task.static_dim):
                raise ShapeMismatch(
                    f"static features {static_features.shape} do not match "
                    f"(n={self.n}, static_dim={task.static_dim})")
        elif task.static_dim:
            raise ShapeMismatch("task declares static_dim but no static features given")
        self.static_features = static_features

        rng = np.random.default_rng(seed)
        width = task.input_width
        # biases start small but nonzero; an all-zero bias vector parks every
        # dead-relu unit exactly on the kink, where subgradients are ambiguous
        self.params: dict[str, np.ndarray] = {
            "w_in": _glorot(rng, width, latent),
            "b_in": rng.uniform(-0.05, 0.05, size=latent),
        }
        for layer in range(1, n_layers + 1):
            self.params[f"w_l{layer}"] = _glorot(rng, latent, latent)
            self.params[f"b_l{layer}"] = rng.uniform(-0.05, 0.05, size=latent)
        self.params["w_out"] = _glorot(rng, latent, task.beta_horizon)
        self.params["b_out"] = rng.uniform(-0.05, 0.05, size=task.beta_horizon)

        self._support = None
        if adjacency.kind == "learned":
            self._support = adjacency.w > 0
            self.params["adj"] = adjacency.w.copy()
            self._prop = None
        else:
            self._prop = _propagation_matrix(adjacency)

    def propagation(self) -> np.ndarray:
        if self._prop is not None:
            return self._prop
        # only the dense support is trainable; off-support entries are inert
        return 0.5 * (self.params["adj"] * self._support + np.eye(self.n))

    def trainable_names(self) -> list[str]:
        return sorted(self.params)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _propagation_matrix(adjacency: AdjacencyMatrix) -> np.ndarray:
    n = adjacency.n
    if adjacency.kind == "isolated":
        return np.eye(n)
    if adjacency.kind in ("dense", "learned"):
        return 0.5 * (adjacency.w + np.eye(n))
    # topology: symmetric renormalization with self-loops
    sym = 0.5 * (adjacency.w + adjacency.w.T) + np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(sym.sum(axis=1))
    return sym * np.outer(inv_sqrt, inv_sqrt)


def _flatten_history(model: ForecastModel, history: np.ndarray) -> np.ndarray:
    """(S, alpha, N, C) -> (S, N, alpha*C [+ static]) node-feature matrix."""
    task = model.task
    s = history.shape[0]
    x = np.transpose(history, (0, 2, 1, 3)).reshape(s, model.n, task.alpha_hist * task.feature_dim)
    if model.static_features is not None:
        static = np.broadcast_to(model.static_features, (s, model.n, task.static_dim))
        x = np.concatenate([x, static], axis=2)
    return x


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


def _forward_cached(model: ForecastModel, x: np.ndarray) -> tuple[np.ndarray, dict]:
    a_hat = model.propagation()
    cache: dict[str, np.ndarray] = {"x": x, "a": a_hat}
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


def _backward(model: ForecastModel, cache: dict, dy: np.ndarray,
              with_params: bool = True) -> tuple[dict | None, np.ndarray]:
    """Backprop from dLoss/dY (S, N, beta) to parameter grads and dLoss/dX."""
    grads: dict[str, np.ndarray] | None = {} if with_params else None
    a_hat = cache["a"]
    h_last = cache[f"h{model.n_layers}"]
    if with_params:
        grads["w_out"] = np.einsum("snl,snb->lb", h_last, dy)
        grads["b_out"] = dy.sum(axis=(0, 1))
    dh = dy @ model.params["w_out"].T
    d_adj = np.zeros_like(a_hat) if (with_params and model._support is not None) else None
    for layer in range(model.n_layers, 0, -1):
        dz = dh * (cache[f"z{layer}"] > 0)
        if with_params:
            grads[f"w_l{layer}"] = np.einsum("snl,snk->lk", cache[f"m{layer}"], dz)
            grads[f"b_l{layer}"] = dz.sum(axis=(0, 1))
        dm = dz @ model.params[f"w_l{layer}"].T
        if d_adj is not None:
            prev = cache[f"h{layer - 1}"] if layer > 1 else cache["h0"]
            d_adj += np.einsum("snk,smk->nm", dm, prev)
        dh = np.matmul(a_hat.T, dm)
    dz0 = dh * (cache["z0"] > 0)
    if with_params:
        grads["w_in"] = np.einsum("snf,snl->fl", cache["x"], dz0)
        grads["b_in"] = dz0.sum(axis=(0, 1))
        if d_adj is not None:
            # operator is (P + I)/2, so dL/dP carries the 1/2 factor
            grads["adj"] = 0.5 * d_adj * model._support
    dx = dz0 @ model.params["w_in"].T
    return grads, dx


def forward(model: ForecastModel, history: np.ndarray) -> np.ndarray:
    """Predict discharge; (alpha, N, C) -> (beta, N), batches add a lead axis."""
    history, single = _check_history(model, history)
    x = _flatten_history(model, history)
    y, _ = _forward_cached(model, x)
    out = np.transpose(y, (0, 2, 1))  # (S, beta, N)
    return out[0] if single else out


def sensitivity(model: ForecastModel, u: int, v: int,
                history: np.ndarray | None = None) -> float:
    """Frobenius norm of d(prediction at node u) / d(history of node v).

    Evaluated at ``history`` (an all-ones window by default, since gradients
    depend on the linearization point through the ReLU gates).
    """
    jac = input_jacobian(model, u, v, history)
    return float(np.sqrt(np.sum(jac * jac)))


def input_jacobian(model: ForecastModel, u: int, v: int,
                   history: np.ndarray | None = None) -> np.ndarray:
    """Full (beta, alpha*C) Jacobian block of node u's forecast w.r.t. node v."""
    task = model.task
    if history is None:
        history = np.ones((task.alpha_hist, model.n, task.feature_dim))
    history, single = _check_history(model, history)
    if not single:
        raise ShapeMismatch("input_jacobian expects a single window, not a batch")
    x = _flatten_history(model, history)
    _, cache = _forward_cached(model, x)
    width = task.alpha_hist * task.feature_dim
    jac = np.empty((task.beta_horizon, width))
    for step in range(task.beta_horizon):
        dy = np.zeros((1, model.n, task.beta_horizon))
        dy[0, u, step] = 1.0
        _, dx = _backward(model, cache, dy, with_params=False)
        jac[step] = dx[0, v, :width]
    return jac


def mae_loss(predicted: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean(np.abs(predicted - target)))


def loss_and_gradients(model: ForecastModel, history: np.ndarray,
                       target: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """MAE loss over one batch plus analytic gradients for every parameter."""
    history, single = _check_history(model, history)
    target = np.asarray(target, dtype=float)
    if single:
        target = target[None]
    expected = (history.shape[0], model.task.beta_horizon, model.n)
    if target.shape != expected:
        raise ShapeMismatch(f"target shape {target.shape}, expected {expected}")
    x = _flatten_history(model, history)
    y, cache = _forward_cached(model, x)
    t = np.transpose(target, (0, 2, 1))  # (S, N, beta)
    diff = y - t
    loss = float(np.mean(np.abs(diff)))
    dy = np.sign(diff) / diff.size
    grads, _ = _backward(model, cache, dy, with_params=True)
    return loss, grads


def _clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def train(model: ForecastModel, data, config: TrainConfig) -> TrainResult:
    """Mini-batch gradient descent with decoupled weight decay.

    Parameters
    ----------
    model : ForecastModel
        Updated in place; owns its weights for the duration of the run.
    data : tuple
        ``(history, target)`` with shapes (S, alpha, N, C) and (S, beta, N),
        already split chronologically by the caller.
    config : TrainConfig
        Learning rate, halving epochs, global-norm clipping, seed.

    Returns
    -------
    TrainResult
        Epoch-mean MAE curve and the learning rate actually used per epoch.

    Raises
    ------
    NonfiniteLoss
        A batch produced a NaN or infinite loss; message carries epoch,
        batch index and the learning rate in effect.
    """
    history, target = data
    history = np.asarray(history, dtype=float)
    target = np.asarray(target, dtype=float)
    n_samples = history.shape[0]
    if n_samples == 0:
        raise ValueError("empty training set")

    rng = np.random.default_rng(config.seed)
    decayed = [name for name in model.params if name.startswith("w_") or name == "adj"]
    losses = np.empty(config.epochs)
    lrs = np.empty(config.epochs)

    adam = config.optimizer == "adam"
    if adam:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        moment1 = {k: np.zeros_like(v) for k, v in model.params.items()}
        moment2 = {k: np.zeros_like(v) for k, v in model.params.items()}
        steps = 0

    for epoch in range(1, config.epochs + 1):
        lr = config.lr_at(epoch)
        order = rng.permutation(n_samples)
        epoch_abs_sum = 0.0
        for start in range(0, n_samples, config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, grads = loss_and_gradients(model, history[batch], target[batch])
            if not np.isfinite(loss):
                raise NonfiniteLoss(f"non-finite loss at epoch {epoch}, "
                                    f"batch {start // config.batch_size}, lr {lr}")
            epoch_abs_sum += loss * batch.size
            _clip_global_norm(grads, config.clip_norm)
            if adam:
                steps += 1
                for name, grad in grads.items():
                    moment1[name] = beta1 * moment1[name] + (1 - beta1) * grad
                    moment2[name] = beta2 * moment2[name] + (1 - beta2) * grad * grad
                    m_hat = moment1[name] / (1 - beta1 ** steps)
                    v_hat = moment2[name] / (1 - beta2 ** steps)
                    model.params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            else:
                for name, grad in grads.items():
                    model.params[name] -= lr * grad
            if config.weight_decay:
                for name in decayed:
                    model.params[name] -= lr * config.weight_decay * model.params[name]
        losses[epoch - 1] = epoch_abs_sum / n_samples
        lrs[epoch - 1] = lr
    return TrainResult(losses=losses, lrs=lrs)


def nse(predicted, observed, weights=None) -> float:
    """Nash-Sutcliffe efficiency: 1 - sum(p-o)^2 / sum(o-mean)^2.

    1 means a perfect forecast, 0 matches the mean predictor. An optional
    per-sample weight vector turns this into its weighted variant.
    """
    p = np.asarray(predicted, dtype=float).ravel()
    o = np.asarray(observed, dtype=float).ravel()
    if p.shape != o.shape or p.size < 2:
        raise ValueError("predicted and observed must share a length >= 2")
    if weights is None:
        w = np.ones_like(o)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        if w.shape != o.shape:
            raise ValueError("weights must match the series length")
        if np.any(w < 0) or w.sum() == 0:
            raise ValueError("weights must be nonnegative with a positive sum")
    o_mean = float(np.sum(w * o) / np.sum(w))
    denom = float(np.sum(w * (o - o_mean) ** 2))
    if denom == 0.0:
        raise ConstantObserved("observed series has zero variance, NSE undefined")
    return 1.0 - float(np.sum(w * (p - o) ** 2)) / denom


# ---------------------------------------------------------------------------
# synthetic basin

@dataclass(frozen=True)
class RoutingCoeff:
    gain: float      # fraction of upstream discharge delivered, (0, 1]
    lag_hours: int   # travel time, >= 1


@dataclass
class SyntheticBasin:
    """Random river tree with linear routing dynamics, reproducible by seed."""

    network: RiverNetwork
    routing: dict[tuple[int, int], RoutingCoeff]
    rainfall: np.ndarray   # (T, N)
    local_response: np.ndarray  # (T, N) reservoir outflow before routing
    discharge: np.ndarray  # (T, N)

    @property
    def hours(self) -> int:
        return self.rainfall.shape[0]

    def feature_tensor(self) -> np.ndarray:
        """(T, N, 2) observation stack: discharge then rainfall."""
        return np.stack([self.discharge, self.rainfall], axis=2)


def random_river_tree(size: int, rng: np.random.Generator,
                      length_range: tuple[float, float] = (1.0, 10.0),
                      elev_range: tuple[float, float] = (0.5, 30.0),
                      chain_bias: float = 0.5) -> RiverNetwork:
    """Random tree where every non-outlet node has one downstream edge.

    ``chain_bias`` is the probability a new node extends the most recent
    branch instead of attaching uniformly at random, giving the elongated
    shapes typical of river networks.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    edges = []
    for node in range(1, size):
        if node == 1 or rng.random() < chain_bias:
            parent = node - 1
        else:
            parent = int(rng.integers(0, node))
        edges.append(Edge(node, parent,
                          float(rng.uniform(*length_range)),
                          float(rng.uniform(*elev_range))))
    return build_network(range(size), edges)


def generate_basin(size: int, seed: int, hours: int = 2400,
                   wave_speed_kmh: float = 0.5, rain_prob: float = 0.12,
                   route_gain: float = 1.0,
                   release_range: tuple[float, float] = (0.1, 0.35)) -> SyntheticBasin:
    """Generate a random basin and simulate its discharge series.

    Discharge at each node is the routed, lagged sum of upstream discharge
    plus a local rainfall response (a linear reservoir driven by sparse
    random storms). The default wave speed gives per-edge travel times of a
    few hours up to a day, so at double-digit forecast horizons a large share
    of a downstream node's future inflow is already observable upstream. With
    the default unit routing gain the long-run mean outlet discharge equals
    the summed mean local inputs.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    if not 0 < route_gain <= 1:
        raise ValueError("route_gain must be in (0, 1]")
    if not 0 < release_range[0] <= release_range[1] <= 1:
        raise ValueError("release_range must satisfy 0 < lo <= hi <= 1")
    rng = np.random.default_rng(seed)
    net = random_river_tree(size, rng)
    n = net.n

    routing = {}
    for e in net.edges:
        lag = max(1, int(round(e.stream_length / wave_speed_kmh)))
        routing[(e.src, e.dst)] = RoutingCoeff(gain=route_gain, lag_hours=lag)

    storms = rng.random((hours, n)) < rain_prob
    rainfall = np.where(storms, rng.gamma(2.0, 2.0, size=(hours, n)), 0.0)

    # linear reservoir per node: local[t] = (1-a) local[t-1] + a rain[t]
    release = rng.uniform(*release_range, size=n)
    local = np.zeros((hours, n))
    for t in range(hours):
        prev = local[t - 1] if t > 0 else 0.0
        local[t] = (1.0 - release) * prev + release * rainfall[t]

    discharge = np.zeros((hours, n))
    for station in net.topological_order():
        k = net.index(station)
        q = local[:, k].copy()
        for e in net.in_edges(station):
            coeff = routing[(e.src, e.dst)]
            if coeff.lag_hours >= hours:
                continue  # still in transit past the simulated window
            up = discharge[:, net.index(e.src)]
            lagged = np.zeros(hours)
            lagged[coeff.lag_hours:] = up[:hours - coeff.lag_hours]
            q += coeff.gain * lagged
        discharge[:, k] = q

    return SyntheticBasin(network=net, routing=routing, rainfall=rainfall,
                          local_response=local, discharge=discharge)


# ---------------------------------------------------------------------------
# windowing and evaluation

def make_windows(features: np.ndarray, targets: np.ndarray, task: ForecastTask,
                 stride: int = 1, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Slice (T, N, C) observations into supervised forecasting windows.

    Returns history windows (S, alpha, N, C) and target windows (S, beta, N),
    ordered chronologically.
    """
    t_total = features.shape[0]
    alpha, beta = task.alpha_hist, task.beta_horizon
    anchors = range(start + alpha, t_total - beta + 1, stride)
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


def prepare_dataset(features: np.ndarray, task: ForecastTask, train_frac: float,
                    stride: int):
    """Normalize, window and split a (T, N, C) observation stack.

    Every station and channel is z-scored with statistics from the first
    ``train_frac`` of the time axis only, so test values never leak into
    them; discharge scales span orders of magnitude between stations, and
    pooled statistics would drown the headwaters. Channel 0 is the forecast
    target. The split drops ceil((alpha + beta) / stride) windows at the
    boundary so train and test share no raw observation.

    Returns ``((x_train, y_train), (x_test, y_test))``; raises ValueError
    when ``train_frac`` is outside (0, 1), ``stride`` is below 1, or either
    block is empty.
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
    features = (features - mean) / std
    xs, ys = make_windows(features, features[:, :, 0], task, stride=stride)
    gap = -(-(task.alpha_hist + task.beta_horizon) // stride)
    (x_tr, y_tr), (x_te, y_te) = chronological_split(xs, ys, train_frac, gap=gap)
    if x_tr.shape[0] == 0 or x_te.shape[0] == 0:
        raise ValueError(f"window split left train={x_tr.shape[0]} test={x_te.shape[0]}; "
                         "series too short for the requested task")
    return (x_tr, y_tr), (x_te, y_te)


def nse_by_horizon(model: ForecastModel, history: np.ndarray,
                   target: np.ndarray) -> np.ndarray:
    """Mean per-node NSE at each forecast step over a window set.

    Nodes whose observed slice is constant are skipped (their NSE is
    undefined); the mean runs over the rest.
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
                 "feature_dim": model.task.feature_dim,
                 "static_dim": model.task.static_dim},
        "latent": model.latent,
        "n_layers": model.n_layers,
        "adjacency_kind": model.adjacency.kind,
        "adjacency": model.adjacency.w.tolist(),
        "shapes": {name: list(arr.shape) for name, arr in model.params.items()},
        "params": {name: arr.tolist() for name, arr in model.params.items()},
        "static_features": (model.static_features.tolist()
                            if model.static_features is not None else None),
    }
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_model(path) -> ForecastModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} checkpoint: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    task = ForecastTask(**payload["task"])
    kind = payload["adjacency_kind"]
    w = np.asarray(payload["adjacency"], dtype=float)
    if kind == "topology":
        adjacency = AdjacencyMatrix(kind, w, support=w > 0)
    else:
        adjacency = AdjacencyMatrix(kind, w)
    static = payload.get("static_features")
    model = ForecastModel(task, adjacency, latent=payload["latent"],
                          n_layers=payload["n_layers"],
                          static_features=np.asarray(static) if static is not None else None)
    for name, values in payload["params"].items():
        arr = np.asarray(values, dtype=float)
        expected = tuple(payload["shapes"][name])
        if arr.shape != expected:
            raise ValueError(f"checkpoint shape header mismatch for {name}")
        model.params[name] = arr
    return model


def basin_to_gauge_csvs(basin: SyntheticBasin, directory,
                        start: str = "2000-01-01T00:00:00Z") -> list[Path]:
    """Write one `timestamp,qobs,rain` CSV per station, hourly from ``start``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    t0 = np.datetime64(start.replace("Z", ""), "s")
    stamps = t0 + np.arange(basin.hours) * np.timedelta64(1, "h")
    written = []
    for station in basin.network.nodes:
        k = basin.network.index(station)
        path = directory / f"{station}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "qobs", "rain"])
            for t in range(basin.hours):
                writer.writerow([f"{stamps[t]}Z",
                                 repr(float(basin.discharge[t, k])),
                                 repr(float(basin.rainfall[t, k]))])
        written.append(path)
    return written
