import csv
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riverdense as rd
from riverdense.errors import ConstantObserved, NonfiniteLoss, ShapeMismatch

from riverdense.forecast import _Buffers, _flatten_history, _forward

from util import (chronological_split, hop_distances, make_windows, outlets,
                  random_weighted_tree, reference_input_jacobian,
                  reference_loss_and_gradients, reference_train, traced_peak)


def isolated_adj(n):
    return rd.AdjacencyMatrix("isolated", np.zeros((n, n)))


def dense_adj_for(net):
    d = rd.topological_distances(net)
    return rd.build_adjacency(net, d, rd.RewireConfig(kind="dense"))


def topology_adj_for(net):
    d = rd.topological_distances(net)
    return rd.build_adjacency(net, d, rd.RewireConfig(kind="topology"))


def path_net(n):
    return rd.build_network(range(n), [(k, k + 1, 1.0, 0.0) for k in range(n - 1)])


def small_model(adj, alpha=4, beta=3, c=2, latent=6, layers=3, seed=0):
    task = rd.ForecastTask(alpha_hist=alpha, beta_horizon=beta, feature_dim=c)
    return rd.ForecastModel(task, adj, latent=latent, n_layers=layers, seed=seed)


KINDS = ("isolated", "topology", "dense", "learned")


def adj_of_kind(net, kind):
    if kind == "isolated":
        return isolated_adj(net.n)
    return rd.build_adjacency(net, rd.topological_distances(net), rd.RewireConfig(kind=kind))


# ---------------------------------------------------------------------------
# forward

def test_forward_shapes_single_and_batch():
    model = small_model(isolated_adj(5))
    single = rd.forward(model, np.ones((4, 5, 2)))
    assert single.shape == (3, 5)
    batch = rd.forward(model, np.ones((7, 4, 5, 2)))
    assert batch.shape == (7, 3, 5)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_forward_equals_the_backward_buffer_pass_bitwise(kind, layers):
    # forward writes every layer's state to one array and its input rows, messages and
    # output to one shared scratch array; the backward buffers keep each layer's own.
    # Up to BATCH_SIZE windows forward runs them as one chunk, as the training batch does
    net = random_weighted_tree(7, np.random.default_rng(layers))
    model = small_model(adj_of_kind(net, kind), layers=layers)
    for s in (1, 5, rd.forecast.BATCH_SIZE):
        history = np.random.default_rng(s).normal(size=(s, 4, net.n, 2))
        buf = _Buffers(model, s, backward=True)
        _forward(model, _flatten_history(model, history, buf.x), buf)
        want = buf.y.reshape(net.n, s, -1).transpose(1, 2, 0)
        assert rd.forward(model, history).tobytes() == want.tobytes(), s


@pytest.mark.parametrize("windows", [0, 1, 63, 64, 65, 131])
def test_forward_runs_its_windows_in_batch_sized_chunks(windows):
    net = random_weighted_tree(6, np.random.default_rng(windows))
    model = small_model(adj_of_kind(net, "learned"), seed=windows)
    history = np.random.default_rng(8).normal(size=(windows, 4, net.n, 2))
    got = rd.forward(model, history)
    assert got.shape == (windows, 3, net.n)
    size = rd.forecast.BATCH_SIZE
    for lo in range(0, windows, size):
        assert got[lo:lo + size].tobytes() == rd.forward(model, history[lo:lo + size]).tobytes()


def test_forward_peak_does_not_grow_with_the_window_count():
    net = path_net(6)
    model = small_model(dense_adj_for(net), latent=16)
    size = rd.forecast.BATCH_SIZE
    history = np.random.default_rng(6).normal(size=(10 * size, 4, 6, 2))
    _, one_batch = traced_peak(rd.forward, model, history[:size])
    _, ten_batches = traced_peak(rd.forward, model, history)
    output = 10 * size * 3 * 6 * 8  # the (S, beta, N) forecasts
    # one pass over all 640 windows held 1.05 MB here, 0.24 MB chunked
    assert ten_batches <= one_batch + output + 2**12


def test_forward_peak_does_not_grow_with_the_layer_count():
    net = path_net(6)
    history = np.random.default_rng(5).normal(size=(200, 4, 6, 2))
    peaks = {layers: traced_peak(rd.forward, small_model(dense_adj_for(net), latent=16,
                                                         layers=layers), history)[1]
             for layers in (1, 4)}
    state = 6 * 200 * 16 * 8  # one (N*S, latent) array; keeping every layer's took 6 more
    assert peaks[4] < peaks[1] + state


@pytest.mark.parametrize("alpha", [4, 12])  # the widest row is the message's, then the input's
def test_forward_peak_is_one_state_plus_one_shared_scratch_array(alpha):
    net = path_net(6)
    history = np.random.default_rng(5).normal(size=(200, alpha, 6, 2))
    model = small_model(dense_adj_for(net), alpha=alpha, latent=16)
    _, peak = traced_peak(rd.forward, model, history)
    rows = 6 * 200
    # input rows (alpha * C wide), message (latent) and output (beta) share one scratch array;
    # 2**17 covers numpy's 64 KiB buffer for the broadcast bias add. Separate input rows, two
    # states, a message and an output took 634 KB at alpha 4
    assert peak < rows * (max(alpha * 2, 16, 3) + 16) * 8 + 2**17


def test_forward_shape_mismatch():
    model = small_model(isolated_adj(5))
    with pytest.raises(ShapeMismatch):
        rd.forward(model, np.ones((4, 6, 2)))


def test_single_node_graph_is_an_mlp():
    model = small_model(isolated_adj(1))
    out = rd.forward(model, np.random.default_rng(0).normal(size=(4, 1, 2)))
    assert out.shape == (3, 1)
    assert np.all(np.isfinite(out))


def test_row_stochastic_propagation_preserves_constant_features():
    net = path_net(6)
    model = small_model(dense_adj_for(net), alpha=3, beta=2, c=1, seed=3)
    history = np.ones((3, 6, 1)) * 0.7  # identical history at every node
    out = rd.forward(model, history)
    assert np.allclose(out, out[:, [0]], atol=1e-12)


def test_isolated_kind_has_no_cross_node_paths():
    model = small_model(isolated_adj(4), seed=1)
    rng = np.random.default_rng(2)
    history = rng.normal(size=(4, 4, 2))
    for u in range(4):
        jac = rd.input_jacobian(model, u, history)
        for v in range(4):
            if u == v:
                assert np.linalg.norm(jac[v]) > 0
            else:
                assert not np.any(jac[v])


# ---------------------------------------------------------------------------
# input Jacobian

def test_sensitivity_respects_hop_distance_on_path():
    net = path_net(7)
    model = small_model(topology_adj_for(net), layers=3, seed=5)
    history = np.abs(np.random.default_rng(7).normal(size=(4, 7, 2)))
    assert not np.any(rd.input_jacobian(model, 6, history)[0])  # 6 hops away, 3 layers
    dense_model = small_model(dense_adj_for(net), layers=3, seed=5)
    assert np.linalg.norm(rd.input_jacobian(dense_model, 6, history)[0]) > 0


def test_receptive_field_exact_on_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 14))
        net = random_weighted_tree(n, rng)
        adj = topology_adj_for(net)
        layers = int(rng.integers(1, 4))
        model = small_model(adj, layers=layers, seed=int(rng.integers(1e6)))
        hops = hop_distances(model.propagation() != 0)
        history = np.abs(rng.normal(size=(4, n, 2)))
        u, v = rng.integers(0, n, size=2)
        jac = rd.input_jacobian(model, int(u), history)
        if hops[u, v] > layers:
            assert not np.any(jac[v])


def test_sensitivity_matches_finite_differences():
    rng = np.random.default_rng(13)
    net = random_weighted_tree(6, rng)
    model = small_model(dense_adj_for(net), alpha=3, beta=2, c=2, latent=5, seed=17)
    history = rng.normal(size=(3, 6, 2))
    u, v = 2, 4
    analytic = rd.input_jacobian(model, u, history)[v]
    step = 1e-5
    fd = np.zeros_like(analytic)
    flat_idx = 0
    for t in range(3):
        for c in range(2):
            bumped = history.copy()
            bumped[t, v, c] += step
            up = rd.forward(model, bumped)[:, u]
            bumped[t, v, c] -= 2 * step
            down = rd.forward(model, bumped)[:, u]
            fd[:, flat_idx] = (up - down) / (2 * step)
            flat_idx += 1
    denom = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-12)
    assert np.linalg.norm(analytic - fd) / denom < 1e-4


@pytest.mark.parametrize("kind", KINDS)
def test_input_jacobian_one_pass_matches_per_step_loop(kind):
    rng = np.random.default_rng(41)
    net = random_weighted_tree(7, rng)
    model = small_model(adj_of_kind(net, kind), alpha=5, beta=4, c=2, latent=6, seed=43)
    history = rng.normal(size=(5, 7, 2))
    for u in range(7):
        jac = rd.input_jacobian(model, u, history)
        assert jac.shape == (7, 4, 10)
        for v in range(7):
            assert np.max(np.abs(jac[v] - reference_input_jacobian(model, u, v, history))) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_loss_and_gradients_match_einsum_reference(kind):
    rng = np.random.default_rng(47)
    net = random_weighted_tree(6, rng)
    model = small_model(adj_of_kind(net, kind), seed=53)
    x = rng.normal(size=(13, 4, 6, 2))
    y = rng.normal(size=(13, 3, 6))
    # batches of 5, 5 and a ragged 3, twice: both buffer shapes are reused
    for start in (0, 5, 10, 0, 5, 10):
        batch = slice(start, start + 5)
        loss, grads = rd.loss_and_gradients(model, x[batch], y[batch])
        ref_loss, ref_grads = reference_loss_and_gradients(model, x[batch], y[batch])
        assert abs(loss - ref_loss) < 1e-12
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            assert grad.shape == model.params[name].shape
            assert np.max(np.abs(grad - ref_grads[name])) < 1e-12, name


def test_returned_gradients_do_not_alias_reused_buffers():
    rng = np.random.default_rng(67)
    net = random_weighted_tree(5, rng)
    model = small_model(adj_of_kind(net, "learned"), seed=71)
    x = rng.normal(size=(2, 8, 4, 5, 2))
    y = rng.normal(size=(2, 8, 3, 5))
    _, first = rd.loss_and_gradients(model, x[0], y[0])
    kept = {name: grad.copy() for name, grad in first.items()}
    _, second = rd.loss_and_gradients(model, x[1], y[1])
    for name in kept:
        assert np.array_equal(first[name], kept[name]), name
        assert not np.shares_memory(first[name], second[name]), name


def test_smaller_batches_reuse_row_prefixes_of_the_one_buffer_set():
    rng = np.random.default_rng(89)
    net = random_weighted_tree(5, rng)
    model = small_model(dense_adj_for(net), seed=97)
    x = rng.normal(size=(5, 4, 5, 2))
    y = rng.normal(size=(5, 3, 5))
    sets = []
    for size in (5, 3, 4, 5):
        loss, grads = rd.loss_and_gradients(model, x[:size], y[:size])
        fresh_loss, fresh_grads = rd.loss_and_gradients(small_model(dense_adj_for(net), seed=97),
                                                        x[:size], y[:size])
        assert loss == fresh_loss
        for name, grad in grads.items():
            assert np.array_equal(grad, fresh_grads[name]), name
        sets.append(model._buffers)
    assert all(buf is sets[0] for buf in sets) and len(sets[0].x) == 5 * net.n  # one set serves all
    rd.loss_and_gradients(model, np.concatenate([x, x]), np.concatenate([y, y]))
    assert len(model._buffers.x) == 10 * net.n  # a larger batch replaces the set


def test_input_jacobian_refuses_a_batch():
    rng = np.random.default_rng(101)
    model = small_model(dense_adj_for(random_weighted_tree(5, rng)), seed=103)
    with pytest.raises(ShapeMismatch, match="single window"):
        rd.input_jacobian(model, 2, np.ones((3, 4, 5, 2)))


@pytest.mark.parametrize("u, error", [(-1, ValueError), (4, ValueError), (True, ValueError),
                                      (2.0, TypeError), (np.float64(1), TypeError)])
def test_input_jacobian_refuses_a_node_outside_the_model(u, error):
    model = small_model(dense_adj_for(random_weighted_tree(4, np.random.default_rng(7))))
    match = rf"u={u!r} .* N=4" if error is ValueError else "integer"
    with pytest.raises(error, match=match):
        rd.input_jacobian(model, u, np.ones((4, 4, 2)))
    assert rd.input_jacobian(model, np.int64(3), np.ones((4, 4, 2))).shape == (4, 3, 8)


def test_train_hands_each_shuffled_batch_to_loss_and_gradients(monkeypatch):
    rng = np.random.default_rng(73)
    net = random_weighted_tree(5, rng)
    model = small_model(dense_adj_for(net), seed=79)
    x = rng.normal(size=(70, 4, 5, 2))
    y = rng.normal(size=(70, 3, 5))
    seen = []
    real = rd.forecast.loss_and_gradients

    def recording(model, history, target):
        seen.append((np.array(history), np.array(target)))
        return real(model, history, target)

    monkeypatch.setattr(rd.forecast, "loss_and_gradients", recording)
    rd.train(model, (x, y), rd.TrainConfig(epochs=2, seed=83))
    order = np.random.default_rng(83)
    expected = [perm[i:i + 64] for perm in (order.permutation(70), order.permutation(70))
                for i in (0, 64)]
    assert [len(h) for h, _ in seen] == [64, 6, 64, 6]  # BATCH_SIZE 64, then the rest
    for (history, target), batch in zip(seen, expected):
        assert np.array_equal(history, x[batch])
        assert np.array_equal(target, y[batch])


def test_train_peak_stays_below_a_copy_of_its_windows():
    # the windows are views of one series; a copy of them, node-major or not,
    # would take alpha / stride times the hours they cover, while each batch
    # needs only a few arrays of its own size
    features = np.random.default_rng(3).normal(size=(3000, 4, 2))
    task = rd.ForecastTask(alpha_hist=48, beta_horizon=4, feature_dim=2)
    (x, y), _ = rd.prepare_dataset(features, task, 0.9, 1)
    model = rd.ForecastModel(task, isolated_adj(4), latent=8, n_layers=2)
    _, peak = traced_peak(rd.train, model, (x, y), rd.TrainConfig(epochs=1))
    assert len(x) > 40 * 64  # a copy would hold forty batches
    assert peak < x.size * x.itemsize / 4


def test_parameter_gradients_match_finite_differences():
    rng = np.random.default_rng(19)
    net = random_weighted_tree(5, rng)
    adj = rd.build_adjacency(net, rd.topological_distances(net),
                             rd.RewireConfig(kind="learned"))
    model = small_model(adj, alpha=3, beta=2, c=1, latent=4, layers=2, seed=23)
    x = rng.normal(size=(4, 3, 5, 1))
    y = rng.normal(size=(4, 2, 5))
    _, grads = rd.loss_and_gradients(model, x, y)
    step = 1e-6
    for name in ("w_in", "w_l1", "w_out", "adj", "b_l2"):
        grad = grads[name]
        param = model.params[name]
        idx = tuple(rng.integers(0, s) for s in param.shape)
        original = param[idx]
        param[idx] = original + step
        up, _ = rd.loss_and_gradients(model, x, y)
        param[idx] = original - step
        down, _ = rd.loss_and_gradients(model, x, y)
        param[idx] = original
        fd = (up - down) / (2 * step)
        assert grad[idx] == pytest.approx(fd, rel=1e-3, abs=1e-9), name


# ---------------------------------------------------------------------------
# training

def test_zero_targets_zero_init_keeps_zero_loss():
    model = small_model(isolated_adj(3), seed=0)
    for param in model.params.values():
        param[...] = 0.0  # in place: the entries are views of model.flat
    assert not np.any(model.flat)
    x = np.random.default_rng(0).normal(size=(8, 4, 3, 2))
    y = np.zeros((8, 3, 3))
    result = rd.train(model, (x, y), rd.TrainConfig(epochs=1, seed=0))
    assert result.losses[0] == 0.0
    assert result.clipped.tolist() == [0]
    assert all(not np.any(p) for p in model.params.values())
    with pytest.raises(TypeError):  # a rebound entry would leave flat behind
        model.params["w_in"] = np.ones_like(model.params["w_in"])


@pytest.mark.parametrize("kind", KINDS)
def test_train_equals_the_per_parameter_reference_bitwise(kind):
    rng = np.random.default_rng(89)
    net = random_weighted_tree(6, rng)
    x = rng.normal(size=(70, 4, 6, 2))
    y = rng.normal(size=(70, 3, 6))
    x[:2] *= 1e4  # every batch holding one of these windows is clipped
    y[:2] *= 1e4
    # 70 windows in batches of 64: a ragged last batch of 6 in every epoch
    config = rd.TrainConfig(epochs=4, seed=97)
    model = small_model(adj_of_kind(net, kind), seed=101)
    oracle = small_model(adj_of_kind(net, kind), seed=101)
    result = rd.train(model, (x, y), config)
    expected = reference_train(oracle, (x, y), config)
    assert 0 < expected.clipped.sum() < 4 * 2
    assert result.clipped.tolist() == expected.clipped.tolist()
    assert result.losses.tobytes() == expected.losses.tobytes()
    assert result.lrs.tobytes() == expected.lrs.tobytes()
    assert model.params.keys() == oracle.params.keys()
    for name, param in model.params.items():
        assert param.tobytes() == oracle.params[name].tobytes(), name


def test_checkpoint_round_trip_trains_on_bitwise_equal(tmp_path):
    rng = np.random.default_rng(103)
    net = random_weighted_tree(5, rng)
    x = rng.normal(size=(9, 4, 5, 2))
    y = rng.normal(size=(9, 3, 5))
    model = small_model(adj_of_kind(net, "learned"), seed=107)
    rd.train(model, (x, y), rd.TrainConfig(epochs=2, seed=109))
    rd.save_model(model, tmp_path / "checkpoint.json")
    loaded = rd.load_model(tmp_path / "checkpoint.json")
    # training reads flat, so a loader that left flat at its random start fails here
    config = rd.TrainConfig(epochs=1, seed=113)
    rd.train(model, (x, y), config)
    rd.train(loaded, (x, y), config)
    for name, param in model.params.items():
        assert param.tobytes() == loaded.params[name].tobytes(), name


def test_loss_curve_finite_and_deterministic():
    rng = np.random.default_rng(3)
    net = random_weighted_tree(5, rng)
    x = rng.normal(size=(32, 4, 5, 2))
    y = rng.normal(size=(32, 3, 5))
    config = rd.TrainConfig(epochs=8, seed=42)
    model_a = small_model(dense_adj_for(net), seed=9)
    run_a = rd.train(model_a, (x, y), config)
    model_b = small_model(dense_adj_for(net), seed=9)
    run_b = rd.train(model_b, (x, y), config)
    assert np.all(np.isfinite(run_a.losses))
    assert np.array_equal(run_a.losses, run_b.losses)


def test_training_reduces_mae_on_synthetic_basin():
    basin = rd.generate_basin(8, seed=5, hours=900)
    task = rd.ForecastTask(alpha_hist=6, beta_horizon=3, feature_dim=2)
    (xs, ys), _ = rd.prepare_dataset(basin.feature_tensor(), task, 0.7, stride=2)
    model = rd.ForecastModel(task, dense_adj_for(basin.network), latent=16, seed=1)
    result = rd.train(model, (xs, ys), rd.TrainConfig(epochs=20, lr=5e-3, seed=1))
    assert result.losses[-1] < result.losses[0]


def test_lr_schedule_halves_after_milestones():
    config = rd.TrainConfig(epochs=100)
    assert rd.forecast.LR_HALVING_EPOCHS == (1, 50, 80)
    assert config.lr_at(1) == config.lr
    assert config.lr_at(2) == config.lr / 2
    assert config.lr_at(50) == config.lr / 2
    assert config.lr_at(51) == config.lr / 4
    assert config.lr_at(80) == config.lr / 4
    assert config.lr_at(81) == config.lr / 8


def test_train_lets_go_of_its_batch_buffers_on_return_and_on_raise():
    rng = np.random.default_rng(37)
    model = small_model(isolated_adj(2), seed=0)
    x = rng.normal(size=(70, 4, 2, 2))
    y = rng.normal(size=(70, 3, 2))
    rd.train(model, (x, y), rd.TrainConfig(epochs=1))
    assert model._buffers is None
    with pytest.raises(NonfiniteLoss):
        rd.train(model, (x, np.full_like(y, np.nan)), rd.TrainConfig(epochs=1))
    assert model._buffers is None


def test_nonfinite_loss_raises():
    model = small_model(isolated_adj(2), seed=0)
    x = np.ones((4, 4, 2, 2))
    y = np.full((4, 3, 2), np.nan)
    with pytest.raises(NonfiniteLoss, match="epoch 1"):
        rd.train(model, (x, y), rd.TrainConfig(epochs=1))


def test_gradient_clipping_bounds_update_norm():
    rng = np.random.default_rng(31)
    model = small_model(isolated_adj(3), seed=2)
    x = rng.normal(size=(4, 4, 3, 2)) * 1e4
    y = rng.normal(size=(4, 3, 3)) * 1e4
    before = {k: v.copy() for k, v in model.params.items()}
    config = rd.TrainConfig(epochs=1)
    result = rd.train(model, (x, y), config)
    assert result.clipped.tolist() == [1]
    # Adam's first step moves a coordinate by lr * |g| / (|g| + eps), whatever g's scale;
    # the decay then takes lr * WEIGHT_DECAY of what is left, at most |before| + lr
    step = max(np.max(np.abs(model.params[k] - before[k])) for k in before)
    largest = max(np.max(np.abs(p)) for p in before.values())
    assert 0.5 * config.lr < step <= config.lr * (1 + rd.forecast.WEIGHT_DECAY
                                                  * (largest + config.lr))


def _global_norm(grads):
    return np.sqrt(sum(np.sum(g * g) for g in grads.values()))


def test_clip_global_norm_scales_only_above_the_bound():
    rng = np.random.default_rng(37)
    big = {"w": rng.normal(size=(3, 4)) * 10, "b": rng.normal(size=5) * 10}
    assert _global_norm(big) > 5.0
    assert rd.forecast.CLIP_NORM == 5.0
    assert rd.forecast._clip_global_norm(big) is True
    assert abs(_global_norm(big) - 5.0) <= 1e-12

    small = {"w": rng.normal(size=(3, 4)) * 0.1, "b": rng.normal(size=5) * 0.1}
    kept = {k: g.tobytes() for k, g in small.items()}
    assert _global_norm(small) < 5.0
    assert rd.forecast._clip_global_norm(small) is False
    assert {k: g.tobytes() for k, g in small.items()} == kept


# ---------------------------------------------------------------------------
# NSE

def test_nse_perfect_prediction():
    obs = np.array([1.0, 2.0, 3.0, 2.5])
    assert rd.nse(obs, obs) == pytest.approx(1.0)


def test_nse_mean_predictor_scores_zero():
    obs = np.array([1.0, 2.0, 3.0])
    pred = np.full(3, obs.mean())
    assert rd.nse(pred, obs) == pytest.approx(0.0)


def test_nse_hand_case():
    assert rd.nse([1.0, 2.0, 5.0], [1.0, 2.0, 3.0]) == pytest.approx(-1.0)


def test_nse_constant_observed_raises():
    with pytest.raises(ConstantObserved):
        rd.nse([1.0, 2.0], [3.0, 3.0])


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=50.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_nse_invariant_under_shared_affine_rescale(scale, shift):
    rng = np.random.default_rng(7)
    obs = rng.normal(size=20)
    pred = obs + rng.normal(scale=0.3, size=20)
    base = rd.nse(pred, obs)
    moved = rd.nse(pred * scale + shift, obs * scale + shift)
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# synthetic basin

def test_generate_basin_two_nodes_lags_and_accumulates():
    basin = rd.generate_basin(2, seed=0, hours=400)
    net = basin.network
    assert len(net.edges) == 1
    e = net.edges[0]
    lag = basin.routing[(e.src, e.dst)]
    up = basin.discharge[:, net.index(e.src)]
    down = basin.discharge[:, net.index(e.dst)]
    local = basin.local_response[:, net.index(e.dst)]
    expected = local.copy()
    expected[lag:] += up[:-lag]
    assert np.allclose(down, expected, atol=1e-12)


def test_generate_basin_zero_rain_zero_discharge(monkeypatch):
    monkeypatch.setattr(rd.forecast, "RAIN_PROB", 0.0)
    basin = rd.generate_basin(6, seed=1, hours=300)
    assert not np.any(basin.rainfall)
    assert not np.any(basin.discharge)


def test_generate_basin_nonnegative_and_reproducible():
    a = rd.generate_basin(10, seed=9, hours=500)
    b = rd.generate_basin(10, seed=9, hours=500)
    assert np.array_equal(a.discharge, b.discharge)
    assert np.all(a.discharge >= 0)
    assert a.network.edges == b.network.edges


def test_generate_basin_mass_consistency():
    basin = rd.generate_basin(12, seed=3, hours=6000)
    net = basin.network
    outlet = outlets(net)[0]
    spin = 500
    out_mean = basin.discharge[spin:, net.index(outlet)].mean()
    # with unit routing gains the outlet collects every local input
    local_mean = basin.local_response[spin:].sum(axis=1).mean()
    assert out_mean == pytest.approx(local_mean, rel=0.01)


def test_every_non_outlet_has_one_downstream():
    basin = rd.generate_basin(20, seed=4, hours=10)
    net = basin.network
    degrees = [len(net.out_edges(node)) for node in net.nodes]
    assert sorted(degrees) == [0] + [1] * 19


# ---------------------------------------------------------------------------
# windows, evaluation, checkpoints

def train_span_zscore(features, train_frac):
    """prepare_dataset's normalization: per station and channel, from the
    first ``train_frac`` of the hours."""
    cut = int(features.shape[0] * train_frac)
    std = features[:cut].std(axis=0)
    return (features - features[:cut].mean(axis=0)) / np.where(std == 0, 1.0, std)


def test_prepare_dataset_shapes_and_alignment():
    t, n = 30, 4
    features = np.random.default_rng(4).normal(size=(t, n, 2))
    z = train_span_zscore(features, 0.5)
    task = rd.ForecastTask(alpha_hist=5, beta_horizon=3, feature_dim=2)
    # 23 windows: test from window 11, train the 11 before less a gap of 8
    (xtr, ytr), (xte, yte) = rd.prepare_dataset(features, task, 0.5, 1)
    assert xtr.shape == (3, 5, 4, 2) and ytr.shape == (3, 3, 4)
    assert xte.shape == (12, 5, 4, 2) and yte.shape == (12, 3, 4)
    assert np.array_equal(xtr[0], z[0:5]) and np.array_equal(ytr[0], z[5:8, :, 0])
    assert np.array_equal(xte[0], z[11:16]) and np.array_equal(yte[0], z[16:19, :, 0])
    assert np.array_equal(yte[-1], z[27:30, :, 0])


@pytest.mark.parametrize("alpha, beta, t", [(26, 5, 30), (25, 6, 30), (470, 24, 480)])
def test_prepare_dataset_longer_than_series_names_the_flags(alpha, beta, t):
    features = np.zeros((t, 2, 1))
    task = rd.ForecastTask(alpha_hist=alpha, beta_horizon=beta, feature_dim=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"alpha_hist \(--history\) {alpha} \+ "
                                             rf"beta_horizon \(--horizon\) {beta} .* {t} "):
            rd.prepare_dataset(features, task, 0.7, 1)


def test_prepare_dataset_exact_fit_gives_one_window_the_split_refuses():
    features = np.arange(30, dtype=float).reshape(30, 1, 1)
    task = rd.ForecastTask(alpha_hist=25, beta_horizon=5, feature_dim=1)
    with pytest.raises(ValueError, match=r"train=0 test=1;"):
        rd.prepare_dataset(features, task, 0.7, 1)


@pytest.mark.parametrize("stride", [1, 2, 3, 7, 11])
def test_prepare_dataset_split_shares_no_hour(stride):
    # values rise with the hour and z-scoring keeps that order, so the
    # hours of a window are read off its values
    features = np.arange(200, dtype=float).reshape(200, 1, 1)
    task = rd.ForecastTask(alpha_hist=6, beta_horizon=4, feature_dim=1)
    (xtr, ytr), (xte, _) = rd.prepare_dataset(features, task, 0.6, stride)
    windows = (200 - 10) // stride + 1
    assert xtr.shape[0] == int(windows * 0.6) - -(-10 // stride)
    assert xtr.shape[0] + xte.shape[0] < windows
    assert max(xtr.max(), ytr.max()) < xte.min()


@settings(max_examples=150, deadline=None)
@given(later=st.integers(0, 60), rest=st.integers(0, 29), n=st.integers(1, 3),
       c=st.integers(1, 3), alpha=st.integers(1, 10), beta=st.integers(1, 10),
       stride=st.integers(1, 30), train_frac=st.floats(0.05, 0.95),
       seed=st.integers(0, 2 ** 16))
@example(later=0, rest=0, n=2, c=2, alpha=5, beta=3, stride=1, train_frac=0.7, seed=0)
@example(later=9, rest=4, n=2, c=2, alpha=3, beta=2, stride=7, train_frac=0.7, seed=1)
def test_prepare_dataset_equals_window_and_split_oracle(later, rest, n, c, alpha, beta,
                                                         stride, train_frac, seed):
    """Equal, bit for bit, to z-scoring, slicing one anchor at a time and
    splitting with a gap of ceil((alpha + beta) / stride) windows. The series
    holds 1 + ``later`` windows and ``rest`` % stride hours past the last one;
    0 and 0 is an exact fit."""
    t = alpha + beta + later * stride + rest % stride
    features = np.random.default_rng(seed).normal(size=(t, n, c))
    task = rd.ForecastTask(alpha_hist=alpha, beta_horizon=beta, feature_dim=c)
    if int(t * train_frac) == 0:
        with pytest.raises(ValueError, match="--train-frac"):
            rd.prepare_dataset(features, task, train_frac, stride)
        return
    z = train_span_zscore(features, train_frac)
    xs, ys = make_windows(z, z[:, :, 0], task, stride=stride)
    (xtr, ytr), (xte, yte) = chronological_split(xs, ys, train_frac,
                                                 gap=-(-(alpha + beta) // stride))
    if xtr.shape[0] == 0 or xte.shape[0] == 0:
        with pytest.raises(ValueError, match=f"train={xtr.shape[0]} test={xte.shape[0]};"):
            rd.prepare_dataset(features, task, train_frac, stride)
        return
    (got_xtr, got_ytr), (got_xte, got_yte) = rd.prepare_dataset(features, task, train_frac,
                                                                stride)
    for got, want in ((got_xtr, xtr), (got_ytr, ytr), (got_xte, xte), (got_yte, yte)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("alpha", [1, 24, 96])
def test_prepare_dataset_windows_are_read_only_views_at_a_bounded_peak(alpha):
    # z-scoring makes the one copy, about twice the series at its peak; copied
    # windows would take alpha / stride times the series
    features = np.random.default_rng(alpha).normal(size=(2000, 4, 2))
    task = rd.ForecastTask(alpha_hist=alpha, beta_horizon=4, feature_dim=2)
    ((xtr, ytr), (xte, yte)), peak = traced_peak(rd.prepare_dataset, features, task, 0.7, 1)
    assert peak < 4 * features.nbytes
    assert not any(a.flags.writeable for a in (xtr, ytr, xte, yte))
    # overlapping windows, and targets that are later windows' histories
    assert np.shares_memory(xtr[:-1], xtr[1:]) and np.shares_memory(xte, yte)


@pytest.mark.parametrize("train_frac, stride, flag", [
    (0.0, 1, "--train-frac"), (1.0, 1, "--train-frac"), (-0.5, 1, "--train-frac"),
    (float("nan"), 1, "--train-frac"), (0.01, 1, "--train-frac"),
    (0.7, 0, "--stride"), (0.7, -2, "--stride"),
])
def test_prepare_dataset_rejects_bad_split_arguments(train_frac, stride, flag):
    features = np.random.default_rng(0).normal(size=(40, 3, 2))
    task = rd.ForecastTask(alpha_hist=4, beta_horizon=2, feature_dim=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=flag):
            rd.prepare_dataset(features, task, train_frac, stride)


def test_nse_by_horizon_shape():
    net = path_net(4)
    task = rd.ForecastTask(alpha_hist=3, beta_horizon=2, feature_dim=1)
    model = rd.ForecastModel(task, dense_adj_for(net), latent=4, seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 3, 4, 1))
    y = rng.normal(size=(12, 2, 4))
    scores = rd.nse_by_horizon(model, x, y)
    assert scores.shape == (2,)
    assert np.all(np.isfinite(scores))


def test_checkpoint_round_trip(tmp_path):
    net = path_net(5)
    model = small_model(dense_adj_for(net), seed=21)
    history = np.random.default_rng(1).normal(size=(4, 5, 2))
    path = tmp_path / "checkpoint.json"
    rd.save_model(model, path)
    loaded = rd.load_model(path)
    assert np.array_equal(rd.forward(model, history), rd.forward(loaded, history))
    assert loaded.adjacency.kind == "dense"


def test_checkpoint_rejects_version_1(tmp_path):
    path = tmp_path / "checkpoint.json"
    rd.save_model(small_model(dense_adj_for(path_net(3)), seed=5), path)
    payload = json.loads(path.read_text())
    assert payload["version"] == 2
    assert "static_features" not in payload and "static_dim" not in payload["task"]
    # the version-1 layout carried a static-feature block
    payload.update(version=1, static_features=None)
    payload["task"]["static_dim"] = 0
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version 1"):
        rd.load_model(path)


@pytest.mark.parametrize("edit, named", [
    (lambda p: [p[key].pop("w_l2") for key in ("params", "shapes")], r"\['w_l2'\] missing"),
    (lambda p: [p[key].update(bogus=value) for key, value in
                (("params", [1.0]), ("shapes", [1]))], r"\['bogus'\] unexpected"),
    (lambda p: [p[key].update(b_in=value) for key, value in
                (("params", [0.5]), ("shapes", [1]))], r"parameter b_in has shape \(1,\)"),
], ids=["missing", "unexpected", "wrong-shape"])
def test_checkpoint_must_match_the_architecture_its_header_declares(tmp_path, edit, named):
    path = tmp_path / "checkpoint.json"
    rd.save_model(small_model(dense_adj_for(path_net(3)), seed=5), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"checkpoint {re.escape(str(path))}: .*{named}"):
        rd.load_model(path)


@pytest.mark.parametrize("edit, named", [
    (lambda p: p["shapes"].pop("w_in"), r"shapes entry for parameter w_in is None"),
    (lambda p: p["task"].update(bogus=1), "unknown task key 'bogus'"),
], ids=["shape-missing", "task-key-unknown"])
def test_checkpoint_header_errors_name_the_path_and_key(tmp_path, edit, named):
    path = tmp_path / "checkpoint.json"
    rd.save_model(small_model(dense_adj_for(path_net(3)), seed=5), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"checkpoint {re.escape(str(path))}: {named}"):
        rd.load_model(path)


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="checkpoint"):
        rd.load_model(path)


def test_basin_gauge_csv_round_trip(tmp_path):
    basin = rd.generate_basin(4, seed=2, hours=48)
    paths = rd.basin_to_gauge_csvs(basin, tmp_path)
    assert len(paths) == 4
    series = rd.read_gauge_csv(tmp_path / "0.csv")
    k = basin.network.index(0)
    assert np.allclose(series.discharge, basin.discharge[:, k], atol=1e-12)
    assert np.allclose(series.features["rain"], basin.rainfall[:, k], atol=1e-12)
    report = rd.qc_station(rd.GaugeTally(series), series.timestamps[0],
                           series.timestamps[-1] + np.timedelta64(1, "h"))
    assert report.passed


def _csv_writer_gauge_bytes(basin, station):
    """A gauge file as csv.writer writes it, row by row, hourly from 2000-01-01."""
    k = basin.network.index(station)
    t0 = np.datetime64("2000-01-01T00:00:00", "s")
    with io.StringIO(newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "qobs", "rain"])
        for t in range(basin.hours):
            writer.writerow([f"{t0 + t * np.timedelta64(1, 'h')}Z",
                             repr(float(basin.discharge[t, k])),
                             repr(float(basin.rainfall[t, k]))])
        return fh.getvalue().encode("utf-8")


@pytest.mark.parametrize("seed", [2, 8])
def test_basin_gauge_csv_golden_bytes(tmp_path, seed):
    basin = rd.generate_basin(6, seed=seed, hours=300)
    paths = rd.basin_to_gauge_csvs(basin, tmp_path)
    assert [p.name for p in paths] == [f"{s}.csv" for s in basin.network.nodes]
    for station, path in zip(basin.network.nodes, paths):
        assert path.read_bytes() == _csv_writer_gauge_bytes(basin, station)
    if seed == 2:
        assert paths[0].read_bytes().startswith(b"timestamp,qobs,rain\r\n"
                                                b"2000-01-01T00:00:00Z,0.0,0.0\r\n"
                                                b"2000-01-01T01:00:00Z,0.0,0.0\r\n")
