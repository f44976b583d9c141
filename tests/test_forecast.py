import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riverdense as rd
from riverdense.errors import ConstantObserved, NonfiniteLoss, ShapeMismatch

from util import hop_distances, random_weighted_tree


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


# ---------------------------------------------------------------------------
# forward

def test_forward_shapes_single_and_batch():
    model = small_model(isolated_adj(5))
    single = rd.forward(model, np.ones((4, 5, 2)))
    assert single.shape == (3, 5)
    batch = rd.forward(model, np.ones((7, 4, 5, 2)))
    assert batch.shape == (7, 3, 5)


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
        for v in range(4):
            s = rd.sensitivity(model, u, v, history)
            if u == v:
                assert s > 0
            else:
                assert s == 0.0


# ---------------------------------------------------------------------------
# sensitivity

def test_sensitivity_respects_hop_distance_on_path():
    net = path_net(7)
    model = small_model(topology_adj_for(net), layers=3, seed=5)
    history = np.abs(np.random.default_rng(7).normal(size=(4, 7, 2)))
    assert rd.sensitivity(model, 6, 0, history) == 0.0  # 6 hops away, 3 layers
    dense_model = small_model(dense_adj_for(net), layers=3, seed=5)
    assert rd.sensitivity(dense_model, 6, 0, history) > 0


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
        s = rd.sensitivity(model, int(u), int(v), history)
        if hops[u, v] > layers:
            assert s == 0.0


def test_sensitivity_matches_finite_differences():
    rng = np.random.default_rng(13)
    net = random_weighted_tree(6, rng)
    model = small_model(dense_adj_for(net), alpha=3, beta=2, c=2, latent=5, seed=17)
    history = rng.normal(size=(3, 6, 2))
    u, v = 2, 4
    analytic = rd.input_jacobian(model, u, v, history)
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
    for name in model.params:
        model.params[name] = np.zeros_like(model.params[name])
    x = np.random.default_rng(0).normal(size=(8, 4, 3, 2))
    y = np.zeros((8, 3, 3))
    result = rd.train(model, (x, y), rd.TrainConfig(epochs=1, seed=0))
    assert result.losses[0] == 0.0
    assert all(not np.any(p) for p in model.params.values())


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
    features = basin.feature_tensor()
    mean = features.mean(axis=(0, 1))
    std = np.where(features.std(axis=(0, 1)) == 0, 1, features.std(axis=(0, 1)))
    features = (features - mean) / std
    xs, ys = rd.make_windows(features, features[:, :, 0], task, stride=2)
    model = rd.ForecastModel(task, dense_adj_for(basin.network), latent=16, seed=1)
    result = rd.train(model, (xs, ys), rd.TrainConfig(epochs=20, lr=5e-3, seed=1))
    assert result.losses[-1] < result.losses[0]


def test_lr_schedule_halves_after_milestones():
    config = rd.TrainConfig(epochs=5, lr_halving_epochs=(1, 3))
    assert config.lr_at(1) == config.lr
    assert config.lr_at(2) == config.lr / 2
    assert config.lr_at(3) == config.lr / 2
    assert config.lr_at(4) == config.lr / 4


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
    config = rd.TrainConfig(epochs=1, weight_decay=0.0, clip_norm=5.0, batch_size=4)
    rd.train(model, (x, y), config)
    total = np.sqrt(sum(np.sum((model.params[k] - before[k]) ** 2) for k in before))
    assert total <= config.lr * 5.0 + 1e-9


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


def test_nse_weights_hook():
    obs = np.array([1.0, 2.0, 3.0])
    pred = np.array([1.0, 2.0, 5.0])
    downweighted = rd.nse(pred, obs, weights=[1.0, 1.0, 0.0])
    assert downweighted == pytest.approx(1.0)  # the only error is masked out


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
    lag = basin.routing[(e.src, e.dst)].lag_hours
    up = basin.discharge[:, net.index(e.src)]
    down = basin.discharge[:, net.index(e.dst)]
    local = basin.local_response[:, net.index(e.dst)]
    expected = local.copy()
    expected[lag:] += up[:-lag]
    assert np.allclose(down, expected, atol=1e-12)


def test_generate_basin_zero_rain_zero_discharge():
    basin = rd.generate_basin(6, seed=1, hours=300, rain_prob=0.0)
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
    outlet = net.outlets()[0]
    spin = 500
    out_mean = basin.discharge[spin:, net.index(outlet)].mean()
    # with unit routing gains the outlet collects every local input
    local_mean = basin.local_response[spin:].sum(axis=1).mean()
    assert out_mean == pytest.approx(local_mean, rel=0.01)


def test_every_non_outlet_has_one_downstream():
    basin = rd.generate_basin(20, seed=4, hours=10)
    degrees = rd.out_degrees(basin.network)
    assert sorted(degrees.tolist()) == [0] + [1] * 19


# ---------------------------------------------------------------------------
# windows, evaluation, checkpoints

def test_make_windows_shapes_and_alignment():
    t, n = 30, 4
    features = np.arange(t * n * 2, dtype=float).reshape(t, n, 2)
    targets = features[:, :, 0]
    task = rd.ForecastTask(alpha_hist=5, beta_horizon=3, feature_dim=2)
    xs, ys = rd.make_windows(features, targets, task)
    assert xs.shape == (23, 5, 4, 2)
    assert ys.shape == (23, 3, 4)
    assert np.array_equal(xs[0], features[0:5])
    assert np.array_equal(ys[0], targets[5:8])


def test_chronological_split_no_overlap():
    xs = np.arange(40).reshape(10, 1, 2, 2).astype(float)
    ys = np.arange(20).reshape(10, 1, 2).astype(float)
    (xtr, _), (xte, _) = rd.chronological_split(xs, ys, train_frac=0.6, gap=2)
    assert xtr.shape[0] == 4
    assert xte.shape[0] == 4
    assert xtr[-1, 0, 0, 0] < xte[0, 0, 0, 0]


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


def test_static_features_concatenate_to_input():
    net = path_net(4)
    task = rd.ForecastTask(alpha_hist=3, beta_horizon=2, feature_dim=1, static_dim=2)
    static = np.arange(8, dtype=float).reshape(4, 2)
    model = rd.ForecastModel(task, dense_adj_for(net), latent=6, seed=4,
                             static_features=static)
    assert model.params["w_in"].shape == (3 * 1 + 2, 6)
    history = np.random.default_rng(0).normal(size=(3, 4, 1))
    out = rd.forward(model, history)
    assert out.shape == (2, 4)
    # changing a static attribute must change the prediction
    other = rd.ForecastModel(task, dense_adj_for(net), latent=6, seed=4,
                             static_features=static + 1.0)
    assert not np.allclose(out, rd.forward(other, history))


def test_static_features_validated():
    net = path_net(4)
    task = rd.ForecastTask(alpha_hist=3, beta_horizon=2, feature_dim=1, static_dim=2)
    with pytest.raises(ShapeMismatch):
        rd.ForecastModel(task, dense_adj_for(net), static_features=np.ones((3, 2)))
    with pytest.raises(ShapeMismatch):
        rd.ForecastModel(task, dense_adj_for(net))  # static_dim declared, none given


def test_checkpoint_round_trip_with_static(tmp_path):
    net = path_net(3)
    task = rd.ForecastTask(alpha_hist=2, beta_horizon=2, feature_dim=1, static_dim=1)
    static = np.array([[0.5], [1.5], [2.5]])
    model = rd.ForecastModel(task, dense_adj_for(net), latent=4, seed=8,
                             static_features=static)
    path = tmp_path / "checkpoint.json"
    rd.save_model(model, path)
    loaded = rd.load_model(path)
    history = np.random.default_rng(2).normal(size=(2, 3, 1))
    assert np.array_equal(rd.forward(model, history), rd.forward(loaded, history))


def test_checkpoint_round_trip(tmp_path):
    net = path_net(5)
    model = small_model(dense_adj_for(net), seed=21)
    history = np.random.default_rng(1).normal(size=(4, 5, 2))
    path = tmp_path / "checkpoint.json"
    rd.save_model(model, path)
    loaded = rd.load_model(path)
    assert np.array_equal(rd.forward(model, history), rd.forward(loaded, history))
    assert loaded.adjacency.kind == "dense"


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
    report = rd.check_completeness(series, series.timestamps[0],
                                   series.timestamps[-1] + np.timedelta64(1, "h"))
    assert report.passed
