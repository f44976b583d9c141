"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import csv
import json
import time

import numpy as np
import pytest

import riverdense as rd
from riverdense.cli import main as cli_main

from util import (conductance_matrix, hop_distances, random_connected_graph,
                  random_weighted_tree)


def check(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{tag}  {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_resistance_golden_values():
    started = time.perf_counter()
    edge = rd.graph_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    path = rd.graph_laplacian(np.array([[0.0, 1.0, 0.0],
                                        [1.0, 0.0, 1.0],
                                        [0.0, 1.0, 0.0]]))
    tri = rd.graph_laplacian(np.array([[0.0, 1.0, 1.0],
                                       [1.0, 0.0, 1.0],
                                       [1.0, 1.0, 0.0]]))
    cyc = np.zeros((4, 4))
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
        cyc[i, j] = cyc[j, i] = 1.0
    cycle = rd.graph_laplacian(cyc)
    ok = (abs(rd.pairwise_resistances(edge)[0, 1] - 1.0) < 1e-9
          and abs(rd.pairwise_resistances(path)[0, 2] - 2.0) < 1e-9
          and abs(rd.pairwise_resistances(tri)[0, 1] - 2.0 / 3.0) < 1e-9
          and abs(rd.pairwise_resistances(cycle)[0, 1] - 0.75) < 1e-9)
    elapsed = time.perf_counter() - started
    check("resistance golden values (1, 2, 2/3, 3/4)", ok and elapsed < 1.0,
          f"{elapsed:.2f}s")


def test_tree_identity_500_trees():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 65))
        net = random_weighted_tree(n, rng)
        dist = rd.topological_distances(net).d
        res = rd.pairwise_resistances(rd.graph_laplacian(conductance_matrix(net)))
        worst = max(worst, float(np.max(np.abs(res - dist))))
    elapsed = time.perf_counter() - started
    check("tree identity: resistance equals path length on 500 trees",
          worst < 1e-8 and elapsed < 30.0, f"max err {worst:.2e}, {elapsed:.1f}s")


def test_rayleigh_monotonicity_200_graphs():
    rng = np.random.default_rng(103)
    violations = 0
    tested = 0
    while tested < 200:
        n = int(rng.integers(3, 28))
        w = random_connected_graph(n, rng)
        empty = np.argwhere((w == 0) & ~np.eye(n, dtype=bool))
        if len(empty) == 0:
            continue
        tested += 1
        before = rd.pairwise_resistances(rd.graph_laplacian(w))
        i, j = empty[rng.integers(0, len(empty))]
        w[i, j] = w[j, i] = float(rng.uniform(0.2, 3.0))
        after = rd.pairwise_resistances(rd.graph_laplacian(w))
        if not np.all(after <= before + 1e-10):
            violations += 1
    check("Rayleigh monotonicity: extra edge never raises resistance",
          violations == 0, f"{violations} violations / 200 graphs")


def test_dense_transform_golden_vector_and_stochasticity():
    d = rd.DistanceMatrix(n=3, d=np.array([[0.0, 1.0, 2.0],
                                           [1.0, 0.0, 1.0],
                                           [2.0, 1.0, 0.0]]), nodes=(0, 1, 2))
    adj = rd.dense_transform(d, rd.RewireConfig(sigma=1.0))
    golden_ok = np.allclose(adj.w[0], [0.0, 0.81757, 0.18243], atol=1e-5)

    rng = np.random.default_rng(107)
    stochastic_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 24))
        net = random_weighted_tree(n, rng)
        dist = rd.topological_distances(net)
        sigma = float(rng.uniform(0.3, 5.0)) * float(
            np.std(dist.d[~np.eye(n, dtype=bool)])) + 0.5
        fuzzed = rd.dense_transform(dist, rd.RewireConfig(sigma=sigma))
        if (np.any(np.abs(fuzzed.w.sum(axis=1) - 1.0) > 1e-12)
                or np.any(np.diag(fuzzed.w) != 0)
                or np.any((fuzzed.w < 0) | (fuzzed.w > 1))):
            stochastic_ok = False
            break
    check("dense transform golden row [0, 0.81757, 0.18243] +- 1e-5", golden_ok)
    check("dense transform row-stochastic to 1e-12 on 200 fuzzed trees", stochastic_ok)


def test_densification_lowers_mean_resistance():
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    lower = 0
    total = 100
    for _ in range(total):
        n = int(rng.integers(8, 65))
        net = random_weighted_tree(n, rng)
        dist = rd.topological_distances(net)
        dense = rd.build_adjacency(net, dist, rd.RewireConfig(kind="dense"))
        topo = rd.build_adjacency(net, dist, rd.RewireConfig(kind="topology"))
        if rd.resistance_report(dense).mean < rd.resistance_report(topo).mean:
            lower += 1
    elapsed = time.perf_counter() - started
    check("densification lowers mean resistance on >=95% of 100 river trees",
          lower >= 95 and elapsed < 120.0, f"{lower}/100, {elapsed:.1f}s")


def test_bound_sweep_and_hand_value():
    params = rd.BoundParams(r=1, alpha_model=1.0, beta_model=0.5,
                            d_max=2, d_min=2, mu=0.5)
    hand_ok = abs(rd.jacobian_bound(params, 0.0) - 4.5) < 1e-12

    rng = np.random.default_rng(113)
    monotone_ok = True
    for _ in range(20):
        p = rd.BoundParams(r=int(rng.integers(1, 6)),
                           alpha_model=float(rng.uniform(0.1, 3.0)),
                           beta_model=float(rng.uniform(0.1, 3.0)),
                           d_max=int(rng.integers(2, 10)),
                           d_min=int(rng.integers(1, 3)),
                           mu=float(rng.uniform(0.0, 0.99)))
        sweep = [rd.jacobian_bound(p, r_val) for r_val in np.linspace(0.0, 20.0, 100)]
        if not all(a > b for a, b in zip(sweep, sweep[1:])):
            monotone_ok = False
            break
    check("sensitivity bound matches hand value 4.5 +- 1e-12", hand_ok)
    check("sensitivity bound strictly decreasing in R (20 param sets x 100 pts)",
          monotone_ok)


def test_gradient_check_20_models():
    rng = np.random.default_rng(127)
    kinds = ("dense", "learned", "topology", "isolated")
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 9))
        net = random_weighted_tree(n, rng)
        dist = rd.topological_distances(net)
        kind = kinds[trial % len(kinds)]
        if kind == "isolated":
            adj = rd.AdjacencyMatrix("isolated", np.zeros((n, n)))
        else:
            adj = rd.build_adjacency(net, dist, rd.RewireConfig(kind=kind))
        task = rd.ForecastTask(alpha_hist=int(rng.integers(2, 5)),
                               beta_horizon=int(rng.integers(1, 4)),
                               feature_dim=int(rng.integers(1, 3)))
        model = rd.ForecastModel(task, adj, latent=int(rng.integers(3, 9)),
                                 n_layers=int(rng.integers(1, 4)),
                                 seed=int(rng.integers(1e6)))
        x = rng.normal(size=(5, task.alpha_hist, n, task.feature_dim))
        y = rng.normal(size=(5, task.beta_horizon, n))
        _, grads = rd.loss_and_gradients(model, x, y)
        step = 1e-6
        analytic, numeric = [], []
        for name, grad in grads.items():
            flat = model.params[name].reshape(-1)
            picks = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for k in picks:
                orig = flat[k]
                flat[k] = orig + step
                up, _ = rd.loss_and_gradients(model, x, y)
                flat[k] = orig - step
                down, _ = rd.loss_and_gradients(model, x, y)
                flat[k] = orig
                analytic.append(grad.reshape(-1)[k])
                numeric.append((up - down) / (2 * step))
        analytic = np.array(analytic)
        numeric = np.array(numeric)
        rel = (np.linalg.norm(analytic - numeric)
               / max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12))
        worst = max(worst, rel)
    check("analytic gradients match central differences on 20 models (<1e-4)",
          worst < 1e-4, f"worst rel err {worst:.2e}")


def test_sensitivity_jacobian_matches_finite_differences():
    rng = np.random.default_rng(131)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 8))
        net = random_weighted_tree(n, rng)
        adj = rd.build_adjacency(net, rd.topological_distances(net),
                                 rd.RewireConfig(kind="dense"))
        task = rd.ForecastTask(alpha_hist=3, beta_horizon=2, feature_dim=2)
        model = rd.ForecastModel(task, adj, latent=5, n_layers=2,
                                 seed=int(rng.integers(1e6)))
        history = rng.normal(size=(3, n, 2))
        u, v = rng.integers(0, n, size=2)
        analytic = rd.input_jacobian(model, int(u), history)[v]
        step = 1e-5
        fd = np.zeros_like(analytic)
        col = 0
        for t in range(3):
            for c in range(2):
                bumped = history.copy()
                bumped[t, v, c] += step
                up = rd.forward(model, bumped)[:, u]
                bumped[t, v, c] -= 2 * step
                down = rd.forward(model, bumped)[:, u]
                fd[:, col] = (up - down) / (2 * step)
                col += 1
        denom = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - fd) / denom))
    check("sensitivity Jacobian matches central differences (step 1e-5, <1e-4)",
          worst < 1e-4, f"worst rel err {worst:.2e}")


def test_receptive_field_exact_zero_beyond_r_hops():
    rng = np.random.default_rng(137)
    exact = True
    for _ in range(50):
        n = int(rng.integers(4, 16))
        net = random_weighted_tree(n, rng)
        adj = rd.build_adjacency(net, rd.topological_distances(net),
                                 rd.RewireConfig(kind="topology"))
        layers = int(rng.integers(1, 4))
        task = rd.ForecastTask(alpha_hist=3, beta_horizon=2, feature_dim=1)
        model = rd.ForecastModel(task, adj, latent=6, n_layers=layers,
                                 seed=int(rng.integers(1e6)))
        support = model.propagation() != 0
        hops = hop_distances(support)
        history = np.abs(rng.normal(size=(3, n, 1))) + 0.1
        for _ in range(6):
            u, v = rng.integers(0, n, size=2)
            if hops[u, v] > layers:
                if np.any(rd.input_jacobian(model, int(u), history)[v]):
                    exact = False
    check("sensitivity exactly 0 beyond r hops (50 random trees)", exact)


def _rewiring_nse(tmp, seed, kind):
    """Horizon-12 test NSE of `riverdense train` on 16-station basin ``seed``,
    whose edge and gauge CSVs are written under ``tmp`` once."""
    basin_dir = tmp / f"basin{seed}"
    if not basin_dir.exists():
        basin_dir.mkdir()
        basin = rd.generate_basin(16, seed=seed, hours=4000)
        rd.write_edge_csv(basin.network, basin_dir / "edges.csv")
        rd.basin_to_gauge_csvs(basin, basin_dir / "gauges")
    out = basin_dir / kind
    code = cli_main(["train", "--edges", str(basin_dir / "edges.csv"),
                     "--gauges", str(basin_dir / "gauges"), "--kind", kind,
                     "--history", "24", "--horizon", "12", "--stride", "2",
                     "--epochs", "80", "--seed", str(100 + seed), "--out", str(out)])
    assert code == 0, f"riverdense train exited {code}"
    with (out / "metrics.csv").open(newline="") as fh:
        return float(list(csv.DictReader(fh))[-1]["nse"])


def test_desk_scale_rewiring_benefit(tmp_path):
    started = time.perf_counter()
    wins = 0
    margins = []
    for seed in range(5):
        dense = _rewiring_nse(tmp_path, seed, "dense")
        isolated = _rewiring_nse(tmp_path, seed, "isolated")
        wins += dense >= isolated
        margins.append(dense - isolated)
    elapsed = time.perf_counter() - started
    check("rewiring benefit: dense NSE >= isolated at horizon 12 on >=4/5 basins",
          wins >= 4 and elapsed < 300.0,
          f"{wins}/5 seeds, margins {[f'{m:+.3f}' for m in margins]}, {elapsed:.0f}s")


def test_preprocessing_oracle_200_instances():
    rng = np.random.default_rng(139)
    length_ok = True
    reach_ok = True
    for _ in range(200):
        n = int(rng.integers(3, 32))
        net = random_weighted_tree(n, rng)
        original = rd.topological_distances(net).d
        keep_size = int(rng.integers(2, n + 1))
        keep = {0} | {int(s) for s in rng.choice(n, size=keep_size, replace=False)}
        sub = rd.extract_subgraph(net, keep)
        for e in sub.edges:
            want = original[net.index(e.src), net.index(e.dst)]
            if abs(e.stream_length - want) > 1e-9:
                length_ok = False
        reduced = rd.topological_distances(sub).d
        if not np.all(np.isfinite(reduced)):
            reach_ok = False
    check("bypass aggregation equals original shortest paths (200 instances)",
          length_ok)
    check("bypass preserves undirected reachability in all cases", reach_ok)


def test_nse_golden_values():
    obs = [1.0, 2.0, 3.0]
    perfect = rd.nse(obs, obs)
    mean_pred = rd.nse([2.0, 2.0, 2.0], obs)
    hand = rd.nse([1.0, 2.0, 5.0], obs)
    check("NSE golden values (perfect 1, mean 0, hand case -1)",
          perfect == 1.0 and mean_pred == 0.0 and hand == -1.0,
          f"{perfect}, {mean_pred}, {hand}")


def test_end_to_end_cli_smoke(basin8_dir, tmp_path):
    started = time.perf_counter()
    qc_dir, rw_dir, rs_dir, tr_dir = (tmp_path / name for name in
                                      ("qc", "rewire", "resist", "train"))
    codes = [
        cli_main(["qc", "--edges", str(basin8_dir / "edges.csv"),
                  "--gauges", str(basin8_dir / "gauges"), "--out", str(qc_dir)]),
        cli_main(["rewire", "--edges", str(qc_dir / "network_filtered.csv"),
                  "--kind", "dense", "--sigma", "auto", "--out", str(rw_dir)]),
        cli_main(["resist", "--adjacency", str(rw_dir / "adjacency.csv"),
                  "--mode", "symmetric", "--out", str(rs_dir)]),
        cli_main(["train", "--edges", str(qc_dir / "network_filtered.csv"),
                  "--gauges", str(basin8_dir / "gauges"),
                  "--adjacency", str(rw_dir / "adjacency.csv"),
                  "--history", "12", "--horizon", "6", "--epochs", "5",
                  "--latent", "8", "--seed", "3", "--out", str(tr_dir)]),
    ]
    elapsed = time.perf_counter() - started

    schema_ok = True
    reports = json.loads((qc_dir / "qc_report.json").read_text())
    schema_ok &= all(set(r) == {"station", "negative_count", "missing_hours", "passed"}
                     for r in reports)
    meta = json.loads((rw_dir / "adjacency_meta.json").read_text())
    schema_ok &= {"kind", "sigma", "n", "nnz"} <= set(meta)
    resistance = json.loads((rs_dir / "resistance.json").read_text())
    schema_ok &= {"n", "mode", "mean", "median", "p95", "histogram"} <= set(resistance)
    schema_ok &= {"edges", "counts"} <= set(resistance["histogram"])
    with (tr_dir / "metrics.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    schema_ok &= all(set(r) == {"horizon", "adjacency_kind", "seed", "nse"} for r in rows)
    schema_ok &= len(rows) == 6
    schema_ok &= rd.load_model(tr_dir / "checkpoint.json").n == 8
    for out in (qc_dir, rw_dir, rs_dir, tr_dir):
        schema_ok &= (out / "manifest.json").exists()

    check("end-to-end CLI smoke (qc -> rewire -> resist -> train)",
          codes == [0, 0, 0, 0] and elapsed < 120.0 and schema_ok,
          f"codes {codes}, {elapsed:.0f}s")
