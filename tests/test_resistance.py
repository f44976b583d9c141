import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riverdense as rd
from riverdense.errors import MuOutOfRange
from riverdense.resistance import HIST_BINS, HIST_BLOCK, _component_labels, _histogram

from util import (conductance_matrix, dfs_component_labels, disconnected_graph,
                  eigh_pinv, hop_distances, random_connected_graph, random_weighted_dag,
                  random_weighted_tree, reference_laplacian, reference_main_component_pairs,
                  reference_pairwise_resistances, svd_pinv, traced_peak)

UNIT_EDGE = np.array([[0.0, 1.0], [1.0, 0.0]])
UNIT_PATH3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
UNIT_TRIANGLE = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
UNIT_4CYCLE = np.array([[0.0, 1.0, 0.0, 1.0],
                        [1.0, 0.0, 1.0, 0.0],
                        [0.0, 1.0, 0.0, 1.0],
                        [1.0, 0.0, 1.0, 0.0]])


def test_laplacian_golden_single_edge():
    bundle = rd.graph_laplacian(UNIT_EDGE)
    assert np.allclose(bundle.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(bundle.pseudoinverse, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)


def test_laplacian_empty_adjacency():
    bundle = rd.graph_laplacian(np.zeros((3, 3)))
    assert not np.any(bundle.laplacian)
    assert not np.any(bundle.pseudoinverse)
    assert len(set(bundle.component_labels.tolist())) == 3


def test_laplacian_single_node():
    # one component with no degree to ground by; a self-loop leaves L = 0
    for w in (np.zeros((1, 1)), np.array([[2.0]])):
        assert not np.any(rd.graph_laplacian(w).pseudoinverse)
    assert rd.graph_laplacian(np.zeros((1, 1)), mode="random-walk").pseudoinverse[0, 0] == 1.0


def test_laplacian_rows_sum_to_zero():
    bundle = rd.graph_laplacian(UNIT_TRIANGLE)
    assert np.allclose(bundle.laplacian.sum(axis=1), 0.0, atol=1e-12)


def test_pseudoinverse_identities():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 24))
        w = random_connected_graph(n, rng)
        bundle = rd.graph_laplacian(w)
        lap, pinv = bundle.laplacian, bundle.pseudoinverse
        scale = max(np.linalg.norm(lap), 1.0)
        assert np.linalg.norm(lap @ pinv @ lap - lap) / scale < 1e-8
        assert np.linalg.norm(pinv - pinv.T) < 1e-8


def test_random_walk_pseudoinverse_identity():
    net = rd.build_network([0, 1, 2], [(0, 2, 1.0, 0.0), (1, 2, 1.0, 0.0)])
    w = np.zeros((3, 3))
    for e in net.edges:
        w[net.index(e.src), net.index(e.dst)] = 1.0
    bundle = rd.graph_laplacian(w, mode="random-walk")
    lap, pinv = bundle.laplacian, bundle.pseudoinverse
    assert np.linalg.norm(lap @ pinv @ lap - lap) / max(np.linalg.norm(lap), 1.0) < 1e-8


def test_random_walk_outlet_policy():
    w = np.array([[0.0, 1.0], [0.0, 0.0]])  # node 1 is the outlet
    bundle = rd.graph_laplacian(w, mode="random-walk")
    # substituted out-degree 1 keeps the row defined and the scale finite
    assert np.all(np.isfinite(bundle.laplacian))
    assert bundle.indicator_scale[1] == 1.0


def test_resistance_unit_edge():
    r = rd.pairwise_resistances(rd.graph_laplacian(UNIT_EDGE))
    assert r[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_resistance_two_unit_edges_in_series():
    r = rd.pairwise_resistances(rd.graph_laplacian(UNIT_PATH3))
    assert r[0, 2] == pytest.approx(2.0, abs=1e-9)


def test_resistance_unit_triangle():
    # one direct unit resistor in parallel with a two-resistor path: 1*2/(1+2)
    r = rd.pairwise_resistances(rd.graph_laplacian(UNIT_TRIANGLE))
    for u, v in ((0, 1), (0, 2), (1, 2)):
        assert r[u, v] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_resistance_unit_4cycle_adjacent():
    # direct resistor in parallel with the three-edge path: 1*3/(1+3)
    r = rd.pairwise_resistances(rd.graph_laplacian(UNIT_4CYCLE))
    assert r[0, 1] == pytest.approx(0.75, abs=1e-9)


def test_resistance_of_a_node_to_itself_is_zero():
    for mode in ("symmetric", "random-walk"):
        r = rd.pairwise_resistances(rd.graph_laplacian(UNIT_TRIANGLE, mode=mode))
        assert np.all(np.diagonal(r) == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_laplacian_refuses_weights_neither_finite_nor_nonnegative(bad):
    w = UNIT_EDGE.copy()
    w[0, 1] = bad
    with pytest.raises(ValueError, match="adjacency weights must be finite and nonnegative"):
        rd.resistance_report(w)


def test_resistance_across_components_is_infinite():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    r = rd.pairwise_resistances(rd.graph_laplacian(w))
    assert np.isinf(r[0, 2]) and np.isinf(r[2, 0])
    assert r[0, 1] == pytest.approx(1.0, abs=1e-9)


def test_random_walk_resistance_matches_symmetric_on_regular_graph():
    # on a unit triangle every out-degree is 2, and L_rw = L / 2 with the
    # indicator scaling 1/sqrt(2) on both ends: R_rw = R_sym * 2 / 2 = ... the
    # two formulations agree up to the degree normalization; check finiteness
    # and symmetry of the evaluation instead of a specific identity
    r = rd.pairwise_resistances(rd.graph_laplacian(UNIT_TRIANGLE, mode="random-walk"))
    assert r[0, 1] == pytest.approx(r[1, 0], abs=1e-12)
    assert r[0, 1] > 0


def test_report_two_node_graph():
    report = rd.resistance_report(UNIT_EDGE)
    assert report.mean == pytest.approx(1.0, abs=1e-9)
    assert report.excluded_pairs == 0
    edges, counts = report.histogram
    assert len(edges) == 51 and len(counts) == 50
    assert counts.sum() == 1
    assert np.count_nonzero(counts) == 1


def test_report_unit_star():
    w = np.zeros((4, 4))
    for leaf in (1, 2, 3):
        w[0, leaf] = w[leaf, 0] = 1.0
    report = rd.resistance_report(w)
    vals = sorted(report.pairwise[np.triu_indices(4, k=1)].tolist())
    assert vals == pytest.approx([1.0, 1.0, 1.0, 2.0, 2.0, 2.0], abs=1e-9)
    assert report.mean == pytest.approx(1.5, abs=1e-9)


def test_report_disconnected_restricts_to_largest_component():
    w = np.zeros((5, 5))
    # triangle {0,1,2} plus edge {3,4}
    for i, j in ((0, 1), (1, 2), (0, 2), (3, 4)):
        w[i, j] = w[j, i] = 1.0
    report = rd.resistance_report(w)
    assert report.excluded_pairs == 10 - 3
    assert report.mean == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert np.isinf(report.pairwise[0, 3])


def test_dense_transform_lowers_mean_resistance_on_caterpillar():
    # spine of 16 nodes, one leaf per spine node
    edges = []
    for k in range(15):
        edges.append((k, k + 1, 1.0, 0.0))
    for k in range(16):
        edges.append((100 + k, k, 1.0, 0.0))
    net = rd.build_network(list(range(16)) + [100 + k for k in range(16)], edges)
    d = rd.topological_distances(net)
    dense = rd.build_adjacency(net, d, rd.RewireConfig(kind="dense"))
    topo = rd.build_adjacency(net, d, rd.RewireConfig(kind="topology"))
    dense_mean = rd.resistance_report(dense).mean
    topo_mean = rd.resistance_report(topo).mean
    assert dense_mean < topo_mean


def test_report_json_and_csv_schema(tmp_path):
    report = rd.resistance_report(UNIT_TRIANGLE)
    json_path = tmp_path / "report.json"
    rd.write_report_json(report, json_path)
    loaded = json.loads(json_path.read_text())
    assert set(loaded) >= {"n", "mode", "mean", "median", "p95", "histogram"}
    assert set(loaded["histogram"]) == {"edges", "counts"}
    assert loaded["n"] == 3 and loaded["mode"] == "symmetric"
    csv_path = tmp_path / "hist.csv"
    rd.write_report_csv(report, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "bin_edge,count"
    assert len(lines) == 51


def _move_ulps(x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Each entry of x moved by its entry of steps (-4..4) ulps, exactly."""
    out = x.copy()
    for k in range(1, 5):
        out = np.where(steps >= k, np.nextafter(out, np.inf), out)
        out = np.where(steps <= -k, np.nextafter(out, -np.inf), out)
    return out


@pytest.mark.parametrize("mode", ["symmetric", "random-walk"])
def test_histogram_counts_survive_four_ulps_of_noise(mode):
    rng = np.random.default_rng(43)
    for n in (5, 40, 200):
        net = rd.random_river_tree(n, rng)
        adj = rd.build_adjacency(net, rd.topological_distances(net),
                                 rd.RewireConfig(kind="topology"))
        report = rd.resistance_report(adj, mode=mode)
        iu = np.triu_indices(n, k=1)
        vals = report.pairwise[iu]
        counts = report.histogram[1]
        if mode == "symmetric":
            # edges conduct 1/2, so R = 2 hops, and 2h sits in bin 50h // diameter
            support = adj.w > 0
            hops = hop_distances(support | support.T)[iu].astype(int)
            exact = np.minimum(HIST_BINS * hops // hops.max(), HIST_BINS - 1)
            assert counts.tolist() == np.bincount(exact, minlength=HIST_BINS).tolist()
        for _ in range(20):
            noisy = _move_ulps(vals, rng.integers(-4, 5, size=vals.size))
            assert _histogram(noisy)[1].tolist() == counts.tolist()
        # the far case: every value 4 ulps down while the maximum, which
        # scales the edges, moves 4 ulps up
        steps = np.full(vals.size, -4)
        steps[vals == vals.max()] = 4
        assert _histogram(_move_ulps(vals, steps))[1].tolist() == counts.tolist()


def test_triangle_inequality_of_resistance():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(3, 33))
        w = random_connected_graph(n, rng)
        r = rd.pairwise_resistances(rd.graph_laplacian(w))
        for k in range(n):
            assert np.all(r <= r[:, [k]] + r[[k], :] + 1e-9)


def test_tree_resistance_equals_path_length():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        net = random_weighted_tree(n, rng)
        dist = rd.topological_distances(net).d
        r = rd.pairwise_resistances(rd.graph_laplacian(conductance_matrix(net)))
        assert np.max(np.abs(r - dist)) < 1e-9


def test_rayleigh_monotonicity():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(3, 24))
        w = random_connected_graph(n, rng)
        zeros = np.argwhere((w == 0) & ~np.eye(n, dtype=bool))
        if len(zeros) == 0:
            continue
        i, j = zeros[rng.integers(0, len(zeros))]
        before = rd.pairwise_resistances(rd.graph_laplacian(w))
        w2 = w.copy()
        w2[i, j] = w2[j, i] = float(rng.uniform(0.5, 2.0))
        after = rd.pairwise_resistances(rd.graph_laplacian(w2))
        assert np.all(after <= before + 1e-10)


# ---------------------------------------------------------------------------
# solvers against the eigendecomposition, SVD and DFS oracles

def _relative(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _random_sizes(rng, most):
    return [int(k) for k in rng.integers(1, most, size=int(rng.integers(2, 6)))]


def test_symmetric_pinv_matches_eigh_oracle():
    rng = np.random.default_rng(29)
    for trial in range(80):
        if trial % 2:
            w = disconnected_graph(_random_sizes(rng, 14), rng)
        else:
            w = random_connected_graph(int(rng.integers(2, 40)), rng)
        bundle = rd.graph_laplacian(w)
        assert bundle.solver == "grounded-inverse"
        assert _relative(bundle.pseudoinverse, eigh_pinv(bundle.laplacian)) < 1e-9


def test_symmetric_pinv_scales_with_the_weights():
    rng = np.random.default_rng(31)
    w = disconnected_graph([9, 6, 1], rng)
    base = rd.graph_laplacian(w).pseudoinverse
    for factor in (1e-9, 1e9):
        scaled = rd.graph_laplacian(w * factor).pseudoinverse
        assert _relative(scaled * factor, base) < 1e-9


def test_null_space_dimension_equals_component_count():
    rng = np.random.default_rng(43)
    for trial in range(60):
        sizes = _random_sizes(rng, 16)
        # odd trials are random forests: every block a tree
        w = disconnected_graph(sizes, rng, extra_edges=0 if trial % 2 else None)
        bundle = rd.graph_laplacian(w)
        lap, pinv = bundle.laplacian, bundle.pseudoinverse
        assert bundle.component_labels.max() + 1 == len(sizes)
        assert np.sum(np.linalg.eigvals(lap @ pinv).real < 0.5) == len(sizes)
        assert _relative(lap @ pinv @ lap, lap) < 1e-9
        assert _relative(pinv @ lap @ pinv, pinv) < 1e-9


def test_random_walk_inverse_matches_svd_oracle_on_dags():
    rng = np.random.default_rng(37)
    graphs = [np.zeros((3, 3))]
    graphs += [random_weighted_dag(int(rng.integers(2, 40)), rng,
                                   density=float(rng.uniform(0.02, 0.6)))
               for _ in range(80)]
    for w in graphs:
        assert np.any(w.sum(axis=1) == 0)  # every DAG has an outlet row
        bundle = rd.graph_laplacian(w, mode="random-walk")
        assert bundle.solver == "triangular-inverse"
        assert _relative(bundle.pseudoinverse, svd_pinv(bundle.laplacian)) < 1e-9


def _back_edge_dag(seed):
    rng = np.random.default_rng(seed)
    w = random_weighted_dag(12, rng, density=0.3)
    i, j = np.argwhere(w > 0)[0]
    w[j, i] = 1.0  # closes a cycle through the edge i -> j
    return w


@pytest.mark.parametrize("w", [
    np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),  # 2-cycle 0 <-> 1
    np.array([[0.5, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),  # self-loop on a path
    _back_edge_dag(47),
], ids=["two-cycle", "self-loop", "back-edge"])
def test_cyclic_random_walk_support_takes_svd(w):
    bundle = rd.graph_laplacian(w, mode="random-walk")
    assert bundle.solver == "svd"
    lap, pinv = bundle.laplacian, bundle.pseudoinverse
    assert _relative(lap @ pinv @ lap, lap) < 1e-9
    assert _relative(pinv @ lap @ pinv, pinv) < 1e-9
    assert _relative((lap @ pinv).T, lap @ pinv) < 1e-9
    assert _relative((pinv @ lap).T, pinv @ lap) < 1e-9


def _oracle_graphs() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    loops = random_connected_graph(6, rng)
    loops[[0, 3], [0, 3]] = 0.7, 2.0
    net = random_weighted_tree(12, rng)
    return {
        "components": disconnected_graph([5, 4, 1], rng),  # the 1 is a lone node
        "dag": random_weighted_dag(9, rng, 0.3),  # asymmetric, with zero rows
        "self-loops": loops,
        "dense": rd.build_adjacency(net, rd.topological_distances(net),
                                    rd.RewireConfig(kind="dense")).w,
    }


@pytest.mark.parametrize("mode", ["symmetric", "random-walk"])
@pytest.mark.parametrize("graph", ["components", "dag", "self-loops", "dense"])
def test_matrices_built_in_place_equal_the_formula_oracles_bitwise(graph, mode):
    w = _oracle_graphs()[graph]
    bundle = rd.graph_laplacian(w, mode=mode)
    assert bundle.laplacian.tobytes() == reference_laplacian(w, mode).tobytes()
    r = rd.pairwise_resistances(bundle)
    assert r.tobytes() == reference_pairwise_resistances(bundle).tobytes()
    # the report's statistics of the triangle gathered through triu_indices
    report = rd.resistance_report(w, mode=mode)
    vals = reference_main_component_pairs(r, bundle.component_labels)
    edges, counts = _histogram(vals)
    assert report.pairwise.tobytes() == r.tobytes()
    assert (report.mean, report.median, report.p95) == (
        float(vals.mean()), float(np.median(vals)), float(np.percentile(vals, 95)))
    assert np.array_equal(report.histogram[0], edges)
    assert np.array_equal(report.histogram[1], counts)


@pytest.mark.parametrize("mode", ["symmetric", "random-walk"])
def test_report_peak_memory_on_a_300_node_dense_graph(mode):
    """The report keeps r, L and L+, three n^2 float64 arrays, and the main
    component's upper triangle, half of one; _histogram's temporaries of the
    triangle's size (44,850 values, within one HIST_BLOCK) lift the traced
    peak to about 5.1 n^2 (LAPACK's workspace is not traced). The temporaries of L and r and the triu index arrays the
    report once made reached 6.1 n^2."""
    n = 300
    net = random_weighted_tree(n, np.random.default_rng(3))
    adj = rd.build_adjacency(net, rd.topological_distances(net), rd.RewireConfig(kind="dense"))
    _, peak = traced_peak(rd.resistance_report, adj, mode)
    assert peak < 5.25 * n * n * 8


def test_grounded_inverse_holds_no_second_laplacian(monkeypatch):
    """When LAPACK is called, the symmetric mode holds L shifted in its own
    buffer and the n^2 bool support, about 1.14 n^2 float64; a shifted copy
    beside L read 2.14 n^2. L is rebuilt from the weights afterwards."""
    n = 300
    net = random_weighted_tree(n, np.random.default_rng(3))
    adj = rd.build_adjacency(net, rd.topological_distances(net), rd.RewireConfig(kind="dense"))
    held, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: held.append(tracemalloc.get_traced_memory()[0])
                        or inv(a))
    bundle, _ = traced_peak(rd.graph_laplacian, adj, "symmetric")
    assert bundle.solver == "grounded-inverse" and len(held) == 2
    assert held[1] < 1.5 * n * n * 8
    assert bundle.laplacian.tobytes() == reference_laplacian(adj.w, "symmetric").tobytes()


def test_histogram_peak_memory_is_bounded_by_its_block():
    """_histogram snaps and counts HIST_BLOCK values at a time, so its
    temporaries stay about three blocks (1.5 MiB) however many pairs it is
    given; a whole-array pass made three arrays the input's size (11.4 MiB on
    a 1000-node graph's 499,500 pairs). Eight copies of a 300-node dense
    graph's pairs span several blocks, and the counts add across them."""
    n = 300
    net = random_weighted_tree(n, np.random.default_rng(3))
    adj = rd.build_adjacency(net, rd.topological_distances(net), rd.RewireConfig(kind="dense"))
    pairs = rd.resistance_report(adj).pairwise[np.triu_indices(n, k=1)]
    vals = np.tile(pairs, 8)
    assert vals.size > 5 * HIST_BLOCK
    (edges, counts), peak = traced_peak(_histogram, vals)
    once = _histogram(pairs)
    assert np.array_equal(edges, once[0]) and counts.tolist() == (8 * once[1]).tolist()
    assert peak < 3.5 * HIST_BLOCK * 8


def test_component_labels_match_dfs_oracle():
    rng = np.random.default_rng(41)
    supports = [np.zeros((0, 0), dtype=bool), np.zeros((5, 5), dtype=bool),
                np.ones((4, 4), dtype=bool)]
    supports += [rng.random((n, n)) < rng.uniform(0.0, 0.15)
                 for n in rng.integers(1, 60, size=100)]
    supports += [disconnected_graph(_random_sizes(rng, 12), rng, extra_edges=0) != 0
                 for _ in range(20)]
    for support in supports:
        assert np.array_equal(_component_labels(support), dfs_component_labels(support))


# ---------------------------------------------------------------------------
# sensitivity bound

def test_bound_params_validation():
    with pytest.raises(MuOutOfRange):
        rd.BoundParams(r=1, alpha_model=1.0, beta_model=1.0, d_max=2, d_min=2, mu=1.0)
    with pytest.raises(MuOutOfRange):
        rd.BoundParams(r=1, alpha_model=1.0, beta_model=1.0, d_max=2, d_min=2, mu=-0.1)
    with pytest.raises(ValueError):
        rd.BoundParams(r=0, alpha_model=1.0, beta_model=1.0, d_max=2, d_min=2, mu=0.5)
    with pytest.raises(ValueError):
        rd.BoundParams(r=1, alpha_model=1.0, beta_model=1.0, d_max=2, d_min=4, mu=0.5)


def test_bound_hand_value_products_of_one():
    # 2*a*b = 1, d_max/2 = 1, 2/d_min = 1 leaves (1 + 1 + 0.5^2) / 0.5 = 4.5
    params = rd.BoundParams(r=1, alpha_model=1.0, beta_model=0.5, d_max=2, d_min=2, mu=0.5)
    assert rd.jacobian_bound(params, 0.0) == pytest.approx(4.5, abs=1e-12)


def test_bound_hand_value_half_amplification():
    # with a = b = 0.5 the leading factor is (2*0.25)^1 = 0.5, halving 4.5
    params = rd.BoundParams(r=1, alpha_model=0.5, beta_model=0.5, d_max=2, d_min=2, mu=0.5)
    assert rd.jacobian_bound(params, 0.0) == pytest.approx(2.25, abs=1e-12)


def test_bound_vanishing_mu_limit():
    params = rd.BoundParams(r=1, alpha_model=0.8, beta_model=0.7, d_max=6, d_min=3, mu=0.0)
    expected = (2 * 0.8 * 0.7) * (6 / 3) * 2
    assert rd.jacobian_bound(params, 0.0) == pytest.approx(expected, abs=1e-12)


def test_bound_negative_for_large_resistance():
    params = rd.BoundParams(r=2, alpha_model=1.0, beta_model=1.0, d_max=4, d_min=2, mu=0.5)
    assert rd.jacobian_bound(params, 1e6) < 0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.01, max_value=50.0))
def test_bound_strictly_decreasing_in_resistance(r0, delta):
    params = rd.BoundParams(r=3, alpha_model=0.9, beta_model=1.1, d_max=5, d_min=2, mu=0.3)
    assert rd.jacobian_bound(params, r0) > rd.jacobian_bound(params, r0 + delta)


def test_bound_increasing_in_layers_for_strong_amplification():
    rng = np.random.default_rng(23)
    for _ in range(20):
        alpha = float(rng.uniform(0.75, 2.0))
        beta = float(rng.uniform(0.75, 2.0))  # alpha*beta > 1/2 guaranteed
        mu = float(rng.uniform(0.05, 0.95))
        d_max = int(rng.integers(2, 8))
        d_min = int(rng.integers(1, d_max + 1))
        values = [rd.jacobian_bound(
            rd.BoundParams(r=r, alpha_model=alpha, beta_model=beta,
                           d_max=d_max, d_min=d_min, mu=mu), 0.0)
            for r in range(1, 6)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_bound_rejects_negative_resistance():
    params = rd.BoundParams(r=1, alpha_model=1.0, beta_model=1.0, d_max=2, d_min=2, mu=0.5)
    with pytest.raises(ValueError):
        rd.jacobian_bound(params, -0.5)
