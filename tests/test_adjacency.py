import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riverdense as rd
from riverdense.errors import CsvFormatError, DegenerateSigma, IsolatedRow
from riverdense.network import DistanceMatrix

from util import random_weighted_tree


def dm(matrix) -> DistanceMatrix:
    d = np.asarray(matrix, dtype=float)
    return DistanceMatrix(n=d.shape[0], d=d, nodes=tuple(range(d.shape[0])))


CHAIN_D = dm([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_dense_transform_golden_chain_row():
    adj = rd.dense_transform(CHAIN_D, rd.RewireConfig(sigma=1.0))
    # pre-norm row 0 is [0, e^-0.5, e^-2]
    assert adj.w[0] == pytest.approx([0.0, 0.81757, 0.18243], abs=1e-5)
    assert adj.w[0, 1] == pytest.approx(0.8175744761936437, abs=1e-12)
    assert np.allclose(adj.w.sum(axis=1), 1.0, atol=1e-12)


def test_dense_transform_two_nodes():
    adj = rd.dense_transform(dm([[0, 7.3], [7.3, 0]]), rd.RewireConfig(sigma=2.0))
    assert np.array_equal(adj.w, [[0.0, 1.0], [1.0, 0.0]])


def test_dense_transform_equal_distances_uniform():
    d = np.full((4, 4), 3.0)
    np.fill_diagonal(d, 0.0)
    adj = rd.dense_transform(dm(d), rd.RewireConfig(sigma=1.5))
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(adj.w[off], 1.0 / 3.0)


def test_auto_sigma_is_population_std():
    adj_auto = rd.dense_transform(CHAIN_D, rd.RewireConfig(sigma="auto"))
    off = ~np.eye(3, dtype=bool)
    sigma = float(np.std(CHAIN_D.d[off]))
    adj_explicit = rd.dense_transform(CHAIN_D, rd.RewireConfig(sigma=sigma))
    assert np.array_equal(adj_auto.w, adj_explicit.w)


def test_auto_sigma_degenerate_when_equal():
    d = np.full((3, 3), 2.0)
    np.fill_diagonal(d, 0.0)
    with pytest.raises(DegenerateSigma):
        rd.dense_transform(dm(d), rd.RewireConfig(sigma="auto"))


def test_infinite_distances_become_zero_weight():
    d = np.array([[0.0, 1.0, np.inf],
                  [1.0, 0.0, np.inf],
                  [np.inf, np.inf, 0.0]])
    with pytest.raises(IsolatedRow, match=r"\[2\]"):
        rd.dense_transform(dm(d), rd.RewireConfig(sigma=1.0))


def test_prune_applies_before_normalization():
    adj = rd.dense_transform(CHAIN_D, rd.RewireConfig(sigma=1.0, epsilon_prune=0.2))
    # e^-2 = 0.1353 < 0.2 is dropped, so row 0 renormalizes onto one entry
    assert adj.w[0].tolist() == [0.0, 1.0, 0.0]
    assert adj.w[1, 0] > 0 and adj.w[1, 2] > 0  # middle row keeps both e^-0.5 weights


def test_prune_can_isolate_a_row():
    d = dm([[0, 3.0], [3.0, 0]])
    with pytest.raises(IsolatedRow):
        rd.dense_transform(d, rd.RewireConfig(sigma=1.0, epsilon_prune=0.5))


def test_rewire_config_validation():
    with pytest.raises(ValueError):
        rd.RewireConfig(sigma=-1.0)
    with pytest.raises(ValueError):
        rd.RewireConfig(sigma="automatic")
    with pytest.raises(ValueError):
        rd.RewireConfig(epsilon_prune=1.0)
    with pytest.raises(ValueError):
        rd.RewireConfig(kind="full")


CHAIN_NET = rd.build_network([0, 1, 2], [(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0)])
CHAIN_NET_D = rd.topological_distances(CHAIN_NET)


def test_isolated_kind_zero_matrix():
    adj = rd.build_adjacency(CHAIN_NET, CHAIN_NET_D, rd.RewireConfig(kind="isolated"))
    assert adj.kind == "isolated"
    assert not np.any(adj.w)
    assert adj.nnz == 0


def test_topology_kind_support_and_normalization():
    adj = rd.build_adjacency(CHAIN_NET, CHAIN_NET_D,
                             rd.RewireConfig(sigma=1.0, kind="topology"))
    assert adj.kind == "topology"
    nz = {(i, j) for i, j in zip(*np.nonzero(adj.w))}
    assert nz == {(0, 1), (1, 2)}
    assert adj.w[0, 1] == 1.0  # single-entry rows normalize to 1
    assert adj.w[1, 2] == 1.0
    assert np.all(adj.w[2] == 0)  # outlet row stays zero


def test_dense_denser_than_topology():
    dense = rd.build_adjacency(CHAIN_NET, CHAIN_NET_D,
                               rd.RewireConfig(sigma=1.0, kind="dense"))
    topo = rd.build_adjacency(CHAIN_NET, CHAIN_NET_D,
                              rd.RewireConfig(sigma=1.0, kind="topology"))
    assert dense.nnz == 6 and topo.nnz == 2


def test_learned_kind_uniform_and_trainable():
    adj = rd.build_adjacency(CHAIN_NET, CHAIN_NET_D,
                             rd.RewireConfig(sigma=1.0, kind="learned"))
    dense = rd.build_adjacency(CHAIN_NET, CHAIN_NET_D,
                               rd.RewireConfig(sigma=1.0, kind="dense"))
    assert adj.trainable and not dense.trainable
    assert np.array_equal(adj.w > 0, dense.w > 0)
    off = adj.w[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5)


def test_adjacency_matrix_invariants_enforced():
    with pytest.raises(ValueError, match="zero matrix"):
        rd.AdjacencyMatrix("isolated", np.eye(2))
    with pytest.raises(ValueError, match="diagonal"):
        rd.AdjacencyMatrix("dense", np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="sums to"):
        rd.AdjacencyMatrix("dense", np.array([[0.0, 0.5], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="edge set"):
        rd.AdjacencyMatrix("topology", np.array([[0.0, 1.0], [0.0, 0.0]]),
                           support=np.zeros((2, 2), dtype=bool))


def test_densification_on_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        net = random_weighted_tree(n, rng)
        d = rd.topological_distances(net)
        dense = rd.build_adjacency(net, d, rd.RewireConfig(kind="dense"))
        topo = rd.build_adjacency(net, d, rd.RewireConfig(kind="topology"))
        assert dense.nnz > topo.nnz


@st.composite
def distance_cases(draw):
    """Distance matrix plus a bandwidth that keeps every kernel weight
    representable (d/sigma capped well below exp underflow)."""
    n = draw(st.integers(min_value=2, max_value=8))
    steps = draw(st.lists(st.integers(min_value=1, max_value=200),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    d[iu] = np.array(steps) * 0.25
    d = d + d.T
    ratio = draw(st.floats(min_value=0.2, max_value=20.0))
    sigma = float(d.max() / ratio)
    return dm(d), sigma


@settings(max_examples=60, deadline=None)
@given(distance_cases())
def test_dense_rows_stochastic_fuzzed(case):
    d, sigma = case
    adj = rd.dense_transform(d, rd.RewireConfig(sigma=sigma))
    assert np.all(np.diag(adj.w) == 0)
    assert np.all((adj.w >= 0) & (adj.w <= 1))
    assert np.allclose(adj.w.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(distance_cases())
def test_closer_pairs_get_larger_weights(case):
    d, sigma = case
    adj = rd.dense_transform(d, rd.RewireConfig(sigma=sigma))
    for i in range(d.n):
        for j in range(d.n):
            for k in range(d.n):
                if i in (j, k) or j == k:
                    continue
                if d.d[i, j] < d.d[i, k]:
                    assert adj.w[i, j] > adj.w[i, k]


@settings(max_examples=40, deadline=None)
@given(distance_cases(), st.floats(min_value=0.1, max_value=100.0))
def test_sigma_scaling_invariance(case, scale):
    d, sigma = case
    base = rd.dense_transform(d, rd.RewireConfig(sigma=sigma))
    scaled_d = dm(d.d * scale)
    scaled = rd.dense_transform(scaled_d, rd.RewireConfig(sigma=sigma * scale))
    assert np.allclose(base.w, scaled.w, atol=1e-12)


def test_adjacency_csv_round_trip(tmp_path):
    adj = rd.dense_transform(CHAIN_D, rd.RewireConfig(sigma=1.0))
    path = tmp_path / "adjacency.csv"
    rd.write_adjacency_csv(adj, path, nodes=[10, 20, 30])
    w, order = rd.read_adjacency_csv(path)
    assert order == [10, 20, 30]
    assert np.array_equal(w, adj.w)
    meta_path = tmp_path / "adjacency_meta.json"
    rd.write_adjacency_meta(adj, meta_path, sigma=1.0, nodes=[10, 20, 30])
    meta = meta_path.read_text()
    for key in ('"kind"', '"sigma"', '"n"', '"nnz"'):
        assert key in meta


def test_adjacency_csv_duplicate_entry_rejected_at_its_line(tmp_path):
    path = tmp_path / "adjacency.csv"
    path.write_text("src,dst,weight\n0,1,0.5\n\n1,0,1.0\n0,1,0.25\n")
    with pytest.raises(CsvFormatError, match=r"adjacency\.csv:5: duplicate entry \(0,1\)"):
        rd.read_adjacency_csv(path)


def test_adjacency_csv_entry_outside_node_set_reports_its_line(tmp_path):
    path = tmp_path / "adjacency.csv"
    path.write_text("src,dst,weight\n0,1,0.5\n1,7,1.0\n")
    with pytest.raises(CsvFormatError, match=r"adjacency\.csv:3: entry \(1,7\)"):
        rd.read_adjacency_csv(path, nodes=[0, 1])
