import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riverdense as rd
from riverdense.adjacency import _read_adjacency_body, _read_adjacency_rows
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


def test_adjacency_csv_writer_golden_bytes(tmp_path):
    w = np.array([[0.0, 0.25, 0.75],
                  [1 / 3, 0.0, 2 / 3],
                  [1.0, 0.0, 0.0]])
    path = tmp_path / "adjacency.csv"
    rd.write_adjacency_csv(rd.AdjacencyMatrix("dense", w), path, nodes=[5, 10, 42])
    assert path.read_bytes() == (b"src,dst,weight\r\n"
                                 b"5,10,0.25\r\n"
                                 b"5,42,0.75\r\n"
                                 b"10,5,0.3333333333333333\r\n"
                                 b"10,42,0.6666666666666666\r\n"
                                 b"42,5,1.0\r\n")


def _row_loop(path, nodes=None):
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return _read_adjacency_rows(path, reader, nodes)


def _numpy_body(path, nodes=None):
    with path.open(newline="", encoding="utf-8") as fh:
        next(csv.reader(fh))
        return _read_adjacency_body(fh, nodes)


# bodies numpy's parser takes, then bodies it leaves to the row loop
FAST_BODIES = {
    "crlf": "0,1,0.5\r\n1,0,1.0\r\n2,0,0.125\r\n",
    "lf": "0,1,0.5\n1,0,1.0\n2,0,0.125\n",
    "cr": "0,1,0.5\r1,0,1.0\r2,0,0.125\r",
    "blank_lines": "\n0,1,0.5\n\n\n1,0,1.0\r\n\r\n2,0,0.125\n\n",
    "padded": " 0 ,1,  0.5\n1 , 0 ,1.0 \n\t2,0,\t0.125\n",
    "quoted": '"0","1","0.5"\r\n1,"0",1.0\r\n" 2 ",0,"0.125"\r\n',
    "one_row": "7,3,0.1\n",
}
SLOW_BODIES = {
    "whitespace_row": "0,1,0.5\n   \n1,0,1.0\n",
    "empty_cells_row": "0,1,0.5\n , , \n1,0,1.0\n",
    "underscored_id": "0,1_0,0.5\n1,0,1.0\n",
    "empty": "",
}


@pytest.mark.parametrize("name", sorted(FAST_BODIES) + sorted(SLOW_BODIES))
@pytest.mark.parametrize("nodes", [None, [0, 1, 2, 3, 7, 10]])
def test_adjacency_csv_fast_reader_matches_row_loop(tmp_path, name, nodes):
    path = tmp_path / "adjacency.csv"
    path.write_text("src,dst,weight\r\n" + {**FAST_BODIES, **SLOW_BODIES}[name],
                    newline="", encoding="utf-8")
    w, order = rd.read_adjacency_csv(path, nodes=nodes)
    w_rows, order_rows = _row_loop(path, nodes)
    assert order == order_rows
    assert np.array_equal(w, w_rows)
    fast = _numpy_body(path, nodes)
    if name in FAST_BODIES:
        assert fast is not None
        assert fast[1] == order_rows and np.array_equal(fast[0], w_rows)
    else:
        assert fast is None


@pytest.mark.parametrize("body, nodes", [
    ("0,1,0.5\n0,1,0.5\n", None),            # repeated cell
    ("0,1,0.5\n1,9,0.5\n", [0, 1]),          # outside the node set
    ("0,1,0.5\n1.0,0,0.5\n", None),          # float where an id belongs
    ("0,1,0.5\n1,0\n", None),                # short row
    ("0,1,0.5\n1,0,0.5,\n", None),           # long row
    ("0,1,0.5\n# note\n", None),             # numpy would take this as a comment
])
def test_adjacency_csv_bad_bodies_go_to_the_row_loop(tmp_path, body, nodes):
    path = tmp_path / "adjacency.csv"
    path.write_text("src,dst,weight\n" + body)
    assert _numpy_body(path, nodes) is None
    with pytest.raises(CsvFormatError, match=r"adjacency\.csv:3: "):
        rd.read_adjacency_csv(path, nodes=nodes)
