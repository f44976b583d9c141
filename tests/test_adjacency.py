import json
import os
import re
import shutil
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riverdense as rd
from riverdense.adjacency import CSV_SPLIT_NNZ, _file_digest
from riverdense.errors import CsvFormatError, DegenerateSigma, IsolatedRow
from riverdense.network import DistanceMatrix

from util import (random_weighted_tree, read_adjacency_csv_by_rows, reference_rbf_kernel,
                  traced_peak, write_adjacency_csv_by_rows)


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


def test_dense_rewire_of_stations_without_edges_has_no_sigma():
    net = rd.build_network([0, 1], [])
    with pytest.raises(DegenerateSigma, match="no finite off-diagonal distances"):
        rd.build_adjacency(net, rd.topological_distances(net), rd.RewireConfig(kind="dense"))


def test_infinite_distances_become_zero_weight():
    d = np.array([[0.0, 1.0, np.inf],
                  [1.0, 0.0, np.inf],
                  [np.inf, np.inf, 0.0]])
    with pytest.raises(IsolatedRow, match=r"\[2\]"):
        rd.dense_transform(dm(d), rd.RewireConfig(sigma=1.0))


def test_rbf_kernel_equals_the_masked_formula_bitwise():
    # with infinite distances, and finite ones whose weight underflows to 0
    rng = np.random.default_rng(8)
    d = rng.uniform(0.0, 60.0, size=(30, 30))
    d[rng.random(d.shape) < 0.3] = np.inf
    np.fill_diagonal(d, 0.0)
    for sigma in (0.3, 4.0, 250.0):
        assert rd.rbf_kernel(d, sigma).tobytes() == reference_rbf_kernel(d, sigma).tobytes()


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
    for sigma in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"sigma \(--sigma\) must be"):
            rd.RewireConfig(sigma=sigma)
    with pytest.raises(ValueError, match=r"epsilon_prune \(--prune\) must be in \[0, 1\)"):
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


def test_topology_rows_that_underflow_raise_isolated_row_as_dense_rows_do():
    # exp(-(2 km / 0.05)^2 / 2) underflows to 0.0; the outlet's row has no edge to lose
    net = rd.build_network([0, 1, 2], [(0, 1, 3.0, 0.0), (1, 2, 2.0, 0.0)])
    for kind, rows in (("topology", "[0, 1]"), ("dense", "[0, 1, 2]")):
        with pytest.raises(IsolatedRow, match=re.escape(f"rows {rows} have zero weight")):
            rd.build_adjacency(net, rd.topological_distances(net),
                               rd.RewireConfig(sigma=0.05, kind=kind))


def test_adjacency_carries_the_bandwidth_it_was_built_with(tmp_path):
    sigma = rd.resolve_sigma(CHAIN_NET_D, "auto")
    built = {kind: rd.build_adjacency(CHAIN_NET, CHAIN_NET_D, rd.RewireConfig(kind=kind))
             for kind in rd.ADJACENCY_KINDS}
    assert {kind: adj.sigma for kind, adj in built.items()} == {
        "isolated": None, "topology": sigma, "dense": sigma, "learned": sigma}
    assert rd.dense_transform(CHAIN_D, rd.RewireConfig(sigma=2)).sigma == 2.0
    with pytest.raises(AttributeError):
        built["dense"].sigma = 1.0
    # a loaded file and a checkpoint do not know the bandwidth
    rd.write_adjacency_csv(built["dense"], tmp_path / "adjacency.csv")
    w, _, _ = rd.read_adjacency_csv(tmp_path / "adjacency.csv")
    assert rd.AdjacencyMatrix("dense", w).sigma is None
    task = rd.ForecastTask(alpha_hist=2, beta_horizon=1, feature_dim=1)
    rd.save_model(rd.ForecastModel(task, built["dense"]), tmp_path / "checkpoint.json")
    assert rd.load_model(tmp_path / "checkpoint.json").adjacency.sigma is None


def test_numpy_station_ids_are_stored_as_ints(tmp_path):
    net = rd.build_network(np.arange(3), [(0, 1, 1.0, 0.0), (1, 2, 2.0, 0.0)])
    assert [type(node) for node in net.nodes] == [int, int, int]
    adj = rd.build_adjacency(net, rd.topological_distances(net), rd.RewireConfig())
    rd.write_adjacency_csv(adj, tmp_path / "adjacency.csv", net.nodes)
    assert json.loads((tmp_path / "adjacency_meta.json").read_text())["nodes"] == [0, 1, 2]


def test_adjacency_writer_takes_numpy_ids_and_refuses_others_before_writing(tmp_path):
    adj = rd.build_adjacency(CHAIN_NET, CHAIN_NET_D, rd.RewireConfig())
    for name, nodes in (("numpy", np.arange(3)), ("plain", [0, 1, 2])):
        (tmp_path / name).mkdir()
        assert rd.write_adjacency_csv(adj, tmp_path / name / "adjacency.csv", nodes)["sidecar"]
    files = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert files == ["adjacency.csv", "adjacency.npy", "adjacency_meta.json"]
    for name in files:
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    for bad in (["0", "1", "2"], [0.0, 1.0, 2.0], np.array([0.5, 1, 2])):
        out = tmp_path / "bad"
        out.mkdir()
        with pytest.raises(TypeError):
            rd.write_adjacency_csv(adj, out / "adjacency.csv", bad)
        assert list(out.iterdir()) == []
        out.rmdir()


def test_adjacency_kind_and_weights_are_read_only():
    adj = rd.build_adjacency(CHAIN_NET, CHAIN_NET_D, rd.RewireConfig())
    with pytest.raises(AttributeError):
        adj.w = np.ones((3, 3))
    with pytest.raises(AttributeError):
        adj.kind = "isolated"
    assert adj.kind == "dense" and adj.nnz == 6 and not adj.w.flags.writeable


def test_sidecar_is_read_into_its_matrix_without_a_second_copy(tmp_path):
    """The traced peak of a sidecar read is the n^2 float64 matrix plus the
    meta's parse and one digest chunk, about 1.1 MiB here; reading the file's
    bytes and then parsing them held two copies at once (n^2 + 8.2 MiB)."""
    n = 1000
    w = np.random.default_rng(5).random((n, n))
    path, npy = tmp_path / "adjacency.csv", tmp_path / "adjacency.npy"
    path.write_bytes(b"src,dst,weight\r\n")  # a stand-in: the reader checks only its digest
    np.save(npy, w, allow_pickle=False)
    order = list(range(n))
    (tmp_path / "adjacency_meta.json").write_text(json.dumps({"nodes": order, "sidecar": {
        "file": npy.name, "csv_blake2b": _file_digest(path), "npy_blake2b": _file_digest(npy),
        "nodes": order}}))
    (read, _, source), peak = traced_peak(rd.read_adjacency_csv, path)
    assert source == "sidecar" and read.tobytes() == w.tobytes()
    assert peak < n * n * 8 + 4 * 2**20


def test_learned_kind_uniform_and_trainable():
    adj = rd.build_adjacency(CHAIN_NET, CHAIN_NET_D,
                             rd.RewireConfig(sigma=1.0, kind="learned"))
    dense = rd.build_adjacency(CHAIN_NET, CHAIN_NET_D,
                               rd.RewireConfig(sigma=1.0, kind="dense"))
    assert np.array_equal(adj.w > 0, dense.w > 0)
    off = adj.w[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5)


def test_adjacency_matrix_invariants_enforced():
    with pytest.raises(ValueError, match="zero matrix"):
        rd.AdjacencyMatrix("isolated", np.eye(2))
    with pytest.raises(ValueError, match="diagonal"):
        rd.AdjacencyMatrix("dense", np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match=r"row 0 sums to 0\.5, not 1"):
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
    w, order, _ = rd.read_adjacency_csv(path)
    assert order == [10, 20, 30]
    assert np.array_equal(w, adj.w)
    meta = (tmp_path / "adjacency_meta.json").read_text()
    for key in ('"kind"', '"sigma"', '"n"', '"nnz"'):
        assert key in meta


def test_adjacency_sidecar_reads_back_what_parsing_returns(tmp_path):
    adj = rd.dense_transform(CHAIN_D, rd.RewireConfig(sigma=1.0))
    path = tmp_path / "adjacency.csv"
    written = rd.write_adjacency_csv(adj, path, nodes=[10, 20, 30])
    assert written == {"sidecar": "adjacency.npy", "csv_writers": 1}
    meta_path = tmp_path / "adjacency_meta.json"
    meta = json.loads(meta_path.read_text())
    assert list(meta) == ["kind", "sigma", "n", "nnz", "nodes", "sidecar"]
    entry = meta["sidecar"]
    assert entry["file"] == "adjacency.npy" and entry["nodes"] == [10, 20, 30]
    w, order, source = rd.read_adjacency_csv(path, nodes=[30, 10, 20, 10])
    assert source == "sidecar"
    assert rd.read_adjacency_csv(path)[2] == "sidecar"  # the sibling meta's node list
    text = tmp_path / "text"  # the same CSV without its meta and .npy
    text.mkdir()
    shutil.copy(path, text / "adjacency.csv")
    parsed, parsed_order, source = rd.read_adjacency_csv(text / "adjacency.csv",
                                                         nodes=[10, 20, 30])
    assert source == "csv"
    assert order == parsed_order == [10, 20, 30]
    assert w.dtype == parsed.dtype and w.tobytes() == parsed.tobytes()
    # without a node list the sidecar is not consulted
    no_nodes = tmp_path / "no_nodes.json"
    no_nodes.write_text(json.dumps({key: meta[key] for key in meta if key != "nodes"}))
    assert rd.read_adjacency_csv(path, meta=no_nodes)[1:] == (order, "csv")


@pytest.mark.parametrize("case", ["unsorted-ids", "negative-zero", "npy-suffix", "topology",
                                  "isolated"])
def test_adjacency_csv_writer_adds_no_sidecar_it_cannot_vouch_for(tmp_path, case):
    w = np.array([[0.0, 0.25, 0.75], [1 / 3, 0.0, 2 / 3], [1.0, 0.0, 0.0]])
    adj, nodes, path = rd.AdjacencyMatrix("dense", w), [5, 10, 42], tmp_path / "adjacency.csv"
    if case == "unsorted-ids":
        nodes = [42, 10, 5]
    elif case == "negative-zero":  # the text drops it, so parsing gives +0.0
        w[0, 0] = -0.0
        adj = rd.AdjacencyMatrix("dense", w)
    elif case == "npy-suffix":
        path = tmp_path / "adjacency.npy"
    elif case == "topology":  # 8 bytes a cell outweigh two short lines
        support = np.eye(3, k=1, dtype=bool)
        adj = rd.AdjacencyMatrix("topology", support * 1.0, support=support)
    else:
        adj = rd.AdjacencyMatrix("isolated", np.zeros((3, 3)))
    assert rd.write_adjacency_csv(adj, path, nodes=nodes)["sidecar"] is None
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [path.name, path.stem + "_meta.json"])
    assert "sidecar" not in json.loads((tmp_path / (path.stem + "_meta.json")).read_text())
    assert path.read_bytes().startswith(b"src,dst,weight\r\n")


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


def _tree_adjacency(kind: str, n: int) -> rd.AdjacencyMatrix:
    net = rd.random_river_tree(n, np.random.default_rng(n))
    return rd.build_adjacency(net, rd.topological_distances(net), rd.RewireConfig(kind=kind))


def _node_ids(case: str, n: int):
    return {"range": None, "sparse": [7 * k + 3 for k in range(n)],
            "shuffled": np.random.default_rng(n).permutation(7 * np.arange(n) + 3).tolist()}[case]


@pytest.mark.parametrize("ids", ["range", "sparse", "shuffled"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [12, 300])
@pytest.mark.parametrize("kind", ["isolated", "topology", "dense", "learned"])
def test_adjacency_csv_writer_equals_the_row_at_a_time_writer(tmp_path, monkeypatch, kind, n,
                                                              cpus, ids):
    adj, nodes = _tree_adjacency(kind, n), _node_ids(ids, n)
    (tmp_path / "rows").mkdir()
    (tmp_path / "split").mkdir()
    # the reference meta is tests/util.write_adjacency_meta's
    expected = write_adjacency_csv_by_rows(adj, tmp_path / "rows" / "adjacency.csv", nodes,
                                           sigma=adj.sigma)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    written = rd.write_adjacency_csv(adj, tmp_path / "split" / "adjacency.csv", nodes)
    # a 300-node dense tree has 89,700 entries, learned as many; topology has 299
    assert written["csv_writers"] == (cpus if adj.nnz >= CSV_SPLIT_NNZ else 1)
    assert (adj.nnz >= CSV_SPLIT_NNZ) == (n == 300 and kind in ("dense", "learned"))
    entry = json.loads((tmp_path / "split" / "adjacency_meta.json").read_text()).get("sidecar")
    assert entry == expected
    assert written["sidecar"] == (entry["file"] if entry else None)
    names = sorted(p.name for p in (tmp_path / "rows").iterdir())
    assert sorted(p.name for p in (tmp_path / "split").iterdir()) == names
    for name in names:
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "rows" / name).read_bytes()
    if entry is not None:  # the digest streamed while writing is that of the file
        assert entry["csv_blake2b"] == _file_digest(tmp_path / "split" / "adjacency.csv")
    assert (entry is not None) == (kind in ("dense", "learned") and ids != "shuffled")


def test_adjacency_csv_writer_raises_when_a_row_writer_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(sys, "executable", shutil.which("false"))
    with pytest.raises(rd.RowWriterFailed, match="row writer for .* exited with status 1"):
        rd.write_adjacency_csv(_tree_adjacency("dense", 300), tmp_path / "adjacency.csv")
    with pytest.raises(ChildProcessError):  # both children were reaped
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.iterdir()) == []  # no partial adjacency.csv, no temp file


# line endings, padding, quoting, blank and whitespace rows, an empty body
BODIES = {
    "crlf": "0,1,0.5\r\n1,0,1.0\r\n2,0,0.125\r\n",
    "lf": "0,1,0.5\n1,0,1.0\n2,0,0.125\n",
    "cr": "0,1,0.5\r1,0,1.0\r2,0,0.125\r",
    "blank_lines": "\n0,1,0.5\n\n\n1,0,1.0\r\n\r\n2,0,0.125\n\n",
    "padded": " 0 ,1,  0.5\n1 , 0 ,1.0 \n\t2,0,\t0.125\n",
    "quoted": '"0","1","0.5"\r\n1,"0",1.0\r\n" 2 ",0,"0.125"\r\n',
    "one_row": "7,3,0.1\n",
    "whitespace_row": "0,1,0.5\n   \n1,0,1.0\n",
    "empty_cells_row": "0,1,0.5\n , , \n1,0,1.0\n",
    "underscored_id": "0,1_0,0.5\n1,0,1.0\n",
    "empty": "",
}


@pytest.mark.parametrize("name", sorted(BODIES))
@pytest.mark.parametrize("nodes", [None, [0, 1, 2, 3, 7, 10]])
def test_adjacency_csv_fast_reader_matches_row_loop(tmp_path, name, nodes):
    """The text reader, filling the matrix as it reads when given the node ids, returns
    what the reference that lists every row first returns."""
    path = tmp_path / "adjacency.csv"
    path.write_text("src,dst,weight\r\n" + BODIES[name], newline="", encoding="utf-8")
    w, order, source = rd.read_adjacency_csv(path, nodes=nodes)
    w_rows, order_rows = read_adjacency_csv_by_rows(path, nodes)
    assert (order, source) == (order_rows, "csv")
    assert np.array_equal(w, w_rows)


@pytest.mark.parametrize("body, nodes", [
    ("0,1,0.5\n0,1,0.5\n", None),            # repeated cell
    ("0,1,0.5\n1,9,0.5\n", [0, 1]),          # outside the node set
    ("0,1,0.5\n1.0,0,0.5\n", None),          # float where an id belongs
    ("0,1,0.5\n1,0\n", None),                # short row
    ("0,1,0.5\n1,0,0.5,\n", None),           # long row
    ("0,1,0.5\n# note\n", None),             # a one-cell row, not a comment
    ("0,1,0.5\n1,0,nan\n", None),            # not a finite weight
    ("0,1,0.5\n1,0,inf\n", [0, 1]),
])
def test_adjacency_csv_bad_bodies_go_to_the_row_loop(tmp_path, body, nodes):
    path = tmp_path / "adjacency.csv"
    path.write_text("src,dst,weight\n" + body)
    with pytest.raises(CsvFormatError, match=r"adjacency\.csv:3: "):
        rd.read_adjacency_csv(path, nodes=nodes)


@pytest.mark.parametrize("meta", [True, False], ids=["with-meta", "without-meta"])
def test_adjacency_csv_text_read_stops_at_the_first_bad_line(tmp_path, meta):
    """Rows are checked as they are read, with the meta's node ids or with those the
    rows name: a duplicate on line 3 is reported before the weight on line 5 that
    does not parse."""
    path = tmp_path / "adjacency.csv"
    path.write_text("src,dst,weight\n0,1,0.5\n0,1,0.5\n1,0,1.0\n1,0,abc\n")
    if meta:
        (tmp_path / "adjacency_meta.json").write_text('{"nodes": [0, 1]}')
    with pytest.raises(CsvFormatError, match=r"adjacency\.csv:3: duplicate entry \(0,1\)"):
        rd.read_adjacency_csv(path)


@pytest.mark.parametrize("meta", [True, False], ids=["with-meta", "without-meta"])
def test_adjacency_csv_text_read_holds_no_row_list(tmp_path, meta):
    """A 300-node dense text read, over the meta's node ids or over those a first pass
    collects, holds the n^2 float64 matrix, its n^2 byte fill flags and one row at a
    time, not the 89,700 rows."""
    n = 300
    path = tmp_path / "adjacency.csv"
    rd.write_adjacency_csv(_tree_adjacency("dense", n), path)
    meta_path = tmp_path / "adjacency_meta.json"
    if meta:
        info = json.loads(meta_path.read_text())
        del info["sidecar"]
        meta_path.write_text(json.dumps(info))
    else:
        meta_path.unlink()
    (w, _, source), peak = traced_peak(rd.read_adjacency_csv, path)
    assert source == "csv" and np.count_nonzero(w) == n * (n - 1)
    assert peak < 2 * n * n * 8 + 2**18


# ---------------------------------------------------------------------------
# the meta beside the CSV

@pytest.mark.parametrize("text, named", [
    ("{bad", "Expecting property name"),
    ("[1,2]", "expected an object, got list"),
    ('{"nodes": "abc"}', "key 'nodes' must list"),
    (b"\xff\xfe{}", r"byte 0xff is not UTF-8 \(invalid start byte\)"),
], ids=["not-json", "not-an-object", "nodes-a-string", "not-utf8"])
@pytest.mark.parametrize("where", ["sibling", "explicit"])
def test_adjacency_reader_names_a_bad_meta(tmp_path, text, named, where):
    path = tmp_path / "pair.csv"
    path.write_text("src,dst,weight\n0,1,1.0\n1,0,1.0\n")
    meta = tmp_path / ("pair_meta.json" if where == "sibling" else "other.json")
    if isinstance(text, bytes):
        meta.write_bytes(text)
    else:
        meta.write_text(text)
    line = ":1" if isinstance(text, bytes) else ""  # a decoding error names its line
    with pytest.raises(ValueError, match=f"^metadata file {re.escape(str(meta))}{line}: {named}"):
        rd.read_adjacency_csv(path, meta=meta if where == "explicit" else None)


def test_adjacency_reader_explicit_meta_must_exist_and_the_sibling_is_optional(tmp_path):
    path = tmp_path / "pair.csv"
    path.write_text("src,dst,weight\n0,1,1.0\n1,0,1.0\n")
    missing = tmp_path / "missing.json"
    with pytest.raises(FileNotFoundError, match=f"metadata file {re.escape(str(missing))}"):
        rd.read_adjacency_csv(path, meta=missing)
    assert rd.read_adjacency_csv(path)[1:] == ([0, 1], "csv")
    # a sibling meta is picked up: its node ids, sorted, give the order
    (tmp_path / "pair_meta.json").write_text('{"nodes": [5, 1, 0]}')
    w, order, source = rd.read_adjacency_csv(path)
    assert (order, source) == ([0, 1, 5], "csv")
    assert np.array_equal(w, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # given node ids outrank the meta's
    assert rd.read_adjacency_csv(path, nodes=[1, 0])[1] == [0, 1]
    with pytest.raises(FileNotFoundError, match="adjacency file"):
        rd.read_adjacency_csv(tmp_path / "absent.csv")


def test_isolated_adjacency_reads_back_over_the_meta_nodes(tmp_path):
    adj, path = rd.AdjacencyMatrix("isolated", np.zeros((3, 3))), tmp_path / "adjacency.csv"
    rd.write_adjacency_csv(adj, path, nodes=[4, 8, 15])
    assert path.read_bytes() == b"src,dst,weight\r\n"
    w, order, source = rd.read_adjacency_csv(path)
    assert (order, source) == ([4, 8, 15], "csv")
    assert np.array_equal(w, np.zeros((3, 3)))
    (tmp_path / "adjacency_meta.json").unlink()  # the file alone names no node
    assert rd.read_adjacency_csv(path)[0].shape == (0, 0)
