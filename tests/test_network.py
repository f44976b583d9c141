import numpy as np
import pytest

import riverdense as rd
from riverdense.errors import CsvFormatError, CycleDetected, DuplicateEdge, NonpositiveLength

from util import (dijkstra_distances, floyd_warshall, is_river_tree, outlets,
                  random_weighted_tree, tree_path_distance, undirected_length_matrix)


def test_minimal_two_node_network():
    net = rd.build_network([0, 1], [(0, 1, 3.0, 10.0)])
    assert net.n == 2
    assert len(net.edges) == 1
    assert net.edges[0] == rd.Edge(0, 1, 3.0, 10.0)


def test_two_cycle_rejected():
    with pytest.raises(CycleDetected) as exc:
        rd.build_network([0, 1], [(0, 1, 1.0, 0.0), (1, 0, 1.0, 0.0)])
    assert "0" in str(exc.value) or "1" in str(exc.value)


def test_chain_outlet_has_no_downstream():
    net = rd.build_network([0, 1, 2], [(0, 1, 2.0, 0.0), (1, 2, 3.0, 0.0)])
    assert outlets(net) == [2]
    assert is_river_tree(net)


def test_self_loop_rejected():
    with pytest.raises(CycleDetected):
        rd.build_network([0], [(0, 0, 1.0, 0.0)])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge) as exc:
        rd.build_network([0, 1], [(0, 1, 1.0, 0.0), (0, 1, 2.0, 0.0)])
    assert "(0 -> 1)" in str(exc.value)


def test_nonpositive_length_rejected():
    with pytest.raises(NonpositiveLength) as exc:
        rd.build_network([0, 1], [(0, 1, 0.0, 0.0)])
    assert "(0 -> 1)" in str(exc.value)


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError, match="unknown station"):
        rd.build_network([0, 1], [(0, 2, 1.0, 0.0)])


def test_bad_station_ids_rejected():
    with pytest.raises(ValueError):
        rd.build_network([-1], [])
    with pytest.raises(ValueError):
        rd.build_network([0, 0], [])


def test_chain_distances():
    net = rd.build_network([0, 1, 2], [(0, 1, 2.0, 0.0), (1, 2, 3.0, 0.0)])
    d = rd.topological_distances(net).d
    assert d[0, 2] == 5.0
    assert d[0, 1] == 2.0
    assert d[1, 2] == 3.0
    assert np.all(np.diag(d) == 0)


def test_disconnected_pairs_infinite():
    net = rd.build_network([0, 1, 2, 3], [(0, 1, 1.0, 0.0), (2, 3, 1.0, 0.0)])
    d = rd.topological_distances(net).d
    assert d[0, 1] == 1.0 and d[2, 3] == 1.0
    assert np.isinf(d[0, 2]) and np.isinf(d[1, 3])


def test_star_leaf_to_leaf_distance():
    # leaves 1,2,3 hang off center 0 at lengths 1,2,4; leaf1-leaf3 walks 1+4
    net = rd.build_network([0, 1, 2, 3],
                           [(1, 0, 1.0, 0.0), (2, 0, 2.0, 0.0), (3, 0, 4.0, 0.0)])
    d = rd.topological_distances(net).d
    assert d[net.index(1), net.index(3)] == pytest.approx(5.0)


def test_distance_matrix_is_immutable():
    net = rd.build_network([0, 1], [(0, 1, 1.0, 0.0)])
    d = rd.topological_distances(net)
    with pytest.raises(ValueError):
        d.d[0, 1] = 99.0


def test_distances_symmetric_and_triangle_on_random_trees():
    rng = np.random.default_rng(20240811)
    for _ in range(500):
        n = int(rng.integers(2, 65))
        net = random_weighted_tree(n, rng)
        d = rd.topological_distances(net).d
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        assert np.all(d[~np.eye(n, dtype=bool)] > 0)
        for k in range(n):
            assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-9)


def test_tree_distance_matches_path_walk_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        net = random_weighted_tree(n, rng)
        d = rd.topological_distances(net).d
        for _ in range(10):
            u, v = rng.integers(0, n, size=2)
            expected = tree_path_distance(net, int(u), int(v))
            assert d[net.index(int(u)), net.index(int(v))] == pytest.approx(expected, abs=1e-9)


def random_river_forest(rng: np.random.Generator) -> rd.RiverNetwork:
    """Several outlets, isolated stations, scattered ids, non-integer lengths."""
    n = int(rng.integers(1, 90))
    ids = rng.choice(100_000, size=n, replace=False).tolist()
    edges = []
    for k in range(1, n):
        if rng.random() < 0.75:  # otherwise station k is an outlet
            downstream = ids[int(rng.integers(0, k))]
            length = float(rng.choice([rng.uniform(0.05, 40.0), rng.integers(1, 9) / 10]))
            edges.append((ids[k], downstream, length, 0.0))
    net = rd.build_network(ids, edges)
    assert is_river_tree(net)
    return net


def test_tree_distances_equal_dijkstra_reference_on_river_forests():
    rng = np.random.default_rng(31)
    several_outlets = isolated = 0
    for _ in range(300):
        net = random_river_forest(rng)
        d = rd.topological_distances(net).d
        assert np.array_equal(d, dijkstra_distances(net))
        several_outlets += len(outlets(net)) > 1
        isolated += any(not net.in_edges(s) and not net.out_edges(s) for s in net.nodes)
    assert several_outlets > 100 and isolated > 100


def test_bypassed_confluence_distances():
    # station 0 drains through confluence 1 and also along a bypass straight to 2
    net = rd.build_network([0, 1, 2, 3], [(0, 1, 1.5, 0.0), (3, 1, 2.0, 0.0),
                                          (1, 2, 2.25, 0.0), (0, 2, 3.0, 0.0)])
    d = rd.topological_distances(net).d
    expected = np.array([[0.0, 1.5, 3.0, 3.5],
                         [1.5, 0.0, 2.25, 2.0],
                         [3.0, 2.25, 0.0, 4.25],
                         [3.5, 2.0, 4.25, 0.0]])
    assert np.array_equal(d, expected)
    assert np.array_equal(d, dijkstra_distances(net))


def test_bypassed_forests_equal_dijkstra_reference():
    rng = np.random.default_rng(32)
    bypassed = 0
    for _ in range(100):
        tree = random_river_forest(rng)
        edges = [tuple(e) for e in tree.edges]
        # bypass a downstream station: an extra edge to its own downstream station
        for e in tree.edges:
            below = tree.out_edges(e.dst)
            if below and rng.random() < 0.3:
                edges.append((e.src, below[0].dst, float(rng.uniform(0.05, 80.0)), 0.0))
        net = rd.build_network(tree.nodes, edges)
        bypassed += not is_river_tree(net)
        d = rd.topological_distances(net).d
        assert np.array_equal(d, dijkstra_distances(net))
    assert bypassed > 50


def alternating_chain(n: int) -> rd.RiverNetwork:
    """A path whose edges alternate direction: every other station has two outlets."""
    edges = [((k, k + 1) if k % 2 else (k + 1, k)) + (0.1 + (k % 7) * 0.37, 0.0)
             for k in range(n - 1)]
    return rd.build_network(range(n), edges)


def grid_dag(side: int, rng: np.random.Generator) -> rd.RiverNetwork:
    """Stations on a square grid draining right and down: many paths per pair."""
    edges = []
    for k in range(side * side):
        if k % side + 1 < side:
            edges.append((k, k + 1, float(rng.uniform(0.05, 5.0)), 0.0))
        if k + side < side * side:
            edges.append((k, k + side, float(rng.uniform(0.05, 5.0)), 0.0))
    return rd.build_network(range(side * side), edges)


@pytest.mark.parametrize("net", [
    alternating_chain(120), grid_dag(9, np.random.default_rng(5)),
    # an undirected tree: station 1 splits into 2 and 3, and 4 joins 3, which drains into 5
    rd.build_network(range(6), [(0, 1, 1.5, 0.0), (1, 2, 2.25, 0.0), (1, 3, 0.7, 0.0),
                                (4, 3, 3.1, 0.0), (3, 5, 1.2, 0.0)]),
], ids=["alternating-chain", "grid-dag", "distributary"])
def test_non_tree_distances_equal_dijkstra_and_floyd_warshall(net):
    assert not is_river_tree(net)
    d = rd.topological_distances(net).d
    assert np.array_equal(d, dijkstra_distances(net))
    np.testing.assert_allclose(d, floyd_warshall(undirected_length_matrix(net)),
                               rtol=0, atol=1e-12)


def test_build_is_order_insensitive():
    edges = [(0, 1, 2.0, 1.0), (1, 2, 3.0, 2.0), (3, 1, 4.0, 3.0)]
    rng = np.random.default_rng(3)
    reference = rd.build_network([0, 1, 2, 3], edges)
    for _ in range(10):
        shuffled = [edges[i] for i in rng.permutation(len(edges))]
        net = rd.build_network([3, 2, 1, 0], shuffled)
        assert net.nodes == reference.nodes
        assert net.edges == reference.edges


def test_topological_order_puts_every_edge_upstream_first():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        tree = random_weighted_tree(n, rng)
        # random_river_tree points every edge to a smaller id, so extra
        # high -> low shortcuts keep the graph acyclic but not a tree
        pairs = {(e.src, e.dst) for e in tree.edges}
        for _ in range(int(rng.integers(0, n))):
            lo, hi = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            pairs.add((hi, lo))
        label = [int(x) for x in rng.permutation(n) * 3]
        net = rd.build_network(label, [(label[a], label[b], 1.0, 0.0) for a, b in pairs])
        if n > 2:
            net = rd.bypass_remove(net, label[int(rng.integers(0, n))])
        order = net.topological_order()
        assert sorted(order) == list(net.nodes)
        pos = {node: k for k, node in enumerate(order)}
        assert all(pos[e.src] < pos[e.dst] for e in net.edges)


def test_topological_order_ties_go_to_smallest_id():
    net = rd.build_network(range(5), [(3, 0, 1.0, 0.0), (4, 2, 1.0, 0.0)])
    # 0 becomes ready after 3 and goes ahead of the waiting 4
    assert net.topological_order() == [1, 3, 0, 4, 2]


def test_cycle_names_every_station_it_blocks():
    edges = [(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (2, 3, 1.0, 0.0),
             (3, 1, 1.0, 0.0), (3, 4, 1.0, 0.0)]
    with pytest.raises(CycleDetected, match=r"stations \[1, 2, 3, 4\]"):
        rd.build_network(range(5), edges)


def test_edge_csv_round_trip(tmp_path):
    net = rd.build_network([0, 1, 2], [(0, 1, 2.5, 1.25), (1, 2, 3.0, -0.5)])
    path = tmp_path / "edges.csv"
    rd.write_edge_csv(net, path)
    back = rd.read_edge_csv(path)
    assert back.nodes == net.nodes
    assert back.edges == net.edges


def test_edge_csv_bad_header(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("a,b,c,d\n0,1,1.0,0.0\n")
    with pytest.raises(CsvFormatError, match="bad header"):
        rd.read_edge_csv(path)


def test_edge_csv_bad_row_reports_line(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst,stream_length_km,elevation_diff_m\n0,1,oops,0.0\n")
    with pytest.raises(CsvFormatError, match=r"edges\.csv:2"):
        rd.read_edge_csv(path)


@pytest.mark.parametrize("body, error", [
    ("", r"edges\.csv:1: empty file, expected header "
         r"src,dst,stream_length_km,elevation_diff_m$"),
    ("src,dst,stream_length_km,elevation_diff_m\n0,1,1.0,0.0\n1,2,2.0\n",
     r"edges\.csv:3: expected 4 columns, got 3$"),
    ("src,dst,stream_length_km,elevation_diff_m\n\n  \n , ,,\n0,1,1.0,0.0\n1,2,x,0.0\n",
     r"edges\.csv:6: could not convert string to float: 'x'$"),
])
def test_edge_csv_errors_name_file_and_line(tmp_path, body, error):
    path = tmp_path / "edges.csv"
    path.write_text(body)
    with pytest.raises(CsvFormatError, match=error):
        rd.read_edge_csv(path)


@pytest.mark.parametrize("read, body", [
    (rd.read_edge_csv, 'src,dst,stream_length_km,elevation_diff_m\n"1\n",2,1.0,0.5\n2,3,x,0.5\n'),
    (rd.read_adjacency_csv, 'src,dst,weight\n"1\n",2,0.5\n2,3,x\n'),
])
def test_csv_errors_name_the_physical_line_after_a_quoted_line_break(tmp_path, read, body):
    path = tmp_path / "rows.csv"
    path.write_text(body, newline="")
    with pytest.raises(CsvFormatError, match=r"rows\.csv:4: could not convert string to "
                                             r"float: 'x'$"):
        read(path)


@pytest.mark.parametrize("body", [
    "src,dst,stream_length_km,elevation_diff_m\n0,1,2.5,1.25\n1,2,3.0,-0.5\n",
    "src,dst,stream_length_km,elevation_diff_m\r\n\r\n0,1,2.5,1.25\r\n   \r\n"
    " , , , \r\n1,2,3.0,-0.5\r\n\r\n",
    'src,"dst", stream_length_km ,elevation_diff_m\n"0","1","2.5",1.25\n1," 2 ",3.0,"-0.5"\n',
])
def test_edge_csv_skips_blank_rows_and_reads_quoted_fields(tmp_path, body):
    path = tmp_path / "edges.csv"
    path.write_text(body, newline="")
    net = rd.read_edge_csv(path)
    assert net.nodes == (0, 1, 2)
    assert net.edges == (rd.Edge(0, 1, 2.5, 1.25), rd.Edge(1, 2, 3.0, -0.5))

