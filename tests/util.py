"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import heapq

import numpy as np

import riverdense as rd


def random_weighted_tree(n: int, rng: np.random.Generator) -> rd.RiverNetwork:
    return rd.random_river_tree(n, rng)


def random_connected_graph(n: int, rng: np.random.Generator,
                           extra_edges: int | None = None) -> np.ndarray:
    """Symmetric positive weight matrix of a connected graph."""
    w = np.zeros((n, n))
    for node in range(1, n):
        parent = int(rng.integers(0, node))
        weight = float(rng.uniform(0.5, 2.0))
        w[node, parent] = w[parent, node] = weight
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n))
    for _ in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        if i != j and w[i, j] == 0:
            weight = float(rng.uniform(0.5, 2.0))
            w[i, j] = w[j, i] = weight
    return w


def conductance_matrix(net: rd.RiverNetwork) -> np.ndarray:
    """Symmetric adjacency with edge conductance 1/stream_length."""
    w = np.zeros((net.n, net.n))
    for e in net.edges:
        i, j = net.index(e.src), net.index(e.dst)
        w[i, j] = w[j, i] = 1.0 / e.stream_length
    return w


def tree_path_distance(net: rd.RiverNetwork, u: int, v: int) -> float:
    """Walk the unique u-v path of a river tree, summing stream lengths.

    Independent of the Dijkstra implementation: every node has at most one
    downstream edge, so paths to the outlet are unambiguous.
    """
    def downstream_walk(start):
        dist = {start: 0.0}
        node, acc = start, 0.0
        while True:
            outgoing = net.out_edges(node)
            if not outgoing:
                return dist
            edge = outgoing[0]
            acc += edge.stream_length
            node = edge.dst
            dist[node] = acc

    from_u = downstream_walk(u)
    node, acc = v, 0.0
    while node not in from_u:
        edge = net.out_edges(node)[0]
        acc += edge.stream_length
        node = edge.dst
    return acc + from_u[node]


def dijkstra_distances(net: rd.RiverNetwork) -> np.ndarray:
    """All-pairs stream distances by a plain-Python Dijkstra from every station.

    Walks the undirected edge list with dicts keyed by station id, then keeps
    the smaller of the two directions per pair, as the library does; a
    reference independent of its matrix code.
    """
    neighbours: dict[int, list[tuple[int, float]]] = {node: [] for node in net.nodes}
    for e in net.edges:
        neighbours[e.src].append((e.dst, e.stream_length))
        neighbours[e.dst].append((e.src, e.stream_length))
    d = np.full((net.n, net.n), np.inf)
    for source in net.nodes:
        best = {source: 0.0}
        heap = [(0.0, source)]
        settled: set[int] = set()
        while heap:
            dist, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for other, length in neighbours[node]:
                if other not in best or dist + length < best[other]:
                    best[other] = dist + length
                    heapq.heappush(heap, (best[other], other))
        for node, dist in best.items():
            d[net.index(source), net.index(node)] = dist
    return np.minimum(d, d.T)


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """Min-plus all-pairs distances; an oracle independent of Dijkstra."""
    n = weights.shape[0]
    d = np.where(weights > 0, weights, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def undirected_length_matrix(net: rd.RiverNetwork) -> np.ndarray:
    w = np.zeros((net.n, net.n))
    for e in net.edges:
        i, j = net.index(e.src), net.index(e.dst)
        w[i, j] = w[j, i] = e.stream_length
    return w


def hop_distances(support: np.ndarray) -> np.ndarray:
    """BFS hop counts over the directed support graph (column feeds row)."""
    n = support.shape[0]
    dist = np.full((n, n), np.inf)
    for source in range(n):
        dist[source, source] = 0
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            nxt = []
            for node in frontier:
                for receiver in np.flatnonzero(support[:, node]):
                    if dist[receiver, source] == np.inf:
                        dist[receiver, source] = hops
                        nxt.append(int(receiver))
            frontier = nxt
    return dist
