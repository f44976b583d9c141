"""River networks as weighted directed graphs, plus pairwise stream distances.

Node identifiers are opaque non-negative integers (gauge ids). Every matrix
built downstream shares one indexing convention: position k belongs to the
k-th smallest identifier, so distance, adjacency and resistance matrices are
always mutually aligned.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CsvFormatError, CycleDetected, DuplicateEdge, NonpositiveLength

EDGE_CSV_HEADER = ("src", "dst", "stream_length_km", "elevation_diff_m")


class Edge(NamedTuple):
    src: int
    dst: int
    stream_length: float   # kilometers, > 0
    elevation_diff: float  # meters, signed


class RiverNetwork:
    """Immutable directed gauge graph; ``src`` is upstream of ``dst``.

    Construction happens through :func:`build_network`, which validates the
    edge set. Instances are safe to share between threads.
    """

    __slots__ = ("nodes", "edges", "_pos", "_out", "_in")

    def __init__(self, nodes: tuple[int, ...], edges: tuple[Edge, ...]):
        self.nodes = nodes
        self.edges = edges
        self._pos = {node: k for k, node in enumerate(nodes)}
        self._out: dict[int, list[Edge]] = {node: [] for node in nodes}
        self._in: dict[int, list[Edge]] = {node: [] for node in nodes}
        for e in edges:
            self._out[e.src].append(e)
            self._in[e.dst].append(e)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index(self, station: int) -> int:
        """Matrix position of a station under the sorted-id convention."""
        return self._pos[station]

    def __contains__(self, station: int) -> bool:
        return station in self._pos

    def out_edges(self, station: int) -> list[Edge]:
        return list(self._out[station])

    def in_edges(self, station: int) -> list[Edge]:
        return list(self._in[station])

    def outlets(self) -> list[int]:
        """Stations with no downstream edge."""
        return [node for node in self.nodes if not self._out[node]]

    def is_river_tree(self) -> bool:
        """True when every node has out-degree <= 1."""
        return all(len(self._out[node]) <= 1 for node in self.nodes)

    def edge_mask(self) -> np.ndarray:
        """(n, n) bool matrix, True at [index(src), index(dst)] for every edge."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        for e in self.edges:
            mask[self._pos[e.src], self._pos[e.dst]] = True
        return mask

    def topological_order(self) -> list[int]:
        """Stations upstream first; among ready stations the smallest id goes first.

        Stations on or downstream of a directed cycle never become ready and
        are left out, so the order is shorter than ``n`` exactly when the
        graph has a cycle.
        """
        indeg = {node: len(self._in[node]) for node in self.nodes}
        ready = [node for node, k in indeg.items() if k == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for e in self._out[node]:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    heapq.heappush(ready, e.dst)
        return order

    def __repr__(self) -> str:
        return f"RiverNetwork(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise stream distances in kilometers along the undirected graph.

    ``d[i, j]`` is +inf when no path connects the pair; the diagonal is zero.
    """

    n: int
    d: np.ndarray
    nodes: tuple[int, ...]


def build_network(node_list: Iterable[int], edge_list: Iterable) -> RiverNetwork:
    """Validate and freeze a river network.

    Parameters
    ----------
    node_list : iterable of int
        Unique non-negative station identifiers. May include isolated nodes.
    edge_list : iterable
        ``Edge`` tuples or plain ``(src, dst, stream_length, elevation_diff)``.

    Raises
    ------
    CycleDetected, DuplicateEdge, NonpositiveLength, ValueError
    """
    nodes = list(node_list)
    seen: set[int] = set()
    for node in nodes:
        if not isinstance(node, (int, np.integer)) or isinstance(node, bool) or node < 0:
            raise ValueError(f"station id must be a non-negative integer, got {node!r}")
        if node in seen:
            raise ValueError(f"duplicate station id {node}")
        seen.add(node)

    edges: list[Edge] = []
    pairs: set[tuple[int, int]] = set()
    for raw in edge_list:
        e = Edge(int(raw[0]), int(raw[1]), float(raw[2]), float(raw[3]))
        if e.src not in seen or e.dst not in seen:
            missing = e.src if e.src not in seen else e.dst
            raise ValueError(f"edge ({e.src} -> {e.dst}) references unknown station {missing}")
        if e.src == e.dst:
            raise CycleDetected(f"self-loop at station {e.src}")
        if (e.src, e.dst) in pairs:
            raise DuplicateEdge(f"duplicate edge ({e.src} -> {e.dst})")
        if not e.stream_length > 0:
            raise NonpositiveLength(
                f"edge ({e.src} -> {e.dst}) has stream_length {e.stream_length}")
        pairs.add((e.src, e.dst))
        edges.append(e)

    ordered = tuple(sorted(seen))
    # canonical edge order: by (src, dst) so permuted inputs build identical networks
    frozen = tuple(sorted(edges, key=lambda e: (e.src, e.dst)))
    net = RiverNetwork(ordered, frozen)
    order = net.topological_order()
    if len(order) < net.n:
        cycle = sorted(seen.difference(order))
        raise CycleDetected(f"directed cycle through stations {cycle}")
    return net


def distance_path(net: RiverNetwork) -> str:
    """Which method :func:`topological_distances` uses: ``"tree"`` or ``"dijkstra"``."""
    return "tree" if net.is_river_tree() else "dijkstra"


def topological_distances(net: RiverNetwork) -> DistanceMatrix:
    """All-pairs shortest stream distances on the undirected view.

    Sibling tributaries have no directed path between them, so distances are
    taken over undirected edges; on a tree this is the unique path length.
    River trees (forests) are filled by propagation along their unique paths
    in O(n^2) vector work; other DAGs run Dijkstra from every source. Both
    add a path's lengths in order from the source station, so the two give
    bitwise the same matrix wherever both apply.
    """
    if distance_path(net) == "tree":
        d = _tree_distances(net)
    else:
        d = _dijkstra_distances(net)
    # per-source float summation can differ by an ulp between directions
    d = np.minimum(d, d.T)
    d.flags.writeable = False
    return DistanceMatrix(n=net.n, d=d, nodes=net.nodes)


def _tree_distances(net: RiverNetwork) -> np.ndarray:
    """``d[s, t]``: stream lengths summed from ``s`` to ``t`` along the tree path.

    Stations are placed in preorder from each outlet, so every subtree is one
    contiguous run; ``e[t, s]`` holds ``d[s, t]``, so each step below is a
    row slice. Sources in other trees stay at inf, since inf + length = inf.
    """
    n = net.n
    parent = [-1] * n
    length = [0.0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for edge in net.edges:
        c, p = net.index(edge.src), net.index(edge.dst)
        parent[c], length[c] = p, edge.stream_length
        children[p].append(c)

    order: list[int] = []
    stack = [k for k in range(n) if parent[k] < 0]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])
    pos = [0] * n
    for a, node in enumerate(order):
        pos[node] = a
    up = [pos[parent[node]] if parent[node] >= 0 else -1 for node in order]
    step = [length[node] for node in order]
    end = list(range(1, n + 1))  # the subtree of order[a] is order[a:end[a]]
    for a in reversed(range(n)):
        if up[a] >= 0:
            end[up[a]] = max(end[up[a]], end[a])

    e = np.full((n, n), np.inf)
    np.fill_diagonal(e, 0.0)
    for a in reversed(range(n)):  # sources inside a subtree reach its parent via its root
        if up[a] >= 0:
            e[up[a], a:end[a]] = e[a, a:end[a]] + step[a]
    for a in range(n):  # every other source reaches the subtree root via the parent
        if up[a] >= 0:
            e[a, :a] = e[up[a], :a] + step[a]
            e[a, end[a]:] = e[up[a], end[a]:] + step[a]
    return e[np.ix_(pos, pos)].T


def _dijkstra_distances(net: RiverNetwork) -> np.ndarray:
    """Dijkstra with a binary heap per source, ties broken by node index."""
    n = net.n
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for e in net.edges:
        i, j = net.index(e.src), net.index(e.dst)
        adj[i].append((j, e.stream_length))
        adj[j].append((i, e.stream_length))

    d = np.full((n, n), np.inf)
    for s in range(n):
        dist = d[s]
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        done = np.zeros(n, dtype=bool)
        while heap:
            du, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w in adj[u]:
                dv = du + w
                if dv < dist[v]:
                    dist[v] = dv
                    heapq.heappush(heap, (dv, v))
    return d


# ---------------------------------------------------------------------------
# CSV interfaces

def read_csv_rows(path: Path, fh, header: Sequence[str],
                  converters: Sequence[Callable[[str], object]]) -> Iterator[tuple[int, list]]:
    """Check the header line of ``fh`` now; return the converted rows after it.

    The iterator yields ``(line, values)`` for every non-blank row, with
    ``converters[k]`` applied to column k. A missing or wrong header, a row
    of the wrong width, or a cell its converter rejects raises
    :class:`CsvFormatError` at its file:line.
    """
    reader = csv.reader(fh)
    try:
        first = next(reader)
    except StopIteration:
        raise CsvFormatError(path, 1, "empty file, expected header " + ",".join(header)) from None
    if tuple(h.strip() for h in first) != tuple(header):
        raise CsvFormatError(path, 1, f"bad header {first!r}, expected " + ",".join(header))
    return _converted_rows(path, reader, converters)


def _converted_rows(path: Path, reader, converters) -> Iterator[tuple[int, list]]:
    for lineno, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != len(converters):
            raise CsvFormatError(path, lineno,
                                 f"expected {len(converters)} columns, got {len(row)}")
        try:
            values = [convert(cell) for convert, cell in zip(converters, row)]
        except ValueError as exc:
            raise CsvFormatError(path, lineno, str(exc)) from None
        yield lineno, values


def read_edge_csv(path, extra_nodes: Sequence[int] = ()) -> RiverNetwork:
    """Load a network from an edge CSV (`src,dst,stream_length_km,elevation_diff_m`).

    Nodes are the union of edge endpoints and ``extra_nodes`` (for isolated
    stations). Raises :class:`CsvFormatError` with file:line on bad rows.
    """
    path = Path(path)
    endpoints = {int(x) for x in extra_nodes}
    with path.open(newline="", encoding="utf-8") as fh:
        rows = read_csv_rows(path, fh, EDGE_CSV_HEADER, (int, int, float, float))
        edges = [Edge(*values) for _, values in rows]
    endpoints.update(node for e in edges for node in (e.src, e.dst))
    return build_network(sorted(endpoints), edges)


def write_edge_csv(net: RiverNetwork, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGE_CSV_HEADER)
        for e in net.edges:
            writer.writerow([e.src, e.dst, repr(e.stream_length), repr(e.elevation_diff)])

