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
        seen.add(int(node))

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


def topological_distances(net: RiverNetwork) -> DistanceMatrix:
    """All-pairs shortest stream distances on the undirected view.

    Sibling tributaries have no directed path between them, so distances are
    taken over undirected edges; on a tree this is the unique path length.

    Stations are ranked downstream first, in the reversed topological order,
    so each edge runs from its ``dst`` (``near``) to its ``src`` (``far``). A
    pass pair relaxes every edge for all sources at once: toward the outlets
    with the last-ranked ``far`` first, then away from them in rank order. Each
    sum extends a path outward from its source, and float addition is
    monotone, so the fixed point is the smallest such path sum: bitwise what
    Dijkstra from every source gives. When no station has two downstream
    edges, every edge joins a station to the one it drains into and one pair
    is exact: the first pass settles each source upstream of a station, and
    the second extends the settled downstream station to every other source.
    Other graphs repeat pass pairs until one changes nothing.
    """
    n = net.n
    links = [(net.index(e.dst), net.index(e.src), e.stream_length)
             for station in reversed(net.topological_order()) for e in net.out_edges(station)]

    dist = np.full((n, n), np.inf)  # dist[t, s]: from s to t, so a relaxation is a row op
    np.fill_diagonal(dist, 0.0)
    forest = len({e.src for e in net.edges}) == len(net.edges)
    while True:
        before = None if forest else dist.copy()
        for near, far, length in reversed(links):
            np.minimum(dist[near], dist[far] + length, out=dist[near])
        for near, far, length in links:
            np.minimum(dist[far], dist[near] + length, out=dist[far])
        if before is None or np.array_equal(dist, before):
            break
    # per-source float summation can differ by an ulp between directions
    d = np.minimum(dist, dist.T)
    d.flags.writeable = False
    return DistanceMatrix(n=net.n, d=d, nodes=net.nodes)


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
    reader = csv.reader(_decoded_lines(path, fh))
    try:
        first = next(reader)
    except StopIteration:
        raise CsvFormatError(path, 1, "empty file, expected header " + ",".join(header)) from None
    if tuple(h.strip() for h in first) != tuple(header):
        raise CsvFormatError(path, 1, f"bad header {first!r}, expected " + ",".join(header))
    return _converted_rows(path, reader, converters)


def _decoded_lines(path: Path, fh) -> Iterator[str]:
    try:
        for line in fh:  # not yield from, which closes fh when the rows are dropped
            yield line
    except UnicodeDecodeError:
        raise CsvFormatError.undecodable(path) from None


def _converted_rows(path: Path, reader, converters) -> Iterator[tuple[int, list]]:
    for row in reader:
        lineno = reader.line_num  # physical: a quoted cell may hold a line break
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


def read_edge_csv(path) -> RiverNetwork:
    """Load a network from an edge CSV (`src,dst,stream_length_km,elevation_diff_m`).

    Nodes are the edge endpoints. Raises :class:`CsvFormatError` with
    file:line on bad rows.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = read_csv_rows(path, fh, EDGE_CSV_HEADER, (int, int, float, float))
        edges = [Edge(*values) for _, values in rows]
    return build_network(sorted({node for e in edges for node in (e.src, e.dst)}), edges)


def write_edge_csv(net: RiverNetwork, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGE_CSV_HEADER)
        for e in net.edges:
            writer.writerow([e.src, e.dst, repr(e.stream_length), repr(e.elevation_diff)])

