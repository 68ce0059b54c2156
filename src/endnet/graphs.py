"""Directed/undirected weighted graph primitives.

Edge convention used everywhere in this package: a stored edge ``(u, v)``
means "v can receive from u".  Consequently a weight matrix W compliant
with a graph has ``W[v, u] > 0`` iff ``(u, v)`` is an edge, i.e. rows are
indexed by the receiver and columns by the sender.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np


class GraphError(ValueError):
    """Raised on malformed graph data or precondition violations."""


class _AdjacencyIndex(NamedTuple):
    inbound: dict[int, tuple[int, ...]]  # node id -> senders, ascending
    outbound: dict[int, tuple[int, ...]]  # node id -> receivers, ascending


@dataclass(frozen=True)
class Graph:
    """An immutable graph over dense integer node ids.

    Edges are ordered pairs ``(u, v)`` meaning v receives from u.  For an
    undirected graph the edge set is stored symmetrically (both directions
    present).
    """

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    directed: bool = True

    def __post_init__(self):
        node_set = set(self.nodes)
        object.__setattr__(self, "nodes", tuple(sorted(node_set)))
        object.__setattr__(self, "edges", frozenset(self.edges))
        if not self.nodes:
            raise GraphError("graph needs at least one node")
        for u, v in self.edges:
            if u not in node_set or v not in node_set:
                raise GraphError(f"edge ({u},{v}) references an undeclared node")
        if not self.directed:
            for u, v in self.edges:
                if (v, u) not in self.edges:
                    raise GraphError(
                        f"undirected graph is missing the reverse of ({u},{v})"
                    )

    @classmethod
    def directed_graph(cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(tuple(nodes), frozenset(tuple(e) for e in edges), directed=True)

    @classmethod
    def undirected_graph(cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build an undirected graph, symmetrizing the given edge list."""
        sym = set()
        for u, v in edges:
            sym.add((u, v))
            sym.add((v, u))
        return cls(tuple(nodes), frozenset(sym), directed=False)

    @classmethod
    def complete(cls, nodes: Iterable[int], self_loops: bool = False) -> "Graph":
        ns = tuple(sorted(set(nodes)))
        edges = {(u, v) for u in ns for v in ns if self_loops or u != v}
        return cls(ns, frozenset(edges), directed=False)

    def __getstate__(self):
        # the adjacency index is derived state, rebuilt on demand after unpickling
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def _index(self) -> _AdjacencyIndex:
        """Sorted neighbour tuples, built in one pass over the sorted edges
        (so each neighbour list comes out ascending)."""
        inbound: dict[int, list[int]] = {v: [] for v in self.nodes}
        outbound: dict[int, list[int]] = {v: [] for v in self.nodes}
        for u, v in sorted(self.edges):
            outbound[u].append(v)
            inbound[v].append(u)
        return _AdjacencyIndex(
            {v: tuple(us) for v, us in inbound.items()},
            {u: tuple(vs) for u, vs in outbound.items()},
        )

    def index(self, v: int) -> int:
        """Position of v in the ascending node ordering."""
        k = bisect_left(self.nodes, v)
        if k == len(self.nodes) or self.nodes[k] != v:
            raise GraphError(f"unknown node id {v}")
        return k

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._index.inbound[v]
        except KeyError:
            raise GraphError(f"unknown node id {v}") from None

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._index.outbound[v]
        except KeyError:
            raise GraphError(f"unknown node id {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix A with A[recv, send] = 1 iff (send, recv) is an edge."""
        a = np.zeros((self.num_nodes, self.num_nodes))
        a[_entry_positions(self)] = 1.0
        return a

    def with_self_loops(self) -> "Graph":
        loops = {(v, v) for v in self.nodes}
        return Graph(self.nodes, self.edges | loops, directed=self.directed)

    def undirected_closure(self) -> "Graph":
        """Symmetrized copy (used when a symmetric view of a digraph is needed)."""
        sym = set(self.edges) | {(v, u) for (u, v) in self.edges}
        return Graph(self.nodes, frozenset(sym), directed=False)

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": sorted([u, v] for (u, v) in self.edges),
            "directed": self.directed,
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "Graph":
        """The graph of ``to_json_dict``; a node entry that is not an int or
        an edge entry that is not a pair of them is a GraphError naming it."""
        nodes, edges = d["nodes"], d["edges"]
        for v in nodes:
            if type(v) is not int:
                raise GraphError(f"node entry {v!r} is not an int")
        for e in edges:
            if (type(e) not in (list, tuple) or len(e) != 2
                    or type(e[0]) is not int or type(e[1]) is not int):
                raise GraphError(f"edge entry {e!r} is not a pair of int node ids")
        return cls(tuple(nodes), frozenset(map(tuple, edges)),
                   directed=bool(d.get("directed", True)))


def _entry_positions(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The positions (receiver, sender) of g's edges in the ascending node
    order, as two arrays in ascending (receiver, sender) order: the rows
    and columns of a weight matrix compliant with g."""
    nodes = np.asarray(g.nodes)
    flat = np.fromiter(chain.from_iterable(g.edges), dtype=nodes.dtype, count=2 * len(g.edges))
    senders, receivers = np.searchsorted(nodes, flat.reshape(-1, 2).T)
    key = receivers * len(nodes) + senders
    key.sort()
    return np.divmod(key, len(nodes))


@dataclass(frozen=True, eq=False, init=False)
class WeightedGraph:
    """A graph together with compliant positive edge weights, held in one
    read-only array form: W[rows[k], cols[k]] = values[k] for each stored
    edge, where ``rows`` and ``cols`` are the positions of its receiver and
    sender in the ascending node order, in ascending (row, col) order.

    The constructor takes ``weights`` keyed (receiver, sender), with an
    entry exactly for each stored edge (sender, receiver); ``weights``
    reads them back as a read-only mapping in ascending key order.
    """

    graph: Graph
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __init__(self, graph: Graph, weights: Mapping[tuple[int, int], float] | None = None):
        weights = {} if weights is None else weights
        for recv, send in weights:
            if (send, recv) not in graph.edges:
                raise GraphError(f"weight for ({recv},{send}) has no matching edge")
        for send, recv in graph.edges:
            if (recv, send) not in weights:
                raise GraphError(f"edge ({send},{recv}) is missing a weight")
        nodes = graph.nodes
        self._assign(graph, lambda rows, cols: [weights[nodes[r], nodes[c]]
                                                for r, c in zip(rows.tolist(), cols.tolist())])

    @classmethod
    def _weighed(cls, graph: Graph, weigh: Callable) -> "WeightedGraph":
        """``graph`` with the weights ``weigh(rows, cols)`` on the entries of
        its array form."""
        wg = cls.__new__(cls)
        wg._assign(graph, weigh)
        return wg

    def _assign(self, graph: Graph, weigh: Callable) -> None:
        """Set the array form, with positive weights ``weigh(rows, cols)``."""
        rows, cols = _entry_positions(graph)
        values = np.array(weigh(rows, cols), dtype=float)
        bad = np.flatnonzero(values <= 0)
        if bad.size:
            nodes, k = graph.nodes, bad[0]
            raise GraphError(f"weight for ({nodes[rows[k]]},{nodes[cols[k]]}) must be positive")
        for name, value in zip(("graph", "rows", "cols", "values"), (graph, rows, cols, values)):
            if name != "graph":
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self.values, other.values)

    __hash__ = None

    def __getstate__(self):
        # the mapping view is derived state, rebuilt on demand after unpickling
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def nodes(self) -> tuple[int, ...]:
        return self.graph.nodes

    def _items(self) -> Iterator[tuple[int, int, float]]:
        """(receiver, sender, weight) per entry, in the order of the arrays."""
        nodes = np.asarray(self.graph.nodes)
        return zip(nodes[self.rows].tolist(), nodes[self.cols].tolist(), self.values.tolist())

    @cached_property
    def weights(self) -> Mapping[tuple[int, int], float]:
        """The weights keyed (receiver, sender), in ascending key order."""
        return MappingProxyType({(r, s): w for r, s, w in self._items()})

    def weight(self, recv: int, send: int) -> float:
        return self.weights.get((recv, send), 0.0)

    def matrix(self) -> np.ndarray:
        """Dense weight matrix W with W[recv, send] ordering by ascending node id."""
        w = np.zeros((self.graph.num_nodes,) * 2)
        w[self.rows, self.cols] = self.values
        return w

    @classmethod
    def from_matrix(cls, graph: Graph, w: np.ndarray) -> "WeightedGraph":
        w = np.asarray(w, dtype=float)
        rows, cols = np.nonzero(w)
        nodes = np.asarray(graph.nodes)
        edges = frozenset(zip(nodes[cols].tolist(), nodes[rows].tolist()))
        return cls._weighed(Graph(graph.nodes, edges, directed=graph.directed),
                            lambda r, c: w[r, c])

    def to_json_dict(self) -> dict:
        d = self.graph.to_json_dict()
        d["weights"] = {f"{r},{s}": w for r, s, w in self._items()}
        return d

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "WeightedGraph":
        """The weighted graph of ``to_json_dict``; a weight key that is not
        ``"r,s"`` with int parts, or a weight that is not a finite number,
        is a GraphError naming the entry."""
        g = Graph.from_json_dict(d)
        entries = d.get("weights", {})
        if not isinstance(entries, Mapping):
            raise GraphError(f"weights {entries!r} are not an object keyed 'receiver,sender'")
        weights = {}
        for key, w in entries.items():
            try:
                r, s = key.split(",")
                r, s = int(r), int(s)
            except ValueError:
                raise GraphError(f"weight key {key!r} is not 'receiver,sender' "
                                 f"with int ids") from None
            if type(w) not in (int, float) or not math.isfinite(w):  # bools are not numbers
                raise GraphError(f"weight {key!r}: {w!r} is not a number")
            weights[(r, s)] = float(w)
        return cls(g, weights)


@dataclass(frozen=True)
class GraphSequence:
    """A finite sequence of graph snapshots over a fixed node set."""

    snapshots: tuple[Graph, ...]

    def __post_init__(self):
        object.__setattr__(self, "snapshots", tuple(self.snapshots))
        if not self.snapshots:
            raise GraphError("empty graph sequence")
        nodes = self.snapshots[0].nodes
        for g in self.snapshots:
            if g.nodes != nodes:
                raise GraphError("all snapshots must share the node set")

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, k: int) -> Graph:
        return self.snapshots[k]

    def union(self, start: int, stop: int) -> Graph:
        """Edge union of snapshots in [start, stop)."""
        edges: set[tuple[int, int]] = set()
        for g in self.snapshots[start:stop]:
            edges |= g.edges
        return Graph(self.snapshots[0].nodes, frozenset(edges), directed=True)


def laplacian_entries(wg: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of the in-degree Laplacian L = D - W in the array
    form of ``wg`` (rows, columns and values in ascending (row, col) order):
    -W off the diagonal, and on it the sum of the row's stored weights (in
    column order, self-loop included) minus the self-loop's weight."""
    n = wg.graph.num_nodes
    stored = wg.rows * n + wg.cols
    key = np.union1d(stored, np.arange(n) * (n + 1))  # row * n + col, the diagonal added
    values = np.zeros(key.size)
    values[np.searchsorted(key, stored)] = -wg.values
    values[key % (n + 1) == 0] += np.bincount(wg.rows, weights=wg.values, minlength=n)
    keep = values != 0.0
    return (*np.divmod(key[keep], n), values[keep])


def laplacian(wg: WeightedGraph) -> np.ndarray:
    """In-degree Laplacian L = D - W, so that L @ 1 = 0: the dense matrix of
    :func:`laplacian_entries`."""
    lap = np.zeros((wg.graph.num_nodes,) * 2)
    rows, cols, values = laplacian_entries(wg)
    lap[rows, cols] = values
    return lap


def reachable(succ: Mapping[int, Iterable[int]], r: int) -> set[int]:
    """The nodes reachable from r (r included), where ``succ[v]`` lists the
    nodes v sends to."""
    seen = {r}
    frontier = [r]
    while frontier:
        u = frontier.pop()
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def is_rooted(g: Graph, r: int) -> bool:
    """True iff every node is reachable from r along directed edges."""
    succ = g._index.outbound
    if r not in succ:
        raise GraphError(f"unknown node id {r}")
    return len(reachable(succ, r)) == g.num_nodes


def is_strongly_connected(g: Graph) -> bool:
    return (is_rooted(g, g.nodes[0])
            and len(reachable(g._index.inbound, g.nodes[0])) == g.num_nodes)


def is_connected_undirected(g: Graph) -> bool:
    if g.directed:
        raise GraphError("connectivity check for undirected graphs only")
    return is_rooted(g, g.nodes[0])


def is_q_strongly_connected(seq: GraphSequence, q: int) -> bool:
    """Check Q-strong connectivity over the provided finite horizon.

    Every complete window [kQ, (k+1)Q) within the horizon must have a
    strongly connected edge union.
    """
    if q < 1:
        raise GraphError("Q must be >= 1")
    if len(seq) < q:
        raise GraphError("horizon shorter than Q")
    k = 0
    while (k + 1) * q <= len(seq):
        if not is_strongly_connected(seq.union(k * q, (k + 1) * q)):
            return False
        k += 1
    return True


# -- searches on adjacency mappings -------------------------------------------
#
# The design heuristics and the unicast router search plain mappings from a
# node to its neighbours; a weighted mapping sends each neighbour to the
# length of the edge.


def shortest_path_tree(succ: Mapping[int, Mapping[int, float]], source: int
                       ) -> tuple[dict[int, float], dict[int, int | None]]:
    """Dijkstra's shortest-path tree from source under positive edge
    lengths, where ``succ[v]`` maps each node v sends to to the length of
    that edge. Returns ``(dist, back)`` over the nodes source reaches: the
    distance to each, and its predecessor on the tree (None for source),
    which is the smallest u with ``dist[u] + length(u, v) == dist[v]``."""
    dist: dict[int, float] = {}
    seen = {source: 0.0}
    back: dict[int, int | None] = {source: None}
    fringe = [(0.0, source)]
    while fringe:
        d, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = d
        for u, length in succ[v].items():
            if u in dist:
                continue
            du = d + length
            tentative = seen.get(u)
            if tentative is None or du < tentative:
                seen[u] = du
                back[u] = v
                heappush(fringe, (du, u))
            elif du == tentative and v < back[u]:
                back[u] = v
    return dist, back


def tree_path(back: Mapping[int, int | None], target: int) -> list[int] | None:
    """The path from the root of the tree ``back`` (a predecessor map) to
    target, or None if target is not on the tree."""
    if target not in back:
        return None
    path = []
    v: int | None = target
    while v is not None:
        path.append(v)
        v = back[v]
    path.reverse()
    return path


def _join(before: Mapping[int, int | None], after: Mapping[int, int | None],
          meet: int) -> list[int]:
    """The path source -> meet -> target from the two predecessor maps."""
    return tree_path(before, meet) + tree_path(after, meet)[-2::-1]


def bidirectional_bfs(succ: Mapping[int, Iterable[int]], pred: Mapping[int, Iterable[int]],
                      source: int, target: int) -> list[int] | None:
    """A path with fewest edges from source to target, or None if there is
    none. ``succ[v]`` lists the nodes v sends to and ``pred[v]`` those that
    send to v (one mapping for both on an undirected graph).

    Breadth-first levels grow from both ends: each round expands the whole
    smaller fringe (the forward one on a tie), scanning neighbours in order,
    and the search stops at the first node reached from both sides. Among
    equal-length paths this picks whichever that order meets first, as
    networkx's ``shortest_path`` does; the unicast router relies on it.
    """
    if source == target:
        return [source]
    before: dict[int, int | None] = {source: None}
    after: dict[int, int | None] = {target: None}
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for v in level:
                for w in succ[v]:
                    if w not in before:
                        forward.append(w)
                        before[w] = v
                    if w in after:
                        return _join(before, after, w)
        else:
            level, reverse = reverse, []
            for v in level:
                for w in pred[v]:
                    if w not in after:
                        after[w] = v
                        reverse.append(w)
                    if w in before:
                        return _join(before, after, w)
    return None


def kruskal_edges(edges: Iterable[tuple[int, int, float]]) -> list[tuple[int, int, float]]:
    """Kruskal's minimum spanning forest of the weighted edges (u, v, w):
    the edges sorted stably by weight, so equal weights keep their input
    order, each kept when it joins two trees, in the order kept."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        root = v
        while parent.get(root, root) != root:
            root = parent[root]
        while v != root:
            parent[v], v = root, parent[v]
        return root

    forest = []
    for u, v, w in sorted(edges, key=itemgetter(2)):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            forest.append((u, v, w))
    return forest


def restrict(g: Graph, nodes: Iterable[int]) -> Graph:
    """Restriction of g to a node subset: keep edges with both endpoints inside."""
    keep = set(nodes) & set(g.nodes)
    if not keep:
        raise GraphError("restriction to an empty node set")
    edges = frozenset((u, v) for (u, v) in g.edges if u in keep and v in keep)
    return Graph(tuple(sorted(keep)), edges, directed=g.directed)


def intersect(a: Graph, b: Graph) -> Graph:
    """Edge intersection on a's node set (nodes kept even if isolated)."""
    edges = frozenset(e for e in a.edges if e in b.edges)
    return Graph(a.nodes, edges, directed=True)


def metropolis_hastings_weights(g: Graph) -> WeightedGraph:
    """Symmetric doubly stochastic weights w_ij = 1 / (1 + max(deg_i, deg_j)).

    Requires an undirected graph; self-loops get the complementary mass:
    the sum of the row's other weights, in ascending sender order,
    subtracted from 1.
    """
    if g.directed:
        raise GraphError("Metropolis-Hastings weights require an undirected graph")

    def weigh(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        off, n = rows != cols, g.num_nodes
        degree = np.bincount(rows[off], minlength=n)
        values = np.empty(rows.size)
        values[off] = w = 1.0 / (1.0 + np.maximum(degree[rows[off]], degree[cols[off]]))
        values[~off] = 1.0 - np.bincount(rows[off], weights=w, minlength=n)
        return values

    return WeightedGraph._weighed(g.with_self_loops(), weigh)


def row_stochastic_weights(g: Graph) -> WeightedGraph:
    """Uniform row-stochastic weights over in-neighborhoods (self-loops added)."""
    return WeightedGraph._weighed(g.with_self_loops(), lambda r, c: 1.0 / np.bincount(r)[r])


def column_stochastic_weights(g: Graph) -> WeightedGraph:
    """Uniform column-stochastic weights over out-neighborhoods (self-loops added)."""
    return WeightedGraph._weighed(g.with_self_loops(), lambda r, c: 1.0 / np.bincount(c)[c])


def uniform_weights(g: Graph) -> WeightedGraph:
    """Unit weight on every edge."""
    return WeightedGraph._weighed(g, lambda r, c: np.ones(r.size))
