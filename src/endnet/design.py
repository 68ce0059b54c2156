"""Exchange-graph design: Steiner-family heuristics plus small-scale exact oracles.

Given the communication graph and the interference pattern, build one
exchange graph per component so that every agent that needs a component
holds a copy, all traffic stays on communication edges, and the requested
connectivity holds, while a soft efficiency objective (node count, edge
count, weight, load balance) is reduced heuristically.

Heuristics are the textbook approximations: metric-closure MST for
(unweighted) Steiner trees (Kou, Markowsky & Berman), shortest-path unions
for rooted instances and a hub arborescence pair for strongly connected
instances. Each search is one shortest-path tree (``graphs.shortest_path_tree``)
from a KMB source terminal, a hub or a root, and every path is read off
such a tree: KMB takes both the metric closure and the expansion of its
MST edges from the tree of the smaller terminal, and ``design_layout``
keeps the trees of its shared host in one table, so a terminal's tree is
grown once per call, not once per component.

Ties follow one rule: on a shortest-path tree, each node's predecessor is
the smallest id among its neighbours on a shortest path from the source.
The closure MST is Kruskal's over the terminal pairs in ascending order,
sorted stably by distance.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .graphs import (
    Graph,
    GraphError,
    WeightedGraph,
    is_rooted,
    is_strongly_connected,
    kruskal_edges,
    reachable,
    restrict,
    shortest_path_tree,
    tree_path,
)
from .layout import (
    ConnectivityMode,
    EndLayout,
    LayoutError,
    Partition,
    group_pairs,
    standard_layout,
    weighted,
)

log = logging.getLogger(__name__)


class DesignInfeasible(ValueError):
    """Raised when a feasible exchange graph does not exist for some component."""

    def __init__(self, message: str, components: Sequence[int] = ()):
        super().__init__(message)
        self.components = tuple(components)


_OBJECTIVES = ("min_nodes", "min_edges", "min_weight", "balanced", "none")

_COMPATIBLE = {
    ("min_nodes", "rooted"),
    ("min_nodes", "strong"),
    ("min_nodes", "undirected"),
    ("min_edges", "rooted"),
    ("min_edges", "undirected"),
    ("min_weight", "undirected"),
    ("balanced", "undirected"),
}


@dataclass(frozen=True)
class DesignCriterion:
    """Connectivity requirement plus a soft efficiency objective.

    ``augment`` widens each solution to the communication graph restricted
    to the solution's node set (never breaks feasibility, never adds nodes).
    """

    connectivity: ConnectivityMode
    objective: str = "none"
    overrides: Mapping[int, str] = field(default_factory=dict)
    augment: bool = False
    balance_penalty: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "overrides", dict(self.overrides))
        for obj in (self.objective, *self.overrides.values()):
            if obj not in _OBJECTIVES:
                raise LayoutError(f"unknown objective {obj!r}")
            if obj != "none" and (obj, self.connectivity.kind) not in _COMPATIBLE:
                raise LayoutError(
                    f"objective {obj!r} incompatible with {self.connectivity.kind!r} connectivity"
                )

    def objective_for(self, p: int) -> str:
        return self.overrides.get(p, self.objective)


@dataclass(frozen=True)
class SteinerInstance:
    """A host graph, terminals to connect, and (for rooted variants) a root.

    Weights, when given, must be finite and positive: the searches settle a
    node only after all of its predecessors on shortest paths.
    """

    host: Graph
    terminals: frozenset[int]
    root: int | None = None
    weights: Mapping[tuple[int, int], float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        if not self.terminals <= set(self.host.nodes):
            raise GraphError("terminals must be host nodes")
        if self.root is not None and self.root not in set(self.host.nodes):
            raise GraphError("root must be a host node")
        if self.weights is not None:
            object.__setattr__(self, "weights", dict(self.weights))
            for edge, w in self.weights.items():
                if not 0.0 < w < math.inf:
                    raise GraphError(f"weight {w!r} of {edge} is not finite and positive")


def _undirected_host(g: Graph, weights=None) -> dict[int, dict[int, float]]:
    """g as an undirected adjacency with edge lengths: each node's
    neighbours in ascending id order, self-loops skipped, and {u, v} (u < v)
    of length ``weights[(v, u)]``, else ``weights[(u, v)]``, else 1.0. A
    directed g is read through its undirected closure."""
    if g.directed:
        g = g.undirected_closure()
    if not weights:
        return {u: dict.fromkeys((v for v in g.out_neighbors(u) if v != u), 1.0)
                for u in g.nodes}
    return {u: {v: weights.get((max(u, v), min(u, v)),
                               weights.get((min(u, v), max(u, v)), 1.0))
                for v in g.out_neighbors(u) if v != u}
            for u in g.nodes}


def _directed_host(g: Graph, weights=None) -> tuple[dict[int, dict[int, float]],
                                                    dict[int, dict[int, float]]]:
    """g's successor and predecessor adjacencies, each in ascending id order
    with self-loops skipped; the edge (u, v) has length ``weights[(u, v)]``,
    else 1.0."""
    if not weights:
        return ({u: dict.fromkeys((v for v in g.out_neighbors(u) if v != u), 1.0)
                 for u in g.nodes},
                {v: dict.fromkeys((u for u in g.in_neighbors(v) if u != v), 1.0)
                 for v in g.nodes})
    succ = {u: {v: weights.get((u, v), 1.0) for v in g.out_neighbors(u) if v != u}
            for u in g.nodes}
    pred = {v: {u: weights.get((u, v), 1.0) for u in g.in_neighbors(v) if u != v}
            for v in g.nodes}
    return succ, pred


def _add_path(adj: dict[int, set[int]], path: Sequence[int], undirected: bool) -> None:
    for v in path:  # new nodes join adj in path order
        if v not in adj:
            adj[v] = set()
    for u, v in zip(path[:-1], path[1:]):
        adj[u].add(v)
        if undirected:
            adj[v].add(u)


def _prune_leaves(tree: dict[int, set[int]], keep: set[int]) -> None:
    """Remove non-``keep`` nodes of degree at most one until none is left."""
    changed = True
    while changed:
        changed = False
        for v in sorted(tree):
            if v not in keep and len(tree[v]) <= 1:
                for u in tree.pop(v):
                    tree[u].discard(v)
                changed = True


def _as_graph(adj: dict[int, set[int]], directed: bool) -> Graph:
    """The graph of ``adj``. An undirected edge is listed once, from the
    endpoint added to ``adj`` first, before sorting: the list fixes the
    order the edge set is built in, and so its iteration order (the order
    ``EndLayout.validate`` reports in, for example), which this keeps as it
    was in earlier releases."""
    if directed:
        return Graph.directed_graph(sorted(adj), sorted((u, v) for u, vs in adj.items()
                                                        for v in vs))
    rank = {v: k for k, v in enumerate(adj)}
    return Graph.undirected_graph(sorted(adj), sorted((u, v) for u, vs in adj.items()
                                                      for v in vs if rank[u] < rank[v]))


def solve_st(inst: SteinerInstance) -> Graph:
    """Weighted Steiner tree 2-approximation (metric closure MST + expansion)."""
    if inst.host.directed:
        raise GraphError("Steiner tree requires an undirected host")
    return _steiner_tree(_undirected_host(inst.host, inst.weights), inst, {})


def solve_ust(inst: SteinerInstance) -> Graph:
    """Unweighted Steiner tree: minimize edge count heuristically."""
    if inst.host.directed:
        raise GraphError("Steiner tree requires an undirected host")
    return _steiner_tree(_undirected_host(inst.host), inst, {})


def _steiner_tree(host: Mapping[int, Mapping[int, float]], inst: SteinerInstance,
                  rows: dict[int, tuple[dict, dict]]) -> Graph:
    """KMB on ``host``, the undirected adjacency of ``inst.host``.

    ``rows`` maps a source terminal to its shortest-path tree in ``host``;
    missing trees are added here, so callers on the same host share them.
    A closure edge (a, b), a < b, takes its length and its path from a's tree.
    """
    terminals = sorted(inst.terminals)
    if len(terminals) == 1:
        return Graph.undirected_graph(terminals, [])
    closure = []
    for a, b in itertools.combinations(terminals, 2):
        if a not in rows:
            rows[a] = shortest_path_tree(host, a)
        dist = rows[a][0]
        if b not in dist:
            raise DesignInfeasible(f"terminals {a} and {b} are not connected")
        closure.append((a, b, dist[b]))
    tree: dict[int, set[int]] = {t: set() for t in terminals}
    for a, b, _ in sorted(kruskal_edges(closure)):
        _add_path(tree, tree_path(rows[a][1], b), undirected=True)
    _prune_leaves(tree, set(terminals))
    return _as_graph(tree, directed=False)


def solve_hub_tree(inst: SteinerInstance, hub: int | None = None) -> Graph:
    """Undirected shortest-path tree from a hub terminal; favors node-minimality.

    With every terminal adjacent to the hub this returns the star centered
    at the hub.
    """
    if inst.host.directed:
        raise GraphError("hub tree requires an undirected host")
    return _hub_tree(_undirected_host(inst.host), inst, hub)


def _tree_paths(succ: Mapping[int, Mapping[int, float]], source: int,
                targets: Iterable[int]) -> list[tuple[int, list[int] | None]]:
    """(t, path) for each target t but source, ascending, with the path from
    source to t on one shortest-path tree over ``succ`` (None off the tree);
    no tree is grown when source is the only target."""
    targets = sorted(set(targets) - {source})
    back = shortest_path_tree(succ, source)[1] if targets else {}
    return [(t, tree_path(back, t)) for t in targets]


def _hub_tree(host: Mapping[int, Mapping[int, float]], inst: SteinerInstance,
              hub: int | None) -> Graph:
    terminals = sorted(inst.terminals)
    if hub is None:
        hub = terminals[0]
    tree: dict[int, set[int]] = {hub: set()}
    for t, path in _tree_paths(host, hub, terminals):
        if path is None:
            raise DesignInfeasible(f"terminal {t} not connected to hub {hub}")
        _add_path(tree, path, undirected=True)
    _prune_leaves(tree, set(terminals) | {hub})
    return _as_graph(tree, directed=False)


def solve_udst(inst: SteinerInstance) -> Graph:
    """Rooted subgraph covering the terminals with few edges.

    Union of shortest root-to-terminal paths, then redundant-edge pruning.
    """
    if inst.root is None:
        raise GraphError("rooted Steiner instance needs a root")
    return _rooted_paths(_directed_host(inst.host)[0], inst)


def solve_dst(inst: SteinerInstance) -> Graph:
    """Weighted rooted variant: shortest paths use edge weights."""
    if inst.root is None:
        raise GraphError("rooted Steiner instance needs a root")
    return _rooted_paths(_directed_host(inst.host, inst.weights)[0], inst)


def _rooted_paths(succ: Mapping[int, Mapping[int, float]], inst: SteinerInstance) -> Graph:
    """Union of the root-to-terminal paths on one shortest-path tree over
    ``succ``, pruned."""
    sub: dict[int, set[int]] = {inst.root: set()}
    for t, path in _tree_paths(succ, inst.root, inst.terminals):
        if path is None:
            raise DesignInfeasible(f"terminal {t} unreachable from root {inst.root}")
        _add_path(sub, path, undirected=False)
    _prune_redundant_directed(sub, inst.root, set(inst.terminals))
    return _as_graph(sub, directed=True)


def _prune_redundant_directed(sub: dict[int, set[int]], root: int,
                              terminals: set[int]) -> None:
    """Drop each edge, in sorted order, whose removal keeps every terminal
    reachable from the root, together with the nodes it cuts off."""
    for u, v in sorted((u, v) for u, vs in sub.items() for v in vs):
        if u not in sub:
            continue  # cut off with an earlier edge
        sub[u].discard(v)
        reach = reachable(sub, root)
        if terminals <= reach:
            for w in [w for w in sub if w not in reach]:
                del sub[w]
        else:
            sub[u].add(v)


def solve_scss(inst: SteinerInstance) -> Graph:
    """Strongly connected subgraph through the terminals, few nodes.

    Hub heuristic: union of shortest hub-to-terminal and terminal-to-hub
    paths; strongly connected by construction.
    """
    return _hub_scss(*_directed_host(inst.host), inst)


def _hub_scss(succ: Mapping[int, Mapping[int, float]],
              pred: Mapping[int, Mapping[int, float]], inst: SteinerInstance) -> Graph:
    """Hub-to-terminal paths from one tree over ``succ``, and terminal-to-hub
    paths read reversed off one tree over ``pred``, then redundant edges
    pruned."""
    hub = inst.root if inst.root is not None else min(inst.terminals)
    out: dict[int, set[int]] = {hub: set()}
    for (t, out_path), (_, in_path) in zip(_tree_paths(succ, hub, inst.terminals),
                                           _tree_paths(pred, hub, inst.terminals)):
        if out_path is None or in_path is None:
            raise DesignInfeasible(f"terminal {t} not in the hub's strong reachability class")
        _add_path(out, out_path, undirected=False)
        _add_path(out, in_path[::-1], undirected=False)
    into: dict[int, set[int]] = {v: set() for v in out}
    for u, vs in out.items():
        for v in vs:
            into[v].add(u)
    for u, v in sorted((u, v) for u, vs in out.items() for v in vs):
        out[u].discard(v)
        into[v].discard(u)
        if len(reachable(out, hub)) < len(out) or len(reachable(into, hub)) < len(out):
            out[u].add(v)
            into[v].add(u)
    return _as_graph(out, directed=True)


# -- exact oracles (exponential; desk scale only) --------------------------


def exact_steiner_cost(g: Graph, terminals: Iterable[int], weights=None) -> float:
    """Optimal undirected Steiner cost by subset enumeration + MST."""
    terminals = set(terminals)
    host = _undirected_host(g, weights)
    others = [v for v in g.nodes if v not in terminals]
    best = float("inf")
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            nodes = terminals | set(extra)
            edges = [(u, v, w) for u in sorted(nodes) for v, w in host[u].items()
                     if u < v and v in nodes]
            forest = kruskal_edges(edges)
            if len(forest) == len(nodes) - 1:  # the nodes induce a connected subgraph
                best = min(best, sum(w for _, _, w in forest))
    return best


def exact_min_rooted_nodes(g: Graph, root: int, terminals: Iterable[int]) -> int:
    """Minimal node count of a rooted subgraph covering the terminals."""
    required = set(terminals) | {root}
    others = [v for v in g.nodes if v not in required]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            nodes = required | set(extra)
            if is_rooted(restrict(g, nodes), root):
                return len(nodes)
    raise DesignInfeasible("no rooted subgraph covers the terminals")


def exact_min_scss_nodes(g: Graph, terminals: Iterable[int]) -> int:
    """Minimal node count of a strongly connected subgraph covering the terminals."""
    required = set(terminals)
    others = [v for v in g.nodes if v not in required]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            nodes = required | set(extra)
            if is_strongly_connected(restrict(g, nodes)):
                return len(nodes)
    raise DesignInfeasible("no strongly connected subgraph covers the terminals")


# -- layout construction ---------------------------------------------------


def _default_scheme(mode: ConnectivityMode) -> str:
    return {"undirected": "metropolis", "rooted": "row", "strong": "column"}[mode.kind]


def design_layout(
    comm: Graph,
    interference: Iterable[tuple[int, int]],
    partition: Partition,
    criterion: DesignCriterion,
    weight_scheme: str | None = None,
) -> EndLayout:
    """Build a layout meeting the criterion, one component at a time.

    With objective ``none`` this returns the standard sparsity-unaware
    layout (full estimate assignment, exchange graphs equal to the
    communication graph). Otherwise each designed component is logged at
    DEBUG on ``endnet.design``: its objective, copies and edges (each
    direction counted, self-loops not).
    """
    interference = frozenset(interference)
    scheme = weight_scheme or _default_scheme(criterion.connectivity)
    mode = criterion.connectivity
    if all(criterion.objective_for(p) == "none" for p in partition.components):
        return standard_layout(comm, interference, partition, weight_scheme=scheme)

    # every component is designed on the same host, so its symmetric view,
    # its adjacencies and the shortest-path trees of its terminals are built
    # once per call
    host = comm.undirected_closure() if mode.kind == "undirected" and comm.directed else comm
    if mode.kind == "undirected":
        succ = pred = _undirected_host(host)
    else:
        succ, pred = _directed_host(host)
    rows: dict[int, tuple[dict, dict]] = {}
    needers = group_pairs(interference)
    debug = log.isEnabledFor(logging.DEBUG)
    loads: dict[int, int] = {v: 0 for v in comm.nodes}
    design = {}
    # components whose exchange graph is all of comm share one weighted comm,
    # as in the standard layout, so that they form one component group
    shared: WeightedGraph | None = None
    failures: list[int] = []
    messages: list[str] = []
    for p in partition.components:
        terminals = frozenset(needers.get(p, ()))
        if not terminals:
            failures.append(p)
            messages.append(f"component {p}: no agent needs it")
            continue
        try:
            sub = _solve_component(comm, host, succ, pred, rows, p, terminals, criterion,
                                   loads)
        except DesignInfeasible as exc:
            failures.append(p)
            messages.append(f"component {p}: {exc}")
            continue
        if criterion.augment:
            sub = restrict(host, sub.nodes)
        for v in sub.nodes:
            loads[v] += 1
        if debug:
            log.debug("component %d: objective %s, %d copies, %d edges", p,
                      criterion.objective_for(p), len(sub.nodes),
                      sum(u != v for u, v in sub.edges))
        if sub == comm:
            shared = shared or weighted(comm, scheme)
            design[p] = shared
        else:
            design[p] = weighted(sub, scheme)
    if failures:
        raise DesignInfeasible("; ".join(messages), components=failures)
    layout = EndLayout(
        agents=comm.nodes,
        partition=partition,
        comm=comm,
        interference=interference,
        design=design,
    )
    leftovers = layout.validate(mode)
    if leftovers:
        raise DesignInfeasible("; ".join(leftovers))
    return layout


def _solve_component(
    comm: Graph,
    host: Graph,
    succ: Mapping[int, Mapping[int, float]],
    pred: Mapping[int, Mapping[int, float]],
    rows: dict[int, tuple[dict, dict]],
    p: int,
    terminals: frozenset[int],
    criterion: DesignCriterion,
    loads: Mapping[int, int],
) -> Graph:
    """Exchange graph of component p on ``host`` (``comm``, made symmetric in
    undirected mode); ``succ``/``pred`` are host's unit-length adjacencies
    (one mapping in undirected mode) and ``rows`` the shortest-path trees of
    its terminals, all shared by every component; only ``rows`` grows."""
    mode = criterion.connectivity
    objective = criterion.objective_for(p)
    if objective == "none":
        return comm
    if mode.kind == "rooted":
        root = mode.roots.get(p)
        if root is None:
            raise DesignInfeasible("no root specified")
        return _rooted_paths(succ, SteinerInstance(host, terminals | {root}, root=root))
    if mode.kind == "strong":
        hub = p if p in terminals else None
        return _hub_scss(succ, pred, SteinerInstance(host, terminals, root=hub))
    # undirected
    if objective == "min_nodes":
        hub = p if p in terminals else min(terminals)
        return _hub_tree(succ, SteinerInstance(host, terminals), hub)
    if objective in ("min_edges", "min_weight"):
        # min_weight has unit weights here, so both run KMB on the same host
        return _steiner_tree(succ, SteinerInstance(host, terminals), rows)
    # balanced: Steiner tree with load-inflated edge weights, on a host (and
    # so with trees) of its own
    w = {
        (u, v): 1.0 + criterion.balance_penalty * (loads[u] + loads[v]) / 2.0
        for (u, v) in host.edges
    }
    return solve_st(SteinerInstance(host, terminals, weights=w))


def try_minimal_layout(
    comm: Graph,
    interference: Iterable[tuple[int, int]],
    partition: Partition,
    mode: ConnectivityMode,
    weight_scheme: str | None = None,
) -> tuple[EndLayout | None, list[str]]:
    """Attempt the estimate-graph-equals-interference-graph choice.

    Each exchange graph is the communication graph restricted to the agents
    that need the component; succeeds iff every restriction satisfies the
    requested connectivity.
    """
    interference = frozenset(interference)
    scheme = weight_scheme or _default_scheme(mode)
    host = comm if mode.kind != "undirected" else comm.undirected_closure()
    needers = group_pairs(interference)
    design = {}
    for p in partition.components:
        if p not in needers:
            return None, [f"component {p}: no agent needs it"]
        sub = restrict(host, needers[p])
        design[p] = weighted(sub, scheme)
    layout = EndLayout(
        agents=comm.nodes,
        partition=partition,
        comm=comm,
        interference=interference,
        design=design,
    )
    violations = layout.validate(mode)
    if violations:
        return None, violations
    return layout, []
