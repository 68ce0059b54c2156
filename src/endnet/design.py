"""Exchange-graph design: Steiner-family heuristics plus small-scale exact oracles.

Given the communication graph and the interference pattern, build one
exchange graph per component so that every agent that needs a component
holds a copy, all traffic stays on communication edges, and the requested
connectivity holds, while a soft efficiency objective (node count, edge
count, weight, load balance) is reduced heuristically.

Heuristics are the textbook approximations: metric-closure MST for
(unweighted) Steiner trees (Kou, Markowsky & Berman), shortest-path unions
for rooted instances and a hub arborescence pair for strongly connected
instances. The metric closure is read from one Dijkstra shortest-path
row per source terminal. ``design_layout`` keeps the rows of its shared host in one
table, so a terminal's row is computed once per call, not once per
component.

Results are deterministic but ties are not broken by node id. Every path
comes from networkx's bidirectional searches (breadth-first for hub and
rooted paths, Dijkstra for the expansion of closure edges): each grows a
frontier from both ends in turn, scans neighbours in ascending id order
(the networkx hosts are built from sorted nodes and edges), keeps the
first predecessor that reaches a node by a shortest route, and stops at
the first meeting that is provably shortest. Among equal-length paths this
picks whichever that order meets first, not the smallest ids.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import networkx as nx

from .graphs import (
    Graph,
    GraphError,
    WeightedGraph,
    is_connected_undirected,
    is_rooted,
    is_strongly_connected,
    restrict,
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
    """A host graph, terminals to connect, and (for rooted variants) a root."""

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


def _nx_undirected(g: Graph, weights=None) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    for u, v in sorted(g.edges):
        if u == v:
            continue
        w = 1.0
        if weights is not None:
            w = weights.get((u, v), weights.get((v, u), 1.0))
        h.add_edge(u, v, weight=w)
    return h


def _nx_directed(g: Graph) -> nx.DiGraph:
    h = nx.DiGraph()
    h.add_nodes_from(g.nodes)
    for u, v in sorted(g.edges):
        if u != v:
            h.add_edge(u, v)
    return h


def _prune_leaves(tree: nx.Graph, keep: set[int]) -> None:
    changed = True
    while changed:
        changed = False
        for v in sorted(tree.nodes):
            if v not in keep and tree.degree(v) <= 1:
                tree.remove_node(v)
                changed = True


def solve_st(inst: SteinerInstance) -> Graph:
    """Weighted Steiner tree 2-approximation (metric closure MST + expansion)."""
    if inst.host.directed:
        raise GraphError("Steiner tree requires an undirected host")
    return _steiner_tree(_nx_undirected(inst.host, inst.weights), inst, {})


def solve_ust(inst: SteinerInstance) -> Graph:
    """Unweighted Steiner tree: minimize edge count heuristically."""
    if inst.host.directed:
        raise GraphError("Steiner tree requires an undirected host")
    return _steiner_tree(_nx_undirected(inst.host), inst, {})


def _steiner_tree(host: nx.Graph, inst: SteinerInstance,
                  rows: dict[int, dict[int, float]]) -> Graph:
    """KMB on ``host``, the networkx form of ``inst.host``.

    ``rows`` maps a source terminal to its Dijkstra distances in ``host``;
    missing rows are added here, so callers on the same host share them.
    """
    terminals = sorted(inst.terminals)
    if len(terminals) == 1:
        return Graph.undirected_graph(terminals, [])
    closure = nx.Graph()
    for a, b in itertools.combinations(terminals, 2):
        row = rows.get(a)
        if row is None:
            row = rows[a] = nx.single_source_dijkstra_path_length(host, a)
        if b not in row:
            raise DesignInfeasible(f"terminals {a} and {b} are not connected")
        closure.add_edge(a, b, weight=row[b])
    mst = nx.minimum_spanning_tree(closure, weight="weight")
    tree = nx.Graph()
    tree.add_nodes_from(terminals)
    for a, b in sorted(mst.edges()):
        path = nx.shortest_path(host, a, b, weight="weight")
        tree.add_edges_from(zip(path[:-1], path[1:]))
    _prune_leaves(tree, set(terminals))
    return Graph.undirected_graph(sorted(tree.nodes), sorted(tree.edges))


def solve_hub_tree(inst: SteinerInstance, hub: int | None = None) -> Graph:
    """Undirected shortest-path tree from a hub terminal; favors node-minimality.

    With every terminal adjacent to the hub this returns the star centered
    at the hub.
    """
    if inst.host.directed:
        raise GraphError("hub tree requires an undirected host")
    return _hub_tree(_nx_undirected(inst.host), inst, hub)


def _hub_tree(host: nx.Graph, inst: SteinerInstance, hub: int | None) -> Graph:
    terminals = sorted(inst.terminals)
    if hub is None:
        hub = terminals[0]
    tree = nx.Graph()
    tree.add_node(hub)
    for t in terminals:
        if t == hub:
            continue
        try:
            path = nx.shortest_path(host, hub, t)
        except nx.NetworkXNoPath:
            raise DesignInfeasible(f"terminal {t} not connected to hub {hub}") from None
        tree.add_edges_from(zip(path[:-1], path[1:]))
    _prune_leaves(tree, set(terminals) | {hub})
    return Graph.undirected_graph(sorted(tree.nodes), sorted(tree.edges))


def solve_udst(inst: SteinerInstance) -> Graph:
    """Rooted subgraph covering the terminals with few edges.

    Union of shortest root-to-terminal paths, then redundant-edge pruning.
    """
    if inst.root is None:
        raise GraphError("rooted Steiner instance needs a root")
    return _rooted_paths(_nx_directed(inst.host), inst, weight=None)


def solve_dst(inst: SteinerInstance) -> Graph:
    """Weighted rooted variant: shortest paths use edge weights."""
    if inst.root is None:
        raise GraphError("rooted Steiner instance needs a root")
    host = _nx_directed(inst.host)
    if inst.weights:
        for (u, v), w in inst.weights.items():
            if host.has_edge(u, v):
                host[u][v]["weight"] = w
    return _rooted_paths(host, inst, weight="weight")


def _rooted_paths(host: nx.DiGraph, inst: SteinerInstance, weight: str | None) -> Graph:
    """Union of shortest root-to-terminal paths in ``host``, pruned."""
    sub = nx.DiGraph()
    sub.add_node(inst.root)
    for t in sorted(inst.terminals):
        if t == inst.root:
            continue
        try:
            path = nx.shortest_path(host, inst.root, t, weight=weight)
        except nx.NetworkXNoPath:
            raise DesignInfeasible(f"terminal {t} unreachable from root {inst.root}") from None
        sub.add_edges_from(zip(path[:-1], path[1:]))
    _prune_redundant_directed(sub, inst.root, set(inst.terminals))
    return Graph.directed_graph(sorted(sub.nodes), sorted(sub.edges))


def _prune_redundant_directed(sub: nx.DiGraph, root: int, terminals: set[int]) -> None:
    for edge in sorted(sub.edges):
        sub.remove_edge(*edge)
        reach = {root} | nx.descendants(sub, root)
        if terminals <= reach:
            for v in [n for n in sub.nodes if n not in reach]:
                sub.remove_node(v)
        else:
            sub.add_edge(*edge)


def solve_scss(inst: SteinerInstance) -> Graph:
    """Strongly connected subgraph through the terminals, few nodes.

    Hub heuristic: union of shortest hub-to-terminal and terminal-to-hub
    paths; strongly connected by construction.
    """
    return _hub_scss(_nx_directed(inst.host), inst)


def _hub_scss(host: nx.DiGraph, inst: SteinerInstance) -> Graph:
    terminals = sorted(inst.terminals)
    hub = inst.root if inst.root is not None else terminals[0]
    sub = nx.DiGraph()
    sub.add_node(hub)
    for t in terminals:
        if t == hub:
            continue
        try:
            out_path = nx.shortest_path(host, hub, t)
            in_path = nx.shortest_path(host, t, hub)
        except nx.NetworkXNoPath:
            raise DesignInfeasible(
                f"terminal {t} not in the hub's strong reachability class"
            ) from None
        sub.add_edges_from(zip(out_path[:-1], out_path[1:]))
        sub.add_edges_from(zip(in_path[:-1], in_path[1:]))
    for edge in sorted(sub.edges):
        sub.remove_edge(*edge)
        if not nx.is_strongly_connected(sub):
            sub.add_edge(*edge)
    return Graph.directed_graph(sorted(sub.nodes), sorted(sub.edges))


# -- exact oracles (exponential; desk scale only) --------------------------


def exact_steiner_cost(g: Graph, terminals: Iterable[int], weights=None) -> float:
    """Optimal undirected Steiner cost by subset enumeration + MST."""
    terminals = set(terminals)
    host = _nx_undirected(g, weights)
    others = [v for v in g.nodes if v not in terminals]
    best = float("inf")
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            nodes = terminals | set(extra)
            sub = host.subgraph(nodes)
            if len(nodes) > 0 and nx.is_connected(sub):
                cost = sum(
                    d["weight"] for _, _, d in nx.minimum_spanning_tree(sub).edges(data=True)
                )
                best = min(best, cost)
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
    # its networkx form and the shortest-path rows of its terminals are
    # built once per call
    host = comm.undirected_closure() if mode.kind == "undirected" and comm.directed else comm
    nx_host = _nx_undirected(host) if mode.kind == "undirected" else _nx_directed(host)
    rows: dict[int, dict[int, float]] = {}
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
            sub = _solve_component(comm, host, nx_host, rows, p, terminals, criterion, loads)
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
    nx_host: nx.Graph | nx.DiGraph,
    rows: dict[int, dict[int, float]],
    p: int,
    terminals: frozenset[int],
    criterion: DesignCriterion,
    loads: Mapping[int, int],
) -> Graph:
    """Exchange graph of component p on ``host`` (``comm``, made symmetric in
    undirected mode); ``nx_host`` is host's unweighted networkx form and
    ``rows`` the shortest-path rows of its terminals, both shared by every
    component (``nx_host`` is never mutated)."""
    mode = criterion.connectivity
    objective = criterion.objective_for(p)
    if objective == "none":
        return comm
    if mode.kind == "rooted":
        root = mode.roots.get(p)
        if root is None:
            raise DesignInfeasible("no root specified")
        return _rooted_paths(nx_host, SteinerInstance(host, terminals | {root}, root=root),
                             weight=None)
    if mode.kind == "strong":
        hub = p if p in terminals else None
        return _hub_scss(nx_host, SteinerInstance(host, terminals, root=hub))
    # undirected
    if objective == "min_nodes":
        hub = p if p in terminals else min(terminals)
        return _hub_tree(nx_host, SteinerInstance(host, terminals), hub)
    if objective in ("min_edges", "min_weight"):
        # min_weight has unit weights here, so both run KMB on the same host
        return _steiner_tree(nx_host, SteinerInstance(host, terminals), rows)
    # balanced: Steiner tree with load-inflated edge weights, on a host (and
    # so with rows) of its own
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
