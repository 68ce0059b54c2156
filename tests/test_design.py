import hashlib
import itertools
import json
import logging
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endnet import design
from endnet.design import (
    DesignCriterion,
    DesignInfeasible,
    SteinerInstance,
    design_layout,
    exact_min_rooted_nodes,
    exact_min_scss_nodes,
    exact_steiner_cost,
    solve_dst,
    solve_hub_tree,
    solve_scss,
    solve_st,
    solve_udst,
    solve_ust,
    try_minimal_layout,
)
from endnet.graphs import (
    Graph,
    GraphError,
    is_connected_undirected,
    is_rooted,
    is_strongly_connected,
    restrict,
)
from endnet.layout import (
    ConnectivityMode,
    EndLayout,
    Partition,
    group_pairs,
    reweight,
    standard_layout,
    weighted,
)
from endnet.scenarios import (
    SensorScenario,
    build_random_separable,
    build_regression,
    build_unicast,
    sample_unicast,
)


def random_undirected(rng, n, p):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    return Graph.undirected_graph(range(1, n + 1), edges)


def random_directed(rng, n, p):
    edges = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if u != v and rng.random() < p]
    return Graph.directed_graph(range(1, n + 1), edges)


def undirected_edge_count(g):
    return len(g.edges) // 2


class TestSteinerTree:
    def test_path(self):
        g = Graph.undirected_graph([1, 2, 3], [(1, 2), (2, 3)])
        t = solve_ust(SteinerInstance(g, {1, 3}))
        assert sorted(t.nodes) == [1, 2, 3]
        assert undirected_edge_count(t) == 2

    def test_star(self):
        g = Graph.undirected_graph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
        t = solve_ust(SteinerInstance(g, {1, 2, 3}))
        assert undirected_edge_count(t) == 3

    def test_single_terminal(self):
        g = Graph.undirected_graph([1, 2], [(1, 2)])
        t = solve_ust(SteinerInstance(g, {2}))
        assert sorted(t.nodes) == [2] and not t.edges

    def test_infeasible(self):
        g = Graph.undirected_graph([1, 2, 3], [(1, 2)])
        with pytest.raises(DesignInfeasible):
            solve_ust(SteinerInstance(g, {1, 3}))

    def test_within_factor_two_of_exact(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 50:
            g = random_undirected(rng, int(rng.integers(4, 9)), 0.45)
            terminals = set(
                rng.choice(g.nodes, size=int(rng.integers(2, 4)), replace=False).tolist())
            exact = exact_steiner_cost(g, terminals)
            if not np.isfinite(exact):
                continue
            t = solve_ust(SteinerInstance(g, terminals))
            assert is_connected_undirected(t)
            assert terminals <= set(t.nodes)
            assert undirected_edge_count(t) <= 2 * exact + 1e-9
            checked += 1

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_weights_must_be_finite_and_positive(self, bad):
        g = Graph.undirected_graph([1, 2, 3], [(1, 2), (2, 3)])
        with pytest.raises(GraphError, match="not finite and positive"):
            SteinerInstance(g, {1, 3}, weights={(1, 2): 1.0, (2, 1): bad})

    def test_weighted_picks_cheap_detour(self):
        # direct edge cost 10 vs two-hop detour cost 2
        g = Graph.undirected_graph([1, 2, 3], [(1, 3), (1, 2), (2, 3)])
        w = {(1, 3): 10.0, (3, 1): 10.0, (1, 2): 1.0, (2, 1): 1.0, (2, 3): 1.0, (3, 2): 1.0}
        t = solve_st(SteinerInstance(g, {1, 3}, weights=w))
        assert 2 in t.nodes


class TestHubTree:
    def test_star_recovered(self):
        g = Graph.undirected_graph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
        t = solve_hub_tree(SteinerInstance(g, {1, 2, 3, 4}), hub=1)
        assert set(t.edges) == {(1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1)}


class TestRootedSteiner:
    def test_chain(self):
        g = Graph.directed_graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
        t = solve_udst(SteinerInstance(g, {4}, root=1))
        assert sorted(t.edges) == [(1, 2), (2, 3), (3, 4)]

    def test_relay_node_included(self):
        # component 1's value originates at agent 1 and must reach agent 4;
        # the only route is through agent 3, which becomes a relay holder.
        comm = Graph.directed_graph(
            [1, 2, 3, 4], [(1, 3), (3, 4), (4, 2), (2, 1), (3, 1), (4, 3), (2, 4)])
        t = solve_udst(SteinerInstance(comm, {1, 4}, root=1))
        assert 3 in t.nodes
        assert is_rooted(t, 1)

    def test_node_count_near_exact(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 40:
            g = random_directed(rng, 8, 0.25)
            root = int(rng.integers(1, 9))
            terminals = set(rng.choice(g.nodes, size=2, replace=False).tolist())
            try:
                exact = exact_min_rooted_nodes(g, root, terminals)
            except DesignInfeasible:
                continue
            t = solve_udst(SteinerInstance(g, terminals | {root}, root=root))
            assert is_rooted(t, root)
            assert terminals <= set(t.nodes)
            assert len(t.nodes) <= exact + len(terminals)
            checked += 1

    def test_weighted_variant(self):
        g = Graph.directed_graph([1, 2, 3], [(1, 3), (1, 2), (2, 3)])
        w = {(1, 3): 5.0, (1, 2): 1.0, (2, 3): 1.0}
        t = solve_dst(SteinerInstance(g, {3}, root=1, weights=w))
        assert 2 in t.nodes


class TestScss:
    def test_cycle_antipodal(self):
        g = Graph.directed_graph(range(1, 7), [(i, i % 6 + 1) for i in range(1, 7)])
        t = solve_scss(SteinerInstance(g, {1, 4}))
        assert sorted(t.nodes) == list(range(1, 7))  # only strong subgraph through both

    def test_all_terminals(self):
        g = Graph.directed_graph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        t = solve_scss(SteinerInstance(g, {1, 2, 3}))
        assert is_strongly_connected(t)
        assert sorted(t.nodes) == [1, 2, 3]

    def test_node_count_vs_exact(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 40:
            g = random_directed(rng, 7, 0.3)
            terminals = set(rng.choice(g.nodes, size=2, replace=False).tolist())
            try:
                exact = exact_min_scss_nodes(g, terminals)
            except DesignInfeasible:
                continue
            t = solve_scss(SteinerInstance(g, terminals))
            assert is_strongly_connected(t)
            assert terminals <= set(t.nodes)
            assert len(t.nodes) <= 2 * exact
            checked += 1

    def test_infeasible(self):
        g = Graph.directed_graph([1, 2], [(1, 2)])
        with pytest.raises(DesignInfeasible):
            solve_scss(SteinerInstance(g, {1, 2}))


class TestDesignLayout:
    def comm_partitioned(self):
        return Graph.undirected_graph(
            [1, 2, 3, 4], [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])

    def test_none_criterion_is_standard(self):
        comm = self.comm_partitioned()
        part = Partition([1, 1, 1, 1])
        interference = {(p, i) for p in range(1, 5) for i in range(1, 5)}
        crit = DesignCriterion(ConnectivityMode.undirected_connected(), "none")
        a = design_layout(comm, interference, part, crit)
        b = standard_layout(comm, interference, part)
        assert a.to_json_dict() == b.to_json_dict()

    def test_neighborhood_footprint_gives_stars(self):
        # each component's needers are agent p and its communication neighbors:
        # node-minimal connected exchange graphs are the stars centered at p
        comm = self.comm_partitioned()
        part = Partition([1, 1, 1, 1])
        interference = {(p, i) for p in range(1, 5)
                        for i in {p, *comm.out_neighbors(p)}}
        crit = DesignCriterion(ConnectivityMode.undirected_connected(), "min_nodes")
        lay = design_layout(comm, interference, part, crit)
        for p in range(1, 5):
            g = lay.design[p].graph
            proper = {(u, v) for (u, v) in g.edges if u != v}
            assert set(g.nodes) == {p, *comm.out_neighbors(p)}
            # star centered at p: every proper edge touches the hub
            assert all(p in e for e in proper)
            assert len(proper) == 2 * (len(g.nodes) - 1)

    def test_rooted_criterion(self):
        comm = Graph.directed_graph(
            [1, 2, 3, 4], [(1, 3), (3, 4), (4, 2), (2, 1), (3, 1), (4, 3), (2, 4)])
        part = Partition([1])
        crit = DesignCriterion(ConnectivityMode.rooted({1: 1}), "min_nodes")
        lay = design_layout(comm, {(1, 1), (1, 4)}, part, crit, weight_scheme="row")
        assert 3 in lay.holders(1)
        assert lay.validate(ConnectivityMode.rooted({1: 1})) == []

    def test_infeasible_reports_component(self):
        comm = Graph.undirected_graph([1, 2, 3, 4], [(1, 2), (3, 4)])
        part = Partition([1, 1])
        interference = {(1, 1), (1, 3), (2, 1), (2, 2)}
        crit = DesignCriterion(ConnectivityMode.undirected_connected(), "min_edges")
        with pytest.raises(DesignInfeasible) as exc:
            design_layout(comm, interference, part, crit)
        assert exc.value.components == (1,)

    def test_augment_never_breaks_feasibility(self):
        rng = np.random.default_rng(9)
        part = Partition([1, 1])
        mode = ConnectivityMode.undirected_connected()
        done = 0
        while done < 10:
            comm = random_undirected(rng, 6, 0.5)
            if not is_connected_undirected(comm):
                continue
            interference = {(p, int(i)) for p in (1, 2)
                            for i in rng.choice(comm.nodes, size=3, replace=False)}
            base = design_layout(comm, interference, part,
                                 DesignCriterion(mode, "min_edges"))
            aug = design_layout(comm, interference, part,
                                DesignCriterion(mode, "min_edges", augment=True))
            assert aug.validate(mode) == []
            for p in (1, 2):
                assert set(aug.holders(p)) == set(base.holders(p))
                assert set(base.design[p].graph.edges) <= set(aug.design[p].graph.edges)
            done += 1

    def test_balanced_shifts_load(self):
        # line graph: component trees would all pile on the middle edge unless
        # the load penalty pushes later components to the parallel route
        comm = Graph.undirected_graph(
            [1, 2, 3, 4], [(1, 2), (2, 4), (1, 3), (3, 4)])
        part = Partition([1, 1])
        interference = {(1, 1), (1, 4), (2, 1), (2, 4)}
        crit = DesignCriterion(ConnectivityMode.undirected_connected(), "balanced",
                               balance_penalty=10.0)
        lay = design_layout(comm, interference, part, crit)
        mids = [set(lay.design[p].graph.nodes) - {1, 4} for p in (1, 2)]
        assert mids[0] != mids[1]  # the two trees use different relays

    def test_incompatible_objective_rejected(self):
        from endnet.layout import LayoutError
        with pytest.raises(LayoutError):
            DesignCriterion(ConnectivityMode.strongly_connected(), "min_weight")


class TestTryMinimalLayout:
    def test_partitioned_instance_succeeds(self):
        comm = Graph.undirected_graph(
            [1, 2, 3, 4], [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
        part = Partition([1, 1, 1, 1])
        interference = {(p, i) for p in range(1, 5)
                        for i in {p, *comm.out_neighbors(p)}}
        lay, violations = try_minimal_layout(
            comm, interference, part, ConnectivityMode.undirected_connected())
        assert lay is not None and violations == []
        for p in range(1, 5):
            assert set(lay.holders(p)) == {p, *comm.out_neighbors(p)}

    def test_unreachable_needer_fails(self):
        comm = Graph.directed_graph(
            [1, 2, 3, 4], [(1, 3), (3, 4), (4, 2), (2, 1), (3, 1), (4, 3), (2, 4)])
        part = Partition([1])
        lay, violations = try_minimal_layout(
            comm, {(1, 1), (1, 4)}, part, ConnectivityMode.rooted({1: 1}))
        assert lay is None
        assert violations


def per_component_design(comm, interference, partition, criterion, scheme):
    """design_layout's undirected loop written with the public solvers, each
    converting a fresh copy of the host to networkx."""
    loads = {v: 0 for v in comm.nodes}
    design = {}
    for p in partition.components:
        host = comm.undirected_closure() if comm.directed else comm
        terminals = frozenset(i for (q, i) in interference if q == p)
        objective = criterion.objective_for(p)
        if objective == "min_nodes":
            hub = p if p in terminals else min(terminals)
            sub = solve_hub_tree(SteinerInstance(host, terminals), hub=hub)
        elif objective == "min_edges":
            sub = solve_ust(SteinerInstance(host, terminals))
        elif objective == "min_weight":
            sub = solve_st(SteinerInstance(host, terminals))
        else:
            w = {(u, v): 1.0 + criterion.balance_penalty * (loads[u] + loads[v]) / 2.0
                 for (u, v) in host.edges}
            sub = solve_st(SteinerInstance(host, terminals, weights=w))
        for v in sub.nodes:
            loads[v] += 1
        design[p] = weighted(sub, scheme)
    return design


def connected_comm(rng, n, p, directed):
    """A ring plus random chords, both directions of each link stored; with
    ``directed`` the graph is flagged directed, so design symmetrizes it."""
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    chords = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
              if rng.random() < p]
    links = ring + chords
    if directed:
        return Graph.directed_graph(range(1, n + 1), links + [(v, u) for u, v in links])
    return Graph.undirected_graph(range(1, n + 1), links)


class TestSharedHost:
    def test_random_separable_matches_per_component_solves(self):
        problem, _ = build_random_separable(30, 60, 0.1, 0)
        interference = frozenset(
            (p, i) for i, fp in enumerate(problem.footprints, start=1) for p in fp)
        partition = Partition(problem.component_dims)
        comm = connected_comm(np.random.default_rng(4), 30, 0.08, directed=False)
        # min_edges everywhere but a few components, so that all three
        # undirected solvers share the host
        crit = DesignCriterion(
            ConnectivityMode.undirected_connected(), "min_edges",
            overrides={p: ("min_nodes", "min_weight")[p % 2] for p in range(1, 61, 7)})
        lay = design_layout(comm, interference, partition, crit, weight_scheme="metropolis")
        ref = per_component_design(comm, interference, partition, crit, "metropolis")
        assert {p: lay.design[p] for p in partition.components} == ref
        assert sum(len(wg.graph.edges) for wg in ref.values()) > 2 * 60  # not all stars

    def test_directed_comm_balanced_matches_per_component_solves(self):
        rng = np.random.default_rng(11)
        comm = connected_comm(rng, 12, 0.12, directed=True)
        assert comm.directed
        partition = Partition((1,) * 10)
        interference = frozenset((p, int(i)) for p in partition.components
                                 for i in rng.choice(comm.nodes, size=4, replace=False))
        crit = DesignCriterion(ConnectivityMode.undirected_connected(), "balanced",
                               balance_penalty=2.0)
        lay = design_layout(comm, interference, partition, crit)
        ref = per_component_design(comm, interference, partition, crit, "metropolis")
        assert {p: lay.design[p] for p in partition.components} == ref

    @pytest.mark.parametrize("scheme", ["metropolis", "row", "column"])
    def test_standard_layout_shares_one_weighted_graph(self, scheme):
        comm = connected_comm(np.random.default_rng(2), 9, 0.2, directed=False)
        partition = Partition((1, 2, 1, 3))
        interference = frozenset((p, i) for p in partition.components for i in comm.nodes)
        lay = standard_layout(comm, interference, partition, weight_scheme=scheme)
        assert len({id(wg) for wg in lay.design.values()}) == 1
        fresh = EndLayout(agents=comm.nodes, partition=partition, comm=comm,
                          interference=interference,
                          design={p: weighted(comm, scheme) for p in partition.components})
        a, b = lay.weight_operator.matrix, fresh.weight_operator.matrix
        for attr in ("data", "indices", "indptr"):
            assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()
        assert a.shape == b.shape

    def test_reweight_weights_each_distinct_graph_once(self):
        comm = connected_comm(np.random.default_rng(5), 8, 0.2, directed=False)
        partition = Partition((1, 1, 1))
        interference = frozenset((p, i) for p in partition.components for i in comm.nodes)
        std = reweight(standard_layout(comm, interference, partition), "row")
        assert len({id(wg) for wg in std.design.values()}) == 1
        assert std.design[1] == weighted(comm, "row")
        interference = {(1, 1), (1, 5), (2, 1), (2, 5), (3, 2), (3, 3)}
        cust = design_layout(comm, interference, partition,
                             DesignCriterion(ConnectivityMode.undirected_connected(), "min_edges"))
        back = reweight(cust, "column")
        for p in partition.components:
            assert back.design[p] == weighted(cust.design[p].graph, "column")
        assert (back.design[1] is back.design[2]) == (cust.design[1].graph == cust.design[2].graph)

    @pytest.mark.parametrize("scheme", ["metropolis", "row", "uniform"])
    def test_json_round_trip_keeps_designed_groups(self, scheme):
        """A designed layout read back groups as it was built: its two equal
        trees keep a weighted graph each, its components that span the whole
        path share one again, and every operator applies bit for bit."""
        comm = Graph.undirected_graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)])
        partition = Partition((2, 2, 1, 1, 2))
        interference = {(1, 1), (1, 3), (2, 1), (2, 3), (3, 1), (3, 5), (4, 1), (4, 5), (5, 5)}
        lay = design_layout(comm, interference, partition,
                            DesignCriterion(ConnectivityMode.undirected_connected(), "min_edges"),
                            weight_scheme=scheme)
        assert lay.design[1] == lay.design[2] and lay.design[1] is not lay.design[2]
        back = EndLayout.from_json_dict(lay.to_json_dict())
        assert back.design == lay.design
        assert ([g.members for g in back.groups] == [g.members for g in lay.groups]
                == [(1,), (2,), (3, 4), (5,)])
        v = np.random.default_rng(6).standard_normal(lay.stacked_dim)
        for op in ("apply_weight", "apply_laplacian"):
            assert getattr(back, op)(v).tobytes() == getattr(lay, op)(v).tobytes()


def _nx_directed(g, weights=None):
    """g as a networkx digraph without self-loops; the edge (u, v) weighs
    ``weights[(u, v)]``, else 1.0."""
    h = nx.DiGraph()
    h.add_nodes_from(g.nodes)
    h.add_weighted_edges_from((u, v, (weights or {}).get((u, v), 1.0))
                              for u, v in sorted(g.edges) if u != v)
    return h


def _nx_undirected(g, weights=None):
    """g as a networkx graph, built from sorted nodes and edges; the
    direction inserted last sets an edge's weight."""
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


def _prune_leaves(tree, keep):
    changed = True
    while changed:
        changed = False
        for v in sorted(tree.nodes):
            if v not in keep and tree.degree(v) <= 1:
                tree.remove_node(v)
                changed = True


def rule_path(h, source, target):
    """The shortest path from source to target under the design's tie-break
    rule, by brute force on the networkx graph h: walking back from target,
    each node's predecessor is the smallest u with
    dist[u] + length(u, v) == dist[v]. None if target is unreachable."""
    dist = nx.single_source_dijkstra_path_length(h, source)
    if target not in dist:
        return None
    into = h.pred if h.is_directed() else h.adj
    path = [target]
    while path[-1] != source:
        v = path[-1]
        path.append(min(u for u, d in into[v].items()
                        if u in dist and dist[u] + d["weight"] == dist[v]))
    return path[::-1]


def pairwise_steiner_tree(host, inst):
    """KMB on a networkx host with one targeted Dijkstra per terminal pair
    for the metric closure and each MST edge (a, b), a < b, expanded by the
    rule path from a: the reference the per-terminal trees must reproduce
    bit for bit."""
    terminals = sorted(inst.terminals)
    if len(terminals) == 1:
        return Graph.undirected_graph(terminals, [])
    closure = nx.Graph()
    for a, b in itertools.combinations(terminals, 2):
        try:
            d = nx.shortest_path_length(host, a, b, weight="weight")
        except nx.NetworkXNoPath:
            raise DesignInfeasible(f"terminals {a} and {b} are not connected") from None
        closure.add_edge(a, b, weight=d)
    mst = nx.minimum_spanning_tree(closure, weight="weight")
    tree = nx.Graph()
    tree.add_nodes_from(terminals)
    for a, b in sorted(tuple(sorted(e)) for e in mst.edges()):
        path = rule_path(host, a, b)
        tree.add_edges_from(zip(path[:-1], path[1:]))
    _prune_leaves(tree, set(terminals))
    return Graph.undirected_graph(sorted(tree.nodes), sorted(tree.edges))


def nx_exact_steiner_cost(g, terminals, weights=None):
    """Subset enumeration with networkx's connectivity test and MST (dyadic
    weights, so that the MST weight does not depend on summation order)."""
    host = _nx_undirected(g, weights)
    others = [v for v in g.nodes if v not in terminals]
    best = float("inf")
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            sub = host.subgraph(set(terminals) | set(extra))
            if nx.is_connected(sub):
                best = min(best, nx.minimum_spanning_tree(sub).size(weight="weight"))
    return best


@st.composite
def hosts(draw):
    """An undirected host on 2..9 nodes: random links, plus a ring on some
    draws, so that both connected and split hosts occur."""
    n = draw(st.integers(2, 9))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    links = {e for e, k in zip(pairs, keep) if k}
    if draw(st.booleans()):
        links |= {(min(i, i % n + 1), max(i, i % n + 1)) for i in range(1, n + 1)}
    return Graph.undirected_graph(range(1, n + 1), sorted(links))


@st.composite
def load_weights(draw, g):
    """``balanced``-style edge weights 1 + penalty (load_u + load_v) / 2,
    whose many ties exercise the tie-breaks."""
    loads = {v: draw(st.integers(0, 3)) for v in g.nodes}
    penalty = draw(st.sampled_from([0.5, 1.0, 2.0, 1.0 / 3.0]))
    return {(u, v): 1.0 + penalty * (loads[u] + loads[v]) / 2.0 for (u, v) in g.edges}


def outcome(solve, inst):
    try:
        t = solve(inst)
    except DesignInfeasible as exc:
        return "infeasible", str(exc)
    return t.nodes, sorted(t.edges), weighted(t, "metropolis").matrix().tobytes()


def design_outcome(*args):
    try:
        lay = design_layout(*args)
    except DesignInfeasible as exc:
        return "infeasible", str(exc), exc.components
    return {p: (wg.graph.nodes, sorted(wg.graph.edges), wg.matrix().tobytes())
            for p, wg in sorted(lay.design.items())}


def pairwise_reference():
    """design's KMB swapped for the pairwise reference on a networkx copy of
    the instance's host (shared rows ignored)."""
    return mock.patch.object(
        design, "_steiner_tree",
        lambda host, inst, rows: pairwise_steiner_tree(
            _nx_undirected(inst.host, inst.weights), inst))


class TestClosureRows:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_solvers_match_pairwise_closure(self, data):
        g = data.draw(hosts())
        terminals = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))
        w = data.draw(load_weights(g))
        unit, loaded = SteinerInstance(g, terminals), SteinerInstance(g, terminals, weights=w)
        expected = outcome(lambda i: pairwise_steiner_tree(_nx_undirected(g), i), unit)
        assert outcome(solve_ust, unit) == expected
        assert outcome(solve_st, unit) == expected
        assert outcome(solve_st, loaded) == outcome(
            lambda i: pairwise_steiner_tree(_nx_undirected(g, w), i), loaded)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_design_layout_matches_pairwise_closure(self, data):
        g = data.draw(hosts())
        partition = Partition((1,) * data.draw(st.integers(1, 6)))
        interference = {(p, i) for p in partition.components
                        for i in data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))}
        crit = DesignCriterion(
            ConnectivityMode.undirected_connected(),
            data.draw(st.sampled_from(["min_edges", "min_weight", "balanced"])),
            overrides=data.draw(st.dictionaries(
                st.sampled_from(partition.components),
                st.sampled_from(["min_edges", "min_weight", "balanced"]))),
            balance_penalty=data.draw(st.sampled_from([1.0, 0.5, 2.0])))
        args = (g, interference, partition, crit)
        got = design_outcome(*args)
        with pairwise_reference():
            assert got == design_outcome(*args)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_asymmetric_weights_match_networkx_host(self, data):
        """With different (or missing) weights for the two directions of a
        link, solve_st reads the link as the networkx host did."""
        g = data.draw(hosts())
        terminals = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))
        w = {e: data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])) for e in sorted(g.edges)}
        w = {e: x for e, x in w.items() if data.draw(st.booleans())}
        inst = SteinerInstance(g, terminals, weights=w)
        assert outcome(solve_st, inst) == outcome(
            lambda i: pairwise_steiner_tree(_nx_undirected(g, w), i), inst)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_steiner_cost_matches_networkx(self, data):
        g = data.draw(hosts())
        terminals = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1, max_size=4))
        w = {e: data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])) for e in sorted(g.edges)}
        for weights in (None, w):
            assert exact_steiner_cost(g, terminals, weights) == nx_exact_steiner_cost(
                g, terminals, weights)

    def test_disconnected_pair_message(self):
        g = Graph.undirected_graph(range(1, 7), [(1, 2), (2, 3), (4, 5), (5, 6)])
        inst = SteinerInstance(g, {1, 3, 4, 6})
        got = outcome(solve_ust, inst)
        assert got == ("infeasible", "terminals 1 and 4 are not connected")
        assert got == outcome(lambda i: pairwise_steiner_tree(_nx_undirected(g), i), inst)

    def test_rows_are_shared_across_components(self, monkeypatch):
        """One search per distinct source terminal for the whole call, on
        the separable-tracking instance, with the same designs as the
        pairwise closure."""
        problem, _ = build_random_separable(50, 150, 0.05, 0)
        interference = frozenset(
            (p, i) for i, fp in enumerate(problem.footprints, start=1) for p in fp)
        args = (Graph.complete(range(1, 51)), interference, Partition(problem.component_dims),
                DesignCriterion(ConnectivityMode.undirected_connected(), "min_edges"))
        sources = []
        tree = design.shortest_path_tree
        monkeypatch.setattr(design, "shortest_path_tree",
                            lambda host, a: sources.append(a) or tree(host, a))
        got = design_outcome(*args)
        # KMB grows a tree from every terminal of a component but its largest
        needers = group_pairs(interference)
        expected = {a for ts in needers.values() for a in ts[:-1]}
        assert sorted(sources) == sorted(expected) and len(expected) > 40
        with pairwise_reference():
            assert got == design_outcome(*args)


def rule_hub_tree(g, terminals, hub):
    """solve_hub_tree from the rule paths out of the hub, on a networkx copy
    of g."""
    h = _nx_undirected(g)
    tree = nx.Graph()
    tree.add_node(hub)
    for t in sorted(terminals):
        path = rule_path(h, hub, t)
        if path is None:
            raise DesignInfeasible(f"terminal {t} not connected to hub {hub}")
        nx.add_path(tree, path)
    _prune_leaves(tree, set(terminals) | {hub})
    return Graph.undirected_graph(sorted(tree.nodes), sorted(tree.edges))


def rule_rooted_paths(g, terminals, root, weights=None):
    """solve_udst (solve_dst with weights) from the rule paths out of the
    root, then each edge in sorted order dropped if every terminal stays
    reachable, with the nodes it cuts off."""
    h = _nx_directed(g, weights)
    sub = nx.DiGraph()
    sub.add_node(root)
    for t in sorted(terminals):
        path = rule_path(h, root, t)
        if path is None:
            raise DesignInfeasible(f"terminal {t} unreachable from root {root}")
        nx.add_path(sub, path)
    for u, v in sorted(sub.edges):
        if u not in sub:
            continue
        sub.remove_edge(u, v)
        reach = {root} | nx.descendants(sub, root)
        if set(terminals) <= reach:
            sub.remove_nodes_from([w for w in list(sub) if w not in reach])
        else:
            sub.add_edge(u, v)
    return Graph.directed_graph(sorted(sub.nodes), sorted(sub.edges))


def rule_scss(g, terminals):
    """solve_scss from the rule paths out of the smallest terminal and the
    reversed rule paths out of it on the reversed graph, then each edge in
    sorted order dropped if the rest stays strongly connected."""
    h = _nx_directed(g)
    back = h.reverse()
    hub = min(terminals)
    sub = nx.DiGraph()
    sub.add_node(hub)
    for t in sorted(terminals):
        out_path, in_path = rule_path(h, hub, t), rule_path(back, hub, t)
        if out_path is None or in_path is None:
            raise DesignInfeasible(f"terminal {t} not in the hub's strong reachability class")
        nx.add_path(sub, out_path)
        nx.add_path(sub, in_path[::-1])
    for u, v in sorted(sub.edges):
        sub.remove_edge(u, v)
        if not nx.is_strongly_connected(sub):
            sub.add_edge(u, v)
    return Graph.directed_graph(sorted(sub.nodes), sorted(sub.edges))


@st.composite
def directed_hosts(draw):
    """A directed host on 2..8 nodes, each ordered pair an edge on about a
    third of the draws, so that strongly connected and split hosts occur."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    keep = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    return Graph.directed_graph(range(1, n + 1), [e for e, k in zip(pairs, keep) if k == 0])


def solved(solve, inst):
    try:
        return solve(inst)
    except DesignInfeasible as exc:
        return "infeasible", str(exc)


class TestSearchRule:
    """The hub, rooted and strong searches against their brute-force
    references under the tie-break rule."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hub_tree(self, data):
        g = data.draw(hosts())
        terminals = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))
        hub = data.draw(st.sampled_from(sorted(terminals)))
        inst = SteinerInstance(g, terminals)
        assert solved(lambda i: solve_hub_tree(i, hub=hub), inst) == solved(
            lambda i: rule_hub_tree(g, terminals, hub), inst)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rooted_paths(self, data):
        g = data.draw(directed_hosts())
        root = data.draw(st.sampled_from(g.nodes))
        terminals = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1)) | {root}
        w = {e: data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])) for e in sorted(g.edges)}
        inst = SteinerInstance(g, terminals, root=root, weights=w)
        assert solved(solve_udst, inst) == solved(
            lambda i: rule_rooted_paths(g, terminals, root), inst)
        assert solved(solve_dst, inst) == solved(
            lambda i: rule_rooted_paths(g, terminals, root, w), inst)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_strong(self, data):
        g = data.draw(directed_hosts())
        terminals = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))
        inst = SteinerInstance(g, terminals)
        assert solved(solve_scss, inst) == solved(lambda i: rule_scss(g, terminals), inst)


def separable_design():
    """The separable-tracking instance's customized layout."""
    problem, _ = build_random_separable(50, 150, 0.05, 0)
    interference = frozenset(
        (p, i) for i, fp in enumerate(problem.footprints, start=1) for p in fp)
    return design_layout(Graph.complete(range(1, 51)), interference,
                         Partition(problem.component_dims),
                         DesignCriterion(ConnectivityMode.undirected_connected(), "min_edges"),
                         weight_scheme="metropolis")


DESIGNED = {
    "unicast-20": lambda: build_unicast(sample_unicast(20, 0)).customized[0],
    "separable-50x150": separable_design,
    "sensor-20x8": lambda: build_regression(
        SensorScenario(num_sensors=20, num_sources=8, comm_radius_min=0.35)).customized,
}

# sha256 prefixes of each customized layout's per-component document (see
# _per_component_json), with its unicast cost and mean copies per agent, as
# designed under the smallest-predecessor tie-break of graphs.shortest_path_tree
DESIGN_DIGESTS = {
    "unicast-20": ("5a9513f68df3594a", 20.0, 1.9),
    "separable-50x150": ("26f277d05644e92c", 476.0, 7.76),
    "sensor-20x8": ("4fc51a894b4e4d94", 26.0, 0.8),
}


def _per_component_json(lay):
    """The layout with each component's weighted exchange graph written out
    under its id, whether or not components share it."""
    return {
        "partition": list(lay.partition.dims),
        "agents": list(lay.agents),
        "comm": lay.comm.to_json_dict(),
        "interference": sorted([p, i] for (p, i) in lay.interference),
        "design": {str(p): lay.design[p].to_json_dict() for p in lay.partition.components},
    }


@pytest.mark.parametrize("name", sorted(DESIGN_DIGESTS))
def test_designed_layouts_are_pinned(name):
    """Exchange graphs and weights stay bit for bit, so a change of
    tie-break has to name the layouts it changes."""
    lay = DESIGNED[name]()
    text = json.dumps(_per_component_json(lay), sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()[:16], lay.communication_cost("unicast"),
            lay.mean_estimate_count()) == DESIGN_DIGESTS[name]


class TestDesignLog:
    def test_one_debug_record_per_designed_component(self, caplog):
        comm = Graph.undirected_graph(
            [1, 2, 3, 4], [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
        interference = {(1, 1), (1, 3), (2, 2), (2, 4), (3, 3)}
        crit = DesignCriterion(ConnectivityMode.undirected_connected(), "min_edges",
                               overrides={3: "min_nodes"})
        with caplog.at_level(logging.DEBUG, logger="endnet.design"):
            lay = design_layout(comm, interference, Partition([1, 1, 1]), crit)
        records = [r for r in caplog.records if r.name == "endnet.design"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 3
        assert [r.getMessage() for r in records] == [
            f"component {p}: objective {crit.objective_for(p)}, {lay.copies(p)} copies, "
            f"{sum(u != v for u, v in lay.design[p].graph.edges)} edges" for p in (1, 2, 3)]
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="endnet.design"):
            design_layout(comm, interference, Partition([1, 1, 1]), crit)
        assert not [r for r in caplog.records if r.name == "endnet.design"]
