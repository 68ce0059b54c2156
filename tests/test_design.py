import itertools

import numpy as np
import pytest

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
    is_connected_undirected,
    is_rooted,
    is_strongly_connected,
    restrict,
)
from endnet.layout import (
    ConnectivityMode,
    EndLayout,
    Partition,
    reweight,
    standard_layout,
    weighted,
)
from endnet.scenarios import build_random_separable


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
        a, b = lay.weight_matrix(), fresh.weight_matrix()
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
