import itertools
import json
import os
import pickle
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endnet.graphs import (
    Graph,
    GraphError,
    GraphSequence,
    WeightedGraph,
    bidirectional_bfs,
    column_stochastic_weights,
    intersect,
    is_connected_undirected,
    is_q_strongly_connected,
    is_rooted,
    is_strongly_connected,
    kruskal_edges,
    laplacian,
    metropolis_hastings_weights,
    reachable,
    restrict,
    row_stochastic_weights,
    shortest_path_tree,
    tree_path,
    uniform_weights,
)


def random_digraph(rng, n, p):
    edges = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if u != v and rng.random() < p]
    return Graph.directed_graph(range(1, n + 1), edges)


def reachability_closure(g):
    """Floyd-Warshall style boolean transitive closure, independent of BFS."""
    n = g.num_nodes
    reach = (g.adjacency() > 0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    return reach


class TestLaplacian:
    def test_single_node(self):
        g = Graph.directed_graph([1], [])
        wg = WeightedGraph(g, {})
        assert laplacian(wg).tolist() == [[0.0]]

    def test_directed_edge(self):
        # edge (1,2): node 2 receives from node 1 with weight 1
        g = Graph.directed_graph([1, 2], [(1, 2)])
        wg = WeightedGraph(g, {(2, 1): 1.0})
        L = laplacian(wg)
        assert L.tolist() == [[0.0, 0.0], [-1.0, 1.0]]

    def test_triangle_eigenvalues(self):
        g = Graph.undirected_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        w = {(r, s): 1.0 for r in g.nodes for s in g.nodes if r != s}
        L = laplacian(WeightedGraph(g, w))
        ev = np.sort(np.linalg.eigvalsh(L))
        assert np.allclose(ev, [0.0, 3.0, 3.0], atol=1e-12)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_digraph(rng, 6, 0.4)
            w = {(v, u): rng.uniform(0.1, 2.0) for (u, v) in g.edges}
            L = laplacian(WeightedGraph(g, w))
            assert np.max(np.abs(L @ np.ones(6))) <= 1e-12


class TestConnectivity:
    def test_chain_rooted(self):
        g = Graph.directed_graph([1, 2, 3], [(1, 2), (2, 3)])
        assert is_rooted(g, 1)
        assert not is_rooted(g, 3)

    def test_star_rooted(self):
        g = Graph.directed_graph([1, 2, 4], [(1, 2), (1, 4)])
        assert is_rooted(g, 1)

    def test_unknown_root(self):
        g = Graph.directed_graph([1, 2], [(1, 2)])
        with pytest.raises(GraphError):
            is_rooted(g, 9)

    def test_two_cycle_strong(self):
        assert is_strongly_connected(Graph.directed_graph([1, 2], [(1, 2), (2, 1)]))
        assert not is_strongly_connected(Graph.directed_graph([1, 2], [(1, 2)]))

    def test_undirected_check_rejects_directed(self):
        with pytest.raises(GraphError):
            is_connected_undirected(Graph.directed_graph([1, 2], [(1, 2)]))

    def test_random_against_closure_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            g = random_digraph(rng, 50, 0.05)
            reach = reachability_closure(g)
            assert is_strongly_connected(g) == bool(reach.all())
            r = int(rng.integers(1, 51))
            assert is_rooted(g, r) == bool(reach[g.index(r), :].all())


class TestQStrongConnectivity:
    def _halves(self, n):
        cyc = [(i, i % n + 1) for i in range(1, n + 1)]
        a = Graph.directed_graph(range(1, n + 1), cyc[: n // 2])
        b = Graph.directed_graph(range(1, n + 1), cyc[n // 2:])
        return a, b

    def test_constant_strong_q1(self):
        g = Graph.directed_graph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        seq = GraphSequence((g, g, g, g))
        assert is_q_strongly_connected(seq, 1)

    def test_alternating_halves(self):
        a, b = self._halves(6)
        seq = GraphSequence((a, b, a, b))
        assert is_q_strongly_connected(seq, 2)
        assert not is_q_strongly_connected(seq, 1)

    def test_horizon_too_short(self):
        a, b = self._halves(6)
        with pytest.raises(GraphError):
            is_q_strongly_connected(GraphSequence((a,)), 2)


class TestRestrict:
    def test_triangle_to_edge(self):
        g = Graph.undirected_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        sub = restrict(g, [1, 2])
        assert sub.nodes == (1, 2)
        assert sub.edges == frozenset({(1, 2), (2, 1)})

    def test_full_set_identity(self):
        g = Graph.directed_graph([1, 2, 3], [(1, 2), (3, 1)])
        assert restrict(g, [1, 2, 3]) == g

    def test_disconnected_subset_edgeless(self):
        g = Graph.directed_graph([1, 2, 3], [(1, 2), (2, 3)])
        assert restrict(g, [1, 3]).edges == frozenset()

    def test_nested_restrict(self):
        g = Graph.directed_graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
        assert restrict(restrict(g, [1, 2, 3, 4]), [1, 2, 3]) == restrict(g, [1, 2, 3])

    def test_intersect(self):
        a = Graph.directed_graph([1, 2, 3], [(1, 2), (2, 3)])
        b = Graph.directed_graph([1, 2, 3], [(2, 3), (3, 1)])
        assert intersect(a, b).edges == frozenset({(2, 3)})


class TestStochasticWeights:
    def test_single_node(self):
        wg = metropolis_hastings_weights(Graph.undirected_graph([1], []))
        assert wg.matrix().tolist() == [[1.0]]

    def test_two_path(self):
        wg = metropolis_hastings_weights(Graph.undirected_graph([1, 2], [(1, 2)]))
        assert np.allclose(wg.matrix(), [[0.5, 0.5], [0.5, 0.5]])

    def test_mh_formula(self):
        # w_ij = 1 / (1 + max(deg_i, deg_j)) off the diagonal
        g = Graph.undirected_graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (2, 4)])
        W = metropolis_hastings_weights(g).matrix()
        deg = {v: len(g.out_neighbors(v)) for v in g.nodes}
        for u, v in g.edges:
            iu, iv = g.index(u), g.index(v)
            assert W[iv, iu] == pytest.approx(1.0 / (1 + max(deg[u], deg[v])))

    def test_mh_doubly_stochastic_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            edges = [(u, v) for u in range(1, 8) for v in range(u + 1, 8)
                     if rng.random() < 0.5]
            g = Graph.undirected_graph(range(1, 8), edges)
            W = metropolis_hastings_weights(g).matrix()
            assert np.allclose(W, W.T)
            assert np.allclose(W @ np.ones(7), 1.0)
            assert np.all(W >= 0)

    def test_mh_rejects_directed(self):
        with pytest.raises(GraphError):
            metropolis_hastings_weights(Graph.directed_graph([1, 2], [(1, 2)]))

    def test_row_and_column_stochastic(self):
        g = Graph.directed_graph([1, 2, 3], [(1, 2), (1, 3)])
        Wr = row_stochastic_weights(g).matrix()
        assert np.allclose(Wr @ np.ones(3), 1.0)
        Wc = column_stochastic_weights(g).matrix()
        assert np.allclose(np.ones(3) @ Wc, 1.0)


def per_node_metropolis(g):
    """Metropolis-Hastings weights node by node, each node's neighbours read
    from the adjacency index in ascending order: the formula the edge-list
    pass must reproduce bit for bit, keys in the same order."""
    deg = {v: len(g.in_neighbors(v)) - (v in g.in_neighbors(v)) for v in g.nodes}
    w = {}
    for v in g.nodes:
        off = 0.0
        for u in g.in_neighbors(v):
            if u != v:
                w[(v, u)] = 1.0 / (1.0 + max(deg[v], deg[u]))
                off += w[(v, u)]
        w[(v, v)] = 1.0 - off
    return w


@st.composite
def undirected_graphs(draw):
    """Undirected graphs on up to 9 scattered ids, isolated nodes allowed,
    with or without some self-loops."""
    nodes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=9, unique=True))
    pairs = [(u, v) for u in nodes for v in nodes if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        edges += [(v, v) for v in draw(st.lists(st.sampled_from(nodes), unique=True))]
    return Graph.undirected_graph(draw(st.permutations(nodes)), edges)


@given(g=undirected_graphs())
@settings(max_examples=150, deadline=None)
def test_metropolis_from_the_edge_list_matches_the_per_node_formula(g):
    """The same entries, bit for bit; the weights read back in ascending
    (receiver, sender) order, not the formula's node-by-node order."""
    mh = metropolis_hastings_weights(g)
    assert mh.graph == g.with_self_loops()
    assert sorted(mh.weights.items()) == sorted(per_node_metropolis(g).items())
    assert list(mh.weights) == sorted(mh.weights)


# -- the weight schemes against the dict loops they replaced ------------------


def dict_metropolis(g):
    """metropolis_hastings_weights as the per-node dict loop it replaced,
    keyed (receiver, sender)."""
    neighbors = {v: [] for v in g.nodes}
    for u, v in g.edges:
        if u != v:
            neighbors[u].append(v)
    deg = {v: len(us) for v, us in neighbors.items()}
    share = [1.0 / (1.0 + d) for d in range(max(deg.values()) + 1)]
    w = {}
    for v, us in neighbors.items():
        us.sort()
        dv = deg[v]
        off = 0.0
        for u in us:
            du = deg[u]
            w[(v, u)] = x = share[du if du > dv else dv]
            off += x
        w[(v, v)] = 1.0 - off
    return w


def dict_row(g):
    """row_stochastic_weights as the dict loop it replaced (self-loops added)."""
    gl = g.with_self_loops()
    return {(v, u): 1.0 / len(gl.in_neighbors(v)) for v in gl.nodes for u in gl.in_neighbors(v)}


def dict_column(g):
    """column_stochastic_weights as the dict loop it replaced (self-loops added)."""
    gl = g.with_self_loops()
    return {(v, u): 1.0 / len(gl.out_neighbors(u))
            for u in gl.nodes for v in gl.out_neighbors(u)}


def dict_uniform(g):
    """uniform_weights as the dict loop it replaced."""
    return {(v, u): 1.0 for (u, v) in g.edges}


def assert_same_weights(wg, graph, weights):
    """``wg`` is ``graph`` with the dict ``weights``, bit for bit: its dense
    matrix and its JSON text as the dict wrote them."""
    pos = {v: k for k, v in enumerate(graph.nodes)}
    dense = np.zeros((graph.num_nodes, graph.num_nodes))
    for (r, s), w in weights.items():
        dense[pos[r], pos[s]] = w
    doc = graph.to_json_dict()
    doc["weights"] = {f"{r},{s}": w for (r, s), w in sorted(weights.items())}
    assert wg.graph == graph
    assert wg.matrix().tobytes() == dense.tobytes()
    assert json.dumps(wg.to_json_dict()) == json.dumps(doc)
    assert WeightedGraph(graph, weights) == wg
    assert WeightedGraph.from_json_dict(doc) == wg


@st.composite
def directed_graphs(draw):
    """Directed graphs on up to 9 scattered ids, isolated nodes allowed,
    with or without some self-loops."""
    nodes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=9, unique=True))
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        edges += [(v, v) for v in draw(st.lists(st.sampled_from(nodes), unique=True))]
    return Graph.directed_graph(draw(st.permutations(nodes)), edges)


@given(g=undirected_graphs())
@settings(max_examples=150, deadline=None)
def test_metropolis_matches_the_dict_loop_bit_for_bit(g):
    assert_same_weights(metropolis_hastings_weights(g), g.with_self_loops(), dict_metropolis(g))


@pytest.mark.parametrize("g", [Graph.complete(range(1, 5)), Graph.complete(range(1, 11)),
                               Graph.complete(range(1, 51)),
                               Graph.undirected_graph(range(1, 201), [(i, i % 200 + 1)
                                                                      for i in range(1, 201)])],
                         ids=["complete4", "complete10", "complete50", "ring200"])
def test_metropolis_matches_the_dict_loop_on_long_rows(g):
    """Rows of 8 and more weights, whose diagonal sums run long."""
    assert_same_weights(metropolis_hastings_weights(g), g.with_self_loops(), dict_metropolis(g))


@given(g=directed_graphs())
@settings(max_examples=150, deadline=None)
def test_row_column_and_uniform_match_the_dict_loops_bit_for_bit(g):
    assert_same_weights(row_stochastic_weights(g), g.with_self_loops(), dict_row(g))
    assert_same_weights(column_stochastic_weights(g), g.with_self_loops(), dict_column(g))
    assert_same_weights(uniform_weights(g), g, dict_uniform(g))


def test_weights_are_read_only_and_pickle_without_their_view():
    wg = metropolis_hastings_weights(Graph.undirected_graph([1, 2, 3], [(1, 2), (2, 3)]))
    assert list(wg.weights) == [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    with pytest.raises(TypeError):
        wg.weights[(1, 1)] = 1.0
    for a in (wg.rows, wg.cols, wg.values):
        with pytest.raises(ValueError):
            a[0] = 0
    back = pickle.loads(pickle.dumps(wg))
    assert "weights" in vars(wg) and "weights" not in vars(back)
    assert back == wg and back.weights == wg.weights


class TestWeightCompliance:
    def test_weight_off_graph_rejected(self):
        g = Graph.directed_graph([1, 2], [(1, 2)])
        with pytest.raises(GraphError):
            WeightedGraph(g, {(1, 2): 1.0})  # keyed (receiver, sender); (1,2) not an edge

    def test_nonpositive_weight_rejected(self):
        g = Graph.directed_graph([1, 2], [(1, 2)])
        with pytest.raises(GraphError):
            WeightedGraph(g, {(2, 1): 0.0})


class TestJsonRoundTrip:
    def test_graph(self):
        g = Graph.directed_graph([1, 2, 3], [(1, 2), (2, 3)])
        assert Graph.from_json_dict(g.to_json_dict()) == g

    def test_weighted_graph(self):
        g = Graph.directed_graph([1, 2], [(1, 2)])
        wg = WeightedGraph(g, {(2, 1): 0.75})
        back = WeightedGraph.from_json_dict(wg.to_json_dict())
        assert back.graph == g
        assert back.weight(2, 1) == 0.75

    def test_json_is_valid(self):
        g = Graph.undirected_graph([1, 2], [(1, 2)])
        doc = json.loads(json.dumps(g.to_json_dict()))
        assert set(doc) >= {"nodes", "edges", "directed"}


@given(st.integers(min_value=2, max_value=8), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_undirected_graph_is_symmetric(n, rnd):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rnd.random() < 0.5]
    g = Graph.undirected_graph(range(1, n + 1), edges)
    for u, v in g.edges:
        assert (v, u) in g.edges


@given(st.integers(min_value=1, max_value=8), st.booleans(), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_adjacency_index_matches_edge_scan(n, directed, self_loops, rnd):
    # odd ids, so that positions and ids differ and 0 is unknown
    nodes = list(range(1, 2 * n, 2))
    edges = [(u, v) for u in nodes for v in nodes
             if (u != v or self_loops) and rnd.random() < 0.4]
    build = Graph.directed_graph if directed else Graph.undirected_graph
    g = build(nodes, edges)
    twin = build(nodes, edges)  # same value, index never built

    for k, v in enumerate(g.nodes):
        assert g.in_neighbors(v) == tuple(sorted(u for (u, w) in g.edges if w == v))
        assert g.out_neighbors(v) == tuple(sorted(w for (u, w) in g.edges if u == v))
        assert g.index(v) == k
    for lookup in (g.in_neighbors, g.out_neighbors, g.index):
        with pytest.raises(GraphError, match="unknown node id 0"):
            lookup(0)

    # weights against their formulas on the 0/1 adjacency A[recv, send]
    a = g.adjacency()
    looped = a.copy()
    np.fill_diagonal(looped, 1.0)
    row = row_stochastic_weights(g)
    col = column_stochastic_weights(g)
    assert row.graph == col.graph == g.with_self_loops()
    assert np.array_equal(row.matrix(), looped / looped.sum(axis=1, keepdims=True))
    assert np.array_equal(col.matrix(), looped / looped.sum(axis=0, keepdims=True))
    if directed:
        with pytest.raises(GraphError):
            metropolis_hastings_weights(g)
    else:
        off = a * (1.0 - np.eye(n))
        deg = off.sum(axis=1)
        expected = np.zeros((n, n))
        for i in range(n):
            total = 0.0
            for j in range(n):  # ascending senders, the library's summation order
                if off[i, j]:
                    expected[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
                    total += expected[i, j]
            expected[i, i] = 1.0 - total
        mh = metropolis_hastings_weights(g)
        assert mh.graph == g.with_self_loops()
        assert np.array_equal(mh.matrix(), expected)

    # the built index is derived state: equality, hash and pickling ignore it
    assert "_index" in vars(g) and "_index" not in vars(twin)
    assert g == twin and hash(g) == hash(twin)
    back = pickle.loads(pickle.dumps(g))
    assert "_index" not in vars(back)
    assert back == g and hash(back) == hash(g)
    assert [back.out_neighbors(v) for v in nodes] == [g.out_neighbors(v) for v in nodes]
    assert back.to_json_dict() == twin.to_json_dict()


# -- the searches against networkx and a brute-force rule --------------------
#
# Each search takes the adjacency of a networkx graph in networkx's own
# neighbour order. The transcriptions of networkx must return exactly what
# networkx returns: the same path among equal-length ones, the same forest.
# The shortest-path tree must have networkx's distances and the predecessors
# its tie-break rule names, found by brute force.

LENGTHS = [1.0, 1.0, 2.0, 0.5, 1.5, 1.0 / 3.0]  # repeated values force ties


@st.composite
def nx_hosts(draw, directed, weighted=False):
    """A networkx graph on 1..9 nodes whose edges (and so whose neighbour
    orders) were inserted in a random order; an undirected edge may be
    inserted twice, the second time with a new length."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    h = nx.DiGraph() if directed else nx.Graph()
    h.add_nodes_from(draw(st.permutations(range(1, n + 1))))
    for u, v in edges:
        if weighted:
            h.add_edge(u, v, weight=draw(st.sampled_from(LENGTHS)))
        else:
            h.add_edge(u, v)
    return h


def ordered_adjacency(h, weighted=False):
    """(succ, pred) in networkx's neighbour order."""
    def convert(adj):
        if weighted:
            return {v: {w: d["weight"] for w, d in nbrs.items()} for v, nbrs in adj.items()}
        return {v: tuple(nbrs) for v, nbrs in adj.items()}
    return convert(h.adj), convert(h.pred if h.is_directed() else h.adj)


def nx_path(h, s, t, weight=None):
    try:
        return nx.shortest_path(h, s, t, weight=weight)
    except nx.NetworkXNoPath:
        return None


@pytest.mark.parametrize("directed", [False, True])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bidirectional_bfs_matches_networkx(directed, data):
    h = data.draw(nx_hosts(directed))
    succ, pred = ordered_adjacency(h)
    for s, t in itertools.product(h.nodes, repeat=2):
        assert bidirectional_bfs(succ, pred, s, t) == nx_path(h, s, t), (s, t)


def rule_predecessors(h, dist, source):
    """The predecessor the tie-break rule names for each node the source
    reaches: the smallest u over the edges (u, v) of h with
    dist[u] + length(u, v) == dist[v]."""
    arcs = list(h.edges(data="weight"))
    if not h.is_directed():
        arcs += [(v, u, w) for u, v, w in arcs]
    back = {source: None}
    for v in dist:
        if v != source:
            back[v] = min(u for u, x, w in arcs
                          if x == v and u in dist and dist[u] + w == dist[v])
    return back


@pytest.mark.parametrize("lengths", ["sampled", "loads"])
@pytest.mark.parametrize("directed", [False, True])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_shortest_path_tree_follows_the_rule(directed, lengths, data):
    """Distances equal networkx's, each predecessor is the rule's, and the
    path read off the tree adds up to the distance. Ties come from the
    repeated ``LENGTHS`` or from ``balanced``-style load weights
    1 + penalty (load_u + load_v) / 2."""
    h = data.draw(nx_hosts(directed, weighted=lengths == "sampled"))
    if lengths == "loads":
        loads = {v: data.draw(st.integers(0, 3)) for v in h.nodes}
        penalty = data.draw(st.sampled_from([0.5, 1.0, 2.0, 1.0 / 3.0]))
        for u, v, d in h.edges(data=True):
            d["weight"] = 1.0 + penalty * (loads[u] + loads[v]) / 2.0
    succ, _ = ordered_adjacency(h, weighted=True)
    for s in h.nodes:
        dist, back = shortest_path_tree(succ, s)
        assert dist == nx.single_source_dijkstra_path_length(h, s)
        assert back == rule_predecessors(h, dist, s)
        for t in h.nodes:
            path = tree_path(back, t)
            if t not in dist:
                assert path is None
                continue
            assert path[0] == s and path[-1] == t
            total = 0.0
            for u, v in zip(path[:-1], path[1:]):
                total += h[u][v]["weight"]
            assert total == dist[t]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kruskal_edges_match_networkx(data):
    h = data.draw(nx_hosts(directed=False, weighted=True))
    expected = [(u, v, d["weight"]) for u, v, d in
                nx.minimum_spanning_edges(h, algorithm="kruskal", data=True)]
    assert kruskal_edges(h.edges(data="weight")) == expected


@pytest.mark.parametrize("directed", [False, True])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reachable_matches_networkx(directed, data):
    h = data.draw(nx_hosts(directed))
    succ, _ = ordered_adjacency(h)
    for r in h.nodes:
        assert reachable(succ, r) == {r} | nx.descendants(h, r)


def test_import_does_not_load_networkx():
    """networkx is a test-side reference only: the package never imports it."""
    import endnet

    src = os.path.dirname(os.path.dirname(os.path.abspath(endnet.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, endnet, endnet.cli; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
