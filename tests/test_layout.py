import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endnet.design import DesignCriterion, design_layout
from endnet.graphs import (
    Graph,
    WeightedGraph,
    is_connected_undirected,
    is_rooted,
    is_strongly_connected,
    metropolis_hastings_weights,
    uniform_weights,
)
from endnet.layout import (
    ConnectivityMode,
    EndLayout,
    LayoutError,
    Partition,
    reweight,
    standard_layout,
    weighted,
)
from endnet.scenarios import build_random_separable


def ring(n):
    return Graph.undirected_graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def full_interference(P, I):
    return frozenset((p, i) for p in range(1, P + 1) for i in range(1, I + 1))


@pytest.fixture
def small_layout():
    """4 agents on a ring, 2 components of dims (2, 1), full estimate assignment."""
    comm = ring(4)
    part = Partition([2, 1])
    return standard_layout(comm, full_interference(2, 4), part)


def dense_stacked_matrix(layout, blocks):
    """Dense Kronecker oracle for the block-diagonal stacked operators."""
    mats = []
    for p in layout.partition.components:
        mats.append(np.kron(blocks[p], np.eye(layout.partition.dim(p))))
    out = np.zeros((layout.stacked_dim, layout.stacked_dim))
    ofs = 0
    for m in mats:
        out[ofs:ofs + m.shape[0], ofs:ofs + m.shape[1]] = m
        ofs += m.shape[0]
    return out


class TestPartition:
    def test_dims(self):
        part = Partition([2, 3, 1])
        assert part.total_dim == 6
        assert part.dim(2) == 3
        assert part.component_slice(2) == slice(2, 5)

    def test_invalid(self):
        with pytest.raises(LayoutError):
            Partition([2, 0])


class TestValidate:
    def test_standard_layout_valid(self, small_layout):
        assert small_layout.validate(ConnectivityMode.undirected_connected()) == []

    def test_interference_not_covered(self):
        comm = ring(3)
        part = Partition([1])
        design = {1: metropolis_hastings_weights(comm)}
        lay = EndLayout(agents=comm.nodes, partition=part, comm=comm,
                        interference=frozenset({(1, 1)}), design=design)
        # drop agent 2 from the exchange graph while it still needs component 1
        from endnet.graphs import restrict
        design = {1: metropolis_hastings_weights(restrict(comm, [1, 3]))}
        lay = EndLayout(agents=comm.nodes, partition=part, comm=comm,
                        interference=frozenset({(1, 2)}), design=design)
        msgs = lay.validate(ConnectivityMode.undirected_connected())
        assert any("interference" in m for m in msgs)

    def test_rooted_but_not_strong(self):
        comm = Graph.directed_graph([1, 2, 4], [(1, 2), (1, 4)])
        part = Partition([1])
        from endnet.layout import weighted
        lay = EndLayout(agents=(1, 2, 4), partition=part, comm=comm,
                        interference=frozenset({(1, 1), (1, 2), (1, 4)}),
                        design={1: weighted(comm, "row")})
        assert lay.validate(ConnectivityMode.rooted({1: 1})) == []
        msgs = lay.validate(ConnectivityMode.strongly_connected())
        assert any("1" in m for m in msgs)

    def test_design_edge_outside_comm(self):
        comm = Graph.undirected_graph([1, 2, 3], [(1, 2), (2, 3)])
        bad = Graph.undirected_graph([1, 2, 3], [(1, 2), (1, 3)])
        lay = EndLayout(agents=comm.nodes, partition=Partition([1]), comm=comm,
                        interference=full_interference(1, 3),
                        design={1: metropolis_hastings_weights(bad)})
        msgs = lay.validate(ConnectivityMode.undirected_connected())
        assert any("communication" in m for m in msgs)


class TestStackedOperators:
    def test_scalar_case(self):
        comm = Graph.directed_graph([1], [])
        lay = standard_layout(comm, {(1, 1)}, Partition([1]), weight_scheme="row")
        assert np.allclose(lay.apply_weight(np.array([3.0])), [3.0])

    def test_consensus_fixed(self, small_layout):
        y = np.array([1.0, -2.0, 0.5])
        hat = small_layout.embed_consensus(y)
        assert np.allclose(small_layout.apply_weight(hat), hat)

    def test_matches_dense_kronecker(self, small_layout):
        rng = np.random.default_rng(0)
        Wd = dense_stacked_matrix(
            small_layout, {p: small_layout.design[p].matrix()
                           for p in small_layout.partition.components})
        v = rng.standard_normal(small_layout.stacked_dim)
        assert np.allclose(small_layout.apply_weight(v), Wd @ v, atol=1e-12)
        assert np.allclose(small_layout.weight_operator.matrix.toarray(), Wd)

    def test_laplacian_annihilates_embedding(self, small_layout):
        y = np.arange(3.0)
        hat = small_layout.embed_consensus(y)
        assert np.max(np.abs(small_layout.apply_laplacian(hat))) <= 1e-12


class TestProjections:
    def test_consensus_unchanged(self, small_layout):
        hat = small_layout.embed_consensus(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(small_layout.consensus_projection(hat), hat)

    def test_two_copies_mean(self):
        comm = Graph.undirected_graph([1, 2], [(1, 2)])
        lay = standard_layout(comm, full_interference(1, 2), Partition([1]))
        out = lay.consensus_projection(np.array([2.0, 6.0]))
        assert np.allclose(out, [4.0, 4.0])

    def test_idempotent_and_orthogonal(self, small_layout):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(small_layout.stacked_dim)
        par = small_layout.consensus_projection(v)
        perp = small_layout.disagreement(v)
        assert np.allclose(small_layout.consensus_projection(par), par, atol=1e-12)
        assert abs(par @ perp) <= 1e-10
        assert np.allclose(par + perp, v)
        assert par @ par + perp @ perp == pytest.approx(v @ v, rel=1e-10)


class TestEmbed:
    def test_scalar_three_copies(self):
        comm = ring(3)
        lay = standard_layout(comm, full_interference(1, 3), Partition([1]))
        assert np.allclose(lay.embed_consensus(np.array([2.0])), [2.0, 2.0, 2.0])


class TestNullSpaceAndBound:
    def test_standard_strongly_connected(self):
        comm = Graph.directed_graph([1, 2, 3], [(1, 2), (2, 3), (3, 1), (2, 1)])
        lay = standard_layout(comm, full_interference(2, 3), Partition([1, 2]),
                              weight_scheme="row")
        assert lay.verify_null_space_is_consensus({1: 1, 2: 1})

    def test_rooted_star(self):
        comm = Graph.directed_graph([1, 2, 4], [(1, 2), (1, 4)])
        lay = standard_layout(comm, full_interference(1, 3), Partition([1]),
                              weight_scheme="row")
        assert lay.verify_null_space_is_consensus({1: 1})

    def test_disagreement_bound_doubly_stochastic(self):
        comm = ring(5)
        lay = standard_layout(comm, full_interference(2, 5), Partition([1, 1]))
        ok, lam = lay.verify_disagreement_bound(num_samples=50, seed=0)
        assert ok
        # ring Laplacian: lambda_2(L + L^T) = 2 * (1 - cos(2 pi / 5)) * w-scale
        W = lay.design[1].matrix()
        L = np.diag(W @ np.ones(5)) - W
        lam2 = np.sort(np.linalg.eigvalsh(L + L.T))[1]
        assert lam == pytest.approx(lam2, rel=1e-9)

    def test_singleton_component_excluded(self):
        comm = Graph.directed_graph([1, 2], [(1, 2), (2, 1)])
        from endnet.graphs import restrict
        design = {
            1: weighted(comm.with_self_loops(), "column"),
            2: weighted(restrict(comm, [2]).with_self_loops(), "column"),
        }
        lay = EndLayout(agents=(1, 2), partition=Partition([1, 1]), comm=comm,
                        interference=frozenset({(1, 1), (1, 2), (2, 2)}), design=design)
        ok, lam = lay.verify_disagreement_bound(num_samples=20, seed=1)
        assert ok
        assert np.isfinite(lam)  # singleton's sentinel must not leak into the min


class TestCommunicationCost:
    def test_standard_unicast(self, small_layout):
        # |edges of comm| directed = 8, n_y = 3
        assert small_layout.communication_cost("unicast") == 8 * 3

    def test_empty_design_edges(self):
        comm = Graph.directed_graph([1], [])
        lay = standard_layout(comm, {(1, 1)}, Partition([2]), weight_scheme="row")
        assert lay.communication_cost("unicast") == 0.0

    def test_hand_count_broadcast(self):
        comm = ring(3)
        lay = standard_layout(comm, full_interference(2, 3), Partition([1, 2]))
        # every agent broadcasts each of its 2 held blocks once: 3 * (1 + 2)
        assert lay.communication_cost("broadcast") == 9.0

    def test_mean_estimate_count(self, small_layout):
        assert small_layout.mean_estimate_count() == 2.0


class TestJson:
    def test_round_trip(self, small_layout):
        back = EndLayout.from_json_dict(small_layout.to_json_dict())
        assert back.partition == small_layout.partition
        assert back.comm == small_layout.comm
        assert back.interference == small_layout.interference
        for p in small_layout.partition.components:
            assert np.allclose(back.design[p].matrix(), small_layout.design[p].matrix())

    def test_round_trip_keeps_component_groups(self):
        """A standard layout read back shares one weighted graph again, so it
        forms the same groups and applies bit for bit as before."""
        comm = Graph.undirected_graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                                                   (6, 1), (1, 4)])
        lay = standard_layout(comm, full_interference(5, 6), Partition([2, 1, 2, 2, 1]))
        back = EndLayout.from_json_dict(lay.to_json_dict())
        assert len({id(wg) for wg in back.design.values()}) == 1
        assert [g.members for g in back.groups] == [g.members for g in lay.groups]
        v = np.random.default_rng(3).standard_normal(lay.stacked_dim)
        for op in ("apply_weight", "apply_laplacian"):
            assert getattr(back, op)(v).tobytes() == getattr(lay, op)(v).tobytes()


@st.composite
def separable_layouts(draw):
    """A standard or a designed layout of a small random_separable instance,
    on a ring or the complete graph, with components of dimension 1 to 3,
    as built or reweighted by one of the four schemes."""
    n = draw(st.integers(3, 7))
    m = draw(st.integers(1, 8))
    problem, _ = build_random_separable(n, m, draw(st.sampled_from([0.2, 0.5, 1.0])),
                                        draw(st.integers(0, 2**16)))
    comm = ring(n) if draw(st.booleans()) else Graph.complete(range(1, n + 1))
    interference = frozenset(
        (p, i) for i, fp in enumerate(problem.footprints, start=1) for p in fp)
    partition = Partition(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    if draw(st.booleans()):
        layout = standard_layout(comm, interference, partition)
    else:
        layout = design_layout(comm, interference, partition,
                               DesignCriterion(ConnectivityMode.undirected_connected(),
                                               objective="min_edges"))
    scheme = draw(st.sampled_from([None, "metropolis", "row", "column", "uniform"]))
    return layout if scheme is None else reweight(layout, scheme)


def reweighted_designed_layout():
    """A designed layout of mixed dimensions whose two equal trees, weighted
    apart by ``design_layout``, share one weighted graph after ``reweight``."""
    comm = Graph.undirected_graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)])
    interference = {(1, 1), (1, 3), (2, 1), (2, 3), (3, 1), (3, 5), (4, 1), (4, 5), (5, 5)}
    lay = design_layout(comm, interference, Partition((2, 2, 1, 1, 2)),
                        DesignCriterion(ConnectivityMode.undirected_connected(), "min_edges"))
    return reweight(lay, "metropolis")


class TestLayoutProperties:
    def test_file_lists_each_shared_graph_once(self):
        lay = reweighted_designed_layout()
        assert [g.members for g in lay.groups] == [(1, 2), (3, 4), (5,)]
        assert lay.to_json_dict()["design"] == [0, 0, 1, 1, 2]

    @settings(max_examples=60, deadline=None)
    @given(layout=separable_layouts(), seed=st.integers(0, 2**16))
    @example(layout=reweighted_designed_layout(), seed=0)
    def test_json_round_trip_keeps_groups_and_laplacian(self, layout, seed):
        back = EndLayout.from_json_dict(layout.to_json_dict())
        assert [g.members for g in back.groups] == [g.members for g in layout.groups]
        v = np.random.default_rng(seed).standard_normal(layout.stacked_dim)
        for op in ("weight_operator", "laplacian_operator"):
            assert (getattr(back, op) @ v).tobytes() == (getattr(layout, op) @ v).tobytes()
        assert back.to_json_dict() == layout.to_json_dict()

    @settings(max_examples=60, deadline=None)
    @given(layout=separable_layouts(), seed=st.integers(0, 2**16))
    def test_consensus_projection_is_idempotent(self, layout, seed):
        v = np.random.default_rng(seed).standard_normal(layout.stacked_dim)
        once = layout.consensus_projection(v)
        assert np.max(np.abs(layout.consensus_projection(once) - once)) <= 1e-12


class TestInterferenceIndex:
    def test_needers_and_needs_match_a_scan(self):
        rng = np.random.default_rng(8)
        interference = frozenset((int(p), int(i)) for p, i in rng.integers(1, 9, size=(30, 2)))
        interference |= {(p, p) for p in range(1, 9)}
        lay = standard_layout(ring(8), interference, Partition((1,) * 8))
        for k in range(0, 10):
            assert lay.needers(k) == tuple(sorted(i for (q, i) in interference if q == k))
            assert lay.needed_by(k) == tuple(sorted(p for (p, j) in interference if j == k))


# -- one-pass validation ------------------------------------------------------


def per_component_violations(layout, mode):
    """``EndLayout.validate`` as a walk per component: each component's
    edges scanned for communication edges, then its graph's own reachability
    searches. The one-pass check must return this list, in this order."""
    violations = []
    agent_set = set(layout.agents)
    comp_set = set(layout.partition.components)
    for p, i in layout.interference:
        if p not in comp_set:
            violations.append(f"interference references unknown component {p}")
        elif i not in agent_set:
            violations.append(f"interference references unknown agent {i}")
        elif i not in layout.design[p].graph.nodes:
            violations.append(
                f"interference not covered: agent {i} needs component {p} but holds no copy")
    for p in layout.partition.components:
        if not layout.needers(p):
            violations.append(f"component {p} is indispensable for no agent")
        g = layout.design[p].graph
        if not set(g.nodes) <= agent_set:
            violations.append(f"exchange graph {p} has non-agent nodes")
        for u, v in g.edges:
            if u != v and (u, v) not in layout.comm.edges:
                violations.append(
                    f"exchange graph {p} edge ({u},{v}) is not a communication edge")
        if mode.kind == "rooted":
            root = mode.roots.get(p)
            if root is None:
                violations.append(f"component {p}: no root specified")
            elif root not in g.nodes:
                violations.append(f"component {p}: root {root} holds no copy")
            elif not is_rooted(g, root):
                violations.append(f"component {p}: exchange graph not rooted at {root}")
        elif mode.kind == "strong":
            if not is_strongly_connected(g):
                violations.append(f"component {p}: exchange graph not strongly connected")
        elif g.directed:
            violations.append(f"component {p}: exchange graph is directed, undirected required")
        elif not is_connected_undirected(g):
            violations.append(f"component {p}: exchange graph not connected")
    return violations


@st.composite
def faulty_layouts(draw):
    """A layout of up to 6 components over up to 6 agents whose exchange
    graphs are drawn at random, directed or not, sometimes shared by several
    components: graphs may be disconnected, miss a needer, hold a non-agent
    node or use an edge that is not a communication edge."""
    n = draw(st.integers(2, 6))
    agents = list(range(1, n + 1))
    pairs = [(u, v) for u in agents for v in agents if u != v]
    comm_edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    comm = (Graph.undirected_graph(agents, comm_edges) if draw(st.booleans())
            else Graph.directed_graph(agents, comm_edges))
    m = draw(st.integers(1, 6))
    interference = draw(st.frozensets(st.tuples(st.integers(1, m + 1), st.integers(1, n + 1)),
                                      max_size=12))
    pool = agents + [n + 1]  # n + 1 is not an agent
    design = {}
    for p in range(1, m + 1):
        if p > 1 and draw(st.integers(0, 3)) == 0:
            design[p] = design[draw(st.integers(1, p - 1))]  # shared graph object
            continue
        nodes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        edges = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                              max_size=8))
        build = Graph.undirected_graph if draw(st.booleans()) else Graph.directed_graph
        design[p] = uniform_weights(build(nodes, edges))
    return EndLayout(agents=agents, partition=Partition((1,) * m), comm=comm,
                     interference=interference, design=design)


@st.composite
def modes(draw, m):
    kind = draw(st.sampled_from(["rooted", "strong", "undirected"]))
    if kind != "rooted":
        return ConnectivityMode(kind)
    roots = draw(st.dictionaries(st.integers(1, m), st.integers(1, 7), max_size=m))
    return ConnectivityMode.rooted(roots)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_pass_validation_matches_a_walk_per_component(data):
    layout = data.draw(faulty_layouts())
    mode = data.draw(modes(layout.partition.num_components))
    assert layout.validate(mode) == per_component_violations(layout, mode)


def test_equal_graphs_report_their_edges_in_their_own_order():
    """Two equal graph objects whose edge sets iterate in different orders
    each report their non-communication edges in their own order."""
    edges = [(1, 1), (7, 1), (7, 7)]
    first = Graph.undirected_graph([1, 7], edges)
    second = Graph.undirected_graph([1, 7], edges[::-1])
    assert first == second and list(first.edges) != list(second.edges)
    layout = EndLayout(agents=list(range(1, 8)), partition=Partition((1, 1)),
                       comm=Graph.directed_graph(range(1, 8), []), interference=frozenset(),
                       design={1: uniform_weights(first), 2: uniform_weights(second)})
    mode = ConnectivityMode("undirected")
    violations = layout.validate(mode)
    assert violations == per_component_violations(layout, mode)
    off_comm = [v for v in violations if "communication edge" in v]
    assert off_comm == [f"exchange graph {p} edge ({u},{v}) is not a communication edge"
                        for p, g in ((1, first), (2, second)) for u, v in g.edges if u != v]
