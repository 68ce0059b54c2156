import dataclasses

import numpy as np
import pytest

from endnet.games import (
    AggregativeGameSpec,
    BallSet,
    BoxSet,
    GameError,
    GameSpec,
    HalfspaceSet,
    NeTheorem1Certificate,
    RealsSet,
    build_gne_operators,
    certify_theorem1,
    consensus_dual,
    gne_solve,
    gne_step,
    initial_gne_state,
    kkt_residual,
    ne_solve,
    ne_step,
    preconditioner_positive,
    search_gne_beta,
    search_ne_step_size,
    skew_part_pairing,
    solve_vgne_centralized,
)
from endnet.graphs import Graph, WeightedGraph
from endnet.layout import EndLayout, Partition, standard_layout
from endnet.trace import DivergenceError


def ring(n):
    return Graph.undirected_graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def full_interference(n):
    return frozenset((p, i) for p in range(1, n + 1) for i in range(1, n + 1))


def quadratic_game(G, h, domains=None):
    """Game with pseudo-gradient G x + h, one scalar action per agent."""
    n = G.shape[0]

    def grad(v):
        # pair (p, i) of the full pattern is entry (p - 1) n + i - 1: agent
        # i's value of x_p, which row i of G weighs by G[i, p]
        return h + np.einsum("ip,pi->i", G, v.reshape(n, n))

    sym = (G + G.T) / 2.0
    return GameSpec(
        action_dims=(1,) * n,
        gradient=grad,
        interference=full_interference(n),
        domains=domains or {},
        mu=float(np.min(np.linalg.eigvalsh(sym))),
        theta=float(np.linalg.norm(G, 2)),
    )


def random_quadratic(rng, n, shift=2.0):
    G = rng.standard_normal((n, n))
    G = G + G.T + shift * n * np.eye(n)
    h = rng.standard_normal(n)
    return quadratic_game(G, h), np.linalg.solve(G, -h)


def star_layout(n, dims=None):
    """One component per agent; every holder copies straight from the owner."""
    comm = Graph.undirected_graph(range(1, n + 1),
                                  [(u, v) for u in range(1, n + 1)
                                   for v in range(u + 1, n + 1)])
    part = Partition(dims or [1] * n)
    design = {}
    for p in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != p]
        g = Graph.directed_graph(range(1, n + 1),
                                 [(p, j) for j in others] + [(p, p)])
        design[p] = WeightedGraph(g, {(j, p): 1.0 for j in others} | {(p, p): 1.0})
    return EndLayout(agents=comm.nodes, partition=part, comm=comm,
                     interference=full_interference(n), design=design)


class TestProjectionSets:
    def test_reals_identity(self):
        v = np.array([1.0, -3.0])
        assert np.array_equal(RealsSet().project(v), v)

    def test_box(self):
        out = BoxSet(0.0, 1.0).project(np.array([-1.0, 0.5, 2.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_ball_inside_and_outside(self):
        s = BallSet(np.zeros(2), 1.0)
        inside = np.array([0.3, 0.4])
        assert np.array_equal(s.project(inside), inside)
        out = s.project(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])

    def test_halfspace(self):
        s = HalfspaceSet(np.array([1.0, 0.0]), 1.0)
        assert np.array_equal(s.project(np.array([0.5, 7.0])), [0.5, 7.0])
        assert np.allclose(s.project(np.array([3.0, 7.0])), [1.0, 7.0])

    def test_projections_nonexpansive(self):
        rng = np.random.default_rng(0)
        sets = [BoxSet(-1.0, 1.0), BallSet(np.zeros(3), 2.0),
                HalfspaceSet(np.array([1.0, 1.0, 0.0]) / np.sqrt(2), 0.5)]
        for s in sets:
            for _ in range(20):
                u, v = rng.standard_normal(3) * 3, rng.standard_normal(3) * 3
                pu, pv = s.project(u), s.project(v)
                assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12
                assert np.allclose(s.project(pu), pu, atol=1e-12)


class TestGameSpec:
    def test_missing_self_interference_rejected(self):
        with pytest.raises(GameError):
            GameSpec(action_dims=(1, 1), gradient=lambda v: np.zeros(2),
                     interference=frozenset({(1, 1), (2, 1)}))

    def test_bad_constants_rejected(self):
        with pytest.raises(GameError):
            GameSpec(action_dims=(1,), gradient=lambda v: np.zeros(1),
                     interference=frozenset({(1, 1)}), mu=2.0, theta=1.0)

    def test_pseudo_gradient_matches_finite_difference(self):
        # f_1 = x1^2 + x1 x2 - x1, f_2 = 2 x2^2 - x1 x2
        def grad(v):
            # the pairs (1, 1), (1, 2), (2, 1), (2, 2): agent 1 reads x1 and
            # x2 at v[0] and v[2], agent 2 at v[1] and v[3]
            return np.array([2 * v[0] + v[2] - 1.0, 4 * v[3] - v[1]])

        def f(i, x):
            return x[0] ** 2 + x[0] * x[1] - x[0] if i == 1 else 2 * x[1] ** 2 - x[0] * x[1]

        game = GameSpec(action_dims=(1, 1), gradient=grad, interference=full_interference(2))
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(2)
            F = game.pseudo_gradient(x)
            eps = 1e-6
            for i in (1, 2):
                e = np.zeros(2)
                e[i - 1] = eps
                num = (f(i, x + e) - f(i, x - e)) / (2 * eps)
                assert F[i - 1] == pytest.approx(num, abs=1e-6)

    def test_footprint(self):
        game = GameSpec(action_dims=(1, 1, 1), gradient=lambda v: np.zeros(3),
                        interference=frozenset({(1, 1), (2, 2), (3, 3), (2, 1)}))
        assert game.footprint(1) == (1, 2)
        assert game.footprint(3) == (3,)


class TestNeIteration:
    def test_converges_to_equilibrium(self):
        rng = np.random.default_rng(2)
        game, xstar = random_quadratic(rng, 4)
        lay = standard_layout(ring(4), full_interference(4), Partition([1] * 4))
        cert = search_ne_step_size(lay, game)
        hat, trace = ne_solve(lay, game, cert.alpha, max_iters=20000,
                              reference=xstar, certificate=cert)
        assert trace.last("distance") < 1e-9
        x = lay.component_means(hat)
        assert np.allclose(x, xstar, atol=1e-8)

    def test_star_design_matches_centralized_bitwise(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            game, _ = random_quadratic(np.random.default_rng(seed), 5)
            game = GameSpec(action_dims=game.action_dims, gradient=game.gradient,
                            interference=game.interference,
                            domains={i: BoxSet(-10.0, 10.0) for i in range(1, 6)},
                            mu=game.mu, theta=game.theta)
            lay = star_layout(5)
            alpha = 0.01
            x = rng.standard_normal(5)
            hat = lay.embed_consensus(x)
            for _ in range(50):
                hat = ne_step(lay, game, hat, alpha)
                grad = game.pseudo_gradient(x)
                x = np.clip(x - alpha * grad, -10.0, 10.0)
                for i in range(1, 6):
                    own = hat[lay.block_slice(i, i)]
                    assert own[0] == x[i - 1]  # exact, no tolerance

    def test_divergence_guard(self):
        game, _ = random_quadratic(np.random.default_rng(4), 3)
        lay = standard_layout(ring(3), full_interference(3), Partition([1] * 3))
        with pytest.raises(DivergenceError):
            ne_solve(lay, game, alpha=50.0, max_iters=10000)

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_rejects_a_budget_without_steps(self, max_iters):
        """Before, no step ran and the start point came back with an empty
        trace and a us_per_step."""
        game, xstar = random_quadratic(np.random.default_rng(4), 3)
        lay = standard_layout(ring(3), full_interference(3), Partition([1] * 3))
        with pytest.raises(GameError, match="max_iters >= 1"):
            ne_solve(lay, game, 0.01, max_iters=max_iters, reference=xstar)

    def test_rejects_nonpositive_step(self):
        game, _ = random_quadratic(np.random.default_rng(5), 3)
        lay = standard_layout(ring(3), full_interference(3), Partition([1] * 3))
        with pytest.raises(GameError):
            ne_step(lay, game, np.zeros(lay.stacked_dim), 0.0)


class TestCertificate:
    def test_full_information_closed_form(self):
        # complete graph: every copy mixes to the exact average in one round,
        # so the rate reduces to the centralized gradient bound
        n = 4
        comm = Graph.undirected_graph(range(1, n + 1),
                                      [(u, v) for u in range(1, n + 1)
                                       for v in range(u + 1, n + 1)])
        game, _ = random_quadratic(np.random.default_rng(6), n)
        lay = standard_layout(comm, full_interference(n), Partition([1] * n))
        W = lay.design[1].matrix()
        assert np.allclose(W, np.full((n, n), 1.0 / n))
        for alpha in (1e-3, 1e-2, 0.05):
            cert = certify_theorem1(lay, game, alpha)
            assert cert.certified
            assert cert.sigma_bar == pytest.approx(0.0, abs=1e-12)
            expected = 1.0 - 2 * alpha * game.mu / n + alpha**2 * game.theta**2 / n
            assert cert.rho == pytest.approx(expected, rel=1e-9)

    def test_full_information_rate_boundary(self):
        n = 3
        comm = Graph.undirected_graph(range(1, n + 1),
                                      [(u, v) for u in range(1, n + 1)
                                       for v in range(u + 1, n + 1)])
        game, _ = random_quadratic(np.random.default_rng(7), n)
        lay = standard_layout(comm, full_interference(n), Partition([1] * n))
        bound = 2 * game.mu / game.theta**2
        assert certify_theorem1(lay, game, 0.999 * bound).rho < 1.0
        assert certify_theorem1(lay, game, 1.001 * bound).rho > 1.0

    def test_star_component_weights(self):
        game, _ = random_quadratic(np.random.default_rng(8), 4)
        lay = star_layout(4)
        cert = certify_theorem1(lay, game, 0.01)
        assert cert.certified
        for i in range(1, 5):
            assert cert.sigma[i] == 0.0
            assert np.array_equal(cert.q_matrices[i], np.eye(4))
            e = np.zeros(4)
            e[lay.holders(i).index(i)] = 1.0
            assert np.allclose(cert.perron[i], e)

    def test_strongly_connected_diagonal_weights(self):
        # directed 3-cycle with self-loops, row-stochastic: Perron-weighted
        # diagonal matrices must satisfy the anchoring identities
        n = 3
        g = Graph.directed_graph([1, 2, 3], [(1, 2), (2, 3), (3, 1),
                                             (1, 1), (2, 2), (3, 3)])
        w = {}
        for v in [1, 2, 3]:
            w[(v, v)] = 0.6
            w[(v, v % 3 + 1 if False else (v - 2) % 3 + 1)] = 0.4  # receive from predecessor
        comm = Graph.undirected_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        design = {p: WeightedGraph(g, w) for p in (1, 2, 3)}
        lay = EndLayout(agents=(1, 2, 3), partition=Partition([1, 1, 1]), comm=comm,
                        interference=full_interference(3), design=design)
        game, _ = random_quadratic(np.random.default_rng(9), 3)
        cert = certify_theorem1(lay, game, 1e-3)
        assert cert.certified
        for i in (1, 2, 3):
            Q, q = cert.q_matrices[i], cert.perron[i]
            W = lay.design[i].matrix()
            assert np.allclose(q @ W, q, atol=1e-10)
            assert np.allclose(Q, np.diag(np.diag(Q)))
            pos = lay.holders(i).index(i)
            assert (np.ones(3) @ Q)[pos] == pytest.approx(1.0, abs=1e-10)
            assert cert.sigma[i] < 1.0

    def test_leader_follower_weights(self):
        # owner's copy frozen, followers average down a chain
        g = Graph.directed_graph([1, 2, 3], [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
        w = {(1, 1): 1.0, (2, 1): 0.5, (2, 2): 0.5, (3, 2): 0.5, (3, 3): 0.5}
        comm = Graph.undirected_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        design = {1: WeightedGraph(g, w)}
        for p in (2, 3):
            lay_std = star_layout(3)
            design[p] = lay_std.design[p]
        lay = EndLayout(agents=(1, 2, 3), partition=Partition([1, 1, 1]), comm=comm,
                        interference=full_interference(3), design=design)
        game, _ = random_quadratic(np.random.default_rng(10), 3)
        cert = certify_theorem1(lay, game, 1e-3)
        assert cert.certified
        Q, q, W = cert.q_matrices[1], cert.perron[1], lay.design[1].matrix()
        n = 3
        assert np.allclose(q, [1.0, 0.0, 0.0])
        assert np.min(np.linalg.eigvalsh(Q)) > 0
        assert (np.ones(n) @ Q)[0] == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(np.ones(n) @ Q @ W @ (np.eye(n) - np.outer(np.ones(n), q)))) < 1e-8
        assert cert.sigma[1] < 1.0

    def test_leader_follower_needs_unconstrained_domain(self):
        g = Graph.directed_graph([1, 2, 3], [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
        w = {(1, 1): 1.0, (2, 1): 0.5, (2, 2): 0.5, (3, 2): 0.5, (3, 3): 0.5}
        comm = Graph.undirected_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        design = {1: WeightedGraph(g, w), 2: star_layout(3).design[2],
                  3: star_layout(3).design[3]}
        lay = EndLayout(agents=(1, 2, 3), partition=Partition([1, 1, 1]), comm=comm,
                        interference=full_interference(3), design=design)
        base, _ = random_quadratic(np.random.default_rng(11), 3)
        game = GameSpec(action_dims=base.action_dims, gradient=base.gradient,
                        interference=base.interference,
                        domains={1: BoxSet(-1.0, 1.0)}, mu=base.mu, theta=base.theta)
        cert = certify_theorem1(lay, game, 1e-3)
        assert not cert.certified
        assert any("unconstrained" in note for note in cert.notes)

    def test_requires_constants(self):
        game = GameSpec(action_dims=(1,), gradient=lambda v: np.zeros(1),
                        interference=frozenset({(1, 1)}))
        lay = star_layout(1)
        with pytest.raises(GameError):
            certify_theorem1(lay, game, 0.1)

    def test_contraction_ratio_bounded_by_rho(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            game, xstar = random_quadratic(rng, 4)
            lay = standard_layout(ring(4), full_interference(4), Partition([1] * 4))
            cert = search_ne_step_size(lay, game, target=0.995)
            hat0 = rng.standard_normal(lay.stacked_dim)
            _, trace = ne_solve(lay, game, cert.alpha, max_iters=300,
                                hat0=hat0, reference=xstar, certificate=cert)
            assert max(trace.columns["ratio"]) <= cert.rho + 1e-9

    def test_xi_norm_reduces_to_euclidean(self):
        lay = star_layout(3)
        game, _ = random_quadratic(np.random.default_rng(12), 3)
        cert = certify_theorem1(lay, game, 0.01)
        v = np.random.default_rng(13).standard_normal(lay.stacked_dim)
        assert cert.xi_norm(lay, v) == pytest.approx(np.linalg.norm(v), rel=1e-12)

    def test_search_step_size_meets_target(self):
        game, _ = random_quadratic(np.random.default_rng(14), 3)
        lay = standard_layout(ring(3), full_interference(3), Partition([1] * 3))
        cert = search_ne_step_size(lay, game, target=0.999)
        assert cert.rho <= 0.999
        assert certify_theorem1(lay, game, cert.alpha * 1.05).rho > 0.999


def two_agent_aggregative(sense="equality", target=1.0):
    """f_i = (x_i - 1)^2 + x_i * sigma with sigma = x_1 + x_2, coupled by
    x_1 + x_2 = target (or <=)."""

    def gradient(x, sigma):
        # 2 x_i - 2 + sigma_i from x_i, and x_i from sigma_i through B = 1;
        # the pairs (1, 1) and (1, 2) hold agent 1's and agent 2's sigma
        return 3 * x - 2 + sigma

    one = np.array([[1.0]])
    return AggregativeGameSpec(
        action_dims=(1, 1), sigma_dims={1: 1}, lambda_dims={1: 1},
        gradient=gradient,
        agg_blocks={(1, 1): one, (1, 2): one},
        agg_offsets={(1, 1): np.zeros(1), (1, 2): np.zeros(1)},
        con_blocks={(1, 1): one, (1, 2): one},
        con_offsets={(1, 1): np.array([target / 2]), (1, 2): np.array([target / 2])},
        interference_sigma=frozenset({(1, 1), (1, 2)}),
        interference_lambda=frozenset({(1, 1), (1, 2)}),
        sense=sense,
    )


class TestAggregativeSpec:
    def test_aggregation_and_constraint_matrix(self):
        game = two_agent_aggregative()
        x = np.array([0.2, 0.7])
        assert np.allclose(game.aggregation(x)[1], [0.9])
        A, a = game.constraint_matrix()
        assert np.allclose(A, [[1.0, 1.0]])
        assert np.allclose(a, [1.0])

    def test_block_off_pattern_rejected(self):
        one = np.array([[1.0]])
        with pytest.raises(GameError):
            AggregativeGameSpec(
                action_dims=(1,), sigma_dims={1: 1}, lambda_dims={},
                gradient=lambda x, sigma: np.zeros(1),
                agg_blocks={(1, 1): one}, agg_offsets={},
                con_blocks={}, con_offsets={},
                interference_sigma=frozenset(), interference_lambda=frozenset())

    @pytest.mark.parametrize("kind", ["agg", "con"])
    def test_offset_off_pattern_rejected(self, kind):
        # agent 2 drops out of the pattern and its block, but its offset stays
        game = two_agent_aggregative()
        shrunk = {f"{kind}_blocks": {(1, 1): np.array([[1.0]])},
                  "interference_sigma" if kind == "agg" else "interference_lambda":
                      frozenset({(1, 1)})}
        with pytest.raises(GameError, match=r"offset \(1, 2\) off the interference pattern"):
            dataclasses.replace(game, **shrunk)

    def test_pseudo_gradient_hand_value(self):
        game = two_agent_aggregative()
        # F_i(x) = 4 x_i + x_j - 2
        x = np.array([0.3, -0.2])
        assert np.allclose(game.pseudo_gradient(x), [4 * 0.3 - 0.2 - 2, -0.8 + 0.3 - 2])


class TestGneIteration:
    def setup_method(self):
        comm = Graph.undirected_graph([1, 2], [(1, 2)])
        self.layout = standard_layout(comm, {(1, 1), (1, 2)}, Partition([1]))

    def test_equality_matches_hand_solution(self):
        # symmetry gives x_i = 1/2; stationarity 4*(1/2) + 1/2 - 2 + lam = 0
        game = two_agent_aggregative("equality", target=1.0)
        ops = build_gne_operators(game, self.layout, self.layout)
        state, trace = gne_solve(ops, np.zeros(2), alpha=0.1, beta=0.05,
                                 max_iters=100000, tol=1e-6)
        assert np.allclose(state.x, [0.5, 0.5], atol=1e-5)
        lam = consensus_dual(ops, state.lam_hat) / 0.1
        assert lam[0] == pytest.approx(-0.5, abs=1e-4)

    def test_matches_centralized_reference(self):
        for sense, target in (("equality", 1.0), ("inequality", 0.5)):
            game = two_agent_aggregative(sense, target)
            x_ref, lam_ref = solve_vgne_centralized(game, np.zeros(2))
            assert kkt_residual(game, x_ref, lam_ref) < 1e-7
            ops = build_gne_operators(game, self.layout, self.layout)
            state, trace = gne_solve(ops, np.zeros(2), alpha=0.1, beta=0.05,
                                     max_iters=300000, tol=1e-5, reference=x_ref,
                                     residual_tol=1e-3)
            assert trace.last("distance") < 1e-5
            assert trace.last("residual") < 1e-3

    def test_inactive_inequality_has_zero_multiplier(self):
        game = two_agent_aggregative("inequality", target=10.0)
        x_ref, lam_ref = solve_vgne_centralized(game, np.zeros(2))
        assert lam_ref[0] == pytest.approx(0.0, abs=1e-8)
        # the uncoupled equilibrium solves 4 x_i + x_j = 2
        assert np.allclose(x_ref, [0.4, 0.4], atol=1e-7)

    def test_shifted_aggregation_invariant(self):
        game = two_agent_aggregative()
        ops = build_gne_operators(game, self.layout, self.layout)
        state = initial_gne_state(ops, np.array([0.3, -0.1]))
        for _ in range(200):
            state = gne_step(ops, state, 0.1, 0.05)
            par = ops.sigma_layout.consensus_projection(state.s_hat)
            assert np.max(np.abs(par)) < 1e-12

    def test_aggregation_estimates_track_truth(self):
        game = two_agent_aggregative()
        ops = build_gne_operators(game, self.layout, self.layout)
        state, _ = gne_solve(ops, np.zeros(2), alpha=0.1, beta=0.05,
                             max_iters=100000, tol=1e-6)
        sigma_hat = state.sigma_hat(ops)
        truth = game.aggregation(state.x)[1]
        assert np.allclose(ops.sigma_layout.component_means(sigma_hat), truth, atol=1e-4)

    def test_preconditioner_positivity(self):
        game = two_agent_aggregative()
        ops = build_gne_operators(game, self.layout, self.layout)
        assert preconditioner_positive(ops, 1e-3)
        assert not preconditioner_positive(ops, 100.0)

    def test_skew_pairing_vanishes(self):
        game = two_agent_aggregative()
        ops = build_gne_operators(game, self.layout, self.layout)
        rng = np.random.default_rng(15)
        for _ in range(20):
            val = skew_part_pairing(ops, rng.standard_normal(2), rng.standard_normal(2),
                                    rng.standard_normal(2), rng.standard_normal(2))
            assert abs(val) < 1e-12

    def test_beta_search_returns_stable_step(self):
        game = two_agent_aggregative()
        ops = build_gne_operators(game, self.layout, self.layout)
        beta = search_gne_beta(ops, np.zeros(2), alpha=0.1)
        assert preconditioner_positive(ops, beta)
        state, trace = gne_solve(ops, np.zeros(2), alpha=0.1, beta=beta,
                                 max_iters=400000, tol=1e-4)
        assert trace.last("residual") < 1e-3

    def test_divergence_guard(self):
        game = two_agent_aggregative()
        ops = build_gne_operators(game, self.layout, self.layout)
        with pytest.raises(DivergenceError):
            gne_solve(ops, np.zeros(2), alpha=0.1, beta=50.0, max_iters=5000)

    def test_solve_needs_a_step(self):
        ops = build_gne_operators(two_agent_aggregative(), self.layout, self.layout)
        with pytest.raises(GameError, match="max_iters >= 1"):
            gne_solve(ops, np.zeros(2), alpha=0.1, beta=0.05, max_iters=0)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.05), (-0.1, 0.05), (0.1, 0.0),
                                             (0.1, -1.0), (float("nan"), 0.05)])
    def test_solve_refuses_a_step_that_is_not_positive(self, alpha, beta):
        ops = build_gne_operators(two_agent_aggregative(), self.layout, self.layout)
        with pytest.raises(GameError, match="positive steps"):
            gne_solve(ops, np.zeros(2), alpha=alpha, beta=beta, max_iters=10)

    def test_solve_refuses_a_check_interval_below_one(self):
        ops = build_gne_operators(two_agent_aggregative(), self.layout, self.layout)
        with pytest.raises(GameError, match="check_every >= 1"):
            gne_solve(ops, np.zeros(2), alpha=0.1, beta=0.05, max_iters=10, check_every=0)

    @pytest.mark.parametrize("beta", [0.0, -1.0, -1e-3])
    def test_preconditioner_check_refuses_a_step_that_is_not_positive(self, beta):
        """The cheap bound beta * sqrt(coupling_bound) < 1 holds for every
        negative beta, which would report a positive preconditioner."""
        ops = build_gne_operators(two_agent_aggregative(), self.layout, self.layout)
        with pytest.raises(GameError, match="positive step beta"):
            preconditioner_positive(ops, beta)

    @pytest.mark.parametrize("step, max_iters", [(0.0, 100), (-0.05, 100), (0.05, 0)])
    def test_reference_solve_refuses_what_it_cannot_run(self, step, max_iters):
        with pytest.raises(GameError, match="positive step and max_iters >= 1"):
            solve_vgne_centralized(two_agent_aggregative(), np.zeros(2), step=step,
                                   max_iters=max_iters)

    def test_reference_solve_divergence_guard(self):
        # step 2.0 blows the centralized loop up to nan within its budget
        with pytest.raises(DivergenceError):
            solve_vgne_centralized(two_agent_aggregative(), np.zeros(2), step=2.0,
                                   max_iters=20000)
