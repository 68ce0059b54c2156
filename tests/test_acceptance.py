"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single pass/fail line under
``pytest -v``.  Instance sizes, tolerances, and runtime budgets are fixed;
seeds are hard-coded so every run checks the same instances bit for bit.
"""

import time

import numpy as np
import pytest

from endnet.design import (
    DesignInfeasible,
    SteinerInstance,
    exact_min_rooted_nodes,
    exact_min_scss_nodes,
    exact_steiner_cost,
    solve_scss,
    solve_udst,
    solve_ust,
)
from endnet.games import (
    BoxSet,
    GameSpec,
    build_gne_operators,
    certify_theorem1,
    gne_solve,
    ne_solve,
    ne_step,
)
from endnet.graphs import (
    Graph,
    WeightedGraph,
    is_rooted,
    is_strongly_connected,
)
from endnet.layout import ConnectivityMode, EndLayout, Partition, standard_layout
from endnet.design import DesignCriterion, design_layout
from endnet.optim import (
    ConstraintCoupledProblem,
    OptimError,
    abc_bound_constant,
    abc_check,
    abc_solve,
    abc_step,
    admm_solve,
    augdgm_matrices,
    augdgm_step,
    constant_design_weights,
    constraint_coupled_solve,
    example_design_schedule,
    merit_v,
    power_step_schedule,
    pushsum_solve,
    stacked_gradient,
)
from endnet.scenarios import (
    SensorScenario,
    UnicastScenario,
    build_lasso,
    build_random_quadratic_game,
    build_random_separable,
    build_regression,
    build_unicast,
    sample_unicast,
)


def ring(n):
    return Graph.undirected_graph(range(1, n + 1),
                                  [(i, i % n + 1) for i in range(1, n + 1)])


def complete(n):
    return Graph.undirected_graph(range(1, n + 1),
                                  [(u, v) for u in range(1, n + 1)
                                   for v in range(u + 1, n + 1)])


def sparse_undirected_arm(comm, interference, partition):
    """Connected undirected exchange graphs with Metropolis weights."""
    crit = DesignCriterion(ConnectivityMode.undirected_connected(),
                           objective="min_edges")
    return design_layout(comm, interference, partition, crit,
                         weight_scheme="metropolis")


def separable_arms(num_agents, num_components, sparsity, seed):
    problem, reference = build_random_separable(num_agents, num_components,
                                                sparsity, seed)
    interference = frozenset(
        (p, i) for i, fp in enumerate(problem.footprints, start=1) for p in fp)
    layout = sparse_undirected_arm(ring(num_agents), interference,
                                   Partition((1,) * num_components))
    return problem, reference, layout


def star_layout(n):
    """One scalar component per agent, copied straight from its owner."""
    comm = complete(n)
    interference = frozenset((p, i) for p in range(1, n + 1)
                             for i in range(1, n + 1))
    design = {}
    for p in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != p]
        g = Graph.directed_graph(range(1, n + 1),
                                 [(p, j) for j in others] + [(p, p)])
        design[p] = WeightedGraph(g, {(j, p): 1.0 for j in others} | {(p, p): 1.0})
    return EndLayout(agents=comm.nodes, partition=Partition([1] * n), comm=comm,
                     interference=interference, design=design)


def slack_unicast(num_users, seed):
    """Random routed network whose equilibrium is exactly all-ones.

    Capacities are widened to 1.2x the per-link user count, so the coupling
    constraints are strictly slack at full rate and the multiplier vanishes;
    the utility slope at x = 1 dominates every congestion term, so each
    user's best response sits on the upper box corner.
    """
    base = sample_unicast(num_users, seed)
    caps = {e: 1.2 * len(base.users_of(e)) for e in base.active_links}
    return UnicastScenario(comm=base.comm, paths=base.paths, psi=base.psi,
                           capacities=caps, alpha=0.1, beta=1e-3)


# -- pseudo-gradient equilibrium seeking ------------------------------------


def test_certified_rate_bounds_every_contraction_step():
    """Per-step weighted contraction never exceeds the certified rate."""
    t0 = time.perf_counter()
    for seed in range(20):
        game, x_star = build_random_quadratic_game(5, 0.25, seed, shift=10.0)
        layout = sparse_undirected_arm(complete(5), game.interference,
                                       Partition((1,) * 5))
        bound = 2.0 * game.mu / game.theta**2
        best = None
        for alpha in np.geomspace(1e-3, bound, 15):
            cert = certify_theorem1(layout, game, float(alpha))
            if cert.certified and cert.rho < 1.0 and (
                    best is None or cert.rho < best.rho):
                best = cert
        assert best is not None, f"seed {seed}: no certifiable step size"
        hat0 = np.random.default_rng(seed).standard_normal(layout.stacked_dim)
        _, trace = ne_solve(layout, game, best.alpha, max_iters=40000,
                            tol=1e-10, hat0=hat0, reference=x_star,
                            certificate=best)
        assert trace.last("distance") < 1e-10, f"seed {seed}: did not converge"
        assert max(trace.columns["ratio"]) <= best.rho + 1e-9, f"seed {seed}"
    assert time.perf_counter() - t0 < 5.0


def test_owner_copy_designs_reduce_to_centralized_updates():
    """With owner-sourced copies the iteration equals the centralized
    projected pseudo-gradient trajectory bit for bit."""
    n = 5
    layout = star_layout(n)
    for seed in range(10):
        base, _ = build_random_quadratic_game(n, 1.0, seed, shift=2.0)
        game = GameSpec(action_dims=base.action_dims, gradient=base.gradient,
                        interference=base.interference,
                        domains={i: BoxSet(-10.0, 10.0) for i in range(1, n + 1)},
                        mu=base.mu, theta=base.theta)
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal(n)
        hat = layout.embed_consensus(x)
        alpha = 0.01
        for _ in range(100):
            hat = ne_step(layout, game, hat, alpha)
            x = np.clip(x - alpha * game.pseudo_gradient(x), -10.0, 10.0)
            deviation = max(
                abs(hat[layout.block_slice(i, i)][0] - x[i - 1])
                for i in range(1, n + 1))
            assert deviation == 0.0


def test_full_copy_certificates_match_step_size_threshold():
    """All-holders complete-mixing case: certified below 2 mu / theta^2,
    rate at the threshold equals one up to grid tolerance."""
    n = 5
    game, _ = build_random_quadratic_game(n, 1.0, 0, shift=2.0)
    layout = standard_layout(complete(n), game.interference, Partition((1,) * n))
    bound = 2.0 * game.mu / game.theta**2
    for alpha in bound * (np.arange(1, 51) / 51.0):
        cert = certify_theorem1(layout, game, float(alpha))
        assert cert.certified
        assert cert.rho < 1.0
    at_bound = certify_theorem1(layout, game, bound)
    assert at_bound.rho >= 1.0 - 1e-3
    assert at_bound.rho == pytest.approx(1.0, abs=1e-9)


def test_unicast_equilibrium_arms_agree_and_customized_messaging_cheaper():
    """Both layout arms reach the same constrained equilibrium; the
    sparsity-aware arm sends strictly fewer scalars per round."""
    t0 = time.perf_counter()
    sc = slack_unicast(12, 3)
    inst = build_unicast(sc)
    x_star = np.ones(sc.num_users)
    results = {}
    for name, (sigma_lay, lambda_lay) in (("standard", inst.standard),
                                          ("customized", inst.customized)):
        ops = build_gne_operators(inst.game, sigma_lay, lambda_lay)
        state, trace = gne_solve(ops, np.zeros(sc.num_users),
                                 alpha=sc.alpha, beta=sc.beta,
                                 max_iters=900000, tol=1e-2,
                                 reference=x_star, residual_tol=1e-3)
        assert float(np.linalg.norm(state.x - x_star)) <= 1e-2, name
        assert trace.last("residual") <= 1e-3, name
        assert trace.meta["max_consensus_invariant"] <= 1e-10, name
        results[name] = (state.x, trace)
    cross = float(np.max(np.abs(results["standard"][0] - results["customized"][0])))
    assert cross <= 1e-2
    assert (results["customized"][1].meta["unicast_cost_per_iter"]
            < results["standard"][1].meta["unicast_cost_per_iter"])

    # qualitative sweep: the customized arm should stop no later and keep
    # fewer estimate copies per agent on most random networks
    good = 0
    for seed in range(10):
        sc_k = slack_unicast(12, seed)
        inst_k = build_unicast(sc_k)
        iters = {}
        for name, (sigma_lay, lambda_lay) in (("standard", inst_k.standard),
                                              ("customized", inst_k.customized)):
            ops = build_gne_operators(inst_k.game, sigma_lay, lambda_lay)
            _, trace = gne_solve(ops, np.zeros(sc_k.num_users),
                                 alpha=sc_k.alpha, beta=sc_k.beta,
                                 max_iters=10000, tol=1e-2,
                                 reference=np.ones(sc_k.num_users))
            iters[name] = int(trace.last("k")) + 1
        num_links = len(sc_k.active_links)
        if (iters["customized"] <= iters["standard"]
                and inst_k.customized[0].mean_estimate_count() < num_links):
            good += 1
    assert good >= 8
    assert time.perf_counter() - t0 < 60.0


# -- separable optimization -------------------------------------------------


def test_tracking_matrices_certified_and_ergodic_bound_holds():
    """Gradient-tracking matrices pass all structural checks; the running
    average obeys the k-scaled bound and keeps decaying past it."""
    t0 = time.perf_counter()
    for seed in range(10):
        problem, reference, layout = separable_arms(10, 15, 0.3, seed)
        matrices = augdgm_matrices(layout)
        assert abc_check(matrices, layout) == []
        gamma = 0.9 * matrices.gamma_bound(problem)
        y0 = layout.embed_consensus(np.full(15, 2.0))
        _, trace = abc_solve(layout, matrices, problem, gamma,
                             max_iters=10000, y0=y0, reference=reference,
                             merit_every=10)
        h = abc_bound_constant(layout, matrices, problem, gamma, y0, reference)
        ks = np.asarray(trace.columns["k"])
        merits = np.asarray(trace.columns["merit_avg"])
        assert float(np.max(ks * merits - h / 2.0)) <= 1e-6, f"seed {seed}"
        assert merits[-1] <= 1e-3 * merits[0], f"seed {seed}"
    assert time.perf_counter() - t0 < 30.0


def test_tracking_recursion_equals_two_matrix_form():
    """The tracking update and its two-matrix rewriting stay together."""
    for seed in range(5):
        problem, _, layout = separable_arms(6, 8, 0.5, seed)
        matrices = augdgm_matrices(layout)
        gamma = 0.9 * matrices.gamma_bound(problem)
        y_abc = np.zeros(layout.stacked_dim)
        z = np.zeros(layout.stacked_dim)
        y_gt = np.zeros(layout.stacked_dim)
        v = layout.apply_weight(stacked_gradient(layout, problem, y_gt))
        worst = 0.0
        for _ in range(500):
            y_abc, z = abc_step(layout, matrices, problem, y_abc, z, gamma)
            y_gt, v = augdgm_step(layout, problem, y_gt, v, gamma)
            worst = max(worst, float(np.max(np.abs(y_abc - y_gt))))
        assert worst <= 1e-10, f"seed {seed}: deviation {worst}"


def test_ratio_consensus_time_varying_invariants_and_convergence():
    """Diminishing-step ratio consensus over periodically switching designs:
    conserved mass and the averaged-process identity hold to round-off, and
    both the scaled merit and the consensus residual converge."""
    t0 = time.perf_counter()
    # few measurement rows and low noise keep the unit-scale first step
    # inside the local stability range, so the conserved quantities stay
    # at round-off instead of drowning in a transient
    sc = SensorScenario(num_sensors=20, num_sources=8, comm_radius_min=0.35,
                        output_dim=3, noise_var=0.01)
    inst = build_regression(sc)
    layout = inst.customized
    problem = inst.problem
    reference = problem.solve_reference()

    edges = sorted(e for e in inst.geometry.comm.edges if e[0] != e[1])
    snapshots = [Graph.directed_graph(inst.geometry.comm.nodes, edges[q::3])
                 for q in range(3)]
    schedule = example_design_schedule(layout, snapshots)

    def consensus_residual(hat):
        worst = 0.0
        for p in layout.partition.components:
            s = layout.component_slice(p)
            block = hat[s].reshape(layout.copies(p), layout.partition.dim(p))
            worst = max(worst, float(np.max(np.abs(block - block.mean(axis=0)))))
        return worst

    def merit(hat):
        return max(merit_v(layout, problem, hat, reference),
                   10.0 * consensus_residual(hat))

    state, trace = pushsum_solve(layout, schedule, problem,
                                 power_step_schedule(1.0, 0.51),
                                 max_iters=100000, reference=reference,
                                 stop_tol=1e-2, merit=merit, check_every=100)
    assert trace.meta["max_mass_error"] <= 1e-10
    assert trace.meta["max_averaged_process_error"] <= 1e-10
    assert trace.last("merit") <= 1e-2          # scaled merit
    assert consensus_residual(state.y) <= 1e-3  # raw consensus residual
    assert int(trace.last("k")) < 100000 - 1
    assert time.perf_counter() - t0 < 120.0


def test_edge_splitting_converges_and_rejects_boundary_relaxation():
    """Consensus splitting reaches the centralized optimum on every random
    instance; relaxation parameters on the interval boundary are refused."""
    for seed in range(10):
        problem, reference = build_random_separable(5, 4, 0.6, seed)
        interference = frozenset(
            (p, i) for i, fp in enumerate(problem.footprints, start=1) for p in fp)
        layout = standard_layout(ring(5), interference, Partition((1,) * 4))
        _, trace = admm_solve(layout, problem, 0.5, max_iters=5000,
                              tol=1e-6, reference=reference)
        assert trace.last("distance") < 1e-6, f"seed {seed}"
        assert len(trace) <= 5000
    problem, _ = build_random_separable(5, 4, 0.6, 0)
    interference = frozenset(
        (p, i) for i, fp in enumerate(problem.footprints, start=1) for p in fp)
    layout = standard_layout(ring(5), interference, Partition((1,) * 4))
    for alpha in (0.0, 1.0):
        with pytest.raises(OptimError):
            admm_solve(layout, problem, alpha)


# -- exchange-graph construction --------------------------------------------


def test_subgraph_heuristics_near_exact_and_relay_recovered():
    """Tree/connector heuristics stay within their factors of brute force on
    random hosts, and an unavoidable relay node is picked up."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        n = int(rng.integers(4, 9))
        host = Graph.undirected_graph(
            range(1, n + 1),
            [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.45])
        terminals = set(rng.choice(host.nodes,
                                   size=int(rng.integers(2, 4)),
                                   replace=False).tolist())
        exact = exact_steiner_cost(host, terminals)
        if np.isfinite(exact):
            tree = solve_ust(SteinerInstance(host, terminals))
            assert terminals <= set(tree.nodes)
            assert len(tree.edges) // 2 <= 2 * exact + 1e-9

        dhost = Graph.directed_graph(
            range(1, n + 1),
            [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if u != v and rng.random() < 0.3])
        dterm = set(rng.choice(dhost.nodes, size=2, replace=False).tolist())
        root = min(dterm)
        try:
            exact_rooted = exact_min_rooted_nodes(dhost, root, dterm)
        except DesignInfeasible:
            exact_rooted = None
        if exact_rooted is not None:
            sub = solve_udst(SteinerInstance(dhost, dterm, root=root))
            assert is_rooted(sub, root)
            assert dterm <= set(sub.nodes)
            assert len(sub.nodes) <= exact_rooted + len(dterm)
        try:
            exact_strong = exact_min_scss_nodes(dhost, dterm)
        except DesignInfeasible:
            exact_strong = None
        if exact_strong is not None:
            sub = solve_scss(SteinerInstance(dhost, dterm))
            assert is_strongly_connected(sub)
            assert dterm <= set(sub.nodes)
            assert len(sub.nodes) <= exact_strong + len(dterm)
        checked += 1

    # a value originating at node 1 can only reach node 4 through node 3
    comm = Graph.directed_graph(
        [1, 2, 3, 4], [(1, 3), (3, 4), (4, 2), (2, 1), (3, 1), (4, 3), (2, 4)])
    relay = solve_udst(SteinerInstance(comm, {1, 4}, root=1))
    assert 3 in relay.nodes
    assert is_rooted(relay, 1)


# -- coupled constraints and the sparse sweep -------------------------------


def test_coupled_constraint_dual_recovers_multiplier_and_primal():
    """Two-agent resource split with a hand-computable multiplier."""
    c1, c2 = 0.3, 0.9
    centers = np.array([c1, c2])

    def oracle(r):
        return np.minimum(np.maximum(centers - r / 2.0, -5.0), 5.0)

    problem = ConstraintCoupledProblem(
        x_dims=(1, 1), component_dims=(1,), footprints=((1,), (1,)),
        con_blocks={(1, 1): np.array([[1.0]]), (1, 2): np.array([[1.0]])},
        con_offsets={(1, 1): np.array([0.5]), (1, 2): np.array([0.5])},
        argmin_oracle=oracle)
    y_star = c1 + c2 - 1.0
    x_star = np.array([c1 + (1 - c1 - c2) / 2.0, c2 + (1 - c1 - c2) / 2.0])
    comm = Graph.directed_graph([1, 2], [(1, 2), (2, 1)]).with_self_loops()
    layout = standard_layout(comm, {(1, 1), (1, 2)}, Partition([1]),
                             weight_scheme="column")
    y, x_avg, _ = constraint_coupled_solve(
        layout, problem, lambda k: constant_design_weights(layout),
        power_step_schedule(0.5, 0.6), max_iters=40000,
        reference_dual=np.array([y_star]))
    assert abs(y[0] - y_star) < 1e-4
    assert abs(x_avg[1][0] - x_star[0]) < 1e-4
    assert abs(x_avg[2][0] - x_star[1]) < 1e-4


def test_sparse_sensing_sweep_collapses_when_dense_and_saves_when_sparse():
    """With all-seeing sensors both arms coincide exactly (layouts and
    traces); with narrow sensing the customized arm broadcasts less on
    every seed."""
    dense = build_lasso(SensorScenario(num_sensors=8, num_sources=5,
                                       sensing_radius=1.5,
                                       comm_radius_min=0.45, seed=0))
    assert dense.standard.to_json_dict() == dense.customized.to_json_dict()
    traces = {}
    finals = {}
    for name, layout in (("standard", dense.standard),
                         ("customized", dense.customized)):
        state, trace = pushsum_solve(layout, lambda k: constant_design_weights(layout),
                                     dense.problem, power_step_schedule(0.5, 0.6),
                                     max_iters=2000, check_every=100)
        traces[name] = trace
        finals[name] = state.z
    assert traces["standard"].columns == traces["customized"].columns
    assert np.array_equal(finals["standard"], finals["customized"])

    for seed in range(5):
        sparse = build_lasso(SensorScenario(num_sensors=8, num_sources=5,
                                            sensing_radius=0.3,
                                            comm_radius_min=0.4, seed=seed))
        assert (sparse.customized.communication_cost("broadcast")
                < sparse.standard.communication_cost("broadcast")), f"seed {seed}"
