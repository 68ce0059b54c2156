import warnings

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endnet.graphs import Graph, WeightedGraph
from endnet.layout import Partition, standard_layout
from endnet.optim import (
    AbcMatrices,
    ConstraintCoupledProblem,
    LassoSeparable,
    OptimError,
    QuadraticSeparable,
    abc_bound_constant,
    abc_check,
    abc_range_residual,
    abc_solve,
    abc_step,
    admm_solve,
    augdgm_gamma_bound,
    augdgm_matrices,
    augdgm_solve,
    augdgm_step,
    constant_design_weights,
    constraint_coupled_solve,
    example_design_schedule,
    merit_v,
    power_step_schedule,
    pushsum_dgd_step,
    pushsum_init,
    pushsum_solve,
    stacked_gradient,
    stacked_value,
    tracking_sum_residual,
)
from endnet.optim import _design_adjacency
from endnet.scenarios import build_random_separable
from endnet.trace import DivergenceError, divergence_guard


def ring(n):
    return Graph.undirected_graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def full_interference(P, I):
    return {(p, i) for p in range(1, P + 1) for i in range(1, I + 1)}


def random_quadratic_problem(rng, num_agents, num_components):
    """Full-footprint strongly convex quadratic, scalar components."""
    quads, lins, fps = [], [], []
    for _ in range(num_agents):
        A = rng.standard_normal((num_components, num_components))
        H = A @ A.T + 2.0 * num_components * np.eye(num_components)
        quads.append({(p, q): H[p - 1:p, q - 1:q]
                      for p in range(1, num_components + 1)
                      for q in range(p, num_components + 1)})
        lins.append({p: rng.standard_normal(1) for p in range(1, num_components + 1)})
        fps.append(tuple(range(1, num_components + 1)))
    return QuadraticSeparable([1] * num_components, fps, quads, lins)


def two_agent_shared_scalar(c1=1.0, c2=3.0):
    return QuadraticSeparable(
        [1], [(1,), (1,)],
        [{(1, 1): np.array([[2.0]])}, {(1, 1): np.array([[2.0]])}],
        [{1: np.array([-2.0 * c1])}, {1: np.array([-2.0 * c2])}])


class TestSeparableProblems:
    def test_quadratic_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        prob = random_quadratic_problem(rng, 3, 2)
        for i in (1, 2, 3):
            y = rng.standard_normal(2)
            blocks = {1: y[:1], 2: y[1:]}
            g = prob.smooth_gradient(i, blocks)
            eps = 1e-6
            for p in (1, 2):
                e = np.zeros(2)
                e[p - 1] = eps
                up = {1: (y + e)[:1], 2: (y + e)[1:]}
                dn = {1: (y - e)[:1], 2: (y - e)[1:]}
                num = (prob.value(i, up) - prob.value(i, dn)) / (2 * eps)
                assert g[p][0] == pytest.approx(num, abs=1e-5)

    def test_quadratic_reference_solves_normal_equations(self):
        prob = two_agent_shared_scalar(1.0, 3.0)
        assert prob.solve_reference()[0] == pytest.approx(2.0, abs=1e-12)

    def test_lasso_value_and_subgradient(self):
        prob = LassoSeparable([1], [(1,)], [np.array([[1.0]])], [np.array([2.0])],
                              {(1, 1): 0.5})
        y = {1: np.array([1.0])}
        assert prob.value(1, y) == pytest.approx(0.5 * 1.0 + 0.5)
        sub = prob.subgradient(1, y)
        assert sub[1][0] == pytest.approx(-1.0 + 0.5)

    def test_lasso_reference_soft_threshold(self):
        # min 1/2 (y - 2)^2 + 0.5 |y|  ->  y = 1.5
        prob = LassoSeparable([1], [(1,)], [np.array([[1.0]])], [np.array([2.0])],
                              {(1, 1): 0.5})
        assert prob.solve_reference()[0] == pytest.approx(1.5, abs=1e-8)

    def test_quadratic_with_l1_weights(self):
        # 1/2 y^2 - 2 y + 2 + 0.5 |y| is the Lasso above, and has no closed form
        prob = QuadraticSeparable([1], [(1,)], [{(1, 1): np.array([[1.0]])}],
                                  [{1: np.array([-2.0])}], [2.0], {(1, 1): 0.5})
        assert prob.value(1, {1: np.array([1.0])}) == pytest.approx(1.0)
        assert prob.subgradient(1, {1: np.array([1.0])})[1][0] == pytest.approx(-0.5)
        with pytest.raises(OptimError):
            prob.solve_reference()

    def test_off_footprint_quadratic_rejected(self):
        with pytest.raises(OptimError):
            QuadraticSeparable([1, 1], [(1,)], [{(1, 2): np.eye(1)}], [{}])

    def test_data_width_mismatch_rejected(self):
        with pytest.raises(OptimError):
            LassoSeparable([1, 1], [(1, 2)], [np.ones((1, 1))], [np.ones(1)])


class TestDualReformulation:
    def test_constraint_count_matches_design_edges(self):
        """ADMM counts one message per edge constraint: per component, one
        per proper directed edge of its design graph."""
        lay = standard_layout(ring(4), full_interference(2, 4), Partition([1, 1]))
        prob = random_quadratic_problem(np.random.default_rng(0), 4, 2)
        _, trace = admm_solve(lay, prob, 0.5, max_iters=1)
        proper = sum(
            sum(1 for (u, v) in lay.design[p].graph.edges if u != v)
            for p in (1, 2))
        assert trace.meta["messages_per_iter"] == proper

    def test_consensus_point_feasible(self):
        """The summed edge residuals Σ_j (ŷ_i − ŷ_j) = (deg − Â) ŷ, which
        ADMM's multiplier exchange drives to zero, vanish on consensus."""
        lay = standard_layout(ring(4), full_interference(2, 4), Partition([1, 1]))
        adjacency, _ = _design_adjacency(lay)
        degree = adjacency @ np.ones(lay.stacked_dim)

        def residual(hat):
            return float(np.max(np.abs(degree * hat - adjacency @ hat)))

        assert residual(lay.embed_consensus(np.array([1.0, -2.0]))) == 0.0
        rng = np.random.default_rng(1)
        assert residual(rng.standard_normal(lay.stacked_dim)) > 0.01

    def test_directed_design_rejected(self):
        comm = Graph.directed_graph([1, 2], [(1, 2), (2, 1)])
        lay = standard_layout(comm, {(1, 1), (1, 2)}, Partition([1]), weight_scheme="row")
        # make the design asymmetric by removing one direction
        from endnet.graphs import restrict
        from endnet.layout import EndLayout, weighted
        g = Graph.directed_graph([1, 2], [(1, 2), (1, 1), (2, 2)])
        bad = EndLayout(agents=(1, 2), partition=Partition([1]), comm=comm,
                        interference=frozenset({(1, 1), (1, 2)}),
                        design={1: weighted(g, "row")})
        with pytest.raises(OptimError, match="design graph not undirected"):
            admm_solve(bad, two_agent_shared_scalar(), 0.5)


class TestAdmm:
    def test_two_agent_shared_scalar_mean(self):
        lay = standard_layout(ring(2) if False else Graph.undirected_graph([1, 2], [(1, 2)]),
                              {(1, 1), (1, 2)}, Partition([1]))
        prob = two_agent_shared_scalar(1.0, 3.0)
        hat, trace = admm_solve(lay, prob, 0.5, max_iters=2000, tol=1e-10,
                                reference=prob.solve_reference())
        assert np.allclose(hat, [2.0, 2.0], atol=1e-9)

    def test_alpha_out_of_range_rejected(self):
        lay = standard_layout(Graph.undirected_graph([1, 2], [(1, 2)]),
                              {(1, 1), (1, 2)}, Partition([1]))
        prob = two_agent_shared_scalar()
        for alpha in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(OptimError):
                admm_solve(lay, prob, alpha)

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_rejects_a_budget_without_steps(self, max_iters):
        """Before, no step ran and the start point came back with an empty
        trace and a us_per_step."""
        lay = standard_layout(Graph.undirected_graph([1, 2], [(1, 2)]),
                              {(1, 1), (1, 2)}, Partition([1]))
        prob = two_agent_shared_scalar()
        with pytest.raises(OptimError, match="max_iters >= 1"):
            admm_solve(lay, prob, 0.5, max_iters=max_iters, reference=prob.solve_reference())

    def test_matches_centralized_on_random_instances(self):
        for seed in range(3):
            rng = np.random.default_rng(40 + seed)
            prob = random_quadratic_problem(rng, 5, 2)
            lay = standard_layout(ring(5), full_interference(2, 5), Partition([1, 1]))
            hat, trace = admm_solve(lay, prob, 0.5, max_iters=5000, tol=1e-8,
                                    reference=prob.solve_reference())
            assert trace.last("distance") < 1e-6
            assert len(trace) <= 5000

    def test_distance_eventually_decreasing(self):
        rng = np.random.default_rng(7)
        prob = random_quadratic_problem(rng, 4, 1)
        lay = standard_layout(ring(4), full_interference(1, 4), Partition([1]))
        _, trace = admm_solve(lay, prob, 0.5, max_iters=400, tol=0.0,
                              reference=prob.solve_reference())
        d = trace.columns["distance"]
        tail = d[len(d) // 2:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_concave_problem_blows_up_into_divergence_error(self):
        # f_i = -y^2/4 + c_i y: the local argmins exist (H + degree > 0), but
        # the iterate grows geometrically instead of settling
        lay = standard_layout(Graph.undirected_graph([1, 2], [(1, 2)]),
                              {(1, 1), (1, 2)}, Partition([1]))
        prob = QuadraticSeparable([1], [(1,), (1,)],
                                  [{(1, 1): np.array([[-0.5]])}] * 2,
                                  [{1: np.array([1.0])}, {1: np.array([-2.0])}])
        _, trace = admm_solve(lay, prob, 0.5, max_iters=15, tol=0.0)
        steps = trace.columns["step"]
        assert steps[-1] > 100.0 * steps[2]
        with pytest.raises(DivergenceError, match="ADMM iterate"):
            admm_solve(lay, prob, 0.5, max_iters=5000, tol=0.0)

    def test_lasso_instance_via_inner_solver(self):
        # both agents share one scalar; generic proximal inner loop path
        lay = standard_layout(Graph.undirected_graph([1, 2], [(1, 2)]),
                              {(1, 1), (1, 2)}, Partition([1]))
        prob = LassoSeparable([1], [(1,), (1,)],
                              [np.array([[1.0]]), np.array([[1.0]])],
                              [np.array([2.0]), np.array([4.0])],
                              {(1, 1): 0.25, (2, 1): 0.25})
        ref = prob.solve_reference()
        # centralized: min (y-2)^2/2 + (y-4)^2/2 + 0.5|y| -> y = 3 - 0.25
        assert ref[0] == pytest.approx(2.75, abs=1e-8)
        hat, trace = admm_solve(lay, prob, 0.5, max_iters=3000, tol=1e-8, reference=ref)
        assert trace.last("distance") < 1e-6


def doubly_stochastic_layout(num_agents, num_components):
    return standard_layout(ring(num_agents),
                           full_interference(num_components, num_agents),
                           Partition([1] * num_components))


def dense_blocks(matrices, layout):
    """A, B, C and D of ``matrices`` as dense blocks per component group,
    keyed by the group's lead: the polynomials evaluated on each group's W."""
    blocks = {name: {} for name in "abcd"}
    for g in layout.groups:
        W, eye = g.weights.matrix(), np.eye(g.copies)
        powers = (eye, W, W @ W)
        for name in "abc":
            blocks[name][g.lead] = sum(c * P for c, P in zip(getattr(matrices, name), powers))
        blocks["d"][g.lead] = matrices.d * eye
    return blocks


def psd_sqrt(M):
    vals, vecs = np.linalg.eigh((M + M.T) / 2.0)
    vals = np.where(vals > -1e-10, np.maximum(vals, 0.0), vals)
    if np.min(vals) < 0:
        raise ValueError("matrix square root of an indefinite matrix")
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def dense_abc_check(blocks, layout, tol=1e-8):
    """The five conditions on dense blocks per group, with eigh, SVD and a
    matrix square root: abc_check as it was before it read W's spectrum,
    kept as the reference the spectral checker is held to."""
    failures = []
    for g in layout.groups:
        n, name = g.copies, g.label
        A, B, C, D = (blocks[key][g.lead] for key in "abcd")
        one = np.ones(n)
        if np.max(np.abs(A - B @ D)) > tol:
            failures.append(f"C1: {name}: A != B D")
        if np.max(np.abs(B - B.T)) > tol or np.min(np.linalg.eigvalsh((B + B.T) / 2)) < -tol:
            failures.append(f"C1: {name}: B not symmetric PSD")
        if np.min(np.linalg.eigvalsh((D + D.T) / 2)) <= tol:
            failures.append(f"C1: {name}: D not positive definite")
        if np.max(np.abs(D @ one - one)) > tol or np.max(np.abs(B @ one - one)) > tol:
            failures.append(f"C2: {name}: consensus not fixed by D or B")
        cvals = np.linalg.eigvalsh((C + C.T) / 2)
        if np.max(np.abs(C - C.T)) > tol or cvals[0] < -tol:
            failures.append(f"C3: {name}: C not symmetric PSD")
        else:
            sv = np.linalg.svd(C, compute_uv=False)
            scale = max(sv[0], 1.0)
            rank = int(np.sum(sv > tol * scale))
            null_ok = float(np.max(np.abs(C @ one))) <= tol * scale
            if rank != n - 1 or not null_ok:
                failures.append(f"C3: {name}: null space of C is not the consensus line")
        if np.max(np.abs(B @ C - C @ B)) > tol:
            failures.append(f"C4: {name}: B and C do not commute")
        try:
            rootB = psd_sqrt(B)
            M = np.eye(n) - 0.5 * C - rootB @ D @ rootB
            if np.min(np.linalg.eigvalsh((M + M.T) / 2)) < -tol:
                failures.append(f"C5: {name}: I - C/2 - sqrt(B) D sqrt(B) not PSD")
        except ValueError:
            failures.append(f"C5: {name}: B has no PSD square root")
    return failures


def conditions(failures):
    """The conditions (C1 to C5) a list of failures names."""
    return {msg.split(":")[0] for msg in failures}


def random_doubly_stochastic(rng, n, parts, laziness):
    """A random symmetric doubly stochastic n × n matrix with nonnegative
    entries: I weighted by ``laziness`` plus a random convex combination of
    symmetrized permutation matrices, each of which maps every one of
    ``parts`` contiguous node ranges to itself, so that more than one part
    gives a disconnected graph."""
    bounds = np.linspace(0, n, parts + 1).astype(int)
    W = laziness * np.eye(n)
    for theta in (1.0 - laziness) * rng.dirichlet(np.ones(3)):
        perm = np.concatenate([a + rng.permutation(b - a) for a, b in zip(bounds, bounds[1:])])
        P = np.eye(n)[perm]
        W += theta * (P + P.T) / 2.0
    return W


def layout_on(W, dims):
    """A layout of components of ``dims`` on n = len(W) agents whose
    components all share the weight block W (one group per dimension)."""
    n = len(W)
    comm = Graph.undirected_graph(range(1, n + 1),
                                  [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    lay = standard_layout(comm, full_interference(len(dims), n), Partition(dims))
    shared = WeightedGraph.from_matrix(comm, W)
    return dataclasses.replace(lay, design={p: shared for p in lay.design})


class TestAbcChecker:
    def test_tracking_matrices_pass(self):
        lay = doubly_stochastic_layout(4, 2)
        m = augdgm_matrices(lay)
        assert abc_check(m, lay) == []
        assert dense_abc_check(dense_blocks(m, lay), lay) == []

    def test_zero_c_fails_null_space(self):
        lay = doubly_stochastic_layout(3, 1)
        m = augdgm_matrices(lay)
        blocks = dense_blocks(m, lay)
        blocks["c"] = {1: np.zeros((3, 3))}
        assert any("C3" in msg for msg in dense_abc_check(blocks, lay))
        assert any("C3" in msg for msg in abc_check(dataclasses.replace(m, c=(0.0,)), lay))

    def test_random_asymmetric_fails_commutation(self):
        lay = doubly_stochastic_layout(3, 1)
        rng = np.random.default_rng(2)
        blocks = dense_blocks(augdgm_matrices(lay), lay)
        blocks["b"] = {1: np.abs(rng.standard_normal((3, 3)))}
        msgs = dense_abc_check(blocks, lay)
        assert any("C4" in msg or "C1" in msg for msg in msgs)

    def test_gamma_bound_is_inverse_lipschitz_for_identity_d(self):
        lay = doubly_stochastic_layout(4, 1)
        prob = random_quadratic_problem(np.random.default_rng(3), 4, 1)
        m = augdgm_matrices(lay)
        assert m.gamma_bound(prob) == pytest.approx(1.0 / prob.smooth_lipschitz)

    @given(st.integers(2, 7), st.integers(1, 2), st.floats(0.0, 0.9), st.integers(0, 2**16))
    @example(2, 1, 0.1, 0)  # [[ε, 1-ε], [1-ε, ε]]: eigenvalue 2ε - 1 < -1/3
    @example(6, 2, 0.5, 1)  # two parts: eigenvalue 1 twice
    @settings(max_examples=80, deadline=None)
    def test_spectral_checker_flags_what_the_dense_reference_flags(self, n, parts, laziness,
                                                                   seed):
        """On random symmetric doubly stochastic W, abc_check on W's
        spectrum flags the conditions the dense reference flags on W², (I −
        W)² and I: C5 exactly when W has an eigenvalue below −1/3, and C3
        exactly when the eigenvalue 1 is repeated, as on a disconnected
        graph."""
        W = random_doubly_stochastic(np.random.default_rng(seed), n, min(parts, n), laziness)
        lay = layout_on(W, (1, 2))
        m = augdgm_matrices(lay)
        flagged = conditions(abc_check(m, lay))
        assert flagged == conditions(dense_abc_check(dense_blocks(m, lay), lay))
        mu = np.linalg.eigvalsh(W)
        margin = 1e-6
        if mu[0] < -1.0 / 3.0 - margin or mu[0] > -1.0 / 3.0 + margin:
            assert ("C5" in flagged) == (mu[0] < -1.0 / 3.0)
        if abs(mu[-2] - 1.0) < 1e-12 or mu[-2] < 1.0 - 1e-3:
            assert ("C3" in flagged) == (abs(mu[-2] - 1.0) < 1e-12)
        assert flagged <= {"C3", "C5"}

    def test_blocks_are_polynomials_of_degree_at_most_two(self):
        """A round mixes through W twice, so a cubic block is refused up
        front instead of losing its last term."""
        with pytest.raises(OptimError, match="degree at most two"):
            AbcMatrices(a=(0.0, 0.0, 0.0, 1.0), b=(0.0, 0.0, 1.0), c=(1.0, -2.0, 1.0))
        with pytest.raises(OptimError, match="degree at most two"):
            AbcMatrices(a=(1.0,), b=(), c=(1.0, -1.0))

    @given(st.integers(2, 7), st.floats(0.0, 0.9), st.integers(0, 2**16))
    @example(4, 1.0, 0)  # W = 11'/n: 0 is an eigenvalue n - 1 times, so B has a null space
    @settings(max_examples=40, deadline=None)
    def test_spectral_bound_and_range_residual_match_the_dense_forms(self, n, averaging,
                                                                      seed):
        """abc_bound_constant and abc_range_residual read from W's spectrum
        equal the dense forms they replaced (on W², (I − W)² and I), on
        connected random W blended with the averaging matrix 11'/n."""
        rng = np.random.default_rng(seed)
        W = (averaging * np.full((n, n), 1.0 / n)
             + (1.0 - averaging) * random_doubly_stochastic(rng, n, 1, 0.2))
        mu = np.linalg.eigvalsh(W)
        if mu[-2] > 1.0 - 1e-3:  # disconnected, or nearly: C's null space is not a line
            return
        lay = layout_on(W, (1, 1))
        m = augdgm_matrices(lay)
        blocks = dense_blocks(m, lay)
        prob = random_quadratic_problem(rng, n, 2)
        ref = prob.solve_reference()
        y0, z = rng.standard_normal(lay.stacked_dim), rng.standard_normal(lay.stacked_dim)
        gamma = 0.5 * m.gamma_bound(prob)
        assert abc_bound_constant(lay, m, prob, gamma, y0, ref) == pytest.approx(
            dense_bound_constant(blocks, lay, prob, gamma, y0, ref), rel=1e-9)
        assert abc_range_residual(lay, m, z) == pytest.approx(
            dense_range_residual(blocks, lay, z), rel=1e-9, abs=1e-12)


def dense_bound_constant(blocks, layout, problem, gamma, y0, reference):
    """abc_bound_constant on dense blocks per group, as it was computed
    before it read W's spectrum: D-weighted distance, the spectral norm of
    B - 11'/n and the second eigenvalue of C."""
    hat_star = layout.embed_consensus(reference)
    z_arg = -2.0 * stacked_gradient(layout, problem, hat_star)
    diff = y0 - hat_star
    d_norm2 = sum(float(np.sum(g.blocks(diff) * np.matmul(blocks["d"][g.lead], g.blocks(diff))))
                  for g in layout.groups)
    multi = [g for g in layout.groups if g.copies >= 2]
    b_dev = max(float(np.linalg.norm(blocks["b"][g.lead] - np.full((g.copies,) * 2,
                                                                   1.0 / g.copies), 2))
                for g in multi)
    lam_lower = min(float(np.linalg.eigvalsh(blocks["c"][g.lead])[1]) for g in multi)
    return d_norm2 / gamma + gamma * (b_dev / lam_lower) * float(z_arg @ z_arg)


def dense_range_residual(blocks, layout, z):
    """abc_range_residual on dense blocks: z's part on B's null eigenvectors."""
    total = 0.0
    for g in layout.groups:
        vals, vecs = np.linalg.eigh(blocks["b"][g.lead])
        null = vecs[:, np.abs(vals) <= 1e-12]
        total += float(np.sum(np.matmul(null.T, g.blocks(z)) ** 2))
    return float(np.sqrt(total))


class TestAbcSolve:
    def setup_method(self):
        self.rng = np.random.default_rng(4)
        self.prob = random_quadratic_problem(self.rng, 4, 2)
        self.lay = doubly_stochastic_layout(4, 2)
        self.matrices = augdgm_matrices(self.lay)
        self.gamma = 0.9 / self.prob.smooth_lipschitz
        self.ref = self.prob.solve_reference()

    def test_matches_tracking_recursion_exactly(self):
        y_abc = np.zeros(self.lay.stacked_dim)
        z = np.zeros(self.lay.stacked_dim)
        y_gt = np.zeros(self.lay.stacked_dim)
        v = self.lay.apply_weight(stacked_gradient(self.lay, self.prob, y_gt))
        for _ in range(500):
            y_abc, z = abc_step(self.lay, self.matrices, self.prob, y_abc, z, self.gamma)
            y_gt, v = augdgm_step(self.lay, self.prob, y_gt, v, self.gamma)
        assert np.max(np.abs(y_abc - y_gt)) <= 1e-10

    def test_ergodic_merit_bound(self):
        _, trace = abc_solve(self.lay, self.matrices, self.prob, self.gamma,
                             max_iters=2000, reference=self.ref, merit_every=50)
        h = abc_bound_constant(self.lay, self.matrices, self.prob, self.gamma,
                               np.zeros(self.lay.stacked_dim), self.ref)
        for k, m in zip(trace.columns["k"], trace.columns["merit_avg"]):
            assert k * m <= h / 2.0 + 1e-6

    def test_merit_decays(self):
        _, trace = abc_solve(self.lay, self.matrices, self.prob, self.gamma,
                             max_iters=3000, reference=self.ref, merit_every=100)
        # pointwise merit converges linearly down to round-off; the ergodic
        # average only decays like 1/k
        assert trace.columns["merit"][-1] < 1e-12
        avg = trace.columns["merit_avg"]
        assert avg[-1] < 0.1 * avg[0]

    def test_start_at_optimum_stays(self):
        hat_star = self.lay.embed_consensus(self.ref)
        y, trace = abc_solve(self.lay, self.matrices, self.prob, self.gamma,
                             max_iters=100, y0=hat_star, reference=self.ref)
        assert trace.columns["merit"][-1] < 1e-8

    def test_range_invariant(self):
        y = np.zeros(self.lay.stacked_dim)
        z = np.zeros(self.lay.stacked_dim)
        for _ in range(200):
            y, z = abc_step(self.lay, self.matrices, self.prob, y, z, self.gamma)
            assert abc_range_residual(self.lay, self.matrices, z) <= 1e-9

    def test_rejects_weights_that_are_not_symmetric_doubly_stochastic(self):
        """Column weights on a directed 5-ring (the CLI's random_separable
        5 x 6 seed-1 problem): before, abc ran its 200 steps to a consensus
        error of 6.0 without a word, while augdgm raised."""
        problem, reference = build_random_separable(5, 6, 0.5, 1)
        comm = Graph.directed_graph(range(1, 6), [(i, i % 5 + 1) for i in range(1, 6)])
        interference = frozenset((p, i) for i, fp in enumerate(problem.footprints, start=1)
                                 for p in fp)
        lay = standard_layout(comm, interference, Partition(problem.component_dims),
                              weight_scheme="column")
        gamma = 0.5 * augdgm_gamma_bound(problem)
        with pytest.raises(OptimError, match="symmetric doubly stochastic"):
            abc_solve(lay, augdgm_matrices(lay), problem, gamma, max_iters=200,
                      reference=reference, merit_every=10)
        with pytest.raises(OptimError, match="symmetric doubly stochastic"):
            augdgm_solve(lay, problem, gamma, max_iters=200)
        assert any(msg.startswith("C1:") and "symmetric doubly stochastic" in msg
                   for msg in abc_check(augdgm_matrices(lay), lay))

    def test_out_of_range_gamma_warns(self):
        with pytest.warns(UserWarning):
            abc_solve(self.lay, self.matrices, self.prob,
                      1.5 / self.prob.smooth_lipschitz, max_iters=5)

    def test_divergence_guard(self):
        with pytest.warns(UserWarning), pytest.raises(DivergenceError):
            abc_solve(self.lay, self.matrices, self.prob,
                      50.0 / self.prob.smooth_lipschitz, max_iters=5000)


class TestGradientTracking:
    def test_single_agent_is_gradient_descent(self):
        comm = Graph.undirected_graph([1], [])
        lay = standard_layout(comm, {(1, 1)}, Partition([1]))
        prob = QuadraticSeparable([1], [(1,)], [{(1, 1): np.array([[2.0]])}],
                                  [{1: np.array([-4.0])}])
        gamma = 0.4
        y = np.zeros(1)
        v = stacked_gradient(lay, prob, y)
        x = 0.0
        for _ in range(50):
            y, v = augdgm_step(lay, prob, y, v, gamma)
            x = x - gamma * (2 * x - 4.0)
            assert y[0] == pytest.approx(x, abs=1e-14)
            assert v[0] == pytest.approx(2 * y[0] - 4.0, abs=1e-12)

    def test_tracking_sum_identity(self):
        rng = np.random.default_rng(5)
        prob = random_quadratic_problem(rng, 5, 2)
        lay = doubly_stochastic_layout(5, 2)
        y = np.zeros(lay.stacked_dim)
        v = lay.apply_weight(stacked_gradient(lay, prob, y))
        for _ in range(100):
            y, v = augdgm_step(lay, prob, y, v, 0.1 / prob.smooth_lipschitz)
            assert tracking_sum_residual(lay, prob, y, v) <= 1e-10

    def test_rejects_nonsymmetric_weights(self):
        comm = Graph.directed_graph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        lay = standard_layout(comm, full_interference(1, 3), Partition([1]),
                              weight_scheme="row")
        prob = random_quadratic_problem(np.random.default_rng(6), 3, 1)
        with pytest.raises(OptimError):
            augdgm_solve(lay, prob, 0.01)

    def test_converges_on_random_quadratics(self):
        prob = random_quadratic_problem(np.random.default_rng(8), 4, 2)
        lay = doubly_stochastic_layout(4, 2)
        ref = prob.solve_reference()
        y, trace = augdgm_solve(lay, prob, 0.9 / prob.smooth_lipschitz,
                                max_iters=3000, reference=ref, merit_every=500)
        assert np.allclose(lay.component_means(y), ref, atol=1e-8)
        assert trace.columns["merit"][-1] < 1e-10

    @pytest.mark.parametrize("factor", [1.5, 3.0])
    def test_step_outside_the_certified_interval_warns(self, factor):
        """augdgm warns as abc does on a step past 1 / the smoothness
        constant (before, 1.5x ran and 3x diverged without a word), with or
        without a divergence after, and not on a certified step."""
        prob = random_quadratic_problem(np.random.default_rng(8), 4, 2)
        lay = doubly_stochastic_layout(4, 2)
        bound = augdgm_gamma_bound(prob)
        with pytest.warns(UserWarning, match=r"outside the certified interval \(0, "):
            try:
                augdgm_solve(lay, prob, factor * bound, max_iters=300)
            except DivergenceError:
                pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            augdgm_solve(lay, prob, 0.9 * bound, max_iters=5)


class TestPushSum:
    def test_schedule_validation(self):
        with pytest.raises(OptimError):
            power_step_schedule(a=0.5)
        with pytest.raises(OptimError):
            power_step_schedule(c=-1.0)
        assert power_step_schedule(2.0, 1.0)(3) == pytest.approx(0.5)

    def test_single_agent_plain_subgradient(self):
        comm = Graph.directed_graph([1], [(1, 1)])
        lay = standard_layout(comm, {(1, 1)}, Partition([1]), weight_scheme="column")
        prob = QuadraticSeparable([1], [(1,)], [{(1, 1): np.array([[2.0]])}],
                                  [{1: np.array([-4.0])}])
        gamma = power_step_schedule(0.5, 0.51)
        state = pushsum_init(lay)
        x = 0.0
        for k in range(100):
            state, _ = pushsum_dgd_step(lay, constant_design_weights(lay), prob,
                                        state, gamma(k))
            x = x - gamma(k) * (2 * x - 4.0)
            assert state.q[1][0] == pytest.approx(1.0, abs=1e-15)
            assert state.z[0] == pytest.approx(x, abs=1e-12)

    def test_mass_and_averaged_process_on_time_varying_designs(self):
        n = 4
        comm = Graph.directed_graph(range(1, n + 1),
                                    [(i, i % n + 1) for i in range(1, n + 1)])
        lay = standard_layout(comm.with_self_loops(), full_interference(2, n),
                              Partition([1, 1]), weight_scheme="column")
        # alternate the two halves of the cycle; union over Q=2 is strong
        cyc = [(i, i % n + 1) for i in range(1, n + 1)]
        half_a = Graph.directed_graph(range(1, n + 1), cyc[:2])
        half_b = Graph.directed_graph(range(1, n + 1), cyc[2:])
        schedule = example_design_schedule(lay, [half_a, half_b])
        prob = random_quadratic_problem(np.random.default_rng(9), n, 2)
        ref = prob.solve_reference()
        state, trace = pushsum_solve(lay, schedule, prob, power_step_schedule(0.2, 0.6),
                                     max_iters=20000, reference=ref, check_every=1000)
        assert trace.meta["max_mass_error"] <= 1e-10
        assert trace.meta["max_averaged_process_error"] <= 1e-10
        assert trace.columns["consensus_err"][-1] < 1e-2
        assert abs(trace.columns["f_gap"][-1]) < 1e-2

    @pytest.mark.parametrize("max_iters, check_every", [(0, 100), (10, 0)])
    def test_solve_refuses_what_it_cannot_run(self, max_iters, check_every):
        comm = Graph.directed_graph([1, 2], [(1, 2), (2, 1)])
        lay = standard_layout(comm, {(1, 1), (1, 2)}, Partition([1]),
                              weight_scheme="column")
        weights = lay.weight_operator
        with pytest.raises(OptimError, match="check_every >= 1"):
            pushsum_solve(lay, lambda k: weights, two_agent_shared_scalar(),
                          power_step_schedule(0.2, 0.6), max_iters=max_iters,
                          check_every=check_every)

    def test_nonpositive_mass_guarded(self):
        comm = Graph.directed_graph([1, 2], [(1, 2), (2, 1)])
        lay = standard_layout(comm, {(1, 1), (1, 2)}, Partition([1]),
                              weight_scheme="column")
        prob = two_agent_shared_scalar()
        state = pushsum_init(lay)
        bad = {1: np.array([[0.0, 0.0], [1.0, 1.0]])}
        with pytest.raises(OptimError):
            pushsum_dgd_step(lay, lay.block_operator(bad), prob, state, 0.1)

    def test_nonpositive_mass_names_its_component(self):
        comm = Graph.directed_graph([1, 2], [(1, 2), (2, 1)])
        lay = standard_layout(comm, full_interference(2, 2), Partition([2, 1]),
                              weight_scheme="column")
        prob = QuadraticSeparable(
            [2, 1], [(1, 2)] * 2,
            [{(1, 1): np.eye(2), (2, 2): np.eye(1)}] * 2,
            [{1: np.zeros(2), 2: np.zeros(1)}] * 2)
        good, bad = np.full((2, 2), 0.5), np.array([[0.0, 0.0], [1.0, 1.0]])
        for blocks, p in (({1: good, 2: bad}, 2), ({1: bad, 2: bad}, 1)):
            with pytest.raises(OptimError, match=f"component {p}:"):
                pushsum_dgd_step(lay, lay.block_operator(blocks), prob, pushsum_init(lay), 0.1)

    def test_matches_straightline_pushsum_constant_design(self):
        # independent transcription of the classic scalar recursion at N=3
        n = 3
        comm = Graph.directed_graph([1, 2, 3], [(1, 2), (2, 3), (3, 1)]).with_self_loops()
        lay = standard_layout(comm, full_interference(1, n), Partition([1]),
                              weight_scheme="column")
        W = lay.design[1].matrix()
        prob = QuadraticSeparable(
            [1], [(1,)] * 3,
            [{(1, 1): np.array([[2.0]])} for _ in range(3)],
            [{1: np.array([v])} for v in (-2.0, 0.0, 2.0)])
        gamma = power_step_schedule(0.3, 0.7)
        state = pushsum_init(lay)
        z = np.zeros(n)
        q = np.ones(n)
        for k in range(200):
            state, _ = pushsum_dgd_step(lay, lay.block_operator({1: W}), prob, state, gamma(k))
            q = W @ q
            w = W @ z
            y = w / q
            g = 2.0 * y + np.array([-2.0, 0.0, 2.0])
            z = w - gamma(k) * g
            assert np.allclose(state.z, z, atol=1e-12)
            assert np.allclose(state.q[1], q, atol=1e-14)


class TestConstraintCoupled:
    def make_problem(self, c1=0.3, c2=0.9):
        # min (x1-c1)^2 + (x2-c2)^2  s.t.  x1 + x2 = 1, boxes [-5, 5]
        centers = np.array([c1, c2])

        def oracle(r):
            return np.minimum(np.maximum(centers - r / 2.0, -5.0), 5.0)

        return ConstraintCoupledProblem(
            x_dims=(1, 1), component_dims=(1,), footprints=((1,), (1,)),
            con_blocks={(1, 1): np.array([[1.0]]), (1, 2): np.array([[1.0]])},
            con_offsets={(1, 1): np.array([0.5]), (1, 2): np.array([0.5])},
            argmin_oracle=oracle)

    def test_two_agent_qp_recovers_multiplier_and_primal(self):
        c1, c2 = 0.3, 0.9
        prob = self.make_problem(c1, c2)
        y_star = c1 + c2 - 1.0
        x_star = np.array([c1 + (1 - c1 - c2) / 2, c2 + (1 - c1 - c2) / 2])
        comm = Graph.directed_graph([1, 2], [(1, 2), (2, 1)]).with_self_loops()
        lay = standard_layout(comm, {(1, 1), (1, 2)}, Partition([1]),
                              weight_scheme="column")
        y, x_avg, trace = constraint_coupled_solve(
            lay, prob, lambda k: constant_design_weights(lay),
            power_step_schedule(0.5, 0.6), max_iters=40000,
            reference_dual=np.array([y_star]))
        assert abs(y[0] - y_star) < 1e-4
        assert abs(x_avg[1][0] - x_star[0]) < 1e-4
        assert abs(x_avg[2][0] - x_star[1]) < 1e-4

    def test_zero_constraints_dual_constant(self):
        def oracle(r):
            return np.zeros(1)

        prob = ConstraintCoupledProblem(
            x_dims=(1,), component_dims=(1,), footprints=((1,),),
            con_blocks={}, con_offsets={}, argmin_oracle=oracle)
        comm = Graph.directed_graph([1], [(1, 1)])
        lay = standard_layout(comm, {(1, 1)}, Partition([1]), weight_scheme="column")
        y, _, _ = constraint_coupled_solve(
            lay, prob, lambda k: constant_design_weights(lay),
            power_step_schedule(), max_iters=200)
        assert y[0] == pytest.approx(0.0, abs=1e-12)

    def test_blown_up_dual_is_divergence_error(self):
        comm = Graph.directed_graph([1, 2], [(1, 2), (2, 1)]).with_self_loops()
        lay = standard_layout(comm, {(1, 1), (1, 2)}, Partition([1]),
                              weight_scheme="column")
        with pytest.raises(DivergenceError):
            constraint_coupled_solve(lay, self.make_problem(),
                                     lambda k: constant_design_weights(lay),
                                     power_step_schedule(1e9, 0.6), max_iters=5)

    @pytest.mark.parametrize("fields, message", [
        ({"con_blocks": {(2, 1): np.eye(1)}}, r"constraint block \(2, 1\) off"),
        ({"con_offsets": {(2, 1): np.ones(1)}}, r"constraint offset \(2, 1\) off"),
        ({"con_blocks": {(1, 2): np.eye(1)}}, r"constraint block \(1, 2\) off"),
        ({"x_dims": (1,), "component_dims": (2, 1), "footprints": ((1,),),
          "con_blocks": {(1, 1): np.eye(3)}},
         r"constraint block \(1, 1\) has shape \(3, 3\), expected \(2, 1\)"),
        ({"con_offsets": {(1, 1): np.ones(2)}},
         r"constraint offset \(1, 1\) has shape \(2,\), expected \(1,\)"),
        ({"x_dims": (1, 1)}, "2 action dims for 1 footprints"),
        ({"footprints": ((3,),)}, r"agent 1: component 3 outside 1\.\.2"),
    ], ids=["block-off-footprint", "offset-off-footprint", "block-agent-out-of-range",
            "block-shape", "offset-shape", "footprint-count", "component-out-of-range"])
    def test_off_pattern_block_rejected(self, fields, message):
        """Each malformed entry is an OptimError that names it."""
        base = dict(x_dims=(1,), component_dims=(1, 1), footprints=((1,),),
                    con_blocks={}, con_offsets={}, argmin_oracle=lambda r: np.zeros(1))
        with pytest.raises(OptimError, match=message):
            ConstraintCoupledProblem(**{**base, **fields})


class TestMeritV:
    def test_zero_at_reference_consensus(self):
        prob = random_quadratic_problem(np.random.default_rng(10), 4, 2)
        lay = doubly_stochastic_layout(4, 2)
        ref = prob.solve_reference()
        assert merit_v(lay, prob, lay.embed_consensus(ref), ref) == pytest.approx(0.0, abs=1e-10)

    def test_scaled_disagreement_term(self):
        prob = random_quadratic_problem(np.random.default_rng(11), 4, 1)
        lay = doubly_stochastic_layout(4, 1)
        ref = prob.solve_reference()
        hat = lay.embed_consensus(ref)
        hat[0] += 4.0  # perturb one copy
        grad_star = stacked_gradient(lay, prob, lay.embed_consensus(ref), sub=True)
        perturbed = hat - lay.consensus_projection(hat)
        expected = np.linalg.norm(perturbed / 4.0) * np.linalg.norm(grad_star)
        v = merit_v(lay, prob, hat, ref)
        gap = abs(prob.total_value(lay.component_means(hat)) - prob.total_value(ref))
        assert v == pytest.approx(max(expected, gap), rel=1e-9)

    def test_reference_constants_once_per_reference_bit_for_bit(self, monkeypatch):
        """merit_v equals its formula evaluated from scratch, bit for bit,
        and costs the reference once per distinct value: a copy or a list
        of the same values reads what the first call kept."""
        prob = random_quadratic_problem(np.random.default_rng(12), 4, 2)
        lay = doubly_stochastic_layout(4, 2)
        ref = prob.solve_reference()
        rng = np.random.default_rng(13)
        cases = []
        for reference in (ref, ref + 0.5, ref.copy(), list(ref + 0.5)):
            y = np.asarray(reference, dtype=float)
            for _ in range(3):
                hat = lay.embed_consensus(ref) + rng.standard_normal(lay.stacked_dim)
                grad_star = stacked_gradient(lay, prob, lay.embed_consensus(y), sub=True)
                scaled = lay.disagreement(hat) / lay.embed_consensus(lay.copy_counts)
                cases.append((hat, reference, max(
                    float(np.linalg.norm(scaled)) * float(np.linalg.norm(grad_star)),
                    abs(prob.total_value(lay.component_means(hat)) - prob.total_value(y)))))
        evaluated = []
        total_value = prob.total_value
        monkeypatch.setattr(prob, "total_value",
                            lambda y: evaluated.append(1) or total_value(y))
        for hat, reference, expected in cases:
            assert merit_v(lay, prob, hat, reference) == expected
        # one cost at the consensus projection per call, one per distinct reference
        assert len(evaluated) == len(cases) + 2


def test_divergence_guard_trips_on_norm_and_nonfinite():
    guard = divergence_guard(np.array([3.0, 4.0]), "iterate")  # limit 6e6
    guard(np.array([6e6, 0.0]), 1)
    for bad in ([6.1e6, 0.0], [np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(DivergenceError, match="iteration 7"):
            guard(np.array(bad), 7)
