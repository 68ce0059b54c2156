"""Compiled stacked kernels against the loops they replaced.

Each reference below transcribes the per-component or per-agent loop that
a compiled operator replaced. Every test draws seeded random inputs and asks
the two forms to agree to 1e-12, relative to the larger of one and the
reference's scale: the compiled forms sum in another order, so they match
to roundoff, not bit for bit. Tests whose docstrings say so ask for more
(bit for bit, where the arithmetic is unchanged) or for less (ADMM on a
Lasso, whose inner loops stop at a tolerance).
"""

import dataclasses
import gc
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endnet import cli, games
from endnet import optim as optim_module
from endnet import layout as layout_module
from endnet.design import DesignCriterion, design_layout
from endnet.games import (
    AggregativeGameSpec,
    BallSet,
    BoxSet,
    GameError,
    GameSpec,
    GneState,
    HalfspaceSet,
    _component_weights,
    build_gne_operators,
    certify_theorem1,
    consensus_dual,
    extended_pseudo_gradient,
    gne_solve,
    gne_step,
    initial_gne_state,
    kkt_residual,
    ne_step,
    preconditioner_positive,
    search_ne_step_size,
    solve_vgne_centralized,
)
from endnet.graphs import (
    Graph,
    WeightedGraph,
    column_stochastic_weights,
    intersect,
    laplacian,
    restrict,
)
from endnet.layout import (
    BlockOperator,
    ConnectivityMode,
    CsrOperator,
    EndLayout,
    LayoutError,
    Partition,
    _csr_matvec,
    _csr_matvec_fallback,
    _kernel_agrees,
    reweight,
    standard_layout,
    weighted,
)
from endnet.optim import (
    AbcMatrices,
    ConstraintCoupledProblem,
    LassoSeparable,
    OptimError,
    QuadraticSeparable,
    SeparableProblem,
    StackedQuadratic,
    _PushSumRounds,
    _TrackingRounds,
    _design_adjacency,
    abc_check,
    abc_solve,
    abc_step,
    admm_solve,
    augdgm_matrices,
    augdgm_solve,
    augdgm_step,
    constraint_coupled_solve,
    example_design_schedule,
    power_step_schedule,
    pushsum_dgd_step,
    pushsum_init,
    pushsum_solve,
    stacked_form,
    stacked_gradient,
    stacked_value,
)
from endnet.trace import BLOCK_ROWS, DivergenceError, divergence_guard
from endnet.scenarios import (
    SensorScenario,
    build_lasso,
    build_regression,
    build_random_quadratic_game,
    build_random_separable,
    build_unicast,
    reference_scheme_unicast,
    sample_unicast,
)

RTOL = 1e-12


def ring(n):
    return Graph.undirected_graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def random_interference(rng, num_components, num_agents, density=0.4):
    pairs = {(p, i) for p in range(1, num_components + 1) for i in range(1, num_agents + 1)
             if rng.uniform() < density}
    for p in range(1, num_components + 1):  # every component needed by someone
        pairs.add((p, int(rng.integers(1, num_agents + 1))))
    return frozenset(pairs)


def designed_layout(rng, dims, num_agents=7):
    """Connected undirected exchange graphs of varying sizes on a ring."""
    interference = random_interference(rng, len(dims), num_agents)
    crit = DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges")
    return design_layout(ring(num_agents), interference, Partition(dims), crit,
                         weight_scheme="metropolis")


def layouts():
    """Standard layouts of scalar, equal and mixed component dimensions, and
    designed layouts whose components differ in copies and blocks."""
    rng = np.random.default_rng(11)
    full = frozenset((p, i) for p in range(1, 4) for i in range(1, 6))
    return [
        standard_layout(ring(5), full, Partition((1, 1, 1))),
        standard_layout(ring(5), full, Partition((2, 2, 2))),
        standard_layout(ring(5), full, Partition((2, 1, 3))),
        designed_layout(rng, (1, 2, 1, 3, 1, 2)),
        designed_layout(rng, (1,) * 8),
    ]


# -- the loops the compiled forms replaced ---------------------------------


def loop_apply_blocks(layout, blocks, hat):
    out = np.empty_like(hat)
    for p in layout.partition.components:
        s = layout.component_slice(p)
        block = hat[s].reshape(layout.copies(p), layout.partition.dim(p))
        out[s] = (blocks[p] @ block).ravel()
    return out


def loop_consensus_projection(layout, hat):
    out = np.empty_like(hat)
    for p in layout.partition.components:
        s = layout.component_slice(p)
        block = hat[s].reshape(layout.copies(p), layout.partition.dim(p))
        out[s] = np.broadcast_to(block.mean(axis=0), block.shape).ravel()
    return out


def loop_component_means(layout, hat):
    out = np.empty(layout.partition.total_dim)
    for p in layout.partition.components:
        s = layout.component_slice(p)
        block = hat[s].reshape(layout.copies(p), layout.partition.dim(p))
        out[layout.partition.component_slice(p)] = block.mean(axis=0)
    return out


def loop_embed_consensus(layout, y):
    out = np.empty(layout.stacked_dim)
    for p in layout.partition.components:
        out[layout.component_slice(p)] = np.tile(y[layout.partition.component_slice(p)],
                                                 layout.copies(p))
    return out


def loop_xi_norm(cert, layout, v):
    total = 0.0
    for p in layout.partition.components:
        block = v[layout.component_slice(p)].reshape(layout.copies(p), -1)
        total += float(np.sum(block * (cert.q_matrices[p] @ block)))
    return float(np.sqrt(total))


def loop_ne_step(layout, game, agent_gradient, hat, alpha):
    """The per-agent step: agent i's partial gradient is
    ``agent_gradient(i, blocks)`` at its copies of the actions it needs
    (``blocks`` keyed by agent), and each own block is projected on its own."""
    mixed = loop_apply_blocks(layout, {p: layout.design[p].matrix()
                                       for p in layout.partition.components}, hat)
    out = mixed.copy()
    for i in range(1, game.num_agents + 1):
        blocks = {p: mixed[layout.block_slice(p, i)] for p in game.footprint(i)}
        own = layout.block_slice(i, i)
        out[own] = game.domain(i).project(mixed[own] - alpha * agent_gradient(i, blocks))
    return out


def pair_stacked_gradient(action_dims, interference, agent_gradient):
    """The stacked ``GameSpec`` oracle made of a per-agent one: agent i
    reads pair (p, i)'s entries of ``v`` as its value of x_p."""
    where, needs, at = {}, {}, 0
    for p, i in sorted(interference):
        where[p, i] = slice(at, at + action_dims[p - 1])
        needs.setdefault(i, []).append(p)
        at += action_dims[p - 1]
    return lambda v: np.concatenate([agent_gradient(i, {p: v[where[p, i]] for p in needs[i]})
                                     for i in range(1, len(action_dims) + 1)])


def affine_agent_gradient(game):
    """The per-agent loop over the rows of an affine game's G x + g, with g
    and G read off its pseudo-gradient at 0 and at the unit vectors."""
    n = game.total_action_dim
    g = game.pseudo_gradient(np.zeros(n))
    G = np.column_stack([game.pseudo_gradient(e) - g for e in np.eye(n)])

    def gradient(i, blocks):
        rows = game.action_slice(i)
        val = g[rows].copy()
        for p, x in blocks.items():
            val += G[rows, game.action_slice(p)] @ x
        return val

    return gradient


def loop_gne_step(ops, state, alpha, beta):
    """The primal-dual round written out operator by operator."""
    sigma_hat = state.s_hat + ops.B_hat @ state.x + ops.b_hat
    Ls = ops.L_sigma @ sigma_hat
    drive = (alpha * extended_pseudo_gradient(ops, state.x, sigma_hat)
             + ops.B_hat.T @ Ls + ops.A_hat.T @ state.lam_hat)
    x_new = project_each(ops.game, state.x - beta * drive)
    z_new = state.z_hat + beta * (ops.L_lambda @ state.lam_hat)
    lam_new = state.lam_hat - beta * (ops.L_lambda @ (2 * z_new - state.z_hat)
                                      - ops.A_hat @ (2 * x_new - state.x) + ops.a_hat)
    if ops.game.sense == "inequality":
        lam_new = np.maximum(lam_new, 0.0)
    return GneState(x=x_new, s_hat=state.s_hat - beta * Ls, z_hat=z_new, lam_hat=lam_new)


def project_each(game, v):
    out = np.empty_like(v)
    for i in range(1, game.num_agents + 1):
        sl = game.action_slice(i)
        out[sl] = game.domain(i).project(v[sl])
    return out


def sigma_footprint(game, i):
    return tuple(sorted(q for (q, j) in game.interference_sigma if j == i))


def loop_agent_gradients(game, grad_x, grad_sigma, x, estimate):
    """Each agent's partial gradients at its estimates ``estimate(q, i)`` of
    the aggregation blocks it needs, the aggregation part chained through
    B_{q,i}: the per-agent loop the pair-indexed gradient replaced."""
    out = np.empty(game.total_action_dim)
    for i in range(1, game.num_agents + 1):
        xi = x[game.action_slice(i)]
        local = {q: estimate(q, i) for q in sigma_footprint(game, i)}
        g = grad_x(i, xi, local).astype(float).copy()
        # no N_q scaling here: the chain rule runs through the agent's own copy
        for q, gq in grad_sigma(i, xi, local).items():
            B = game.agg_blocks.get((q, i))
            if B is not None:
                g += B.T @ gq
        out[game.action_slice(i)] = g
    return out


def loop_aggregation(game, x):
    out = {}
    for q, dim in game.sigma_dims.items():
        acc = np.zeros(dim)
        for (qq, i), B in game.agg_blocks.items():
            if qq == q:
                acc += B @ x[game.action_slice(i)]
        for (qq, i), b in game.agg_offsets.items():
            if qq == q:
                acc += b
        out[q] = acc
    return out


def loop_pseudo_gradient(game, grad_x, grad_sigma, x):
    sigma = loop_aggregation(game, x)
    return loop_agent_gradients(game, grad_x, grad_sigma, x, lambda q, i: sigma[q])


def loop_extended_pseudo_gradient(ops, grad_x, grad_sigma, x, sigma_hat):
    return loop_agent_gradients(ops.game, grad_x, grad_sigma, x,
                                lambda q, i: sigma_hat[ops.sigma_layout.block_slice(q, i)])


def pair_loop_gradient(game, grad_x, grad_sigma):
    """The per-agent loop behind the pair-indexed contract: agent i reads
    pair (q, i)'s entries of ``sigma``."""
    where, at = {}, 0
    for q, i in sorted(game.interference_sigma):
        where[q, i] = slice(at, at + game.sigma_dims[q])
        at += game.sigma_dims[q]
    return lambda x, sigma: loop_agent_gradients(game, grad_x, grad_sigma, x,
                                                 lambda q, i: sigma[where[q, i]])


def loop_constraint_matrix(game):
    mdims = dict(game.lambda_dims)
    rows = sum(mdims.values())
    A = np.zeros((rows, game.total_action_dim))
    a = np.zeros(rows)
    ofs = 0
    for m in sorted(mdims):
        for (mm, i), blk in game.con_blocks.items():
            if mm == m:
                A[ofs:ofs + mdims[m], game.action_slice(i)] = blk
        for (mm, i), vec in game.con_offsets.items():
            if mm == m:
                a[ofs:ofs + mdims[m]] += vec
        ofs += mdims[m]
    return A, a


def loop_kkt_residual(game, grad_x, grad_sigma, x, lam):
    A, a = loop_constraint_matrix(game)
    drive = loop_pseudo_gradient(game, grad_x, grad_sigma, x) + A.T @ lam
    stat = float(np.linalg.norm(project_each(game, x - drive) - x))
    gap = A @ x - a
    if game.sense == "equality":
        return stat + float(np.linalg.norm(gap))
    return stat + float(np.linalg.norm(np.maximum(gap, 0.0))) + abs(float(lam @ gap))


def loop_solve_vgne(game, grad_x, grad_sigma, x0, step, iters):
    """The centralized projected primal-dual loop for a fixed number of steps."""
    A, a = loop_constraint_matrix(game)
    x = np.asarray(x0, dtype=float).copy()
    lam = np.zeros(A.shape[0])
    for _ in range(iters):
        drive = loop_pseudo_gradient(game, grad_x, grad_sigma, x) + A.T @ lam
        x_new = np.empty_like(x)
        for i in range(1, game.num_agents + 1):
            sl = game.action_slice(i)
            x_new[sl] = game.domain(i).project(x[sl] - step * drive[sl])
        lam_new = lam + step * (A @ (2 * x_new - x) - a)
        if game.sense == "inequality":
            lam_new = np.maximum(lam_new, 0.0)
        x, lam = x_new, lam_new
    return x, lam


def dense_preconditioner_min_eig(ops, beta):
    """Smallest eigenvalue of the primal-dual preconditioner, built dense."""
    n_x = ops.game.total_action_dim
    n_s = ops.sigma_layout.stacked_dim
    n_l = ops.lambda_layout.stacked_dim
    n = n_x + n_s + 2 * n_l
    Phi = np.zeros((n, n))
    np.fill_diagonal(Phi, 1.0 / beta)
    A = ops.A_hat.toarray()
    L = ops.L_lambda.matrix.toarray()
    x0, z0, l0 = 0, n_x + n_s, n_x + n_s + n_l
    Phi[x0:n_x, l0:] = -A.T
    Phi[l0:, x0:n_x] = -A
    Phi[z0:l0, l0:] = L
    Phi[l0:, z0:l0] = L.T
    return float(np.min(np.linalg.eigvalsh((Phi + Phi.T) / 2.0)))


def close(a, b):
    """Agreement to RTOL relative to the larger of 1 and the reference scale."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= RTOL * max(1.0, float(np.max(np.abs(b))))))


# -- layout operators -------------------------------------------------------


@pytest.mark.parametrize("layout", layouts(), ids=lambda lay: f"dims{lay.partition.dims}")
def test_block_operators_match_component_loop(layout):
    rng = np.random.default_rng(1)
    random_blocks = {p: rng.standard_normal((layout.copies(p),) * 2)
                     for p in layout.partition.components}
    # one unsymmetric block shared by every component with the same copy count
    shared = rng.standard_normal((layout.copies(1),) * 2)
    shared_blocks = {p: shared for p in layout.partition.components
                     if layout.copies(p) == layout.copies(1)}
    if len(shared_blocks) < layout.partition.num_components:
        shared_blocks = random_blocks
    for _ in range(5):
        hat = rng.standard_normal(layout.stacked_dim)
        assert close(layout.block_operator(shared_blocks) @ hat,
                     loop_apply_blocks(layout, shared_blocks, hat))
        hat = rng.standard_normal(layout.stacked_dim)
        assert close(layout.apply_weight(hat),
                     loop_apply_blocks(layout, weight_blocks(layout), hat))
        assert close(layout.apply_laplacian(hat),
                     loop_apply_blocks(layout, laplacian_blocks(layout), hat))
        assert close(layout.block_operator(random_blocks) @ hat,
                     loop_apply_blocks(layout, random_blocks, hat))
        assert close(layout.weight_operator.matrix @ hat,
                     loop_apply_blocks(layout, weight_blocks(layout), hat))


def grouped_layout(kind, dims, num_agents, seed):
    """A layout on a ring whose components group in the named way:
    "standard" (one shared weighted graph, split by dimension), "designed"
    (single components), "mixed" (a random subset of a designed layout's
    components moved onto one shared weighted ring) and "reweight" (the
    mixed layout reweighted, so equal exchange graphs share weights)."""
    rng = np.random.default_rng(seed)
    if kind == "standard":
        return standard_layout(ring(num_agents), random_interference(rng, len(dims), num_agents),
                               Partition(dims))
    lay = designed_layout(rng, dims, num_agents)
    if kind == "designed":
        return lay
    shared = weighted(ring(num_agents), "metropolis")
    mixed = dataclasses.replace(lay, design={p: shared if rng.uniform() < 0.5 else wg
                                             for p, wg in lay.design.items()})
    return mixed if kind == "mixed" else reweight(mixed, "column")


def group_blocks(layout, blocks):
    """Per-component blocks from one block per component group, keyed by
    the group's first component."""
    return {p: blocks[g.lead] for g in layout.groups for p in g.members}


def weight_blocks(layout):
    """Each component's weight block W_p, dense."""
    return {p: layout.design[p].matrix() for p in layout.partition.components}


def laplacian_blocks(layout):
    """Each component's Laplacian block D_p - W_p, dense."""
    return {p: laplacian(layout.design[p]) for p in layout.partition.components}


def same_operator(a, b):
    """Two block operators with the same dense groups and blocks and the
    same CSR part, byte for byte."""
    return ([g for g, _ in a._dense] == [g for g, _ in b._dense]
            and all(x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(a._dense, b._dense))
            and (a._sparse is None) == (b._sparse is None)
            and (a._sparse is None or same_csr_bytes(a._sparse.matrix, b._sparse.matrix)))


def dense_block_matrix(layout, blocks):
    """⊕_p (M_p ⊗ I) built densely, component by component."""
    return scipy.linalg.block_diag(*(np.kron(blocks[p], np.eye(layout.partition.dim(p)))
                                     for p in layout.partition.components))


def old_block_csr(layout, blocks):
    """The stacked CSR matrix as block_operator compiled it for every
    component before components were grouped."""
    rows, cols, vals = [], [], []
    for p in layout.partition.components:
        m = np.asarray(blocks[p], dtype=float)
        dim, start = layout.partition.dim(p), layout.component_slice(p).start
        r, c = np.nonzero(m)
        k = np.arange(dim)
        rows.append((start + r[:, None] * dim + k).ravel())
        cols.append((start + c[:, None] * dim + k).ravel())
        vals.append(np.repeat(m[r, c], dim))
    n = layout.stacked_dim
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def same_csr_bytes(a, b):
    return all(getattr(a, name).dtype == getattr(b, name).dtype
               and getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("data", "indices", "indptr"))


@given(st.sampled_from(["standard", "designed", "mixed", "reweight"]),
       st.lists(st.integers(1, 3), min_size=1, max_size=6),
       st.integers(3, 6), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_grouped_operator_matches_component_loop(kind, dims, num_agents, seed):
    """The grouped operator's products, transpose, affine form and matrix
    against the per-component loop, for one block per group (the groups of
    several take the dense path), one random block per component, and the
    layout's weights and Laplacians; the layout's weight and Laplacian
    operators, built from the weights' array form, are the ones compiled
    from their dense blocks, byte for byte."""
    layout = grouped_layout(kind, tuple(dims), num_agents, seed)
    covered = sorted(p for g in layout.groups for p in g.members)
    assert covered == list(layout.partition.components)
    everything = np.arange(layout.stacked_dim)
    for g in layout.groups:
        assert all(layout.design[p] is g.weights and layout.partition.dim(p) == g.dim
                   for p in g.members)
        assert np.array_equal(everything[g.index], np.concatenate(
            [everything[layout.component_slice(p)] for p in g.members]))
    rng = np.random.default_rng(seed)
    per_group = group_blocks(layout, {g.lead: rng.standard_normal((g.copies,) * 2)
                                      for g in layout.groups})
    per_component = {p: rng.standard_normal((layout.copies(p),) * 2)
                     for p in layout.partition.components}
    shared = {g.lead for g in layout.groups if len(g.members) > 1}
    assert same_operator(layout.weight_operator, layout.block_operator(weight_blocks(layout)))
    assert same_operator(layout.laplacian_operator,
                         layout.block_operator(laplacian_blocks(layout)))
    for blocks in (per_group, per_component, weight_blocks(layout), laplacian_blocks(layout)):
        op = layout.block_operator(blocks)
        assert {g.lead for g, _ in op._dense} == (set() if blocks is per_component else shared)
        transposed = {p: b.T for p, b in blocks.items()}
        v, w, offset = (rng.standard_normal(layout.stacked_dim) for _ in range(3))
        assert close(op @ v, loop_apply_blocks(layout, blocks, v))
        assert close(op.T @ w, loop_apply_blocks(layout, transposed, w))
        assert close(op.affine(v, offset), loop_apply_blocks(layout, blocks, v) + offset)
        dense = dense_block_matrix(layout, blocks)
        assert np.array_equal(op.matrix.toarray(), dense)
        assert np.array_equal(op.T.matrix.toarray(), dense.T)
        assert op.T.T is op


@given(st.sampled_from(["standard", "designed", "mixed", "reweight"]),
       st.lists(st.integers(1, 3), min_size=1, max_size=6),
       st.integers(3, 6), st.integers(0, 2**16))
@example("standard", [1, 1, 1], 5, 0)  # one contiguous group of dimension 1
@example("standard", [1, 2, 1], 4, 0)  # groups that are not contiguous
@settings(max_examples=40, deadline=None)
def test_bound_apply_matches_the_csr_operator(kind, dims, num_agents, seed):
    """An operator bound to one vector or to two rows at once, overwriting
    and accumulating, against its whole CSR matrix; a bound apply reads the
    arrays' values at each call, writes every entry (the result starts as
    nan), and two rows at once give what each gives alone. Also the
    transpose, the scaled operator, ``affine``, and a fused CSR operator
    bound with an offset."""
    layout = grouped_layout(kind, tuple(dims), num_agents, seed)
    rng = np.random.default_rng(seed)
    per_group = group_blocks(layout, {g.lead: rng.standard_normal((g.copies,) * 2)
                                      for g in layout.groups})
    per_component = {p: rng.standard_normal((layout.copies(p),) * 2)
                     for p in layout.partition.components}
    n = layout.stacked_dim
    for op in (layout.block_operator(per_group), layout.block_operator(per_component),
               layout.weight_operator, layout.laplacian_operator.T):
        v, out, offset = rng.standard_normal((2, n)), np.full((2, n), np.nan), \
            rng.standard_normal(n)
        apply = op.bind(v, out)
        for _ in range(2):
            v[...] = rng.standard_normal((2, n))
            apply()
            assert all(close(out[r], op.matrix @ v[r]) for r in range(2))
        single = op.bind(v[1], out[0])
        single()
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[0], op @ v[1])
        assert close(op.affine(v[1], offset), op.matrix @ v[1] + offset)
        before = out.copy()
        op.bind(v, out, accumulate=True)()
        assert all(close(out[r], before[r] + op.matrix @ v[r]) for r in range(2))
        op.bind(v[0], out[1], accumulate=True)()
        assert close(out[1], before[1] + op.matrix @ v[1] + op.matrix @ v[0])
        assert close(op.scaled(-0.5) @ v[0], -0.5 * (op @ v[0]))
        matrix = CsrOperator(op.matrix)
        matrix.bind(v, out, offset=offset)()
        assert all(np.array_equal(out[r], matrix.affine(v[r], offset)) for r in range(2))


def loop_communication_cost(layout, mode):
    """Both costs and the copy count by the per-component and per-holder
    loops the layout ran before it counted once per component group."""
    total = 0
    for p in layout.partition.components:
        g, dim = layout.design[p].graph, layout.partition.dim(p)
        if mode == "unicast":
            loops = sum((v, v) in g.edges for v in g.nodes)
            total += (len(g.edges) - loops) * dim
        elif mode == "broadcast":
            total += sum(dim for i in g.nodes if any(v != i for v in g.out_neighbors(i)))
        else:
            total += len(g.nodes)
    return float(total)


@given(st.sampled_from(["standard", "designed", "mixed", "reweight"]),
       st.lists(st.integers(1, 3), min_size=1, max_size=6),
       st.integers(3, 6), st.integers(0, 2**16))
@example("standard", [1, 2, 1], 4, 0)
@settings(max_examples=40, deadline=None)
def test_communication_accounting_matches_the_component_loop(kind, dims, num_agents, seed):
    """Unicast and broadcast costs and the mean estimate count, counted once
    per component group, against the per-component loops, also with the
    self-loops a column-stochastic reweighting adds."""
    layout = grouped_layout(kind, tuple(dims), num_agents, seed)
    for lay in (layout, reweight(layout, "column")):
        for mode in ("unicast", "broadcast"):
            assert lay.communication_cost(mode) == loop_communication_cost(lay, mode), mode
        assert lay.mean_estimate_count() == (loop_communication_cost(lay, "copies")
                                             / len(lay.agents))
    with pytest.raises(LayoutError):
        layout.communication_cost("multicast")


class CountedEdges(frozenset):
    """An edge set that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        CountedEdges.passes += 1
        return super().__iter__()


@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_broadcast_cost_counts_holders_with_a_proper_out_edge(num_nodes, num_components,
                                                              seed):
    """The broadcast cost from one pass over each group's edges against the
    per-holder neighbour loop, on directed exchange graphs with self-loops
    and isolated holders, shared by components of mixed dimensions."""
    rng = np.random.default_rng(seed)
    nodes = list(range(1, num_nodes + 1))
    graphs = []
    for _ in range(rng.integers(1, 3)):
        edges = [(u, v) for u in nodes for v in nodes if rng.uniform() < 0.3]
        g = Graph.directed_graph(nodes, edges)
        graphs.append(WeightedGraph.from_matrix(g, g.adjacency()))
    layout = EndLayout(
        agents=tuple(nodes), partition=Partition(tuple(rng.integers(1, 3, num_components))),
        comm=Graph.directed_graph(nodes, []), interference=frozenset(),
        design={p: graphs[rng.integers(len(graphs))] for p in range(1, num_components + 1)})
    assert layout.communication_cost("broadcast") == loop_communication_cost(layout,
                                                                             "broadcast")


def test_communication_accounting_walks_each_group_once(monkeypatch):
    """On a standard layout of 2,000 components over 200 agents (one group)
    each cost reads the shared weights' arrays once, not one graph per
    component, and makes no pass over the edge set: broadcast reads no
    neighbour list and builds no adjacency index, and the copy count reads
    no exchange graph at all."""
    interference = frozenset((p, p % 200 + 1) for p in range(1, 2001))
    layout = standard_layout(ring(200), interference, Partition((1,) * 2000))
    assert len(layout.groups) == 1
    graph = layout.groups[0].weights.graph
    object.__setattr__(graph, "edges", CountedEdges(graph.edges))
    graph.__dict__.pop("_index", None)
    reads = []
    out_neighbors = Graph.out_neighbors
    monkeypatch.setattr(Graph, "out_neighbors",
                        lambda self, v: reads.append(v) or out_neighbors(self, v))
    monkeypatch.setattr(CountedEdges, "passes", 0)
    assert layout.communication_cost("broadcast") == 2000 * 200
    assert CountedEdges.passes == 0 and not reads and "_index" not in graph.__dict__
    assert layout.communication_cost("unicast") == 2000 * 400
    assert layout.mean_estimate_count() == 2000
    assert CountedEdges.passes == 0


def edge_set_communication_cost(layout, mode):
    """Both costs by the pass over each group's edge set that the layout
    made before it counted on the weights' arrays."""
    if mode == "unicast":
        def per_copy(g):
            return sum(u != v for u, v in g.edges)
    else:
        def per_copy(g):
            return len({u for u, v in g.edges if u != v})
    return float(sum(len(grp.members) * grp.dim * per_copy(grp.weights.graph)
                     for grp in layout.groups))


@given(st.sampled_from(["standard", "designed", "mixed"]),
       st.sampled_from([None, "row", "column"]),
       st.lists(st.integers(1, 3), min_size=1, max_size=6),
       st.integers(3, 6), st.integers(0, 2**16))
@example("standard", "column", [1, 2, 1], 4, 0)
@settings(max_examples=40, deadline=None)
def test_communication_cost_matches_the_edge_set_pass(kind, scheme, dims, num_agents, seed):
    """Unicast and broadcast costs from the weights' arrays against the pass
    over each group's edge set, on standard, designed and mixed layouts, and
    on their row- and column-stochastic reweightings, which add self-loops."""
    layout = grouped_layout(kind, tuple(dims), num_agents, seed)
    if scheme is not None:
        layout = reweight(layout, scheme)
    for mode in ("unicast", "broadcast"):
        assert layout.communication_cost(mode) == edge_set_communication_cost(layout, mode), mode


def test_bind_checks_its_operands_once():
    """Shapes, dtype, contiguity and aliasing are refused when an operator
    is bound, on a layout whose shared group is not contiguous."""
    layout = next(lay for lay in (grouped_layout("mixed", (1, 2, 1, 2, 1, 1), 5, seed)
                                  for seed in range(50))
                  if any(isinstance(g.index, np.ndarray) and len(g.members) > 1
                         for g in lay.groups))
    op, n = layout.weight_operator, layout.stacked_dim
    assert op._dense
    v, out = np.ones(n), np.zeros(n)
    op.bind(v, out)()
    assert close(out, op.matrix @ v)
    buffer = np.zeros(2 * n)
    for bad in [(np.ones(n + 1), out), (v, np.zeros(n + 1)), (np.ones((2, n)), out),
                (np.ones((2, n)), np.zeros((3, n))), (buffer[::2], out),
                (v.astype(np.float32), out), (buffer, buffer[:n].reshape(1, n)),
                (buffer[:n], buffer[n // 2:n // 2 + n])]:
        with pytest.raises(ValueError):
            op.bind(*bad)
    matrix = CsrOperator(op.matrix)
    with pytest.raises(ValueError):
        matrix.bind(v, out, offset=np.zeros(n), accumulate=True)
    with pytest.raises(ValueError):
        matrix.bind(v, out, offset=np.zeros(n + 1))


@pytest.mark.parametrize("rows", [2, 3])
def test_csr_bind_of_k_rows_is_one_kernel_call(rows, monkeypatch):
    """A CSR operator bound to k rows, overwriting, with an offset and
    accumulating, makes one kernel call over I_k ⊗ M and writes the bytes
    one bind per row writes; so does the CSR part of a stacked operator,
    as push-sum's [z; mass] mix and abc's [y; ∇f] mix bind it. I_k ⊗ M is
    built on the first bind of k rows and shared by the later ones."""
    layout = grouped_layout("designed", (1, 2, 1, 3), 6, 3)
    n = layout.stacked_dim
    calls, built = [], []
    copies = layout_module._diagonal_copies
    monkeypatch.setattr(layout_module, "_diagonal_copies",
                        lambda m, k: built.append(k) or copies(m, k))

    def counted(*args):
        calls.append(args[:2])
        _csr_matvec(*args)

    csr = CsrOperator(layout.weight_operator.matrix, counted)
    rng = np.random.default_rng(rows)
    offset = rng.standard_normal(n)
    for mode in ({}, {"offset": offset}, {"accumulate": True}):
        v = rng.standard_normal((rows, n))
        together = rng.standard_normal((rows, n))
        alone = together.copy()
        apply = csr.bind(v, together, **mode)
        calls.clear()
        apply()
        assert calls == [(rows * n, rows * n)], mode
        for r in range(rows):
            csr.bind(v[r], alone[r], **mode)()
        assert together.tobytes() == alone.tobytes(), mode
    stacked = BlockOperator(n, csr, [])
    v, out = rng.standard_normal((2, n)), np.full((2, n), np.nan)
    apply = stacked.bind(v, out)
    calls.clear()
    apply()
    assert len(calls) == 1
    assert np.array_equal(out, np.stack([layout.weight_operator @ row for row in v]))
    assert sorted(built) == sorted(set(built)) and rows in built


def test_csr_bind_rows_adds_into_each_row_as_one_bind_per_row(monkeypatch):
    """``bind_rows`` checks the operand and the rows once, and call j adds
    into row j the bytes an accumulating bind of that row adds; operands
    that ``bind`` refuses are refused too."""
    layout = grouped_layout("designed", (1, 2, 1, 3), 6, 3)
    n = layout.stacked_dim
    csr = CsrOperator(layout.weight_operator.matrix)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(n)
    rows = rng.standard_normal((5, n))
    alone = rows.copy()
    checks = []
    operand_rows = layout_module._operand_rows
    monkeypatch.setattr(layout_module, "_operand_rows",
                        lambda *args: checks.append(1) or operand_rows(*args))
    calls = csr.bind_rows(v, rows)
    assert len(checks) == 1 and len(calls) == 5
    for j in (3, 0, 3, 4):
        calls[j]()
        csr.bind(v, alone[j], accumulate=True)()
        assert rows.tobytes() == alone.tobytes(), j
    buffer = np.zeros(3 * n)
    for bad in [(np.ones(n + 1), rows), (v, np.zeros((5, n + 1))), (v, np.zeros(n)),
                (np.ones((1, n)), rows), (v, np.zeros((5, 2 * n))[:, ::2]),
                (v.astype(np.float32), rows), (buffer[n:2 * n], buffer.reshape(3, n))]:
        with pytest.raises(ValueError):
            csr.bind_rows(*bad)


def test_pushsum_invariants_check_each_buffer_once(monkeypatch):
    """The invariants of push-sum rounds bind the summing kernel to the
    whole ring once per buffer, not once per row and buffer."""
    arms, problem, _ = pushsum_layouts(8)
    layout = arms["customized"]
    checks = []
    operand_rows = layout_module._operand_rows
    monkeypatch.setattr(layout_module, "_operand_rows",
                        lambda *args: checks.append(1) or operand_rows(*args))
    counts = []
    for invariants in (False, True):
        checks.clear()
        _PushSumRounds(layout, problem, pushsum_init(layout), invariants=invariants)
        counts.append(len(checks))
    assert counts[1] - counts[0] == 2


@pytest.mark.parametrize("dims", [(1,) * 6, (2, 1, 2, 3, 1, 2)])
def test_tracking_solvers_on_shared_blocks_match_the_csr_path(dims):
    """augdgm and abc on a standard layout, whose components share one
    weight block, against the same layout with one distinct copy of that
    block per component, so that all of them run through CSR: 200 steps and
    both solves' records."""
    rng = np.random.default_rng(12)
    interference = random_interference(rng, len(dims), 7)
    footprints = [tuple(sorted(p for p, j in interference if j == i)) for i in range(1, 8)]
    problem = random_quadratic(rng, dims, footprints)
    reference = problem.solve_reference()
    grouped = standard_layout(ring(7), interference, Partition(dims))
    shared = grouped.design[1]
    csr = dataclasses.replace(grouped, design={
        p: WeightedGraph.from_matrix(shared.graph, shared.matrix()) for p in grouped.design})
    assert len(grouped.weight_operator._dense) == sum(len(g.members) > 1 for g in grouped.groups)
    assert not csr.weight_operator._dense and len(csr.groups) == len(dims)
    arms = (grouped, csr)
    matrices = [augdgm_matrices(lay) for lay in arms]
    gamma = 0.5 * matrices[0].gamma_bound(problem)
    states = []
    for lay in arms:
        zero = np.zeros(lay.stacked_dim)
        states.append((zero, lay.apply_weight(stacked_gradient(lay, problem, zero)), zero, zero))
    for k in range(200):
        states = [(*augdgm_step(lay, problem, y, v, gamma),
                   *abc_step(lay, m, problem, y_abc, z, gamma))
                  for lay, m, (y, v, y_abc, z) in zip(arms, matrices, states)]
        for a, b in zip(*states):
            assert close(a, b), k
    for solve in (augdgm_solve, abc_solve):
        runs = []
        for lay, m in zip(arms, matrices):
            args = (lay, problem) if solve is augdgm_solve else (lay, m, problem)
            runs.append(solve(*args, gamma, max_iters=200, reference=reference, merit_every=10))
        (y_g, trace_g), (y_c, trace_c) = runs
        assert close(y_g, y_c)
        assert close(trace_g.meta["running_average"], trace_c.meta["running_average"])
        for name in ("consensus_err", "merit", "merit_avg"):
            assert close(trace_g.columns[name], trace_c.columns[name]), name


def test_single_component_groups_keep_their_csr_bit_for_bit(monkeypatch):
    """A designed layout groups nothing: its operators are the CSR matrices
    compiled before grouping from dense W and D - W blocks, byte for byte,
    and so are its tracking iterates, abc's through the powers of that one
    W. The solves form no dense weight block."""
    calls = []
    matrix = WeightedGraph.matrix
    monkeypatch.setattr(WeightedGraph, "matrix", lambda self: calls.append(1) or matrix(self))
    rng = np.random.default_rng(13)
    layout = designed_layout(rng, (1, 2, 1, 3, 1, 2))
    footprints = [layout.needed_by(i) for i in layout.agents]
    problem = random_quadratic(rng, layout.partition.dims, footprints)
    assert all(len(g.members) == 1 for g in layout.groups)
    matrices = augdgm_matrices(layout)
    gamma = 0.5 * matrices.gamma_bound(problem)
    y, _ = augdgm_solve(layout, problem, gamma, max_iters=200)
    y_abc, _ = abc_solve(layout, matrices, problem, gamma, max_iters=200)
    assert calls == []

    w_blocks = weight_blocks(layout)
    old_w = CsrOperator(old_block_csr(layout, w_blocks))
    assert same_csr_bytes(layout.weight_operator.matrix, old_w.matrix)
    assert same_csr_bytes(layout.weight_operator.T.matrix, old_w.T.matrix)
    # every group has fewer than 8 holders, so numpy sums each dense row of
    # W in column order, as the Laplacian's entries are summed
    assert max(g.copies for g in layout.groups) < 8
    assert same_csr_bytes(layout.laplacian_operator.matrix, old_block_csr(
        layout, {p: np.diag(w.sum(axis=1)) - w for p, w in w_blocks.items()}))
    stacked = stacked_form(layout, problem)
    ref = np.zeros(layout.stacked_dim)
    g = stacked.gradient(ref)
    v = old_w @ g
    for _ in range(200):
        ref = old_w @ (ref - gamma * v)
        g_new = stacked.gradient(ref)
        v, g = old_w @ (v + g_new - g), g_new
    assert np.array_equal(y, ref)
    ref, z = np.zeros(layout.stacked_dim), np.zeros(layout.stacked_dim)
    for _ in range(200):
        ref, z = abc_polynomial_round(old_w, ref, z, stacked.gradient(ref), gamma)
    assert np.array_equal(y_abc, ref)


def abc_polynomial_round(w, y, z, g, gamma):
    """One allocating round of abc with A = B = W², C = (I − W)², from the
    gradient g at y, as sums of powers of W: y ← W(Wy) − γ W(Wg) − z,
    z ← z + (y − 2Wy + W(Wy))."""
    y = w @ (w @ y) - gamma * (w @ (w @ g)) - z
    wy = w @ y
    return y, z + (y - 2.0 * wy + w @ wy)


def alloc_tracking_records(layout, problem, gamma, steps, reference, every, matrices=None):
    """The tracking solvers' iterates, records and running average with a
    round that allocates its vectors, as the solvers ran before their rounds
    went in place; the disagreement is the component loop's."""
    stacked = stacked_form(layout, problem)
    y, w = np.zeros(layout.stacked_dim), layout.weight_operator
    if matrices is None:
        g = stacked.gradient(y)
        t = w @ g
    else:
        t = np.zeros(layout.stacked_dim)
    hat_star = layout.embed_consensus(reference)
    grad_star_norm = float(np.linalg.norm(stacked.gradient(hat_star)))
    f_star = stacked.value(hat_star)

    def spread(hat):
        return float(np.linalg.norm(hat - loop_consensus_projection(layout, hat)))

    def merit(hat):
        return max(spread(hat) * grad_star_norm, abs(stacked.value(hat) - f_star))

    path, records, running = [], [], np.zeros_like(y)
    for k in range(1, steps + 1):
        if matrices is None:
            y = w @ (y - gamma * t)
            g_new = stacked.gradient(y)
            t, g = w @ (t + g_new - g), g_new
        else:
            y, t = abc_polynomial_round(w, y, t, stacked.gradient(y), gamma)
        path.append((y, t))
        running += y
        if k % every == 0 or k == steps:
            records.append((spread(y), merit(running / k), merit(y)))
    return path, records, running / steps


@pytest.mark.parametrize("kind, dims", [
    ("standard", (1,) * 6), ("standard", (2, 1, 2, 3, 1, 2)),
    ("designed", (1, 2, 1, 3, 1, 2)), ("mixed", (1, 2, 1, 3, 1, 2))])
def test_tracking_rounds_match_the_allocating_rounds(kind, dims):
    """augdgm_step and abc_step iterated for 200 steps, and both solvers'
    records and running averages, against rounds that allocate their
    vectors, on layouts with one shared group, with groups of mixed
    dimensions, and with single components only."""
    layout = grouped_layout(kind, dims, 7, 4)
    rng = np.random.default_rng(4)
    problem = random_quadratic(rng, dims, [layout.needed_by(i) for i in layout.agents])
    reference = problem.solve_reference()
    matrices = augdgm_matrices(layout)
    gamma = 0.5 * matrices.gamma_bound(problem)
    for solve, m in ((augdgm_solve, None), (abc_solve, matrices)):
        path, records, running = alloc_tracking_records(layout, problem, gamma, 200, reference,
                                                        10, m)
        zero = np.zeros(layout.stacked_dim)
        if m is None:
            y, t = zero, layout.weight_operator @ stacked_gradient(layout, problem, zero)
        else:
            y, t = zero, zero
        for k, (y_ref, t_ref) in enumerate(path):
            if m is None:
                y, t = augdgm_step(layout, problem, y, t, gamma)
            else:
                y, t = abc_step(layout, m, problem, y, t, gamma)
            assert close(y, y_ref) and close(t, t_ref), (solve.__name__, k)
        args = (layout, problem) if m is None else (layout, m, problem)
        y, trace = solve(*args, gamma, max_iters=200, reference=reference, merit_every=10)
        assert close(y, path[-1][0])
        assert close(trace.meta["running_average"], running)
        assert trace.columns["k"] == [float(k) for k in range(10, 201, 10)]
        for name, column in zip(("consensus_err", "merit_avg", "merit"), zip(*records)):
            assert close(trace.columns[name], column), (solve.__name__, name)
        assert trace.meta["us_per_step"] > 0


@pytest.mark.parametrize("kind, dims", [("standard", (2, 1, 2, 3, 1, 2)),
                                        ("mixed", (1, 2, 1, 3, 1, 2))])
def test_abc_runs_any_polynomial_as_its_dense_blocks(kind, dims):
    """A lazy choice with constant terms and no unit coefficient,
    A = B = ((I + W)/2)², C = ((I − W)/2)², passes the spectral checker,
    and 200 abc_step rounds follow the recursion on its dense blocks
    compiled per component, so every term of every block takes the scaled
    path; its solve converges."""
    layout = grouped_layout(kind, dims, 7, 4)
    rng = np.random.default_rng(5)
    problem = random_quadratic(rng, dims, [layout.needed_by(i) for i in layout.agents])
    lazy = AbcMatrices(a=(0.25, 0.5, 0.25), b=(0.25, 0.5, 0.25), c=(0.25, -0.5, 0.25))
    assert abc_check(lazy, layout) == []
    halves = {g.lead: ((np.eye(g.copies) + w) / 2, (np.eye(g.copies) - w) / 2)
              for g in layout.groups for w in [g.weights.matrix()]}
    b_op, c_op = (CsrOperator(old_block_csr(layout, group_blocks(
        layout, {lead: pair[j] @ pair[j] for lead, pair in halves.items()}))) for j in (0, 1))
    stacked, gamma = stacked_form(layout, problem), 0.5 * lazy.gamma_bound(problem)
    y = z = y_ref = z_ref = np.zeros(layout.stacked_dim)
    for k in range(200):
        y, z = abc_step(layout, lazy, problem, y, z, gamma)
        y_ref = b_op @ y_ref - gamma * (b_op @ stacked.gradient(y_ref)) - z_ref
        z_ref = z_ref + c_op @ y_ref
        assert close(y, y_ref) and close(z, z_ref), k
    reference = problem.solve_reference()
    _, trace = abc_solve(layout, lazy, problem, gamma, max_iters=4000, reference=reference,
                         merit_every=4000)
    assert trace.columns["merit"][-1] < 1e-10


def test_abc_compiles_only_the_weight_operator(monkeypatch):
    """abc runs on the layout's one weight operator: a solve on a fresh
    designed layout compiles one block operator (before, three of its own
    from dense W², (I − W)² and I per group), and once that solve has
    compiled the layout's forms, the next one's traced peak stays below 32
    stacked vectors and two copies of W's CSR arrays (the old blocks took
    twice that). Block operators are counted where every one is compiled,
    from dense blocks or from the weights' array form."""
    rng = np.random.default_rng(14)
    num_agents, num_components = 30, 60
    interference = random_interference(rng, num_components, num_agents, density=0.1)
    footprints = [tuple(sorted(p for p, j in interference if j == i))
                  for i in range(1, num_agents + 1)]
    problem = random_quadratic(rng, (1,) * num_components, footprints)
    crit = DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges")
    layout = design_layout(ring(num_agents), interference, Partition((1,) * num_components),
                           crit)
    matrices = augdgm_matrices(layout)
    gamma = 0.5 * matrices.gamma_bound(problem)
    compiled = []
    compile_operator = EndLayout._compile
    monkeypatch.setattr(EndLayout, "_compile", lambda self, dense, sparse: compiled.append(1)
                        or compile_operator(self, dense, sparse))
    abc_solve(layout, matrices, problem, gamma, max_iters=10)
    assert len(compiled) == 1
    tracemalloc.start()
    try:
        abc_solve(layout, matrices, problem, gamma, max_iters=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 32 * layout.stacked_dim + 24 * layout.weight_operator.matrix.nnz


def test_tracking_rounds_allocate_no_stacked_vector():
    """A tracking round on a standard layout (one contiguous group of
    dimension 1, multiplied into the bound output) and on a designed one
    (CSR only) allocates less than one stacked vector, and the traced peak
    of 400 steps of augdgm_solve exceeds that of 200 steps by less than a
    few stacked vectors."""
    rng = np.random.default_rng(14)
    num_agents, num_components = 30, 60
    interference = random_interference(rng, num_components, num_agents, density=0.1)
    footprints = [tuple(sorted(p for p, j in interference if j == i))
                  for i in range(1, num_agents + 1)]
    problem = random_quadratic(rng, (1,) * num_components, footprints)
    reference = problem.solve_reference()
    crit = DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges")
    partition = Partition((1,) * num_components)
    for layout in (standard_layout(ring(num_agents), interference, partition),
                   design_layout(ring(num_agents), interference, partition, crit)):
        n = layout.stacked_dim
        matrices = augdgm_matrices(layout)
        gamma = 0.5 * matrices.gamma_bound(problem)
        for m in (None, matrices):
            rounds = _TrackingRounds(layout, problem, gamma, np.zeros(n), np.zeros(n), m)
            rounds.step()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                for _ in range(5):
                    rounds.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - start < 8 * n, (n, m is None)
        peaks = []
        augdgm_solve(layout, problem, gamma, max_iters=10)  # compiles the stacked forms
        for steps in (200, 400):
            tracemalloc.start()
            try:
                augdgm_solve(layout, problem, gamma, max_iters=steps, reference=reference,
                             merit_every=10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 3 * 8 * n, peaks


def support_problem(kind, layout, rng):
    """A problem on the layout's interference pattern: a random quadratic,
    a Lasso with 1-norm weights, or ("linear-only") a quadratic whose first
    component has a linear term and no Hessian entry."""
    dims = layout.partition.dims
    footprints = [layout.needed_by(i) for i in layout.agents]
    if kind == "lasso":
        widths = [sum(dims[p - 1] for p in fp) for fp in footprints]
        return LassoSeparable(
            dims, footprints, [rng.standard_normal((3, w)) for w in widths],
            [rng.standard_normal(3) for _ in widths],
            {(i, p): float(rng.uniform(0.1, 1.0))
             for i, fp in enumerate(footprints, start=1) for p in fp if rng.uniform() < 0.7})
    problem = random_quadratic(rng, dims, footprints)
    if kind == "quadratic":
        return problem
    return QuadraticSeparable(dims, footprints,
                              [{pq: b for pq, b in q.items() if 1 not in pq}
                               for q in problem.quadratics],
                              problem.linears, problem.constants)


def placed_quadratic(layout, problem):
    """Q̂ (in CSR), ĉ, the constant and l̂ (None without 1-norm weights) of
    a quadratic's stack, placed from each agent's dense H_i, c_i and
    weights on the entries of its own copies: built apart from the
    compiled form, from the problem's own blocks."""
    n = layout.stacked_dim
    q_hat, c_hat, l1 = np.zeros((n, n)), np.zeros(n), np.zeros(n)
    for i, (H, c, fp, _) in enumerate(problem._dense, start=1):
        idx = np.concatenate([np.zeros(0, dtype=int)]
                             + [np.arange(n)[layout.block_slice(p, i)] for p in fp])
        q_hat[np.ix_(idx, idx)] += H
        c_hat[idx] += c
        for p in fp:
            l1[layout.block_slice(p, i)] = problem.l1_weight(i, p)
    return SimpleNamespace(q_hat=CsrOperator(sp.csr_matrix(q_hat)), c_hat=c_hat,
                           const=float(sum(problem.constants)),
                           l1=l1 if l1.any() else None)


def full_row_gradient(full, hat, sub=False):
    """Q̂ŷ accumulated onto ĉ over every row (plus l̂ ⊙ sign ŷ with ``sub``),
    as the stacked gradient was formed before it ran on its support."""
    g = full.q_hat.affine(hat, full.c_hat)
    if sub and full.l1 is not None:
        g += full.l1 * np.sign(hat)
    return g


def full_row_value(full, hat):
    val = full.const + float(hat @ (0.5 * (full.q_hat @ hat) + full.c_hat))
    if full.l1 is not None:
        val += float(full.l1 @ np.abs(hat))
    return val


@given(st.sampled_from(["standard", "designed", "mixed", "full"]),
       st.sampled_from(["quadratic", "lasso", "linear-only"]),
       st.lists(st.integers(1, 3), min_size=2, max_size=5),
       st.integers(3, 6), st.integers(0, 2**16))
@example("standard", "quadratic", [1, 1, 1], 5, 0)
@example("full", "lasso", [2, 1, 3], 4, 1)
@example("mixed", "linear-only", [1, 2, 1, 2], 6, 2)
@settings(max_examples=60, deadline=None)
def test_support_forms_equal_the_full_row_forms(kind, problem_kind, dims, num_agents, seed):
    """The gradient, the value and the disagreement, bound and not, and two
    AugDGM and one ABC round equal the forms that run every row, bit for
    bit: on shared, single and mixed-dimension groups, on a support that is
    an index array or ("full", every agent needing every component) a
    slice over all rows, with 1-norm weights, and with support rows that
    only a linear term puts there."""
    if kind == "full":
        interference = frozenset((p, i) for p in range(1, len(dims) + 1)
                                 for i in range(1, num_agents + 1))
        layout = standard_layout(ring(num_agents), interference, Partition(tuple(dims)))
    else:
        layout = grouped_layout(kind, tuple(dims), num_agents, seed)
    rng = np.random.default_rng(seed)
    problem = support_problem(problem_kind, layout, rng)
    stacked, n = stacked_form(layout, problem), layout.stacked_dim
    support = stacked.support
    full = placed_quadratic(layout, problem)
    rows_used = np.diff(full.q_hat.matrix.indptr) > 0
    if kind == "full":
        assert support == slice(0, n)
    if problem_kind == "linear-only":
        assert not rows_used[support].all()
    hat, v, z = (rng.standard_normal(n) for _ in range(3))

    expected = full_row_gradient(full, hat)
    off = np.ones(n, dtype=bool)
    off[support] = False
    out, on_support = np.empty(n), np.empty(n - off.sum())
    stacked.bind_gradient(hat, out)()
    stacked.bind_support_gradient(hat, on_support)()
    assert np.array_equal(out, expected) and np.array_equal(stacked.gradient(hat), expected)
    assert np.array_equal(on_support, expected[support])
    assert not expected[off].any()
    sub = full_row_gradient(full, hat, sub=True)
    stacked.bind_gradient(hat, out, sub=True)()
    assert np.array_equal(out, sub) and np.array_equal(stacked.gradient(hat, sub=True), sub)
    assert stacked.bind_value(hat)() == stacked.value(hat) == full_row_value(full, hat)
    spread = np.empty(n)
    layout.bind_disagreement(hat, spread)()
    assert np.array_equal(spread, hat - layout.sum_operator.T @ (
        (layout.sum_operator @ hat) / layout.copy_counts))

    w, gamma = layout.weight_operator, 0.3
    rounds = _TrackingRounds(layout, problem, gamma, hat, v)
    y, t, g = hat, v, full_row_gradient(full, hat)
    for _ in range(2):  # both v buffers take a turn
        rounds.step()
        y = w @ (y - gamma * t)
        g_new = full_row_gradient(full, y)
        t, g = w @ (t + g_new - g), g_new
        assert np.array_equal(rounds.y, y) and np.array_equal(rounds.t, t)
    rounds = _TrackingRounds(layout, problem, gamma, hat, z, augdgm_matrices(layout))
    rounds.step()
    y, z = abc_polynomial_round(w, hat, z, full_row_gradient(full, hat), gamma)
    assert np.array_equal(rounds.y, y) and np.array_equal(rounds.t, z)


def test_admm_state_is_linear_in_the_stacked_dimension():
    """ADMM keeps two stacked multiplier sums, not one multiplier per
    directed design edge: on the complete graph of 30 agents (870 directed
    edges for each of 60 components, against 1,800 stacked entries) 20
    steps, set-up included, stay within 40 doubles per stacked entry of
    traced peak (0.26 MB measured). The per-edge multipliers and their
    index plan peaked at 2.6 MB, ~180 doubles per stacked entry."""
    problem, _ = build_random_separable(30, 60, 0.05, 0)
    interference = frozenset((p, i) for i, fp in enumerate(problem.footprints, start=1)
                             for p in fp)
    layout = standard_layout(Graph.complete(range(1, 31)), interference, Partition((1,) * 60))
    layout.disagreement(np.zeros(layout.stacked_dim)), stacked_form(layout, problem)
    import scipy.sparse.linalg  # noqa: F401  (its first import would be traced)
    tracemalloc.start()
    try:
        hat, trace = admm_solve(layout, problem, 0.5, max_iters=20, tol=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 20 and np.all(np.isfinite(hat))
    assert peak <= 40 * layout.stacked_dim * 8


def dense_null_space_is_consensus(layout):
    """The null-space check on the densified stacked Laplacian."""
    lap = layout.laplacian_operator.matrix.toarray()
    if np.linalg.matrix_rank(lap, tol=1e-9) != layout.stacked_dim - layout.partition.total_dim:
        return False
    return all(np.linalg.norm(lap @ layout.embed_consensus(col)) <= 1e-9
               for col in np.eye(layout.partition.total_dim))


@pytest.mark.parametrize("kind, dims", [
    ("standard", (1,) * 4), ("standard", (2, 1, 2, 3)),
    ("designed", (1, 2, 1, 3, 1, 2)), ("mixed", (1, 2, 1, 3, 1, 2)), ("weak", (1, 2, 1))])
def test_null_space_check_matches_the_dense_laplacian(kind, dims):
    """The null-space check read from each group's copies × copies
    Laplacian against the dense stacked Laplacian's rank, including
    ("weak") a shared path whose one 1e-12 weight leaves a second null
    vector at the rank tolerance; and, on 2,000 stacked entries, a traced
    peak far below one stacked-dim² matrix."""
    if kind == "weak":
        path = Graph.undirected_graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
        w = weighted(path, "metropolis").matrix()
        w[0, 1] = w[1, 0] = 1e-12
        shared = WeightedGraph.from_matrix(path, w)
        layout = standard_layout(path, random_interference(np.random.default_rng(0), 3, 4),
                                 Partition(dims))
        layout = dataclasses.replace(layout, design={p: shared for p in layout.design})
    else:
        layout = grouped_layout(kind, dims, 6, 5)
    roots = {p: layout.holders(p)[0] for p in layout.partition.components}
    expected = dense_null_space_is_consensus(layout)
    assert expected == (kind != "weak")
    assert layout.verify_null_space_is_consensus(roots) == expected
    big = standard_layout(ring(20), frozenset((p, 1) for p in range(1, 101)),
                          Partition((1,) * 100))
    tracemalloc.start()
    try:
        assert big.verify_null_space_is_consensus({p: 1 for p in range(1, 101)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * big.stacked_dim ** 2 / 100


def test_tracking_setup_memory_is_linear_on_a_shared_layout(monkeypatch):
    """2,000 scalar components on a 200-node ring share one weight block:
    one W², (I - W)² and I per component would take 3 P N² doubles (1.9 GB),
    and one CSR weight operator per component took ~830 MB of traced peak.
    Matrices, step bound, weight operator and one tracking step stay within
    16 doubles per entry of N² + the stacked dimension (~29 MB measured).
    W is densified once, as the weight operator's one dense block, from
    the weights' array form: ``WeightedGraph.matrix`` is never called."""
    n, num_components = 200, 2000
    footprints = [tuple(range(i, num_components + 1, n)) for i in range(1, n + 1)]
    problem = QuadraticSeparable(
        (1,) * num_components, footprints,
        [{(p, p): np.array([[1.0 + i % 3]]) for p in fp} for i, fp in enumerate(footprints)],
        [{p: np.array([float(p % 5)]) for p in fp} for fp in footprints])
    interference = frozenset((p, i) for i, fp in enumerate(footprints, start=1) for p in fp)
    layout = standard_layout(ring(n), interference, Partition((1,) * num_components))
    y, v = np.zeros(layout.stacked_dim), np.ones(layout.stacked_dim)
    calls = []
    matrix = WeightedGraph.matrix
    monkeypatch.setattr(WeightedGraph, "matrix", lambda self: calls.append(1) or matrix(self))
    tracemalloc.start()
    try:
        gamma = 0.5 * augdgm_matrices(layout).gamma_bound(problem)
        assert layout.weight_operator.shape == (layout.stacked_dim,) * 2
        y, v = augdgm_step(layout, problem, y, v, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and len(layout.groups) == len(layout.weight_operator._dense) == 1
    assert peak < 16 * 8 * (n * n + layout.stacked_dim)
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(v))


def test_designed_operators_build_from_the_arrays_in_linear_memory(monkeypatch):
    """A designed layout of 300 scalar components on a 120-node ring is 300
    single-component groups of tens of holders each. Its weight and
    Laplacian operators are built from the weights' array form: they call
    ``WeightedGraph.matrix`` zero times, and their build stays within 16
    doubles per stored entry plus stacked entry, where dense W and D - W
    blocks per group took about 2 Σ copies² doubles."""
    rng = np.random.default_rng(21)
    num_agents, num_components = 120, 300
    interference = random_interference(rng, num_components, num_agents, density=0.05)
    crit = DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges")
    layout = design_layout(ring(num_agents), interference, Partition((1,) * num_components),
                           crit)
    assert len(layout.groups) == num_components
    nnz = sum(len(g.weights.graph.edges) for g in layout.groups)  # one entry per edge
    # the dense blocks would outweigh the bound below many times over
    assert sum(g.copies ** 2 for g in layout.groups) > 4 * (nnz + layout.stacked_dim)
    calls = []
    matrix = WeightedGraph.matrix
    monkeypatch.setattr(WeightedGraph, "matrix", lambda self: calls.append(1) or matrix(self))
    tracemalloc.start()
    try:
        weights, lap = layout.weight_operator, layout.laplacian_operator
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 16 * 8 * (nnz + layout.stacked_dim)
    assert weights.matrix.nnz == nnz and not weights._dense and not lap._dense


def test_csr_kernel_matches_public_fallback():
    rng = np.random.default_rng(5)
    matrix = sp.random(40, 30, density=0.2, random_state=6, format="csr")
    kernel = CsrOperator(matrix)
    public = CsrOperator(matrix, _csr_matvec_fallback)
    for _ in range(3):
        v, w, offset = rng.standard_normal(30), rng.standard_normal(40), rng.standard_normal(40)
        assert close(kernel @ v, matrix @ v)
        assert close(public @ v, matrix @ v)
        assert close(public.affine(v, offset), kernel.affine(v, offset))
        assert close(public.T @ w, kernel.T @ w)
    with pytest.raises(ValueError):
        public @ rng.standard_normal(31)


def test_kernel_probe_rejects_a_kernel_that_misbehaves():
    assert _kernel_agrees(_csr_matvec_fallback)

    def overwrites(m, n, indptr, indices, data, v, out):
        out[:] = sp.csr_matrix((data, indices, indptr), shape=(m, n)) @ v

    def wrong_signature(indptr, indices, data, v, out):
        raise AssertionError("unreachable")

    assert not _kernel_agrees(overwrites)
    assert not _kernel_agrees(wrong_signature)


@pytest.mark.parametrize("layout", layouts(), ids=lambda lay: f"dims{lay.partition.dims}")
def test_consensus_structure_matches_component_loop(layout):
    rng = np.random.default_rng(2)
    for _ in range(5):
        hat = rng.standard_normal(layout.stacked_dim)
        assert close(layout.consensus_projection(hat), loop_consensus_projection(layout, hat))
        assert close(layout.disagreement(hat), hat - loop_consensus_projection(layout, hat))
        assert close(layout.component_means(hat), loop_component_means(layout, hat))
        assert close(layout.consensus_matrix() @ hat, loop_consensus_projection(layout, hat))
        # the consensus norm gne_solve reads off the component sums
        sums = layout.component_sums(hat)
        assert close(np.sqrt(sums @ (sums / layout.copy_counts)),
                     np.linalg.norm(loop_consensus_projection(layout, hat)))
        y = rng.standard_normal(layout.partition.total_dim)
        assert np.array_equal(layout.embed_consensus(y), loop_embed_consensus(layout, y))


# -- stacked problems -------------------------------------------------------


class AgentLoopStacked:
    """The per-agent reference of a stacked form: one ``value`` and one
    ``smooth_gradient`` (or ``subgradient``) call per agent on its own
    estimate blocks, each written into that agent's copies. ``l1`` holds
    the stacked 1-norm weights (None when the problem has none)."""

    def __init__(self, layout, problem):
        self.problem = problem
        self.plan = [(i, {p: layout.block_slice(p, i) for p in problem.footprint(i)})
                     for i in range(1, problem.num_agents + 1)]
        self.stacked_dim = layout.stacked_dim
        l1 = np.zeros(layout.stacked_dim)
        for i, slices in self.plan:
            for p, s in slices.items():
                l1[s] = problem.l1_weight(i, p)
        self.l1 = l1 if l1.any() else None

    def value(self, hat):
        return sum(self.problem.value(i, {p: hat[s] for p, s in slices.items()})
                   for i, slices in self.plan)

    def gradient(self, hat, sub=False):
        out = np.zeros(self.stacked_dim)
        for i, slices in self.plan:
            blocks = {p: hat[s] for p, s in slices.items()}
            grads = (self.problem.subgradient(i, blocks) if sub
                     else self.problem.smooth_gradient(i, blocks))
            for p, g in grads.items():
                out[slices[p]] = g
        return out


def random_quadratic(rng, dims, footprints):
    """Random quadratic with the given block sizes and footprints, and constants."""
    quads, lins = [], []
    for fp in footprints:
        n = sum(dims[p - 1] for p in fp)
        G = rng.standard_normal((n, n))
        H = G @ G.T + np.eye(n)
        ofs = np.cumsum([0] + [dims[p - 1] for p in fp])
        quads.append({(p, q): H[ofs[a]:ofs[a + 1], ofs[b]:ofs[b + 1]]
                      for a, p in enumerate(fp) for b, q in enumerate(fp)})
        lins.append({p: rng.standard_normal(dims[p - 1]) for p in fp})
    return QuadraticSeparable(dims, footprints, quads, lins,
                              constants=rng.standard_normal(len(footprints)))


def random_lasso(rng, dims, footprints):
    """Random Lasso with the given block sizes and footprints: an idle agent
    keeps a 0-wide data matrix and its observations, and about half of the
    (agent, component) pairs carry a 1-norm weight."""
    matrices, observations, weights = [], [], {}
    for i, fp in enumerate(footprints, start=1):
        width = sum(dims[p - 1] for p in fp)
        matrices.append(0.5 * rng.standard_normal((width + 2, width)))
        observations.append(rng.standard_normal(width + 2))
        weights.update({(i, p): float(rng.uniform(0.1, 1.0)) for p in fp
                        if rng.uniform() < 0.5})
    return LassoSeparable(dims, footprints, matrices, observations, weights)


def lasso_agent_loop(layout, problem, hat):
    """Value, gradient and subgradient of a Lasso stack from the per-agent
    formula 1/2 ||G_i x_i - d_i||^2 + Σ_p w_{i,p} ||x_{i,p}||_1."""
    value, grad, sub = 0.0, np.zeros(layout.stacked_dim), np.zeros(layout.stacked_dim)
    for i, fp in enumerate(problem.footprints, start=1):
        slices = [layout.block_slice(p, i) for p in fp]
        x = np.concatenate([np.zeros(0)] + [hat[s] for s in slices])
        r = problem.design_matrices[i - 1] @ x - problem.observations[i - 1]
        g = problem.design_matrices[i - 1].T @ r
        value += 0.5 * float(r @ r)
        pos = 0
        for p, s in zip(fp, slices):
            w = problem.l1_weights.get((i, p), 0.0)
            value += w * float(np.sum(np.abs(hat[s])))
            grad[s] = g[pos:pos + s.stop - s.start]
            sub[s] = grad[s] + w * np.sign(hat[s])
            pos += s.stop - s.start
    return value, grad, sub


def test_stacked_quadratic_matches_agent_loop():
    rng = np.random.default_rng(3)
    for trial in range(6):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=5))
        # agent 1 is idle: no footprint, only a constant
        footprints = [()] + [tuple(p for p in range(1, 6) if rng.uniform() < 0.5)
                             for _ in range(5)]
        problem = random_quadratic(rng, dims, footprints)
        lasso = random_lasso(rng, dims, footprints)
        interference = frozenset((p, i) for i, fp in enumerate(problem.footprints, start=1)
                                 for p in fp) | {(p, 2) for p in range(1, 6)}
        crit = DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges")
        layout = design_layout(ring(6), interference, Partition(dims), crit,
                               weight_scheme="metropolis")
        compiled, loop = StackedQuadratic(layout, problem), AgentLoopStacked(layout, problem)
        assert isinstance(problem.stacked(layout), StackedQuadratic)
        assert compiled.l1 is None and loop.l1 is None
        lasso_form = lasso.stacked(layout)
        assert isinstance(lasso_form, StackedQuadratic) and lasso_form.l1 is not None
        for _ in range(5):
            hat = rng.standard_normal(layout.stacked_dim)
            assert close(compiled.gradient(hat), loop.gradient(hat)), trial
            assert close(compiled.gradient(hat, sub=True), loop.gradient(hat, sub=True)), trial
            assert close(compiled.value(hat), loop.value(hat)), trial
            assert close(stacked_gradient(layout, problem, hat), loop.gradient(hat))
            assert close(stacked_value(layout, problem, hat), loop.value(hat))
            value, grad, sub = lasso_agent_loop(layout, lasso, hat)
            assert close(lasso_form.value(hat), value), trial
            assert close(lasso_form.gradient(hat), grad), trial
            assert close(lasso_form.gradient(hat, sub=True), sub), trial
            assert close(AgentLoopStacked(layout, lasso).gradient(hat, sub=True), sub), trial


def lasso_total_loop(problem, y):
    """Σ_i 1/2 ||G_i y_fp - d_i||^2 + Σ_p w_{i,p} ||y_p||_1 agent by agent."""
    total = 0.0
    for i, fp in enumerate(problem.footprints, start=1):
        x = np.concatenate([np.zeros(0)] + [y[problem.component_slice(p)] for p in fp])
        r = problem.design_matrices[i - 1] @ x - problem.observations[i - 1]
        total += 0.5 * float(r @ r) + sum(
            problem.l1_weights.get((i, p), 0.0) * float(np.sum(np.abs(y[problem.component_slice(p)])))
            for p in fp)
    return total


def test_total_value_matches_agent_loop():
    """The assembled total cost against the per-agent ``value`` loop, on
    random quadratics and Lassos with an idle agent and 1-norm weights and on
    the sensor regression instance; Lassos also against their own formula."""
    rng = np.random.default_rng(13)
    problems = [build_regression(SensorScenario(num_sensors=20, num_sources=8,
                                                comm_radius_min=0.35, output_dim=3)).problem]
    for _ in range(4):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=5))
        footprints = [()] + [tuple(p for p in range(1, 6) if rng.uniform() < 0.5)
                             for _ in range(5)]
        lasso = random_lasso(rng, dims, footprints)
        assert any(lasso.l1_weights.values())
        problems += [random_quadratic(rng, dims, footprints), lasso]
    for problem in problems:
        for scale in (1e-3, 1.0, 30.0):
            y = scale * rng.standard_normal(sum(problem.component_dims))
            assert close(problem.total_value(y), SeparableProblem.total_value(problem, y))
            if isinstance(problem, LassoSeparable):
                assert close(problem.total_value(y), lasso_total_loop(problem, y))


def test_no_shipped_problem_or_cli_solver_loops_over_agents(monkeypatch):
    """Every shipped problem runs through its compiled stacked form: no CLI
    algorithm, the coupled dual included, evaluates an agent on its own,
    and the package keeps no per-agent adapter."""
    assert not hasattr(optim_module, "AgentLoopStacked")
    assert not hasattr(optim_module, "_NegatedDual")

    def refuse(self, i, *args):
        raise AssertionError(f"{type(self).__name__} evaluated agent {i} on its own")

    for owner, name in ((SeparableProblem, "subgradient"), (QuadraticSeparable, "value"),
                        (QuadraticSeparable, "smooth_gradient")):
        monkeypatch.setattr(owner, name, refuse)
    sensors = {"num_sensors": 8, "num_sources": 3, "comm_radius_min": 0.45,
               "comm_radius_width": 0.1}
    cells = [({"kind": "random_separable", "num_agents": 5, "num_components": 6,
               "sparsity": 0.5, "seed": 1}, {"algorithm": name, "max_iters": 20})
             for name in ("augdgm", "abc", "admm")]
    cells += [({"kind": kind, **sensors}, {"algorithm": "pushsum", "max_iters": 200,
                                           "step_scale": 0.05})
              for kind in ("regression", "lasso")]
    cells.append(({"kind": "coupled_qp", "num_agents": 5, "dim": 2, "seed": 1},
                  {"algorithm": "dual", "max_iters": 200}))
    for scenario, run in cells:
        bundle = cli.build_scenario(scenario)
        for arm in ("standard", "customized"):
            result = cli.run_solver(bundle, run, arm)
            assert np.isfinite(result["final_merit"]), (scenario["kind"], run, arm)
    # ne calls the game's one stacked oracle once a step, on both arms
    assert not hasattr(EndLayout, "footprint_slices")
    bundle = cli.build_scenario({"kind": "random_game", "num_agents": 6, "sparsity": 0.5,
                                 "seed": 1})
    calls, oracle = [], bundle["game"].gradient
    bundle["game"] = dataclasses.replace(bundle["game"],
                                         gradient=lambda v: calls.append(v.size) or oracle(v))
    for arm in ("standard", "customized"):
        calls.clear()
        result = cli.run_solver(bundle, {"algorithm": "ne", "max_iters": 20}, arm)
        assert np.isfinite(result["final_merit"]), arm
        assert len(calls) == result["iterations"] == 20, arm
    inst = build_lasso(SensorScenario(**sensors))
    for layout in (inst.standard, inst.customized):
        assert isinstance(inst.problem.stacked(layout), StackedQuadratic)


def test_compiled_forms_follow_their_owner():
    """A compiled form is kept per (layout, owner) pair and no longer than
    its owner lives."""
    rng = np.random.default_rng(4)
    lay = layouts()[3]
    footprints = [lay.needed_by(i) for i in lay.agents]
    problem = random_quadratic(rng, lay.partition.dims, footprints)
    first = lay.compiled_for(problem, lambda: problem.stacked(lay))
    assert lay.compiled_for(problem, lambda: None) is first
    other = random_quadratic(rng, lay.partition.dims, footprints)
    assert lay.compiled_for(other, lambda: other.stacked(lay)) is not first
    del problem, first
    gc.collect()
    assert len(lay._compiled) == 1  # other
    # the compiled forms are derived state: a layout still pickles, and
    # compiles afresh on the other side
    copy = pickle.loads(pickle.dumps(lay))
    assert copy.to_json_dict() == lay.to_json_dict()
    hat = rng.standard_normal(lay.stacked_dim)
    assert close(stacked_gradient(copy, other, hat), stacked_gradient(lay, other, hat))


# -- edge-based ADMM ---------------------------------------------------------


def loop_dual_reformulate(layout):
    """The edge consensus constraints (p, i, j), "agent i's and agent j's
    copies of component p agree", by a loop over every component's sorted
    edges."""
    constraints = []
    for p in layout.partition.components:
        g = layout.design[p].graph
        for (u, v) in sorted(g.edges):
            if u == v:
                continue
            if (v, u) not in g.edges:
                raise OptimError(f"component {p}: design graph not undirected")
            constraints.append((p, u, v))
    return constraints


def loop_edge_residual(layout, hat):
    """Each copy's summed edge residual Σ_j (ŷ_i − ŷ_j) over its constraints."""
    out = np.zeros_like(hat)
    for (p, i, j) in loop_dual_reformulate(layout):
        out[layout.block_slice(p, i)] += hat[layout.block_slice(p, i)] - hat[
            layout.block_slice(p, j)]
    return out


def loop_quadratic_argmin(problem, i, components, degrees, linear):
    """Agent i's regularized argmin of a quadratic: one dense solve of
    (H_i + 2 D) y = -c_i + l over the components it holds."""
    components = list(components)
    n = sum(problem.dim(p) for p in components)
    ofs = {}
    pos = 0
    for p in components:
        ofs[p] = pos
        pos += problem.dim(p)
    M = np.zeros((n, n))
    rhs = np.zeros(n)
    for (p, q), blk in problem.quadratics[i - 1].items():
        M[ofs[p]:ofs[p] + problem.dim(p), ofs[q]:ofs[q] + problem.dim(q)] += blk
    for p, c in problem.linears[i - 1].items():
        rhs[ofs[p]:ofs[p] + problem.dim(p)] -= c
    for p in components:
        sl = slice(ofs[p], ofs[p] + problem.dim(p))
        M[sl, sl] += 2.0 * degrees.get(p, 0.0) * np.eye(problem.dim(p))
        rhs[sl] += linear.get(p, np.zeros(problem.dim(p)))
    sol = np.linalg.solve(M, rhs)
    return {p: sol[ofs[p]:ofs[p] + problem.dim(p)] for p in components}


def loop_proximal_argmin(problem, i, components, degrees, linear, tol=1e-10,
                         max_iters=10000):
    """Agent i's regularized argmin by accelerated proximal gradient on its
    own blocks, with its own step 1 / (L + 2 max_p d_p)."""
    components = list(components)
    dmax = max((degrees.get(p, 0.0) for p in components), default=0.0)
    step = 1.0 / (problem.smooth_lipschitz + 2.0 * dmax)
    fp = set(problem.footprint(i))
    y = {p: np.zeros(problem.dim(p)) for p in components}
    t_prev = dict(y)
    momentum = 1.0
    for _ in range(max_iters):
        g = problem.smooth_gradient(i, {p: y[p] for p in components if p in fp}) if fp else {}
        new = {}
        for p in components:
            grad_p = g.get(p, np.zeros(problem.dim(p))) if p in fp else np.zeros(problem.dim(p))
            grad_p = grad_p + 2.0 * degrees.get(p, 0.0) * y[p] - linear.get(
                p, np.zeros(problem.dim(p)))
            v = y[p] - step * grad_p
            w = problem.l1_weight(i, p) if p in fp else 0.0
            if w > 0:
                v = np.sign(v) * np.maximum(np.abs(v) - step * w, 0.0)
            new[p] = v
        momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        accel = (momentum - 1.0) / momentum_next
        delta = max(float(np.max(np.abs(new[p] - t_prev[p]))) for p in components)
        y = {p: new[p] + accel * (new[p] - t_prev[p]) for p in components}
        t_prev, momentum = new, momentum_next
        if delta < tol:
            return t_prev
    raise OptimError(f"inner proximal solver did not reach {tol} for agent {i}")


def loop_admm_solve(layout, problem, alpha, argmin, max_iters, tol=0.0, reference=None):
    """admm_solve as an agent loop: one multiplier per (i, j, p) in a dict,
    rebuilt every step, and one regularized argmin per agent."""
    def neighbors(p, i):
        return [j for j in layout.design[p].graph.out_neighbors(i) if j != i]

    held = {i: list(layout.held_by(i)) for i in layout.agents}
    z = {(i, j, p): np.zeros(layout.partition.dim(p))
         for p in layout.partition.components for i in layout.holders(p)
         for j in neighbors(p, i)}
    hat = np.zeros(layout.stacked_dim)
    ref_hat = None if reference is None else layout.embed_consensus(reference)
    rows = {"step": [], "consensus_err": [], "distance": []}
    for _ in range(max_iters):
        new_hat = hat.copy()
        for i in layout.agents:
            comps = held[i]
            if not comps:
                continue
            degrees = {p: 0.5 * len(neighbors(p, i)) for p in comps}
            linear = {p: sum((z[(i, j, p)] for j in neighbors(p, i)),
                             np.zeros(layout.partition.dim(p))) for p in comps}
            for p, block in argmin(problem, i, comps, degrees, linear).items():
                new_hat[layout.block_slice(p, i)] = block
        z = {(i, j, p): (1.0 - alpha) * z[(i, j, p)] - alpha * z[(j, i, p)]
             + 2.0 * alpha * new_hat[layout.block_slice(p, j)] for (i, j, p) in z}
        rows["step"].append(float(np.max(np.abs(new_hat - hat))))
        rows["consensus_err"].append(
            float(np.linalg.norm(new_hat - loop_consensus_projection(layout, new_hat))))
        if ref_hat is not None:
            rows["distance"].append(float(np.max(np.abs(new_hat - ref_hat))))
        hat = new_hat
        if (rows["distance"] or rows["step"])[-1] < tol:
            break
    return hat, rows, len(z)


@pytest.mark.parametrize("layout", layouts(), ids=lambda lay: f"dims{lay.partition.dims}")
def test_edge_residual_and_constraints_match_edge_loop(layout):
    """ADMM's design adjacency Â ⊗ I and its row sums deg against the edge
    constraints' loop: (deg − Â) ŷ is each copy's summed edge residual,
    zero on consensus, and the edge count is the number of constraints."""
    adjacency, edges = _design_adjacency(layout)
    degree = adjacency @ np.ones(layout.stacked_dim)
    constraints = loop_dual_reformulate(layout)
    counts = np.zeros(layout.stacked_dim)
    for (p, i, j) in constraints:
        counts[layout.block_slice(p, i)] += 1.0
    assert edges == len(constraints) and np.array_equal(degree, counts)
    rng = np.random.default_rng(14)
    for _ in range(5):
        hat = rng.standard_normal(layout.stacked_dim)
        assert close(degree * hat - adjacency @ hat, loop_edge_residual(layout, hat))
    consensus = layout.embed_consensus(rng.standard_normal(layout.partition.total_dim))
    assert close(degree * consensus, adjacency @ consensus)


@pytest.mark.parametrize("layout", layouts(), ids=lambda lay: f"dims{lay.partition.dims}")
def test_admm_matches_agent_loop(layout):
    """50 steps of stacked ADMM on a quadratic against the agent loop with
    the per-agent dense solves: iterates and every trace column. Designed
    layouts have relays, which hold copies outside their footprint."""
    rng = np.random.default_rng(15)
    footprints = [layout.needed_by(i) for i in layout.agents]
    problem = random_quadratic(rng, layout.partition.dims, footprints)
    reference = problem.solve_reference()
    hat, trace = admm_solve(layout, problem, 0.4, max_iters=50, tol=0.0, reference=reference)
    ref_hat, rows, edges = loop_admm_solve(layout, problem, 0.4, loop_quadratic_argmin, 50,
                                           reference=reference)
    assert close(hat, ref_hat)
    assert len(trace) == 50 and trace.meta["messages_per_iter"] == edges
    for name, column in rows.items():
        assert close(trace.columns[name], column), name


@pytest.mark.parametrize("arm", ["standard", "designed"])
def test_admm_on_lasso_matches_agent_loop(arm):
    """The l1 path: one stacked proximal-gradient loop for all agents against
    one per agent. Each stops at the inner tolerance 1e-10, the stacked loop
    with one step size and one stopping test for all agents, so after 20
    ADMM steps the iterates agree to 1e-8, not to roundoff."""
    rng = np.random.default_rng(16)
    dims = (1, 2, 1, 1)
    interference = random_interference(rng, len(dims), 5)
    footprints = [tuple(sorted(p for p, j in interference if j == i)) for i in range(1, 6)]
    problem = random_lasso(rng, dims, footprints)
    if arm == "standard":
        layout = standard_layout(ring(5), interference, Partition(dims))
    else:
        crit = DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges")
        layout = design_layout(ring(5), interference, Partition(dims), crit,
                               weight_scheme="metropolis")
    hat, _ = admm_solve(layout, problem, 0.5, max_iters=20, tol=0.0)
    ref_hat, _, _ = loop_admm_solve(layout, problem, 0.5, loop_proximal_argmin, 20)
    assert np.max(np.abs(hat - ref_hat)) <= 1e-8 * max(1.0, float(np.max(np.abs(ref_hat))))


# -- equilibrium seeking ----------------------------------------------------


def ne_arms(interference, partition):
    """The standard layout and a designed one on the complete graph of
    ``partition``'s agents."""
    n = len(partition.dims)
    full = Graph.undirected_graph(range(1, n + 1), [(u, v) for u in range(1, n + 1)
                                                    for v in range(u + 1, n + 1)])
    crit = DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges")
    return (standard_layout(full, interference, partition, weight_scheme="metropolis"),
            design_layout(full, interference, partition, crit, weight_scheme="metropolis"))


def two_dim_game(rng, n=6):
    """A game of 2-entry actions in box, ball and unconstrained domains whose
    per-agent gradient is affine in the pairs plus tanh of the own action,
    and its per-agent oracle."""
    interference = random_interference(rng, n, n) | {(i, i) for i in range(1, n + 1)}
    G = {pair: rng.standard_normal((2, 2)) for pair in interference}
    h = rng.standard_normal((n, 2))

    def agent_gradient(i, blocks):
        val = h[i - 1] + np.tanh(blocks[i])
        for p, x in blocks.items():
            val = val + G[p, i] @ x
        return val

    domains = {i: BoxSet(-0.5, np.array([0.3, 0.8])) if i % 3 == 1
               else BallSet(np.array([0.2, -0.1]), 0.6) for i in range(1, n + 1) if i % 3}
    game = GameSpec(action_dims=(2,) * n, interference=interference, domains=domains,
                    gradient=pair_stacked_gradient((2,) * n, interference, agent_gradient))
    return game, agent_gradient


def test_ne_step_and_xi_norm_match_loops():
    """On both arms, for the random game and for a game of 2-entry actions
    in box and ball domains."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        game, _ = build_random_quadratic_game(6, 0.4, seed, shift=5.0)
        agent_gradient = affine_agent_gradient(game)
        for layout in ne_arms(game.interference, Partition((1,) * 6)):
            cert = certify_theorem1(layout, game, 1e-3)
            for _ in range(5):
                hat = rng.standard_normal(layout.stacked_dim)
                assert close(ne_step(layout, game, hat, 0.01),
                             loop_ne_step(layout, game, agent_gradient, hat, 0.01))
                assert close(cert.xi_norm(layout, hat), loop_xi_norm(cert, layout, hat))
        game, agent_gradient = two_dim_game(rng)
        for layout in ne_arms(game.interference, Partition((2,) * 6)):
            for _ in range(5):
                hat = rng.standard_normal(layout.stacked_dim)
                assert close(ne_step(layout, game, hat, 0.1),
                             loop_ne_step(layout, game, agent_gradient, hat, 0.1))


def loop_certificate(layout, game, alpha, tol=1e-8):
    """certify_theorem1 as one build per step size: (rho, sigma, q_matrices,
    certified), each component reading its weight block afresh for the
    weights and again for the identity checks."""
    q_matrices, sigmas, certified = {}, {}, True
    for i in range(1, game.num_agents + 1):
        Q, q, sigma, note = _component_weights(layout, game, i, layout.design[i].matrix())
        if note is not None:
            certified = False
            n = layout.copies(i)
            Q, q, sigma = np.eye(n), np.full(n, 1.0 / n), 1.0
        else:
            W = layout.design[i].matrix()
            n = W.shape[0]
            pos = layout.holders(i).index(i)
            certified = certified and bool(
                np.min(np.linalg.eigvalsh(Q)) > 0
                and abs((np.ones(n) @ Q)[pos] - 1.0) <= tol
                and np.max(np.abs(np.ones(n) @ Q @ W @ (np.eye(n) - np.outer(np.ones(n), q))))
                <= tol
                and sigma < 1.0)
        q_matrices[i], sigmas[i] = Q, sigma
    mu, theta = game.mu, game.theta
    sigma_bar = max(sigmas.values())
    lam_min_xi = min(float(np.min(np.linalg.eigvalsh(Q))) for Q in q_matrices.values())
    own_diag = max(
        float(q_matrices[i][layout.holders(i).index(i), layout.holders(i).index(i)])
        for i in range(1, game.num_agents + 1))
    theta_bar = theta * np.sqrt(own_diag / lam_min_xi)
    mass = [float(np.ones(layout.copies(i)) @ q_matrices[i] @ np.ones(layout.copies(i)))
            for i in range(1, game.num_agents + 1)]
    gamma_lo, gamma_hi = float(np.sqrt(1.0 / max(mass))), float(np.sqrt(1.0 / min(mass)))
    off = sigma_bar * (alpha * (theta_bar + theta * gamma_hi)
                       + alpha**2 * theta_bar * theta * gamma_hi)
    a = 1.0 - 2 * alpha * mu * gamma_lo**2 + alpha**2 * theta**2 * gamma_hi**2
    d = sigma_bar**2 * (1.0 + 2 * alpha * theta_bar + alpha**2 * theta_bar**2)
    rho = float((a + d) / 2.0 + np.sqrt(((a - d) / 2.0) ** 2 + off**2))
    return rho, sigmas, q_matrices, certified


@pytest.mark.parametrize("scheme", ["metropolis", "row"])
def test_certificate_matches_per_step_build_and_reads_weights_once(scheme, monkeypatch):
    """Certificates over a grid of step sizes equal, bit for bit, a build
    from scratch per step size. A certificate forms each component group's
    weight block once, for all of its members, and keeps none: the next
    certificate forms them again, and a step-size search forms them once."""
    calls = []
    matrix = WeightedGraph.matrix
    monkeypatch.setattr(WeightedGraph, "matrix", lambda self: calls.append(1) or matrix(self))
    for seed, topology in ((0, "complete"), (1, "ring"), (2, "complete")):
        bundle = cli.build_scenario({"kind": "random_game", "num_agents": 6, "sparsity": 0.4,
                                     "seed": seed, "topology": topology})
        game = bundle["game"]
        for layout in bundle["layouts"]:
            layout = reweight(layout, scheme)
            calls.clear()
            certs = [certify_theorem1(layout, game, float(a))
                     for a in np.geomspace(1e-6, 10.0, 25)]
            assert len(calls) == 25 * len(layout.groups)
            calls.clear()
            try:
                search_ne_step_size(layout, game)
            except GameError:
                pass
            assert len(calls) == len(layout.groups)
            for cert in certs:
                rho, sigmas, q_matrices, certified = loop_certificate(layout, game, cert.alpha)
                assert cert.rho == rho and cert.certified == certified
                assert cert.sigma == sigmas
                assert cert.q_matrices.keys() == q_matrices.keys()
                assert all(np.array_equal(cert.q_matrices[i], q_matrices[i]) for i in q_matrices)


def test_ne_run_builds_the_step_free_certificate_once(monkeypatch):
    """The ne step-size search loosens the target until a grid step size is
    certified. It builds the step-free certificate once for every target it
    tries, and picks the alpha and rho of a fresh search at the target met."""
    bundle = cli.build_scenario({"kind": "random_game", "num_agents": 6, "sparsity": 0.4,
                                 "seed": 0, "topology": "complete"})
    layout, game = bundle["layouts"][1], bundle["game"]
    # the targets a fresh search per target tries: the first one that some
    # grid step size meets is searched directly
    best = min(certify_theorem1(layout, game, float(a)).rho
               for a in np.geomspace(1e-8, 1e2, 60))
    target, tries = 0.999, 1
    while best > target:
        target, tries = 1.0 - 0.1 * (1.0 - target), tries + 1
    assert 1 < tries <= 4  # a loosened target is needed, and reached
    expected = search_ne_step_size(layout, game, target=target)
    assert expected.rho <= target
    calls = []
    build = games._step_free_certificate
    monkeypatch.setattr(games, "_step_free_certificate",
                        lambda *args: calls.append(1) or build(*args))
    loosened = search_ne_step_size(layout, game)
    assert len(calls) == 1
    assert (loosened.alpha, loosened.rho) == (expected.alpha, expected.rho)
    calls.clear()
    result = cli.run_solver(bundle, {"max_iters": 10}, "customized")
    assert len(calls) == 1
    assert result["certified"] == {"alpha": expected.alpha, "rho": expected.rho}


def unicast_callbacks(sc):
    """The unicast game's per-agent partial gradients: user i pays
    -s log(x_i + 1) + x_i sum_p psi_p sig(sigma_p) over the links p it routes
    over."""
    labels = sc.link_labels()
    footprints = {i: tuple(sorted({labels[tuple(sorted(e))] for e in seq}))
                  for i, seq in sc.paths.items()}
    psi = {p: sc.psi[link] for link, p in labels.items()}

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def grad_x(i, xi, sigma):
        g = -sc.utility_scale / (float(xi[0]) + 1.0)
        for p in footprints[i]:
            g += psi[p] * sig(float(sigma[p][0]))
        return np.array([g])

    def grad_sigma(i, xi, sigma):
        out = {}
        for p in footprints[i]:
            s = sig(float(sigma[p][0]))
            out[p] = np.array([psi[p] * float(xi[0]) * s * (1.0 - s)])
        return out

    return grad_x, grad_sigma


def unicast_games():
    """The unicast game with its own pair-indexed gradient ("fast") and with
    the per-agent loop of its callbacks behind the same contract ("generic")."""
    inst = build_unicast(sample_unicast(9, seed=4))
    callbacks = unicast_callbacks(inst.scenario)
    generic = dataclasses.replace(inst.game, gradient=pair_loop_gradient(inst.game, *callbacks))
    return inst, callbacks, [("fast", inst.game), ("generic", generic)]


def unicast_layouts(inst, arm):
    """The arm's layout pair; "row" reweights the customized arm with
    row-stochastic weights, whose Laplacian does not conserve the copy sums,
    so the invariant record is far from roundoff there."""
    if arm == "row":
        lay = reweight(inst.customized[0], "row")
        return lay, lay
    return getattr(inst, arm)


@pytest.mark.parametrize("arm", ["standard", "customized", "row"])
def test_gne_round_matches_operator_by_operator_step(arm):
    inst, _, games = unicast_games()
    rng = np.random.default_rng(5)
    for _, game in games:
        ops = build_gne_operators(game, *unicast_layouts(inst, arm))
        for beta in (1e-3, 3e-2):
            for _ in range(5):
                state = GneState(
                    x=rng.uniform(0.0, 1.0, game.total_action_dim),
                    s_hat=rng.standard_normal(ops.sigma_layout.stacked_dim),
                    z_hat=rng.standard_normal(ops.lambda_layout.stacked_dim),
                    lam_hat=rng.uniform(0.0, 1.0, ops.lambda_layout.stacked_dim))
                fused, loop = gne_step(ops, state, 0.1, beta), loop_gne_step(ops, state, 0.1, beta)
                for name in ("x", "s_hat", "z_hat", "lam_hat"):
                    assert close(getattr(fused, name), getattr(loop, name)), name


@pytest.mark.parametrize("arm", ["standard", "customized", "row"])
def test_gne_solve_records_match_loop_reference(arm):
    """Residual, disagreement and invariant records of gne_solve against the
    dict-built constraint matrix, the per-agent pseudo-gradient of the
    callbacks, the component loops and the dense consensus projector."""
    inst, callbacks, games = unicast_games()
    alpha, beta, iters, every = 0.1, 1e-3, 300, 25
    x0 = np.full(9, 0.3)
    for label, game in games:
        ops = build_gne_operators(game, *unicast_layouts(inst, arm))
        _, trace = gne_solve(ops, x0, alpha, beta, max_iters=iters, tol=0.0,
                             check_every=every)
        cons = ops.sigma_layout.consensus_matrix().toarray()
        state = initial_gne_state(ops, x0)
        invariant = 0.0
        rows = []
        for k in range(iters):
            state = gne_step(ops, state, alpha, beta)
            invariant = max(invariant, float(np.linalg.norm(cons @ state.s_hat)))
            if (k + 1) % every == 0:
                lam = loop_component_means(ops.lambda_layout, state.lam_hat) / alpha
                sigma_hat = state.sigma_hat(ops)
                rows.append((
                    loop_kkt_residual(game, *callbacks, state.x, lam),
                    np.linalg.norm(sigma_hat - loop_consensus_projection(ops.sigma_layout,
                                                                         sigma_hat)),
                    np.linalg.norm(state.lam_hat - loop_consensus_projection(
                        ops.lambda_layout, state.lam_hat)),
                ))
                assert close(game.pseudo_gradient(state.x),
                             loop_pseudo_gradient(game, *callbacks, state.x)), label
        residual, sigma_dis, lambda_dis = (list(c) for c in zip(*rows))
        assert close(trace.columns["residual"], residual), label
        assert close(trace.columns["sigma_disagreement"], sigma_dis), label
        assert close(trace.columns["lambda_disagreement"], lambda_dis), label
        if arm == "row":
            assert invariant > 1e-3, label
        assert close(trace.meta["max_consensus_invariant"], invariant), label


def blocks_game(seed=3):
    """A game with 2-dimensional aggregation blocks, random non-identity
    B_{q,i}, nonzero offsets and box, ball, halfspace and free domains:
    f_i = x_i'Q_i x_i / 2 + sum_q x_i'C_{q,i} tanh(sigma_q). Its pair-indexed
    gradient is written with stacked matrices; the per-agent callbacks are
    returned beside the game."""
    rng = np.random.default_rng(seed)
    action_dims, sigma_dims, lambda_dims = (1, 2, 1, 2, 1), {1: 2, 2: 2, 3: 2}, {1: 2, 2: 1}
    inter_s, inter_l = random_interference(rng, 3, 5), random_interference(rng, 2, 5)
    starts = np.cumsum((0,) + action_dims)

    def own(i):
        return slice(starts[i - 1], starts[i])

    agg_blocks = {(q, i): rng.standard_normal((sigma_dims[q], action_dims[i - 1]))
                  for q, i in inter_s}
    agg_offsets = {(q, i): rng.standard_normal(sigma_dims[q]) for q, i in inter_s}
    con_blocks = {(m, i): rng.standard_normal((lambda_dims[m], action_dims[i - 1]))
                  for m, i in inter_l}
    con_offsets = {(m, i): rng.standard_normal(lambda_dims[m]) for m, i in inter_l}
    Q = {i: np.eye(d) + (lambda R: R @ R.T)(rng.standard_normal((d, d)))
         for i, d in enumerate(action_dims, start=1)}
    C = {(q, i): rng.standard_normal((action_dims[i - 1], sigma_dims[q])) for q, i in inter_s}

    pairs = sorted(inter_s)
    pair_starts = np.cumsum([0] + [sigma_dims[q] for q, _ in pairs])
    C_hat = np.zeros((starts[-1], pair_starts[-1]))
    B_hat = np.zeros((pair_starts[-1], starts[-1]))
    for k, (q, i) in enumerate(pairs):
        rows = slice(pair_starts[k], pair_starts[k + 1])
        C_hat[own(i), rows] = C[q, i]
        B_hat[rows, own(i)] = agg_blocks[q, i]
    Q_hat = scipy.linalg.block_diag(*(Q[i] for i in sorted(Q)))

    def gradient(x, sigma):
        t = np.tanh(sigma)
        return Q_hat @ x + C_hat @ t + B_hat.T @ ((1.0 - t**2) * (C_hat.T @ x))

    def grad_x(i, xi, sigma):
        return Q[i] @ xi + sum(C[q, i] @ np.tanh(s) for q, s in sigma.items())

    def grad_sigma(i, xi, sigma):
        return {q: (1.0 - np.tanh(s) ** 2) * (C[q, i].T @ xi) for q, s in sigma.items()}

    game = AggregativeGameSpec(
        action_dims=action_dims, sigma_dims=sigma_dims, lambda_dims=lambda_dims,
        gradient=gradient, agg_blocks=agg_blocks, agg_offsets=agg_offsets,
        con_blocks=con_blocks, con_offsets=con_offsets,
        interference_sigma=inter_s, interference_lambda=inter_l,
        domains={1: BoxSet(-1.0, 1.0), 2: BallSet(np.zeros(2), 1.5),
                 4: BoxSet(np.array([-1.0, 0.0]), np.array([0.5, 2.0])),
                 5: HalfspaceSet(np.array([1.0]), 0.2)})
    return game, (grad_x, grad_sigma)


def blocks_layouts(game, arm):
    """Standard, designed and row-reweighted designed layout pairs on a ring."""
    crit = DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges")

    def make(pattern, dims):
        part = Partition(tuple(dims[q] for q in sorted(dims)))
        if arm == "standard":
            return standard_layout(ring(5), pattern, part)
        lay = design_layout(ring(5), pattern, part, crit, weight_scheme="metropolis")
        return reweight(lay, "row") if arm == "row" else lay

    return (make(game.interference_sigma, game.sigma_dims),
            make(game.interference_lambda, game.lambda_dims))


def gne_case(name, arm):
    """(operators, per-agent callbacks) of the unicast or the blocks game."""
    if name == "unicast":
        inst, callbacks, _ = unicast_games()
        return build_gne_operators(inst.game, *unicast_layouts(inst, arm)), callbacks
    game, callbacks = blocks_game()
    return build_gne_operators(game, *blocks_layouts(game, arm)), callbacks


@pytest.mark.parametrize("arm", ["standard", "customized", "row"])
@pytest.mark.parametrize("name", ["unicast", "blocks"])
def test_pair_gradient_matches_agent_loop(name, arm):
    """The pair-indexed gradient at local estimates far from consensus and
    at the exact aggregation, and the compiled aggregation, constraints,
    projection and KKT residual, against the per-agent loops and dict scans
    they replaced; then one fused step."""
    ops, callbacks = gne_case(name, arm)
    game = ops.game
    A, a = game.constraint_matrix()
    A_ref, a_ref = loop_constraint_matrix(game)
    assert close(A, A_ref) and close(a, a_ref)
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, game.total_action_dim)
        sigma_hat = 3.0 * rng.standard_normal(ops.sigma_layout.stacked_dim)
        assert close(extended_pseudo_gradient(ops, x, sigma_hat),
                     loop_extended_pseudo_gradient(ops, *callbacks, x, sigma_hat))
        assert close(game.pseudo_gradient(x), loop_pseudo_gradient(game, *callbacks, x))
        exact, ref = game.aggregation(x), loop_aggregation(game, x)
        assert exact.keys() == ref.keys() and all(close(exact[q], ref[q]) for q in ref)
        v = 3.0 * rng.standard_normal(game.total_action_dim)
        assert close(game.project(v), project_each(game, v))
        lam = rng.uniform(0.0, 1.0, A.shape[0])
        assert close(kkt_residual(game, x, lam), loop_kkt_residual(game, *callbacks, x, lam))
        state = GneState(x=x, s_hat=sigma_hat,
                         z_hat=rng.standard_normal(ops.lambda_layout.stacked_dim),
                         lam_hat=rng.uniform(0.0, 1.0, ops.lambda_layout.stacked_dim))
        fused, loop = gne_step(ops, state, 0.1, 1e-2), loop_gne_step(ops, state, 0.1, 1e-2)
        for part in ("x", "s_hat", "z_hat", "lam_hat"):
            assert close(getattr(fused, part), getattr(loop, part)), part


@pytest.mark.parametrize("name", ["unicast", "blocks"])
def test_reference_solve_matches_agent_loop(name):
    """A fixed number of centralized primal-dual steps (tol=0) against the
    per-agent loop, on the 7-node reference scheme and the blocks game."""
    if name == "unicast":
        inst = build_unicast(reference_scheme_unicast(0))
        game, callbacks, step = inst.game, unicast_callbacks(inst.scenario), 0.2
    else:
        (game, callbacks), step = blocks_game(), 0.05
    x0 = np.zeros(game.total_action_dim)
    x, lam = solve_vgne_centralized(game, x0, step=step, max_iters=1500, tol=0.0)
    x_ref, lam_ref = loop_solve_vgne(game, *callbacks, x0, step, 1500)
    assert close(x, x_ref) and close(lam, lam_ref)


def allocating_reference_loop(game, x0, step, max_iters, tol):
    """The centralized primal-dual loop as it ran before it ran in place,
    with new arrays every iteration."""
    A, a = game._constraints
    x = np.asarray(x0, dtype=float).copy()
    lam = np.zeros(A.shape[0])
    guard = divergence_guard(x, "reference primal iterate")
    for k in range(max_iters):
        x_new = game.project(x - step * (game.pseudo_gradient(x) + A.T @ lam))
        lam_new = lam + step * (A @ (2 * x_new - x) - a)
        if game.sense == "inequality":
            lam_new = np.maximum(lam_new, 0.0)
        delta = max(float(np.max(np.abs(x_new - x))), float(np.max(np.abs(lam_new - lam))))
        x, lam = x_new, lam_new
        guard(x, k)
        if delta < tol:
            break
    return x, lam


def counting(game):
    """A copy of ``game`` whose gradient counts its calls, and the count."""
    calls = [0]

    def gradient(x, sigma):
        calls[0] += 1
        return game.gradient(x, sigma)

    return dataclasses.replace(game, gradient=gradient), calls


def reference_case(name):
    """(game, step) of the 7-node unicast scheme in either constraint sense,
    or of the blocks game (box, ball, halfspace and free domains)."""
    if name.startswith("unicast"):
        game = build_unicast(reference_scheme_unicast(0)).game
        return dataclasses.replace(game, sense=name.split("-")[1]), 0.2
    game = blocks_game()[0]
    return dataclasses.replace(game, sense=name.split("-")[1]), 0.05


@pytest.mark.parametrize("tol", [0.0, 1e-10])
@pytest.mark.parametrize("name", ["unicast-inequality", "unicast-equality",
                                  "blocks-equality", "blocks-inequality"])
def test_reference_loop_matches_the_allocating_loop(name, tol):
    """The in-place reference loop against the allocating one: the same
    (x, lam) to RTOL, after the same number of iterations (one gradient call
    each) whether the budget or the stop test ends the loop."""
    game, step = reference_case(name)
    x0 = np.linspace(0.0, 0.5, game.total_action_dim)
    budget = 1500 if tol == 0.0 else 50000
    fast, fast_calls = counting(game)
    slow, slow_calls = counting(game)
    x, lam = solve_vgne_centralized(fast, x0, step=step, max_iters=budget, tol=tol)
    x_ref, lam_ref = allocating_reference_loop(slow, x0, step, budget, tol)
    assert close(x, x_ref) and close(lam, lam_ref)
    assert fast_calls == slow_calls
    assert (fast_calls[0] == budget) == (tol == 0.0)


def test_reference_loop_memory_does_not_grow_with_the_iterations():
    """The loop runs on buffers allocated once: its traced peak is the same
    for 200 and for 2,000 iterations."""
    game, step = reference_case("unicast-inequality")
    x0 = np.zeros(game.total_action_dim)
    solve_vgne_centralized(game, x0, step=step, max_iters=10, tol=0.0)  # warm-up
    peaks = []
    for iters in (200, 2000):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve_vgne_centralized(game, x0, step=step, max_iters=iters, tol=0.0)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1024, peaks


def test_reference_is_kept_on_the_game_per_arguments():
    """A second call with the same arguments returns copies of the first
    result without a gradient call; changing any argument solves again."""
    game, step = reference_case("unicast-inequality")
    game, calls = counting(game)
    x0 = np.zeros(game.total_action_dim)
    args = dict(step=step, max_iters=3000, tol=1e-10)
    x, lam = solve_vgne_centralized(game, x0, **args)
    solved = calls[0]
    assert 0 < solved < 3000
    kept = x.copy(), lam.copy()
    x[:] = lam[:] = -1.0
    x2, lam2 = solve_vgne_centralized(game, x0.copy(), **args)
    assert calls[0] == solved
    assert np.array_equal(x2, kept[0]) and np.array_equal(lam2, kept[1])
    x2[:] = lam2[:] = -1.0
    x3, lam3 = solve_vgne_centralized(game, x0, **args)
    assert np.array_equal(x3, kept[0]) and np.array_equal(lam3, kept[1])
    assert calls[0] == solved
    for changed in (dict(x0=x0 + 0.1), dict(step=0.9 * step), dict(max_iters=2999),
                    dict(tol=1e-11)):
        before = calls[0]
        solve_vgne_centralized(game, **{"x0": x0, **args, **changed})
        assert calls[0] > before, changed
    # an equal game built apart from this one keeps its own results
    other, other_calls = counting(reference_case("unicast-inequality")[0])
    solve_vgne_centralized(other, x0, **args)
    assert other_calls[0] == solved
    # the arguments are checked before the kept results are read
    with pytest.raises(GameError, match="positive step"):
        solve_vgne_centralized(game, x0, step=0.0, max_iters=3000, tol=1e-10)
    with pytest.raises(GameError, match="x0 of shape"):
        solve_vgne_centralized(game, np.zeros(game.total_action_dim + 1), **args)


def test_reference_that_diverges_is_never_kept():
    """A solve that raises keeps nothing: every call runs and raises."""
    game, calls = counting(blocks_game()[0])
    x0 = np.zeros(game.total_action_dim)
    for _ in range(2):
        calls[0] = 0
        with pytest.raises(DivergenceError):
            solve_vgne_centralized(game, x0, step=5.0, max_iters=20000)
        assert calls[0] > 0
    assert game._references == {}


@pytest.mark.parametrize("arm", ["standard", "customized", "row"])
@pytest.mark.parametrize("name", ["unicast", "blocks"])
def test_preconditioner_check_matches_dense_reference(name, arm):
    ops, _ = gne_case(name, arm)
    for beta in np.geomspace(1e-4, 10.0, 41):
        assert preconditioner_positive(ops, beta) == (dense_preconditioner_min_eig(ops, beta) > 0)
    # the smallest eigenvalue is 1/beta - sigma_max, so the check flips at 1/sigma_max
    threshold = 1.0 / (1.0 - dense_preconditioner_min_eig(ops, 1.0))
    assert preconditioner_positive(ops, threshold * (1.0 - 1e-9))
    assert not preconditioner_positive(ops, threshold * (1.0 + 1e-9))


def test_preconditioner_check_memory_is_linear():
    """The standard arm of a 20-user network stacks n = 1,700 entries; the
    dense preconditioner alone would take n^2 doubles (23 MB)."""
    inst = build_unicast(sample_unicast(20, 0))
    ops = build_gne_operators(inst.game, *inst.standard)
    n = (ops.game.total_action_dim + ops.sigma_layout.stacked_dim
         + 2 * ops.lambda_layout.stacked_dim)
    tracemalloc.start()
    try:
        assert preconditioner_positive(ops, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * n * n


def stage_nonzeros(stage):
    """Nonzeros the stage stores in its own sparse maps; its BlockOperator
    fields are the layouts' Laplacians, scaled."""
    return sum(f.matrix.nnz for f in stage if isinstance(f, CsrOperator))


@pytest.mark.parametrize("arm", ["standard", "customized"])
def test_gne_stage_stores_no_laplacian(arm, monkeypatch):
    """The stage's sparse maps on a 20-user network hold B̂ and Â at most
    three times each, one identity entry per stacked entry, and the σ̂, pair
    and sum rows of the σ copies: no term grows with nnz(L̂). Neither
    building the stage nor 200 solver rounds composes a layout operator into
    a CSR matrix. On the standard arm a stage holding products with L̂
    stored 9,616 nonzeros, against 3,058 without."""
    inst = build_unicast(sample_unicast(20, 0))
    ops = build_gne_operators(inst.game, *getattr(inst, arm))

    def composed(self):
        raise AssertionError("a layout operator was composed into a CSR matrix")

    monkeypatch.setattr(BlockOperator, "matrix", property(composed))
    beta = inst.scenario.beta
    stage = ops.stage(beta)
    stacked = (ops.game.total_action_dim + ops.sigma_layout.stacked_dim
               + 2 * ops.lambda_layout.stacked_dim)
    inputs = ops.A_hat.matrix.nnz + ops.B_hat.matrix.nnz
    sums = ops.sigma_layout.sum_operator.matrix.nnz
    assert stage_nonzeros(stage) <= 3 * inputs + stacked + 3 * sums
    _, trace = gne_solve(ops, np.zeros(ops.game.total_action_dim), 0.1, beta,
                         max_iters=200, tol=0.0, check_every=50)
    assert trace.steps == 200


def test_gne_stage_is_linear_in_the_layout_at_200_users():
    """On the 200-user standard arm the Laplacians are I_P ⊗ L for one
    200 × 200 L with 10,252 nonzeros and P = 306: a stage holding products
    with them stored 6.49M nonzeros and peaked at 318 MB traced while
    building."""
    inst = build_unicast(sample_unicast(200, 0))
    ops = build_gne_operators(inst.game, *inst.standard)
    tracemalloc.start()
    try:
        stage = games._Stage.build(ops, inst.scenario.beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stage_nonzeros(stage) <= 500_000
    assert peak <= 30 * 2**20


@pytest.mark.parametrize("arm", ["standard", "customized", "row"])
@pytest.mark.parametrize("name", ["unicast", "blocks"])
def test_gne_rounds_track_the_operator_by_operator_steps(name, arm):
    """500 rounds from a zero start against the round written operator by
    operator: drift that one step cannot show stays at roundoff."""
    ops, _ = gne_case(name, arm)
    state = loop = initial_gne_state(ops, np.zeros(ops.game.total_action_dim))
    for _ in range(500):
        state, loop = gne_step(ops, state, 0.1, 1e-2), loop_gne_step(ops, loop, 0.1, 1e-2)
    for part in ("x", "s_hat", "z_hat", "lam_hat"):
        assert close(getattr(state, part), getattr(loop, part)), part


@pytest.mark.parametrize("arm", ["standard", "customized"])
def test_preconditioner_bound_spares_the_lanczos_test(arm, monkeypatch):
    """Where beta times the root of the dense bound is below 1 the check
    holds without eigsh; above it, eigsh decides, as the dense reference."""
    import scipy.sparse.linalg

    ops, _ = gne_case("unicast", arm)
    calls = []
    eigsh = scipy.sparse.linalg.eigsh
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                        lambda *args, **kwargs: calls.append(1) or eigsh(*args, **kwargs))
    bound = 1.0 / np.sqrt(ops.coupling_bound)
    for beta in (1e-3, 0.5 * bound, 0.999 * bound):
        assert preconditioner_positive(ops, beta)
    assert not calls
    threshold = 1.0 / (1.0 - dense_preconditioner_min_eig(ops, 1.0))
    assert threshold >= bound * (1.0 - 1e-12)
    for beta in (1.001 * bound, 2.0 * threshold):
        assert preconditioner_positive(ops, beta) == (dense_preconditioner_min_eig(ops, beta) > 0)
    assert len(calls) == 2


# -- push-sum ---------------------------------------------------------------


def loop_design_weights(layout, snapshot):
    """One slot of example_design_schedule as dense per-component blocks."""
    out = {}
    for p in layout.partition.components:
        base = layout.design[p].graph
        snap = restrict(snapshot, list(base.nodes))
        g = intersect(base, snap.with_self_loops()).with_self_loops()
        out[p] = column_stochastic_weights(g).matrix()
    return out


def loop_pushsum_step(layout, weights, problem, z, q, gamma_k):
    """The per-component push-sum round: each W_p applied by a dense matmul
    to its reshaped slice, and one mass vector per component."""
    q_new, w, y = {}, np.empty_like(z), np.empty_like(z)
    for p in layout.partition.components:
        W = np.asarray(weights[p], dtype=float)
        q_new[p] = W @ q[p]
        s, d = layout.component_slice(p), layout.partition.dim(p)
        wp = W @ z[s].reshape(layout.copies(p), d)
        w[s] = wp.ravel()
        y[s] = (wp / q_new[p][:, None]).ravel()
    g = stacked_gradient(layout, problem, y, sub=True)
    return w - gamma_k * g, q_new, y, g


def loop_pushsum_records(layout, weights_at, problem, gamma, max_iters, reference,
                         check_every):
    """pushsum_solve's records and invariants through the component loops."""
    comps = layout.partition.components
    z = np.zeros(layout.stacked_dim)
    q = {p: np.ones(layout.copies(p)) for p in comps}
    zbar = {p: np.zeros(layout.partition.dim(p)) for p in comps}
    f_star = problem.total_value(reference)
    mass_err = avg_err = 0.0
    rows = []
    for k in range(max_iters):
        gk = gamma(k)
        z, q, y, g = loop_pushsum_step(layout, weights_at(k), problem, z, q, gk)
        for p in comps:
            n, d, s = layout.copies(p), layout.partition.dim(p), layout.component_slice(p)
            mass_err = max(mass_err, abs(float(np.sum(q[p])) - n))
            zbar[p] = zbar[p] - gk * g[s].reshape(n, d).mean(axis=0)
            avg_err = max(avg_err, float(np.max(np.abs(z[s].reshape(n, d).mean(axis=0)
                                                        - zbar[p]))))
        if (k + 1) % check_every == 0:
            means = loop_component_means(layout, z)
            res = max(float(np.max(np.abs(
                y[layout.component_slice(p)].reshape(layout.copies(p), -1)
                - means[layout.partition.component_slice(p)]))) for p in comps)
            rows.append((res, problem.total_value(means) - f_star))
    return rows, mass_err, avg_err, z


def pushsum_layouts(seed, dims=(2, 1, 3, 2), num_agents=7):
    """Both arms on a ring with column-stochastic weights, a quadratic on
    the interference pattern and the ring's edges split into 3 snapshots."""
    rng = np.random.default_rng(seed)
    comm = ring(num_agents)
    interference = random_interference(rng, len(dims), num_agents)
    footprints = [tuple(sorted(p for p, j in interference if j == i))
                  for i in range(1, num_agents + 1)]
    problem = random_quadratic(rng, dims, footprints)
    crit = DesignCriterion(ConnectivityMode.strongly_connected(), objective="min_nodes",
                           augment=True)
    arms = {"standard": standard_layout(comm, interference, Partition(dims),
                                        weight_scheme="column"),
            "customized": design_layout(comm, interference, Partition(dims), crit,
                                        weight_scheme="column")}
    edges = sorted(e for e in comm.edges if e[0] != e[1])
    snapshots = [Graph.directed_graph(comm.nodes, edges[t::3]) for t in range(3)]
    return arms, problem, snapshots


@pytest.mark.parametrize("arm", ["standard", "customized"])
def test_pushsum_step_matches_component_loop(arm, monkeypatch):
    arms, problem, snapshots = pushsum_layouts(7)
    layout = arms[arm]
    assert max(layout.copies(p) for p in layout.partition.components) > 1
    compiles = []  # every block operator is compiled here, from any route
    compile_operator = EndLayout._compile
    monkeypatch.setattr(EndLayout, "_compile", lambda self, dense, sparse: compiles.append(1)
                        or compile_operator(self, dense, sparse))
    schedule = example_design_schedule(layout, snapshots)
    assert not compiles  # slots compile on their first round, inside the solve
    gamma = power_step_schedule(0.05, 0.6)
    state = pushsum_init(layout)
    z = np.zeros(layout.stacked_dim)
    q = {p: np.ones(layout.copies(p)) for p in layout.partition.components}
    for k in range(60):
        state, g = pushsum_dgd_step(layout, schedule(k), problem, state, gamma(k))
        z, q, y, g_ref = loop_pushsum_step(layout, loop_design_weights(layout, snapshots[k % 3]),
                                           problem, z, q, gamma(k))
        assert close(state.z, z), k
        assert close(state.y, y), k
        assert close(g, g_ref), k
        for p in layout.partition.components:
            assert close(state.q[p], q[p]), (k, p)
    assert len(compiles) == 3 and schedule(3) is schedule(0)


@pytest.mark.parametrize("weights", ["column", "perturbed"])
def test_pushsum_solve_records_match_loop_reference(weights):
    """Records and invariants of pushsum_solve against the component loops;
    perturbed weights are not column-stochastic, so the mass and the
    averaged process drift and both invariants are far from roundoff."""
    arms, problem, snapshots = pushsum_layouts(8)
    layout = arms["customized"]
    rng = np.random.default_rng(9)
    slots = [loop_design_weights(layout, snap) for snap in snapshots]
    if weights == "perturbed":
        slots = [{p: W * rng.uniform(0.97, 1.03, W.shape) for p, W in slot.items()}
                 for slot in slots]
    ops = [layout.block_operator(slot) for slot in slots]
    gamma, iters, every = power_step_schedule(0.05, 0.6), 300, 20
    reference = problem.solve_reference()
    state, trace = pushsum_solve(layout, lambda k: ops[k % 3], problem, gamma,
                                 max_iters=iters, reference=reference, check_every=every)
    rows, mass_err, avg_err, z = loop_pushsum_records(
        layout, lambda k: slots[k % 3], problem, gamma, iters, reference, every)
    consensus, f_gap = (list(c) for c in zip(*rows))
    assert close(trace.columns["consensus_err"], consensus)
    assert close(trace.columns["f_gap"], f_gap)
    assert close(trace.meta["max_mass_error"], mass_err)
    assert close(trace.meta["max_averaged_process_error"], avg_err)
    assert close(state.z, z)
    if weights == "perturbed":
        assert mass_err > 1e-3 and avg_err > 1e-3
    else:
        assert mass_err <= 1e-12 and avg_err <= 1e-12


@pytest.mark.parametrize("name", ["unicast", "blocks"])
def test_gne_step_is_the_solvers_round(name):
    """gne_step iterated from the solver's start ends bit for bit where
    gne_solve does: both run the one compiled round."""
    ops, _ = gne_case(name, "customized")
    x0 = np.full(ops.game.total_action_dim, 0.3)
    final, trace = gne_solve(ops, x0, 0.1, 2e-3, max_iters=120, tol=0.0, check_every=40)
    state = initial_gne_state(ops, x0)
    for _ in range(120):
        state = gne_step(ops, state, 0.1, 2e-3)
    for part in ("x", "s_hat", "z_hat", "lam_hat"):
        assert np.array_equal(getattr(final, part), getattr(state, part)), part
    assert trace.meta["us_per_step"] > 0


def unbound_gne_row(ops, state, alpha, reference):
    """gne_solve's trace row for ``state`` from the unbound functions: the
    consensus multiplier, the KKT residual spelled out with the game's
    compiled operators, sigma_hat and the layouts' disagreements."""
    game = ops.game
    lam = consensus_dual(ops, state.lam_hat) / alpha
    A, a = game._constraints
    drive = game.pseudo_gradient(state.x) + A.T @ lam
    stat = float(np.linalg.norm(game.project(state.x - drive) - state.x))
    gap = A @ state.x - a
    if game.sense == "equality":
        residual = stat + float(np.linalg.norm(gap))
    else:
        residual = stat + float(np.linalg.norm(np.maximum(gap, 0.0))) + abs(float(lam @ gap))
    sigma_hat = state.sigma_hat(ops)
    row = {"residual": residual,
           "sigma_disagreement": float(np.linalg.norm(ops.sigma_layout.disagreement(sigma_hat))),
           "lambda_disagreement": float(np.linalg.norm(
               ops.lambda_layout.disagreement(state.lam_hat)))}
    if reference is not None:
        row["distance"] = float(np.linalg.norm(state.x - reference))
    return row


@pytest.mark.parametrize("arm", ["standard", "customized"])
@pytest.mark.parametrize("name", ["unicast", "blocks"])
def test_gne_records_are_the_unbound_columns_bit_for_bit(name, arm):
    """Each gne_solve record, bound once per buffer, equals the unbound
    row on the same state, with and without a reference; consecutive
    records read the two buffers in turn."""
    ops, _ = gne_case(name, arm)
    n = ops.game.total_action_dim
    x0 = np.full(n, 0.3)
    alpha, beta, iters = 0.1, 2e-3, 7
    for reference in (None, np.linspace(0.0, 1.0, n)):
        _, trace = gne_solve(ops, x0, alpha, beta, max_iters=iters, tol=0.0,
                             reference=reference, check_every=1)
        state = initial_gne_state(ops, x0)
        for k in range(iters):
            state = gne_step(ops, state, alpha, beta)
            row = unbound_gne_row(ops, state, alpha, reference)
            assert sorted(trace.columns) == sorted(["k", *row])
            for column, value in row.items():
                assert trace.columns[column][k] == value, (column, k)
        assert kkt_residual(ops.game, state.x, consensus_dual(ops, state.lam_hat) / alpha) \
            == row["residual"]


@pytest.mark.parametrize("arm", ["standard", "customized"])
def test_gne_invariant_blocks_match_the_stepwise_norms(arm):
    """gne_solve's largest consensus invariant, reduced once per block of
    rounds, against the squared norm taken after every round, over runs
    that end inside and just past a block."""
    ops, _ = gne_case("unicast", arm)
    x0 = np.full(ops.game.total_action_dim, 0.3)
    for steps in (BLOCK_ROWS - 1, 2 * BLOCK_ROWS + 1):
        _, trace = gne_solve(ops, x0, 0.1, 2e-3, max_iters=steps, tol=0.0,
                             check_every=steps)
        rounds = games._rounds(ops, initial_gne_state(ops, x0), 0.1, 2e-3)
        worst = 0.0
        for _ in range(steps):
            rounds.step()
            worst = max(worst, float(rounds.state.s_norms @ rounds.state.s_norms))
        sums = ops.sigma_layout.component_sums(rounds.state.s)
        worst = max(worst, sums @ (sums / ops.sigma_layout.copy_counts))
        assert np.isclose(trace.meta["max_consensus_invariant"], np.sqrt(worst),
                          rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("arm", ["standard", "customized"])
def test_pushsum_step_is_the_solvers_round(arm):
    """pushsum_dgd_step iterated ends bit for bit where pushsum_solve does,
    on a 3-periodic schedule."""
    arms, problem, snapshots = pushsum_layouts(7)
    layout = arms[arm]
    schedule = example_design_schedule(layout, snapshots)
    gamma = power_step_schedule(0.05, 0.6)
    final, trace = pushsum_solve(layout, schedule, problem, gamma, max_iters=90,
                                 check_every=30)
    state = pushsum_init(layout)
    for k in range(90):
        state, _ = pushsum_dgd_step(layout, schedule(k), problem, state, gamma(k))
    for part in ("z", "mass", "y"):
        assert np.array_equal(getattr(final, part), getattr(state, part)), part
    assert trace.meta["us_per_step"] > 0


class StepwiseInvariants:
    """The push-sum invariants as the rounds tracked them after every round
    before the ring: the summing kernel into a fixed vector, then the z̄
    update and the running maxima, one call each."""

    def __init__(self, layout):
        total = layout.partition.total_dim
        S = layout.sum_operator.matrix
        mean = sp.diags(1.0 / layout.copy_counts) @ S
        kernel = CsrOperator(sp.block_diag([mean, S, mean], format="csr"))
        self.buffer = np.zeros(3 * layout.stacked_dim)
        self.sums = np.empty(3 * total)
        self.z_and_mass, self.g_means = self.sums[:2 * total], self.sums[2 * total:]
        self.bound = kernel.bind(self.buffer, self.sums)
        self.expected = np.concatenate([np.zeros(total), layout.copy_counts])
        self.zbar = self.expected[:total]
        self.worst = np.zeros(2 * total)
        self.deviation = np.empty(2 * total)
        self.step_mean = np.empty(total)

    def track(self, rounds, gamma):
        n = rounds.z.size
        self.buffer[:n], self.buffer[n:2 * n], self.buffer[2 * n:] = rounds.z, rounds.mass, rounds.g
        self.bound()
        np.multiply(self.g_means, gamma, out=self.step_mean)
        np.subtract(self.zbar, self.step_mean, out=self.zbar)
        np.subtract(self.z_and_mass, self.expected, out=self.deviation)
        np.abs(self.deviation, out=self.deviation)
        np.maximum(self.worst, self.deviation, out=self.worst)

    @property
    def errors(self):
        total = self.zbar.size
        return (float(np.max(self.worst[total:], initial=0.0)),
                float(np.max(self.worst[:total], initial=0.0)))


def slot_operators(layout, snapshots, perturbed):
    """The three column-stochastic slots of a design schedule, or (perturbed)
    the same blocks with every weight scaled by up to 3%, which conserve
    neither the mass nor the averaged process."""
    slots = [loop_design_weights(layout, snap) for snap in snapshots]
    if perturbed:
        rng = np.random.default_rng(9)
        slots = [{p: W * rng.uniform(0.97, 1.03, W.shape) for p, W in slot.items()}
                 for slot in slots]
    return [layout.block_operator(slot) for slot in slots]


@pytest.mark.parametrize("perturbed", [False, True], ids=["column", "perturbed"])
@pytest.mark.parametrize("arm", ["standard", "customized"])
def test_pushsum_ring_invariants_equal_the_stepwise_reduction(arm, perturbed):
    """The ring's block passes give the invariants of a reduction after every
    round bit for bit, on runs that end inside, at and just past a block;
    reading them mid-run flushes the ring and leaves the rest unchanged."""
    arms, problem, snapshots = pushsum_layouts(8)
    layout = arms[arm]
    ops = slot_operators(layout, snapshots, perturbed)
    gamma = power_step_schedule(0.05, 0.6)
    K = BLOCK_ROWS
    for steps in (1, K - 1, K, K + 1, 3 * K + 5):
        rounds = _PushSumRounds(layout, problem, pushsum_init(layout), invariants=True)
        reference = StepwiseInvariants(layout)
        for k in range(steps):
            rounds.step(ops[k % 3], gamma(k))
            reference.track(rounds, gamma(k))
            if k == K // 2:
                assert (rounds.mass_error, rounds.averaged_error) == reference.errors
                assert rounds._ring.filled == 0
        assert (rounds.mass_error, rounds.averaged_error) == reference.errors, steps
        if perturbed and steps > K:
            assert min(reference.errors) > 1e-3
    state, trace = pushsum_solve(layout, lambda k: ops[k % 3], problem, gamma,
                                 max_iters=3 * K + 5, check_every=K + 1)
    assert (trace.meta["max_mass_error"], trace.meta["max_averaged_process_error"]) \
        == reference.errors
    assert np.array_equal(state.z, rounds.z)


@pytest.mark.parametrize("arm, dims", [("standard", (1,) * 5),
                                       ("customized", (2, 1, 3, 2, 1))])
def test_pushsum_rounds_allocate_nothing_and_the_ring_stays_small(arm, dims):
    """A push-sum round that completes no block of the ring allocates
    nothing, a block pass leaves nothing behind, and the ring holds
    3 · total_dim floats a row, far below a stacked vector."""
    arms, problem, snapshots = pushsum_layouts(8, dims=dims, num_agents=12)
    layout = arms[arm]
    total = layout.partition.total_dim
    assert 3 * total < layout.stacked_dim
    ops = slot_operators(layout, snapshots, False)
    rounds = _PushSumRounds(layout, problem, pushsum_init(layout), invariants=True)
    assert rounds._ring.rows.size <= BLOCK_ROWS * 3 * total
    for k in range(BLOCK_ROWS):  # binds every slot and passes one block
        rounds.step(ops[k % 3], 0.01)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for k in range(BLOCK_ROWS - 1):
            rounds.step(ops[k % 3], 0.01)
        within = tracemalloc.get_traced_memory()[1] - start
        for k in range(2 * BLOCK_ROWS + 1):
            rounds.step(ops[k % 3], 0.01)
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert within < 1024, within  # a few numpy scalars, never an array
    assert left < 1024, left


def gathered_group_apply(op, v):
    """``op @ v`` with each dense group gathered into the product's shape
    and scattered back through fresh arrays, as a bound apply did before
    its index plan and buffers were made once."""
    out = np.zeros_like(v) if op._sparse is None else op._sparse @ v
    for g, mt in op._dense:
        x = v[g.index].reshape(-1, g.copies, g.dim).swapaxes(1, 2).reshape(-1, g.copies)
        out[g.index] = (x @ mt).reshape(-1, g.dim, g.copies).swapaxes(1, 2).reshape(-1)
    return out


@pytest.mark.parametrize("num_agents", [12, 48])
def test_dense_groups_of_any_dimension_apply_without_allocating(num_agents):
    """63 push-sum rounds on a standard layout of dims (2, 1, 3, 2, 1),
    whose dense groups are neither of dimension 1 nor contiguous, allocate
    no group-sized array: the traced peak stays under 1 KB on 12 agents and
    on 48, where each group has 4x the entries (12 agents peaked at 5.3 KB
    when every apply gathered and scattered through temporaries). What is
    left is np.matmul's own bookkeeping, ~0.5 KB a call, which the
    contiguous dimension-1 path shows too. The iterates are those of the
    allocating apply, bit for bit."""
    arms, problem, snapshots = pushsum_layouts(8, dims=(2, 1, 3, 2, 1),
                                               num_agents=num_agents)
    layout = arms["standard"]
    assert {(g.dim, isinstance(g.index, slice)) for g in layout.groups
            if len(g.members) > 1} == {(2, False), (1, False)}
    ops = slot_operators(layout, snapshots, False)
    rounds = _PushSumRounds(layout, problem, pushsum_init(layout), invariants=True)
    z, mass = np.zeros(layout.stacked_dim), np.ones(layout.stacked_dim)
    stacked = stacked_form(layout, problem)
    for k in range(BLOCK_ROWS):  # binds every slot and passes one block
        rounds.step(ops[k % 3], 0.01)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for k in range(BLOCK_ROWS, 2 * BLOCK_ROWS - 1):
            rounds.step(ops[k % 3], 0.01)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    for k in range(2 * BLOCK_ROWS - 1):
        w, mass = gathered_group_apply(ops[k % 3], z), gathered_group_apply(ops[k % 3], mass)
        z = w - 0.01 * stacked.gradient(w / mass, sub=True)
    assert peak < 1024, peak
    assert np.array_equal(rounds.z, z) and np.array_equal(rounds.mass, mass)


@pytest.mark.parametrize("arm", ["standard", "customized"])
def test_pushsum_and_tracking_iterates_match_the_product_first_gradient(arm):
    """500 push-sum and AugDGM steps with the gradient accumulated onto ĉ
    against rounds that form Q̂ŷ first and add ĉ after, as the solvers did
    before: the iterates agree to RTOL."""
    arms, problem, snapshots = pushsum_layouts(7)
    layout = arms[arm]
    full = placed_quadratic(layout, problem)

    def gradient(y):
        return full.q_hat.matrix @ y + full.c_hat

    slots = [loop_design_weights(layout, snap) for snap in snapshots]
    ops = [layout.block_operator(slot) for slot in slots]
    gamma = power_step_schedule(0.05, 0.6)
    state, _ = pushsum_solve(layout, lambda k: ops[k % 3], problem, gamma, max_iters=500,
                             check_every=100)
    z, q = np.zeros(layout.stacked_dim), np.ones(layout.stacked_dim)
    for k in range(500):
        w = ops[k % 3].matrix @ z
        q = ops[k % 3].matrix @ q
        z = w - gamma(k) * gradient(w / q)
    assert close(state.z, z)

    layout = grouped_layout("designed" if arm == "customized" else "standard",
                            (1, 2, 1, 3), 7, 4)
    rng = np.random.default_rng(4)
    problem = random_quadratic(rng, (1, 2, 1, 3), [layout.needed_by(i) for i in layout.agents])
    full, w = placed_quadratic(layout, problem), layout.weight_operator.matrix
    step = 0.5 / problem.smooth_lipschitz
    y, _ = augdgm_solve(layout, problem, step, max_iters=500, merit_every=100)
    ref = np.zeros(layout.stacked_dim)
    g = gradient(ref)
    v = w @ g
    for _ in range(500):
        ref = w @ (ref - step * v)
        g_new = gradient(ref)
        v, g = w @ (v + g_new - g), g_new
    assert close(y, ref)


def coupled_problem():
    """Four agents sharing a 2-dim and a 1-dim resource row; agents 1 to 3
    act in R^2 and agent 4 in R, and agent i minimizes |x_i - c_i|^2 on a
    box [-5, 5]. Returns the problem, whose oracle runs on stacked prices,
    and the per-agent oracle local(i, y_blocks) it replaced."""
    rng = np.random.default_rng(10)
    footprints = ((1,), (1, 2), (2,), (1, 2))
    dims, x_dims = (2, 1), (2, 2, 2, 1)
    con_blocks = {(p, i): rng.standard_normal((dims[p - 1], x_dims[i - 1]))
                  for i, fp in enumerate(footprints, start=1) for p in fp}
    con_offsets = {(1, 1): rng.standard_normal(2), (2, 3): rng.standard_normal(1),
                   (1, 4): rng.standard_normal(2)}
    centers = [rng.standard_normal(d) for d in x_dims]
    flat = np.concatenate(centers)

    def oracle(r):
        return np.clip(flat - r / 2.0, -5.0, 5.0)

    def local(i, blocks):
        pull = sum(con_blocks[(p, i)].T @ blocks[p] for p in footprints[i - 1])
        return np.clip(centers[i - 1] - pull / 2.0, -5.0, 5.0)

    ccp = ConstraintCoupledProblem(
        x_dims=x_dims, component_dims=dims, footprints=footprints,
        con_blocks=con_blocks, con_offsets=con_offsets, argmin_oracle=oracle)
    return ccp, local


class NegatedDual(SeparableProblem):
    """-Σ_i φ_i agent by agent: the per-agent oracle at agent i's multiplier
    blocks, and minus its constraint gap A_{p,i} x_i - a_{p,i} on each
    component of its footprint as the gradient. ``last_primal`` keeps each
    agent's last minimizer."""

    def __init__(self, ccp, local):
        super().__init__(ccp.component_dims, ccp.footprints)
        self.ccp, self.local = ccp, local
        self.last_primal = {}

    def stacked(self, layout):
        return AgentLoopStacked(layout, self)

    def smooth_gradient(self, i, blocks):
        x = self.last_primal[i] = self.local(i, blocks)
        out = {}
        for p in self.footprint(i):
            A = self.ccp.con_blocks.get((p, i))
            a = self.ccp.con_offsets.get((p, i))
            g = A @ x if A is not None else np.zeros(self.dim(p))
            if a is not None:
                g = g - a
            out[p] = -g
        return out


@pytest.mark.parametrize("kind", ["standard", "designed"])
def test_constraint_coupled_solve_matches_component_loop(kind):
    """300 rounds of the compiled dual against push-sum over the component
    loops with one oracle call per agent: the multiplier means, the last
    records, the ergodic and the final minimizers agree to RTOL."""
    ccp, local = coupled_problem()
    interference = frozenset((p, i) for i, fp in enumerate(ccp.footprints, start=1)
                             for p in fp)
    comm = ring(4)
    if kind == "standard":
        layout = standard_layout(comm, interference, Partition(ccp.component_dims),
                                 weight_scheme="column")
    else:
        crit = DesignCriterion(ConnectivityMode.strongly_connected(), objective="min_nodes",
                               augment=True)
        layout = design_layout(comm, interference, Partition(ccp.component_dims), crit,
                               weight_scheme="column")
    edges = sorted(e for e in comm.edges if e[0] != e[1])
    snapshots = [Graph.directed_graph(comm.nodes, edges[t::3]) for t in range(3)]
    gamma, iters = power_step_schedule(0.5, 0.6), 300
    y_mean, x_final, trace = constraint_coupled_solve(
        layout, ccp, example_design_schedule(layout, snapshots), gamma, max_iters=iters)

    dual = NegatedDual(ccp, local)
    z = np.zeros(layout.stacked_dim)
    q = {p: np.ones(layout.copies(p)) for p in layout.partition.components}
    x_acc = {i: np.zeros(d) for i, d in enumerate(ccp.x_dims, start=1)}
    for k in range(iters):
        z, q, y, _ = loop_pushsum_step(layout, loop_design_weights(layout, snapshots[k % 3]),
                                       dual, z, q, gamma(k))
        for i, x in dual.last_primal.items():
            x_acc[i] += gamma(k) * x
    y_ref = loop_component_means(layout, z)
    weight = sum(gamma(k) for k in range(iters))
    x_avg = {i: v / weight for i, v in x_acc.items()}
    gaps = []
    for p in layout.partition.components:
        gap = -sum(a for (pp, _), a in ccp.con_offsets.items() if pp == p)
        gaps.append(np.max(np.abs(gap + sum(A @ x_avg[i] for (pp, i), A in ccp.con_blocks.items()
                                            if pp == p))))
    assert close(y_mean, y_ref)
    assert close(trace.last("consensus_err"),
                 np.linalg.norm(y - loop_consensus_projection(layout, y)))
    assert close(trace.last("primal_gap"), max(gaps))
    assert sorted(x_final) == sorted(trace.meta["x_ergodic"]) == [1, 2, 3, 4]
    for i in x_acc:
        assert close(trace.meta["x_ergodic"][i], x_avg[i]), i
        blocks = {p: y_ref[layout.partition.component_slice(p)] for p in ccp.footprints[i - 1]}
        assert close(x_final[i], local(i, blocks)), i


@pytest.mark.parametrize("arm", ["standard", "customized"])
def test_coupled_dual_calls_its_oracle_once_a_round(arm):
    """Through ``cli.run_solver`` the coupled dual calls its price oracle
    once a round, for every agent at once, and once more for the final
    minimizers."""
    bundle = cli.build_scenario({"kind": "coupled_qp", "num_agents": 6, "dim": 2, "seed": 3})
    ccp, shapes = bundle["problem"], []

    def counted(r):
        shapes.append(r.shape)
        return ccp.argmin_oracle(r)

    bundle = {**bundle, "problem": dataclasses.replace(ccp, argmin_oracle=counted)}
    result = cli.run_solver(bundle, {"algorithm": "dual", "max_iters": 250}, arm)
    assert result["iterations"] == 250
    assert shapes == [(12,)] * 251


def test_coupled_dual_rejects_a_misshapen_oracle_result():
    """An oracle whose result does not have the stacked actions' shape is an
    OptimError, not a broadcast."""
    ccp, _ = coupled_problem()
    bad = dataclasses.replace(ccp, argmin_oracle=lambda r: 0.0)
    layout = standard_layout(ring(4), frozenset((p, i) for i, fp in enumerate(ccp.footprints, 1)
                                                for p in fp),
                             Partition(ccp.component_dims), weight_scheme="column")
    with pytest.raises(OptimError, match=r"price oracle returned shape \(\), expected \(7,\)"):
        constraint_coupled_solve(layout, bad, lambda k: layout.weight_operator,
                                 power_step_schedule(), max_iters=3)
