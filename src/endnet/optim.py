"""Distributed optimization over estimate-exchange layouts.

Four solver families on top of :class:`~endnet.layout.EndLayout`:

* edge-based ADMM on the design graphs' adjacency;
* the generic two-matrix first-order family (A, B, C polynomials in each
  component group's weights) with a spectral condition checker, an
  ergodic-rate bound, and the gradient-tracking instantiation;
* push-sum subgradient descent over time-varying directed designs;
* a dual pipeline for constraint-coupled problems driven by push-sum.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.polynomial import polyval

from .graphs import Graph, column_stochastic_weights, intersect, restrict
from .layout import BlockOperator, ComponentGroup, CsrOperator, EndLayout, _in_order, _ranges
from .trace import BLOCK_ROWS, RowBlocks, RunTrace, divergence_guard, run_steps


class OptimError(ValueError):
    pass


# -- separable problems ----------------------------------------------------


class SeparableProblem:
    """Cost Σ_i f_i over a partitioned variable; f_i touches a footprint.

    Subclasses provide ``value`` (including any nonsmooth part) and
    ``smooth_gradient`` (dict keyed by component). ``l1_weight`` returns the
    coefficient of the 1-norm term on a block (zero by default), which the
    subgradient selector and the stacked proximal inner loop of ADMM use.

    A solver runs a problem through its compiled ``stacked(layout)`` form,
    never agent by agent; only :class:`QuadraticSeparable` (Lasso among
    them) ships one, :class:`StackedQuadratic`.
    """

    def __init__(self, component_dims: Sequence[int], footprints: Sequence[Sequence[int]],
                 smooth_lipschitz: float | None = None):
        self.component_dims = tuple(int(d) for d in component_dims)
        if any(d < 1 for d in self.component_dims):
            raise OptimError("component dims must be >= 1")
        self.footprints = tuple(tuple(sorted(fp)) for fp in footprints)
        self.smooth_lipschitz = smooth_lipschitz
        # starts[p - 1] is where component p starts in a flat variable, and
        # starts[-1] its length
        self._starts = list(accumulate(self.component_dims, initial=0))

    @property
    def num_agents(self) -> int:
        return len(self.footprints)

    @property
    def num_components(self) -> int:
        return len(self.component_dims)

    def dim(self, p: int) -> int:
        return self.component_dims[p - 1]

    def footprint(self, i: int) -> tuple[int, ...]:
        return self.footprints[i - 1]

    def component_slice(self, p: int) -> slice:
        return slice(self._starts[p - 1], self._starts[p])

    def value(self, i: int, blocks: Mapping[int, np.ndarray]) -> float:
        raise NotImplementedError

    def smooth_gradient(self, i: int, blocks: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
        raise NotImplementedError

    def l1_weight(self, i: int, p: int) -> float:
        return 0.0

    def stacked(self, layout: EndLayout):
        """Evaluator of the stacked cost and gradient on ``layout``."""
        raise NotImplementedError

    def subgradient(self, i: int, blocks: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Smooth gradient plus the sign selector on any 1-norm terms."""
        out = {p: g.astype(float).copy() for p, g in self.smooth_gradient(i, blocks).items()}
        for p in self.footprint(i):
            w = self.l1_weight(i, p)
            if w != 0.0:
                out[p] = out.get(p, np.zeros(self.dim(p))) + w * np.sign(blocks[p])
        return out

    def total_value(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        return sum(
            self.value(i, {p: y[self.component_slice(p)] for p in self.footprint(i)})
            for i in range(1, self.num_agents + 1)
        )

    def total_smooth_gradient(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for i in range(1, self.num_agents + 1):
            blocks = {p: y[self.component_slice(p)] for p in self.footprint(i)}
            for p, g in self.smooth_gradient(i, blocks).items():
                out[self.component_slice(p)] += g
        return out


class QuadraticSeparable(SeparableProblem):
    """f_i = 1/2 Σ_{p,q} y_p' H_i[p,q] y_q + Σ_p c_i[p]' y_p + const_i
    + Σ_p w_{i,p} ||y_p||_1, with the 1-norm weights w_{i,p} given by
    ``l1_weights`` keyed (i, p) (none by default)."""

    def __init__(self, component_dims, footprints, quadratics, linears, constants=None,
                 l1_weights=None):
        super().__init__(component_dims, footprints)
        self.quadratics = [dict(q) for q in quadratics]
        self.linears = [dict(c) for c in linears]
        self.constants = list(constants) if constants is not None else [0.0] * len(footprints)
        self.l1_weights = dict(l1_weights or {})
        # dense per-agent form (H_i, c_i, footprint, offsets) so the hot
        # gradient path is one matvec instead of a loop over scalar blocks;
        # ofs[p] is where block p starts in agent i's footprint vector
        dims = self.component_dims
        self._dense = []
        for i, (fp, H_blocks, linear) in enumerate(
                zip(self.footprints, self.quadratics, self.linears), start=1):
            ofs = {}
            pos = 0
            for p in fp:
                ofs[p] = pos
                pos += dims[p - 1]
            for (p, q), blk in list(H_blocks.items()):
                if p not in ofs or q not in ofs:
                    raise OptimError(f"agent {i}: quadratic block {(p, q)} off the footprint")
                if (q, p) not in H_blocks:
                    H_blocks[(q, p)] = np.asarray(blk).T
            H = np.zeros((pos, pos))
            for (p, q), blk in H_blocks.items():
                a, b = ofs[p], ofs[q]
                H[a:a + dims[p - 1], b:b + dims[q - 1]] = blk
            c = np.zeros(pos)
            for p, vec in linear.items():
                c[ofs[p]:ofs[p] + dims[p - 1]] += vec
            self._dense.append((H, c, fp, ofs))
        self.smooth_lipschitz = max(
            (float(np.linalg.norm(H, 2)) for H, _, fp, _ in self._dense if fp),
            default=0.0,
        )

    def stacked(self, layout: EndLayout) -> "StackedQuadratic":
        return StackedQuadratic(layout, self)

    def value(self, i, blocks):
        val = self.constants[i - 1]
        for (p, q), blk in self.quadratics[i - 1].items():
            val += 0.5 * float(blocks[p] @ (blk @ blocks[q]))
        for p, c in self.linears[i - 1].items():
            val += float(c @ blocks[p])
        if self.l1_weights:
            for p in self.footprint(i):
                val += self.l1_weight(i, p) * float(np.sum(np.abs(blocks[p])))
        return val

    def l1_weight(self, i, p):
        return float(self.l1_weights.get((i, p), 0.0))

    def smooth_gradient(self, i, blocks):
        H, c, fp, ofs = self._dense[i - 1]
        if not fp:
            return {}
        x = np.concatenate([blocks[p] for p in fp])
        g = H @ x + c
        return {p: g[ofs[p]:ofs[p] + self.dim(p)] for p in fp}

    @cached_property
    def _total_form(self) -> tuple[CsrOperator, np.ndarray, float, np.ndarray | None]:
        """The total cost assembled once: Σ_i H_i in CSR, Σ_i c_i, Σ_i const_i
        and each coordinate's summed 1-norm weight (None without any)."""
        n = self._starts[-1]
        H, c = _scatter_quadratics(n, (
            (_ranges(self.component_slice(p) for p in fp), H_i, c_i)
            for H_i, c_i, fp, _ in self._dense))
        weights = np.zeros(n)
        if self.l1_weights:
            for i in range(1, self.num_agents + 1):
                for p in self.footprint(i):
                    weights[self.component_slice(p)] += self.l1_weight(i, p)
        return H, c, float(sum(self.constants)), weights if weights.any() else None

    def total_value(self, y: np.ndarray) -> float:
        """½yᵀHy + cᵀy + const + Σ w|y| on the assembled total cost."""
        H, c, const, weights = self._total_form
        y = np.asarray(y, dtype=float)
        val = const + float(y @ (0.5 * (H @ y) + c))
        if weights is not None:
            val += float(weights @ np.abs(y))
        return val

    def solve_reference(self) -> np.ndarray:
        """Centralized minimizer of the total cost (positive definite case,
        no 1-norm weights)."""
        if any(self.l1_weights.values()):
            raise OptimError("the closed-form reference needs a problem without 1-norm terms")
        H, c, _, _ = self._total_form
        H = H.toarray()
        return np.linalg.solve((H + H.T) / 2.0, -c)


class LassoSeparable(QuadraticSeparable):
    """f_i = 1/2 ||G_i y_fp - d_i||^2 + Σ_p w_{i,p} ||y_p||_1.

    ``G_i`` acts on the concatenation of agent i's footprint blocks in
    ascending component order. The smooth part is kept as the quadratic
    H_i = G_i'G_i, c_i = -G_i'd_i, const_i = 1/2 ||d_i||^2, so an agent that
    senses nothing (an empty footprint and a 0-wide G_i) keeps its constant.
    """

    def __init__(self, component_dims, footprints, design_matrices, observations,
                 l1_weights=None):
        dims = tuple(int(d) for d in component_dims)
        self.design_matrices = [np.asarray(G, dtype=float) for G in design_matrices]
        self.observations = [np.asarray(d, dtype=float) for d in observations]
        quadratics, linears, constants = [], [], []
        for i, fp in enumerate((tuple(sorted(fp)) for fp in footprints), start=1):
            G, d = self.design_matrices[i - 1], self.observations[i - 1]
            ofs = np.cumsum([0] + [dims[p - 1] for p in fp])
            if G.shape[1] != ofs[-1]:
                raise OptimError(f"agent {i}: data matrix width != footprint dim")
            H, c = G.T @ G, -(G.T @ d)
            quadratics.append({(p, q): H[ofs[a]:ofs[a + 1], ofs[b]:ofs[b + 1]]
                               for a, p in enumerate(fp) for b, q in enumerate(fp)})
            linears.append({p: c[ofs[a]:ofs[a + 1]] for a, p in enumerate(fp)})
            constants.append(0.5 * float(d @ d))
        super().__init__(dims, footprints, quadratics, linears, constants, l1_weights)
        self.smooth_lipschitz = max(
            (float(np.linalg.norm(G, 2)) ** 2 for G in self.design_matrices
             if G.shape[1] > 0),
            default=0.0,
        )

    def solve_reference(self, tol: float = 1e-10, max_iters: int = 200000) -> np.ndarray:
        """Centralized minimizer via accelerated proximal gradient."""
        H, c, _, weights = self._total_form
        if weights is None:
            weights = np.zeros(c.size)
        L = sum(float(np.linalg.norm(G, 2)) ** 2 for G in self.design_matrices)
        step = 1.0 / L
        return _accelerated_proximal_gradient(lambda y: H @ y + c, step, step * weights, tol,
                                              max_iters)[0]


def _accelerated_proximal_gradient(gradient: Callable, step: float, threshold: np.ndarray,
                                   tol: float, max_iters: int) -> tuple[np.ndarray, bool]:
    """Accelerated proximal gradient from zero, soft-thresholding at
    ``threshold``: the last iterate, and whether it moved by less than
    ``tol`` (max-norm) before ``max_iters`` steps ran out."""
    y = prev = np.zeros(threshold.size)
    momentum = 1.0
    for _ in range(max_iters):
        v = y - step * gradient(y)
        x = np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)
        momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        y = x + ((momentum - 1.0) / momentum_next) * (x - prev)
        delta = float(np.max(np.abs(x - prev)))
        prev, momentum = x, momentum_next
        if delta < tol:
            return x, True
    return prev, False


# -- stacked evaluation ------------------------------------------------------


def _stacked_l1(layout: EndLayout, problem: SeparableProblem) -> np.ndarray | None:
    """Each agent's 1-norm weights on its own copies, stacked; None without any."""
    l1 = np.zeros(layout.stacked_dim)
    for i in range(1, problem.num_agents + 1):
        for p in problem.footprint(i):
            l1[layout.block_slice(p, i)] = problem.l1_weight(i, p)
    return l1 if l1.any() else None


class StackedQuadratic:
    """A :class:`QuadraticSeparable` compiled for one layout.

    Agent i's Hessian, linear term and 1-norm weights sit on the positions
    of its own copies, so the stacked gradient is Q̂ŷ + ĉ (plus l̂ ⊙ sign ŷ
    for a subgradient) and the stacked cost is
    const + ½ŷᵀQ̂ŷ + ĉᵀŷ + l̂ᵀ|ŷ|, with Q̂ in CSR (one block per agent).
    ``l1`` is None when the problem has no 1-norm term.

    Off the ``support`` -- the entries whose row of Q̂ holds an entry, or
    whose ĉ or l̂ is nonzero; a slice when they are contiguous -- the
    smooth gradient is zero. Every form here runs Q̂'s support rows, one
    kernel call on their own CSR operator, and leaves the other entries at
    zero, so a round costs the nonzeros of the problem, not the length of
    the stack. Each sum is the one a full-row product forms, bit for bit.
    """

    def __init__(self, layout: EndLayout, problem: "QuadraticSeparable"):
        q_hat, self.c_hat = _scatter_quadratics(layout.stacked_dim, (
            (_ranges(layout.block_slice(p, i) for p in fp), H, c)
            for i, (H, c, fp, _) in enumerate(problem._dense, start=1)))
        self.const = float(sum(problem.constants))
        self.l1 = _stacked_l1(layout, problem)
        q = q_hat.matrix
        on = (np.diff(q.indptr) > 0) | (self.c_hat != 0.0)
        if self.l1 is not None:
            on |= self.l1 != 0.0
        rows = np.flatnonzero(on)
        self.support = _contiguous(rows)
        self._rows = CsrOperator(q[rows])
        self._c_rows = self.c_hat[rows]
        self.merit_constants = {}  # see _merit_constants

    def value(self, hat: np.ndarray) -> float:
        return self.bind_value(np.ascontiguousarray(hat, dtype=float))()

    def bind_value(self, hat: np.ndarray) -> Callable[[], float]:
        """A call that returns the stacked cost at the fixed array ``hat``:
        ½Q̂ŷ + ĉ is formed on the support in a vector that is zero off it,
        made here, so the full-length dot with ``hat`` sums the terms of
        const + ŷᵀ(½Q̂ŷ + ĉ) in the order a full-row product gives them."""
        half = np.zeros(hat.size)
        _, rows, scatter = _support_part(half, self.support)
        product = self._rows.bind(hat, rows)
        c_rows, const, l1 = self._c_rows, self.const, self.l1
        halves = np.full(rows.size, 0.5)
        magnitude = None if l1 is None else np.empty(hat.size)

        def value() -> float:
            product()
            np.multiply(rows, halves, rows)
            np.add(rows, c_rows, rows)
            if scatter is not None:
                scatter()
            val = const + float(hat @ half)
            if magnitude is not None:
                np.abs(hat, magnitude)
                val += float(l1 @ magnitude)
            return val

        return value

    def gradient(self, hat: np.ndarray, sub: bool = False) -> np.ndarray:
        # the support rows of Q̂ŷ accumulated onto ĉ, as the bound gradient forms them
        hat = np.asarray(hat, dtype=float)
        g = self.c_hat.copy()
        g[self.support] = self._rows.affine(hat, self._c_rows)
        if sub and self.l1 is not None:
            g += self.l1 * np.sign(hat)
        return g

    def bind_support_gradient(self, hat: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        """A call that writes the smooth gradient at ``hat`` on the support
        into the support-length ``out``: ĉ's support entries copied in and
        Q̂'s support rows applied onto them, one kernel call."""
        return self._rows.bind(hat, out, offset=self._c_rows)

    def bind_gradient(self, hat: np.ndarray, out: np.ndarray,
                      sub: bool = False) -> Callable[[], None]:
        """A call that writes the gradient at ``hat`` (the subgradient with
        ``sub``) into ``out``, for these two fixed arrays. ``out`` is set to
        ĉ once, here, which is zero off the support; each call writes the
        support entries (:meth:`bind_support_gradient`, scattered into
        ``out`` when the support is not a slice) and, with ``sub``, adds
        l̂ ⊙ sign ŷ over every entry."""
        out[...] = self.c_hat
        _, rows, scatter = _support_part(out, self.support)
        product = _in_order(self.bind_support_gradient(hat, rows), scatter)
        l1 = self.l1
        if not sub or l1 is None:
            return product
        sign = np.empty_like(out)

        def apply_sub() -> None:
            product()
            np.sign(hat, out=sign)
            np.multiply(l1, sign, out=sign)
            np.add(out, sign, out=out)

        return apply_sub


def _contiguous(rows: np.ndarray) -> slice | np.ndarray:
    """Ascending entries as a slice when they are contiguous, else as they are."""
    if rows.size == 0 or rows[-1] - rows[0] + 1 == rows.size:
        start = int(rows[0]) if rows.size else 0
        return slice(start, start + rows.size)
    return rows


def _support_part(v: np.ndarray, support: slice | np.ndarray):
    """(gather, part, scatter): ``part`` holds v's support entries, as a
    view of v on a slice and else as a buffer that ``gather`` fills from v
    and ``scatter`` writes back (both None on a slice)."""
    if isinstance(support, slice):
        return None, v[support], None
    part = np.empty(support.size)
    return partial(v.take, support, None, part, "wrap"), part, partial(v.__setitem__, support, part)


def _scatter_quadratics(n: int, placed) -> tuple[CsrOperator, np.ndarray]:
    """Σ H and Σ c over (idx, H, c) with each H and c placed on the entries
    ``idx``, as an n × n CSR operator and an n-vector."""
    rows, cols, vals = [], [], []
    c_sum = np.zeros(n)
    for idx, H, c in placed:
        if not idx.size:
            continue
        rows.append(np.repeat(idx, idx.size))
        cols.append(np.tile(idx, idx.size))
        vals.append(H.ravel())
        c_sum[idx] += c
    if not rows:
        return CsrOperator(sp.csr_matrix((n, n))), c_sum
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    matrix.eliminate_zeros()
    return CsrOperator(matrix), c_sum


def stacked_form(layout: EndLayout, problem: SeparableProblem | ConstraintCoupledProblem):
    """The problem's stacked evaluator for ``layout``, compiled once per pair."""
    return layout.compiled_for(problem, lambda: problem.stacked(layout))


def stacked_value(layout: EndLayout, problem: SeparableProblem, hat: np.ndarray) -> float:
    """Σ_i f_i evaluated on each agent's own estimate blocks."""
    return stacked_form(layout, problem).value(np.asarray(hat, dtype=float))


def stacked_gradient(layout: EndLayout, problem: SeparableProblem, hat: np.ndarray,
                     sub: bool = False) -> np.ndarray:
    """Gradient of the stacked cost: block (i,p) is agent i's partial in y_p."""
    return stacked_form(layout, problem).gradient(np.asarray(hat, dtype=float), sub)


# -- edge-based ADMM -------------------------------------------------------


def _design_edges(group) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adjacency of a group's exchange graph in the array form of
    :class:`~endnet.graphs.WeightedGraph`: the holder positions (u, v) of
    its proper edges u→v, in ascending (u, v) order, with unit values. They
    are read off the weights' entries (receiver, sender): on an undirected
    graph, the same pairs in the same order."""
    w = group.weights
    proper = w.rows != w.cols
    u, v = w.rows[proper], w.cols[proper]
    if _transposition(u, v) is None:
        raise OptimError(f"{group.label}: design graph not undirected")
    return u, v, np.ones(u.size)


def _design_adjacency(layout: EndLayout) -> tuple[BlockOperator, int]:
    """⊕_p (A_p ⊗ I) for A_p the adjacency of component p's exchange graph
    (:func:`_design_edges`), and the number of directed design edges
    (p, i→j)."""
    entries = {g.lead: _design_edges(g) for g in layout.groups}
    edges = sum(len(g.members) * entries[g.lead][0].size for g in layout.groups)
    return layout.group_operator(lambda g: entries[g.lead]), edges


def _transposition(rows: np.ndarray, cols: np.ndarray) -> np.ndarray | None:
    """The order that lists the entries (rows, cols), given in ascending
    order, as the entries of their transpose: entry k's mirror (col, row)
    is entry order[k]. None when some entry has no mirror."""
    order = np.lexsort((rows, cols))
    symmetric = np.array_equal(rows[order], cols) and np.array_equal(cols[order], rows)
    return order if symmetric else None


def _regularized_argmin(stacked, problem: SeparableProblem, degree: np.ndarray,
                        tol: float = 1e-10, max_iters: int = 10000):
    """rhs ↦ argmin of the stacked cost + ½ ŷᵀ diag(degree) ŷ − rhsᵀŷ.

    Every agent's local problem at once: without 1-norm weights it is one
    sparse factorization of Q̂ + diag(degree), made here, with Q̂ assembled
    from the stacked form's support rows (every other row of Q̂ is empty);
    with them it runs one accelerated proximal-gradient loop on the stacked
    vector.
    """
    if stacked.l1 is None:
        from scipy.sparse.linalg import splu  # imported here: it adds ~2 MB of resident memory

        rows, n = stacked._rows.matrix, degree.size
        lengths = np.zeros(n, dtype=rows.indptr.dtype)
        lengths[stacked.support] = np.diff(rows.indptr)
        q_hat = sp.csr_matrix((rows.data, rows.indices, np.append(0, np.cumsum(lengths))),
                              shape=(n, n))
        factor = splu(sp.csc_matrix(q_hat + sp.diags(degree)))
        return lambda rhs: factor.solve(rhs - stacked.c_hat)
    if problem.smooth_lipschitz is None:
        raise OptimError("inner solver needs a declared smoothness constant")
    step = 1.0 / (problem.smooth_lipschitz + float(np.max(degree, initial=0.0)))
    threshold = step * stacked.l1

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, converged = _accelerated_proximal_gradient(
            lambda y: stacked.gradient(y) + degree * y - rhs, step, threshold, tol, max_iters)
        if not converged:
            raise OptimError(f"inner proximal solver did not reach {tol}")
        return x

    return solve


def admm_solve(
    layout: EndLayout,
    problem: SeparableProblem,
    alpha: float,
    max_iters: int = 5000,
    tol: float = 1e-10,
    reference: np.ndarray | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Edge-based ADMM on the edge-consensus reformulation (Shi et al., 2014).

    Each step solves every agent's regularized local argmin at once, with
    linear term r. The multipliers z_{i→j}, one per directed design edge and
    exchanged as z ← (1−α) z − α z_rev + 2α ŷ_dst, enter only as
    r_i = Σ_j z_{i→j} and q_i = Σ_j z_{j→i}. Summing the exchange gives
    r ← (1−α) r − α q + 2α Âŷ and q ← (1−α) q − α r + 2α deg ⊙ ŷ, for Â ⊗ I
    the design adjacency and deg its row sums, so r and q are the state.
    The relaxation parameter must lie strictly inside (0, 1). The loop is
    :func:`~endnet.trace.run_steps`.
    """
    if not 0.0 < alpha < 1.0:
        raise OptimError(f"relaxation parameter {alpha} outside (0, 1)")
    if max_iters < 1:
        raise OptimError("ADMM needs max_iters >= 1")
    adjacency, edges = _design_adjacency(layout)
    n = layout.stacked_dim
    degree = adjacency @ np.ones(n)
    # quadratic penalty of 1/2 per incident edge: with the multiplier
    # exchange used below, any other scaling shifts the fixed point away
    # from the consensus optimum
    argmin = _regularized_argmin(stacked_form(layout, problem), problem, degree)
    # the multiplier sums as the rows r and q, and the same rows swapped
    sums, buffer = np.zeros((2, n)), np.empty((2, n))
    r, q, swapped, own_term = sums[0], sums[1], sums[::-1], buffer[1]
    hat, prev = np.zeros(n), np.zeros(n)
    add_exchange = adjacency.scaled(2.0 * alpha).bind(hat, r, accumulate=True)
    own = 2.0 * alpha * degree
    ref_hat = None if reference is None else layout.embed_consensus(np.asarray(reference, float))
    trace = RunTrace(meta={"alpha": alpha, "messages_per_iter": float(edges)})

    def step(k: int) -> np.ndarray:
        np.copyto(prev, hat)
        np.copyto(hat, argmin(r))
        # [r; q] ← (1−α) [r; q] − α [q; r] + 2α [Âŷ; deg ⊙ ŷ]
        np.multiply(swapped, alpha, out=buffer)
        np.multiply(sums, 1.0 - alpha, out=sums)
        np.subtract(sums, buffer, out=sums)
        add_exchange()
        np.multiply(own, hat, out=own_term)
        np.add(q, own_term, out=q)
        return hat

    def record(s: int) -> bool:
        row = {"k": s - 1,
               "step": float(np.max(np.abs(hat - prev))),
               "consensus_err": float(np.linalg.norm(layout.disagreement(hat)))}
        if ref_hat is not None:
            row["distance"] = float(np.max(np.abs(hat - ref_hat)))
        trace.append(**row)
        return row.get("distance", row["step"]) < tol

    run_steps(trace, max_iters, step, record, divergence_guard(hat, "ADMM iterate"))
    return hat, trace


# -- generic two-matrix family ---------------------------------------------


@dataclass(frozen=True)
class AbcMatrices:
    """The generic first-order family: A, B and C as polynomials in each
    component group's weight block W (:attr:`EndLayout.groups`), given by
    their coefficients of I, W and W² (a round mixes through W twice), and
    D = d·I. They run on the layout's one weight operator and are certified
    on W's spectrum (:func:`abc_check`)."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    c: tuple[float, ...]
    d: float = 1.0

    def __post_init__(self):
        if not all(1 <= len(coefs) <= 3 for coefs in (self.a, self.b, self.c)):
            raise OptimError("A, B and C are polynomials of degree at most two in W")

    def gamma_bound(self, problem: SeparableProblem) -> float:
        """d / the smoothness constant."""
        return self.d * augdgm_gamma_bound(problem)


def _group_spectra(layout: EndLayout, vectors: bool = False):
    """(group, eigvalsh of its W), or (group, eigh of its W) with
    ``vectors``: one decomposition per distinct W, kept until the last
    group that shares it. Each W is formed densely for its decomposition
    and dropped."""
    last = {id(g.weights): g for g in layout.groups}  # the last group of each W
    found = {}  # keyed by the weights objects, which the layout holds
    for g in layout.groups:
        key = id(g.weights)
        if key not in found:
            found[key] = (np.linalg.eigh if vectors else np.linalg.eigvalsh)(g.weights.matrix())
        yield g, (found.pop(key) if last[key] is g else found[key])


def abc_check(matrices: AbcMatrices, layout: EndLayout, tol: float = 1e-8) -> list[str]:
    """Check the five structural conditions; returns human-readable failures.

    Each group's W must be symmetric with W1 = 1 (else that is the one
    failure, under C1), so that every block is a symmetric polynomial p(W)
    with p(1) on the consensus line. The conditions are then pointwise
    tests at W's eigenvalues μ: C1 a = d·b, b ≥ 0 and d > 0; C2 d = 1 and
    b(1) = 1; C3 c ≥ 0, c(1) = 0 and c = 0 at one μ only (μ = 1 simple;
    zero within ``tol`` times max(max |c|, 1), as a rank is read from
    singular values); C4 holds, as polynomials in one W commute; C5
    1 − c/2 − d·b ≥ 0 (√B D √B = dB).
    """
    try:
        _check_symmetric_doubly_stochastic(layout, tol)
    except OptimError as err:
        return [f"C1: {err}"]
    failures = []
    a, b, c, d = matrices.a, matrices.b, matrices.c, matrices.d
    if d <= tol:
        failures.append("C1: D not positive definite")
    if abs(d - 1.0) > tol:
        failures.append("C2: consensus not fixed by D")
    for g, mu in _group_spectra(layout):
        name = g.label
        am, bm, cm = (polyval(mu, coefs) for coefs in (a, b, c))
        if np.max(np.abs(am - d * bm)) > tol:
            failures.append(f"C1: {name}: A != B D")
        if np.min(bm) < -tol:
            failures.append(f"C1: {name}: B not symmetric PSD")
        if abs(polyval(1.0, b) - 1.0) > tol:
            failures.append(f"C2: {name}: consensus not fixed by B")
        scale = max(float(np.max(np.abs(cm))), 1.0)
        if np.min(cm) < -tol:
            failures.append(f"C3: {name}: C not symmetric PSD")
        elif (np.sum(np.abs(cm) > tol * scale) != g.copies - 1
              or abs(polyval(1.0, c)) > tol * scale):
            failures.append(f"C3: {name}: null space of C is not the consensus line")
        if np.min(bm) <= -1e-10 or np.min(1.0 - 0.5 * cm - d * bm) < -tol:
            failures.append(f"C5: {name}: I - C/2 - sqrt(B) D sqrt(B) not PSD")
    return failures


def abc_step(layout: EndLayout, matrices: AbcMatrices, problem: SeparableProblem,
             y: np.ndarray, z: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """One round of the two-matrix iteration: the round :func:`abc_solve`
    runs, on buffers of its own."""
    rounds = _TrackingRounds(layout, problem, gamma, y, z, matrices)
    rounds.step()
    return rounds.y, rounds.t


def _merit(spread: float, value: float, grad_star_norm: float, f_star: float) -> float:
    """The merit from the norm of the disagreement and the stacked cost."""
    return max(spread * grad_star_norm, abs(value - f_star))


def abc_bound_constant(layout: EndLayout, matrices: AbcMatrices, problem: SeparableProblem,
                       gamma: float, y0: np.ndarray, reference: np.ndarray) -> float:
    """Constant of the ergodic O(1/k) bound: merit(avg_k) <= constant / (2k)."""
    hat_star = layout.embed_consensus(np.asarray(reference, dtype=float))
    z_arg = -2.0 * stacked_gradient(layout, problem, hat_star)  # 2 z*
    diff = np.asarray(y0, dtype=float) - hat_star
    d_norm2 = matrices.d * float(diff @ diff)
    # ||B - consensus projector|| and C's smallest nonzero eigenvalue, from
    # each group's spectrum: B_g - (1/n) 1 1' is b(1) - 1 on the consensus
    # line and b(μ) at W's other eigenvalues. Single-copy components have
    # no disagreement and a zero C, so they add to neither constant
    b_dev, lam_lower = 0.0, np.inf
    for g, mu in _group_spectra(layout):
        if g.copies < 2:
            continue
        rest = np.delete(mu, np.argmin(np.abs(mu - 1.0)))
        b_dev = max(b_dev, abs(polyval(1.0, matrices.b) - 1.0),
                    float(np.max(np.abs(polyval(rest, matrices.b)))))
        lam_lower = min(lam_lower, float(np.sort(polyval(mu, matrices.c))[1]))
    if lam_lower <= 0:
        raise OptimError("ergodic bound needs C with one-dimensional null space")
    return d_norm2 / gamma + gamma * (b_dev / lam_lower) * float(z_arg @ z_arg)


def abc_range_residual(layout: EndLayout, matrices: AbcMatrices, z: np.ndarray) -> float:
    """Norm of the part of z outside range(B) (should stay ~0 from z0 = 0):
    per group, its part on the eigenvectors of W at which b vanishes."""
    total = 0.0
    for g, (mu, vecs) in _group_spectra(layout, vectors=True):
        null = vecs[:, np.abs(polyval(mu, matrices.b)) <= 1e-12]
        if null.size:
            total += float(np.sum(np.matmul(null.T, g.blocks(z)) ** 2))
    return float(np.sqrt(total))


def warn_uncertified_step(gamma: float, bound: float, stacklevel: int = 3) -> None:
    """Warn when the step ``gamma`` lies outside the certified interval
    (0, ``bound``). ``stacklevel`` is :func:`warnings.warn`'s, counted from
    here: the default names the line that called the solver calling this."""
    if not 0.0 < gamma < bound:
        warnings.warn(f"step size {gamma} outside the certified interval (0, {bound:.6g})",
                      stacklevel=stacklevel)


def abc_solve(layout: EndLayout, matrices: AbcMatrices, problem: SeparableProblem,
              gamma: float, max_iters: int = 10000, y0: np.ndarray | None = None,
              reference: np.ndarray | None = None,
              merit_every: int = 1) -> tuple[np.ndarray, RunTrace]:
    """Run the two-matrix iteration from z0 = 0 and track the ergodic merit;
    the trace is as :func:`augdgm_solve`'s. W must be symmetric with
    W1 = 1, as for AugDGM."""
    _check_symmetric_doubly_stochastic(layout)
    bound = matrices.gamma_bound(problem)
    warn_uncertified_step(gamma, bound)
    y = np.zeros(layout.stacked_dim) if y0 is None else y0
    rounds = _TrackingRounds(layout, problem, gamma, y, np.zeros(layout.stacked_dim),
                             matrices)
    trace = RunTrace(meta={"gamma": gamma, "gamma_bound": bound})
    return _track(layout, problem, rounds, trace, "stacked iterate", max_iters, reference,
                  merit_every)


class _TrackingRounds:
    """Gradient-tracking rounds run in place, on buffers allocated once.

    The iterate ``y``, the tracking variable ``t`` (v of AugDGM, z of ABC)
    and the gradient and scratch buffers are allocated here, and the
    stacked operators and the gradient are bound to them, so a round
    allocates nothing.

    Without ``matrices`` a round is AugDGM's y ← W(y − γv),
    v ← W(v + ∇f(y) − g). The gradient is formed on the ``support`` of the
    problem's stacked form only, in two support-length buffers that take
    turns as the new gradient and the old one, g. Off the support both are
    zero, so there v + ∇f(y) − g is v itself: (v + ∇f(y)) − g is formed in
    place on v's support entries alone, and two v buffers take turns as the
    operand and the output of W. The buffer W writes v into holds y − γv
    before that, so the round needs no scratch vector.

    With ``matrices`` a round is ABC's y ← A y − γ B∇f(y) − z,
    z ← z + C y, with A, B and C polynomials in W: the new y from the
    powers of the last (the start's are formed here), then its full-length
    gradient and, by two bound applies of W to the (2, n) operand
    [y; ∇f(y)], its powers, and C y added to z from a scratch vector.

    Each vector is formed in the order the formulas read, so that the
    iterates are those of the allocating expressions bit for bit.
    """

    def __init__(self, layout: EndLayout, problem: SeparableProblem, gamma: float,
                 y: np.ndarray, t: np.ndarray, matrices: AbcMatrices | None = None):
        n = layout.stacked_dim
        self.y = np.array(y, dtype=float)
        self._gamma = gamma
        self._turn = 0
        stacked = stacked_form(layout, problem)
        self._abc = matrices is not None
        if matrices is None:
            support = stacked.support
            self._t = (np.array(t, dtype=float), np.empty(n))
            self._on_support = tuple(_support_part(v, support) for v in self._t)
            width = self._on_support[0][1].size
            self._g = (np.empty(width), np.empty(width))
            self._gradient = tuple(stacked.bind_support_gradient(self.y, g) for g in self._g)
            w = layout.weight_operator
            # per turn: W from the other v buffer into y, and from v into it
            self._mix_y = (w.bind(self._t[1], self.y), w.bind(self._t[0], self.y))
            self._mix_t = (w.bind(self._t[0], self._t[1]), w.bind(self._t[1], self._t[0]))
            self._gradient[0]()
        else:
            w = layout.weight_operator  # compiled before the buffers below are made
            self._t = (np.array(t, dtype=float),)
            # powers[k] holds W^k [y; ∇f(y)]
            powers = np.zeros((3, 2, n))
            powers[0, 0] = self.y
            self.y = powers[0, 0]
            self._gradient = stacked.bind_gradient(self.y, powers[0, 1])
            self._mix = _in_order(w.bind(powers[0], powers[1]), w.bind(powers[1], powers[2]))
            self._s = np.empty(n)
            ys, gs = powers[:, 0], powers[:, 1]
            self._b_g = _bind_polynomial(matrices.b, gs, self._s)
            self._a_y = _bind_polynomial(matrices.a, ys, self.y)
            self._c_y = _bind_polynomial(matrices.c, ys, self._s)
            self._gradient()
            self._mix()

    @property
    def t(self) -> np.ndarray:
        """The tracking variable: the v buffer whose turn it is, or z."""
        return self._t[self._turn]

    def step(self) -> None:
        if self._abc:
            self._abc_round()
        else:
            self._augdgm_round()

    def _augdgm_round(self) -> None:
        y, turn = self.y, self._turn
        s = self._t[1 - turn]
        np.multiply(self._t[turn], self._gamma, out=s)
        np.subtract(y, s, out=s)
        self._mix_y[turn]()
        self._gradient[1 - turn]()
        gather, part, scatter = self._on_support[turn]
        if gather is not None:
            gather()
        np.add(part, self._g[1 - turn], out=part)
        np.subtract(part, self._g[turn], out=part)
        if scatter is not None:
            scatter()
        self._mix_t[turn]()
        self._turn = 1 - turn

    def _abc_round(self) -> None:
        y, z, s = self.y, self._t[0], self._s
        (form_b_g, b_g), (form_a_y, a_y), (form_c_y, c_y) = self._b_g, self._a_y, self._c_y
        form_b_g()
        np.multiply(b_g, self._gamma, out=s)
        form_a_y()
        np.subtract(a_y, s, out=y)
        np.subtract(y, z, out=y)
        self._gradient()
        self._mix()
        form_c_y()
        np.add(z, c_y, out=z)


def _bind_polynomial(coefs: Sequence[float], powers: Sequence[np.ndarray],
                     out: np.ndarray) -> tuple[Callable[[], None], np.ndarray]:
    """(call, result): after ``call()``, ``result`` holds Σ_k coefs[k] W^k v,
    given powers[k] = W^k v, summed in ascending k into ``out``. A term is
    scaled first unless its coefficient is 1: into ``out`` while the sum so
    far is another array, else into a scratch vector made here. A lone term
    with coefficient 1 is its own array."""
    terms = [(c, p) for c, p in zip(coefs, powers) if c != 0.0] or [(0.0, powers[0])]
    (c, result), calls = terms[0], []
    if c != 1.0:
        calls.append(partial(np.multiply, result, c, out))
        result = out
    for c, p in terms[1:]:
        if c != 1.0:
            scaled = np.empty_like(out) if result is out else out
            calls.append(partial(np.multiply, p, c, scaled))
            p = scaled
        calls.append(partial(np.add, result, p, out))
        result = out
    return _in_order(*calls), result


# what the tracking solvers need of their iteration budget and record interval
TRACKING_BUDGET = "gradient tracking needs max_iters >= 1 and merit_every >= 1"


def _track(layout: EndLayout, problem: SeparableProblem, rounds: _TrackingRounds,
           trace: RunTrace, what: str, max_iters: int, reference: np.ndarray | None,
           merit_every: int) -> tuple[np.ndarray, RunTrace]:
    """The loop of both tracking solvers; see :func:`augdgm_solve`.

    A record's work is bound once, to buffers made here: the disagreement
    of y and of the running average through
    :meth:`~endnet.layout.EndLayout.bind_disagreement`, and the stacked
    cost of each through its stacked form's ``bind_value``; the values are
    those of :meth:`~endnet.layout.EndLayout.disagreement` and
    :func:`stacked_value`, bit for bit.
    """
    if max_iters < 1 or merit_every < 1:
        raise OptimError(TRACKING_BUDGET)
    stacked = stacked_form(layout, problem)
    grad_star_norm = f_star = None
    if reference is not None:
        hat_star = layout.embed_consensus(np.asarray(reference, dtype=float))
        grad_star_norm = float(np.linalg.norm(stacked.gradient(hat_star)))
        f_star = stacked.value(hat_star)
    y = rounds.y
    running, spread = np.zeros_like(y), np.empty_like(y)
    spread_y = layout.bind_disagreement(y, spread)
    if reference is not None:
        average = np.empty_like(y)
        spread_average = layout.bind_disagreement(average, spread)
        value_y, value_average = stacked.bind_value(y), stacked.bind_value(average)

    def step(k: int) -> np.ndarray:
        rounds.step()
        np.add(running, y, out=running)
        return y

    def record(s: int) -> None:
        spread_y()
        spread_norm = float(np.linalg.norm(spread))
        row = {"k": s, "consensus_err": spread_norm}
        if reference is not None:
            np.divide(running, s, out=average)
            spread_average()
            row["merit_avg"] = _merit(float(np.linalg.norm(spread)), value_average(),
                                      grad_star_norm, f_star)
            row["merit"] = _merit(spread_norm, value_y(), grad_star_norm, f_star)
        trace.append(**row)

    # tracking numbers its steps from 1
    run_steps(trace, max_iters, step, record, divergence_guard(y, what, first=1),
              every=merit_every)
    trace.meta["running_average"] = running / max_iters
    return y, trace


# -- gradient tracking (AugDGM instantiation) ------------------------------


def _check_symmetric_doubly_stochastic(layout: EndLayout, tol: float = 1e-10) -> None:
    """Each group's W, read from the weights' entries, must store the mirror
    of every entry, and be symmetric and sum to 1 along its rows within
    ``tol``."""
    for g in layout.groups:
        w = g.weights
        order = _transposition(w.rows, w.cols)
        row_sums = np.bincount(w.rows, weights=w.values, minlength=g.copies)
        if (order is None or np.max(np.abs(w.values[order] - w.values), initial=0.0) > tol
                or np.max(np.abs(row_sums - 1.0)) > tol):
            raise OptimError(f"{g.label}: gradient tracking needs symmetric doubly "
                             "stochastic exchange weights")


def augdgm_matrices(layout: EndLayout) -> AbcMatrices:
    """The gradient-tracking choice A = B = W², C = (I − W)², D = I, the
    same on every layout. For symmetric W with W1 = 1, C1, C2 and C4 hold,
    C3 asks that μ = 1 be simple and C5 reads 1 − (1 − μ)²/2 − μ² =
    (3/2)(1 − μ)(μ + 1/3) ≥ 0 at W's eigenvalues μ: :func:`abc_check`
    passes when each W's spectrum lies in [−1/3, 1] with 1 simple."""
    return AbcMatrices(a=(0.0, 0.0, 1.0), b=(0.0, 0.0, 1.0), c=(1.0, -2.0, 1.0))


def augdgm_gamma_bound(problem: SeparableProblem) -> float:
    """The step bound of :func:`augdgm_matrices`: with D = I it is 1 / the
    smoothness constant."""
    if problem.smooth_lipschitz is None:
        raise OptimError("step bound needs the smoothness constant")
    return 1.0 / problem.smooth_lipschitz


def augdgm_step(
    layout: EndLayout,
    problem: SeparableProblem,
    y: np.ndarray,
    v: np.ndarray,
    gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One gradient-tracking round, with the old gradient taken at ``y``:
    the round :func:`augdgm_solve` runs, on buffers of its own."""
    rounds = _TrackingRounds(layout, problem, gamma, y, v)
    rounds.step()
    return rounds.y, rounds.t


def augdgm_solve(
    layout: EndLayout,
    problem: SeparableProblem,
    gamma: float,
    max_iters: int = 10000,
    reference: np.ndarray | None = None,
    merit_every: int = 1,
) -> tuple[np.ndarray, RunTrace]:
    """Gradient tracking from y0 = 0, v0 = W grad(0).

    Every ``merit_every`` steps and at the last one the trace records the
    norm of the disagreement of y and, with a reference optimum, the merit
    of y and of the running average. ``running_average`` in the trace
    metadata is the average of all iterates. The rounds are
    :class:`_TrackingRounds` and the loop is :func:`~endnet.trace.run_steps`.
    A step outside (0, :func:`augdgm_gamma_bound`) is warned about, as in
    :func:`abc_solve`, when the problem declares a nonzero smoothness
    constant.
    """
    _check_symmetric_doubly_stochastic(layout)
    if problem.smooth_lipschitz:
        warn_uncertified_step(gamma, augdgm_gamma_bound(problem))
    y = np.zeros(layout.stacked_dim)
    v = layout.weight_operator @ stacked_gradient(layout, problem, y)
    rounds = _TrackingRounds(layout, problem, gamma, y, v)
    return _track(layout, problem, rounds, RunTrace(meta={"gamma": gamma}), "tracking iterate",
                  max_iters, reference, merit_every)


def tracking_sum_residual(layout: EndLayout, problem: SeparableProblem,
                          y: np.ndarray, v: np.ndarray) -> float:
    """How far Σ_i v_{i,p} is from Σ_j grad_p f_j at the current estimates."""
    g = stacked_gradient(layout, problem, y)
    return float(np.max(np.abs(layout.component_sums(v) - layout.component_sums(g))))


# -- push-sum subgradient over time-varying designs ------------------------


def power_step_schedule(c: float = 1.0, a: float = 0.51) -> Callable[[int], float]:
    """γ^k = c (k+1)^(-a); requires a in (1/2, 1] so that Σγ = ∞, Σγ² < ∞."""
    if not (0.5 < a <= 1.0) or c <= 0:
        raise OptimError("schedule needs c > 0 and exponent in (1/2, 1]")
    return lambda k: c * (k + 1) ** (-a)


@dataclass
class PushSumState:
    """Numerators ``z``, ratio estimates ``y`` and push-sum weights ``mass``,
    all stacked: each copy's weight is repeated over its block, so one
    stacked operator mixes numerators and weights alike."""

    z: np.ndarray
    mass: np.ndarray
    y: np.ndarray
    layout: EndLayout = field(repr=False)

    @property
    def q(self) -> dict[int, np.ndarray]:
        """Per-component weights, one per copy in holder order (views of ``mass``)."""
        lay = self.layout
        return {p: self.mass[lay.component_slice(p)][::lay.partition.dim(p)]
                for p in lay.partition.components}


def pushsum_init(layout: EndLayout, z0: np.ndarray | None = None) -> PushSumState:
    z = np.zeros(layout.stacked_dim) if z0 is None else np.asarray(z0, dtype=float).copy()
    return PushSumState(z=z, mass=np.ones(layout.stacked_dim), y=z.copy(), layout=layout)


class _MassInvariants:
    """The running maxima of |component mean of z − z̄| and of
    |component weight sum − copy count| over push-sum rounds, folded in
    blocks of rows [mean z; sum mass; mean g] of a :class:`RowBlocks` ring
    whose round j took step ``gammas[j]``. Kept apart from the rounds, so
    the ring holding this fold holds no reference back to them."""

    def __init__(self, layout: EndLayout):
        total = layout.partition.total_dim
        self.gammas = np.zeros(BLOCK_ROWS)
        # row 0 holds z̄ between blocks, row j + 1 z̄ after row j of a block
        self.zbar = np.zeros((BLOCK_ROWS + 1, total))
        self.counts = layout.copy_counts
        self.column_max = np.empty(2 * total)
        self.worst = np.zeros(2 * total)

    def __call__(self, block: np.ndarray) -> None:
        m, total = len(block), self.zbar.shape[1]
        zbar = self.zbar[:m + 1]
        np.multiply(block[:, 2 * total:], self.gammas[:m, None], out=zbar[1:])
        np.subtract.accumulate(zbar, axis=0, out=zbar)
        deviation = block[:, :2 * total]
        np.subtract(deviation[:, :total], zbar[1:], out=deviation[:, :total])
        np.subtract(deviation[:, total:], self.counts, out=deviation[:, total:])
        np.abs(deviation, out=deviation)
        np.maximum.reduce(deviation, axis=0, out=self.column_max)
        np.maximum(self.worst, self.column_max, out=self.worst)
        zbar[0] = zbar[m]


class _PushSumRounds:
    """Push-sum rounds run in place, on buffers allocated once.

    Two buffers [z; mass; g] of three stacked vectors take turns. A round
    mixes the numerators and weights of the current buffer with the round's
    operator straight into the first two thirds of the other (one kernel
    call for both rows), forms the ratio estimates y, writes the
    subgradient at y into the last third through the problem's stacked
    form, and takes the step z = w − γ g in place. Each operator is bound
    to the two buffers on its first round (held weakly, so an operator made
    for one round is not kept).

    With ``invariants``, one block-diagonal summing kernel writes the
    component means of z, the component sums of the weights and the
    component means of g of each round into the next row of a
    :class:`~endnet.trace.RowBlocks` ring (3 · total_dim floats a row), and
    the round's γ into a vector beside it. Once per block of rows, and whenever
    ``mass_error`` or ``averaged_error`` is read, one pass runs the
    averaged process z̄ ← z̄ − γ mean(g) over the block with a subtract
    accumulation and folds the deviations of the component means of z from
    z̄ and of the weight sums from the copy counts into their running
    maxima: the same values, bit for bit, as a reduction after every round.
    """

    def __init__(self, layout: EndLayout, problem: SeparableProblem | ConstraintCoupledProblem,
                 state: PushSumState, invariants: bool = False):
        n = layout.stacked_dim
        self.layout = layout
        self._buffers = (np.zeros(3 * n), np.zeros(3 * n))
        self._buffers[0][:n], self._buffers[0][n:2 * n] = state.z, state.mass
        # per buffer: (z, mass, g) views and the [z; mass] half as two rows
        self._parts = tuple((b[:n], b[n:2 * n], b[2 * n:]) for b in self._buffers)
        self._mixed = tuple(b[:2 * n].reshape(2, n) for b in self._buffers)
        self.y = np.zeros(n)
        self._scaled = np.empty(n)
        stacked = stacked_form(layout, problem)
        self._gradient = tuple(stacked.bind_gradient(self.y, g, sub=True)
                               for _, _, g in self._parts)
        self._mixers = weakref.WeakKeyDictionary()
        self._turn = 0
        self._ring = self._invariants = None
        if invariants:
            S = layout.sum_operator.matrix
            mean = sp.diags(1.0 / layout.copy_counts) @ S
            kernel = CsrOperator(sp.block_diag([mean, S, mean], format="csr"))
            self._invariants = _MassInvariants(layout)
            self._ring = RowBlocks(3 * layout.partition.total_dim, self._invariants)
            self._gammas = self._invariants.gammas
            # per buffer, the kernel into each row of the ring, which the
            # ring zeroes after every block
            self._bound_sums = tuple(kernel.bind_rows(b, self._ring.rows)
                                     for b in self._buffers)

    @property
    def z(self) -> np.ndarray:
        return self._parts[self._turn][0]

    @property
    def mass(self) -> np.ndarray:
        return self._parts[self._turn][1]

    @property
    def g(self) -> np.ndarray:
        """The subgradient stack of the last round."""
        return self._parts[self._turn][2]

    def state(self) -> PushSumState:
        return PushSumState(z=self.z, mass=self.mass, y=self.y, layout=self.layout)

    def _bind(self, op: BlockOperator) -> tuple[Callable[[], None], Callable[[], None]]:
        a, b = self._mixed
        return op.bind(a, b), op.bind(b, a)

    def step(self, op: BlockOperator, gamma: float) -> np.ndarray:
        """One round; returns the new z."""
        turn = self._turn
        mixers = self._mixers.get(op)
        if mixers is None:
            mixers = self._mixers[op] = self._bind(op)
        mixers[turn]()
        turn = self._turn = 1 - turn
        w, mass, g = self._parts[turn]
        # argmin and one read cost less than a minimum reduction on short vectors
        if mass[mass.argmin()] <= 0.0:
            lay = self.layout
            first = np.flatnonzero(lay.component_sums(mass <= 0.0))[0]
            p = int(np.searchsorted(np.cumsum(lay.partition.dims), first, side="right")) + 1
            raise OptimError(f"component {p}: push-sum weight became non-positive")
        np.divide(w, mass, out=self.y)
        self._gradient[turn]()
        np.multiply(g, gamma, out=self._scaled)
        np.subtract(w, self._scaled, out=w)
        ring = self._ring
        if ring is not None:
            j = ring.filled
            self._bound_sums[turn][j]()
            self._gammas[j] = gamma
            ring.advance()
        return w

    def _flushed_worst(self) -> np.ndarray:
        """[worst z̄ deviations; worst mass deviations], empty without invariants."""
        if self._ring is None:
            return np.zeros(0)
        self._ring.flush()
        return self._invariants.worst

    @property
    def mass_error(self) -> float:
        """Worst deviation of a component's weight sum from its copy count."""
        worst = self._flushed_worst()
        return float(np.max(worst[worst.size // 2:], initial=0.0))

    @property
    def averaged_error(self) -> float:
        """Worst deviation of a component mean of z from the averaged process."""
        worst = self._flushed_worst()
        return float(np.max(worst[:worst.size // 2], initial=0.0))


def pushsum_dgd_step(
    layout: EndLayout,
    weights_at_k: BlockOperator,
    problem: SeparableProblem,
    state: PushSumState,
    gamma_k: float,
) -> tuple[PushSumState, np.ndarray]:
    """One push-sum round with the stacked operator of the round's weights;
    returns the new state and the subgradient stack. The round is the one
    :func:`pushsum_solve` runs, on buffers of its own."""
    rounds = _PushSumRounds(layout, problem, state)
    rounds.step(weights_at_k, gamma_k)
    return rounds.state(), rounds.g


def constant_design_weights(layout: EndLayout) -> BlockOperator:
    """The layout's own design weights as a schedule value for every round."""
    return layout.weight_operator


def example_design_schedule(
    layout: EndLayout, comm_sequence: Sequence[Graph]
) -> Callable[[int], BlockOperator]:
    """Periodic time-varying designs: the fixed design graph intersected with
    the communication snapshot of the round, self-loops kept, column-stochastic
    weights (one block per component group), as a stacked operator compiled
    on the first call of each slot."""
    period = len(comm_sequence)
    cache: dict[int, BlockOperator] = {}

    def at(k: int) -> BlockOperator:
        t = k % period
        if t not in cache:
            def entries(group: ComponentGroup) -> tuple:
                base = group.weights.graph
                snap = restrict(comm_sequence[t], list(base.nodes))
                w = column_stochastic_weights(
                    intersect(base, snap.with_self_loops()).with_self_loops())
                return w.rows, w.cols, w.values

            cache[t] = layout.group_operator(entries)
        return cache[t]

    return at


def pushsum_solve(
    layout: EndLayout,
    design_schedule: Callable[[int], BlockOperator],
    problem: SeparableProblem,
    gamma: Callable[[int], float],
    max_iters: int = 100000,
    reference: np.ndarray | None = None,
    stop_tol: float | None = None,
    merit: Callable[[np.ndarray], float] | None = None,
    check_every: int = 100,
) -> tuple[PushSumState, RunTrace]:
    """Iterate the push-sum subgradient scheme with a step-size schedule;
    ``design_schedule(k)`` is round k's stacked weight operator.

    The trace records the consensus residual of the ratio estimates against
    the component means, the objective gap at the means when a reference
    optimum is supplied, and the worst per-step deviations of the conserved
    mass and of the averaged-process identity, reduced in blocks of rounds
    with the values of a reduction after every round. Diminishing steps can
    carry the iterate far beyond the divergence guard and back, so the guard
    tests the iterate the run ends with. The rounds are
    :class:`_PushSumRounds` and the loop is :func:`~endnet.trace.run_steps`.
    """
    if max_iters < 1 or check_every < 1:
        raise OptimError("push-sum needs max_iters >= 1 and check_every >= 1")
    rounds = _PushSumRounds(layout, problem, pushsum_init(layout), invariants=True)
    trace = RunTrace()
    f_star = problem.total_value(np.asarray(reference, float)) if reference is not None else None
    gk = None

    def step(k: int) -> np.ndarray:
        nonlocal gk
        gk = gamma(k)
        return rounds.step(design_schedule(k), gk)

    def record(s: int) -> bool:
        means = layout.component_means(rounds.z)
        res = float(np.max(np.abs(rounds.y - layout.embed_consensus(means))))
        row = {"k": s - 1, "consensus_err": res, "gamma": gk}
        if f_star is not None:
            row["f_gap"] = problem.total_value(means) - f_star
        if merit is not None:
            row["merit"] = merit(rounds.y.copy())
        trace.append(**row)
        return stop_tol is not None and merit is not None and row["merit"] <= stop_tol

    run_steps(trace, max_iters, step, record, divergence_guard(rounds.z, "push-sum iterate"),
              every=check_every, guard_each_step=False, ring=rounds._ring)
    trace.meta["max_mass_error"] = rounds.mass_error
    trace.meta["max_averaged_process_error"] = rounds.averaged_error
    return rounds.state(), trace


# -- constraint-coupled problems via the dual ------------------------------


@dataclass(eq=False)
class ConstraintCoupledProblem:
    """Σ_i f_i(x_i) subject to Σ_i A_{p,i} x_i = Σ_i a_{p,i} for every component p.

    Agent i's action x_i has ``x_dims[i - 1]`` entries. ``con_blocks[(p, i)]``
    is A_{p,i} (dim_p × x_dim_i) and ``con_offsets[(p, i)]`` is a_{p,i}
    (dim_p,), given only for p on agent i's footprint and zero where
    absent; an entry off it or of another shape is an :class:`OptimError`
    naming its (p, i).

    ``argmin_oracle(r)`` is the price oracle, one call for every agent: r
    holds, agent by agent in ``x_dims`` order, r_i = Σ_p A_{p,i}ᵀ y_p, and
    it returns every agent's minimizer of f_i(x_i) + ⟨r_i, x_i⟩ over its
    compact domain, stacked the same way. Agent i's inner problem
    min f_i(x_i) + Σ_p ⟨y_p, A_{p,i} x_i − a_{p,i}⟩ depends on the
    multipliers y only through r_i. A problem compares by identity, so a
    layout compiles it once.
    """

    x_dims: tuple[int, ...]
    component_dims: tuple[int, ...]
    footprints: tuple[tuple[int, ...], ...]
    con_blocks: Mapping[tuple[int, int], np.ndarray]
    con_offsets: Mapping[tuple[int, int], np.ndarray]
    argmin_oracle: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if len(self.x_dims) != len(self.footprints):
            raise OptimError(f"{len(self.x_dims)} action dims for "
                             f"{len(self.footprints)} footprints")
        for i, fp in enumerate(self.footprints, start=1):
            for p in fp:
                if not 1 <= p <= len(self.component_dims):
                    raise OptimError(f"agent {i}: component {p} outside "
                                     f"1..{len(self.component_dims)}")
        self.con_blocks = self._checked(self.con_blocks, "constraint block", 2)
        self.con_offsets = self._checked(self.con_offsets, "constraint offset", 1)

    def _checked(self, entries: Mapping, what: str, ndim: int) -> dict:
        """``entries`` as float arrays of shape (dim_p, x_dim_i)[:ndim]."""
        checked = {}
        for (p, i), value in entries.items():
            if not (1 <= i <= self.num_agents and p in self.footprints[i - 1]):
                raise OptimError(f"{what} {(p, i)} off the interference pattern")
            value = np.asarray(value, dtype=float)
            shape = (self.component_dims[p - 1], self.x_dims[i - 1])[:ndim]
            if value.shape != shape:
                raise OptimError(f"{what} {(p, i)} has shape {value.shape}, expected {shape}")
            checked[(p, i)] = value
        return checked

    @property
    def num_agents(self) -> int:
        return len(self.x_dims)

    def stacked(self, layout: EndLayout) -> "StackedDual":
        return StackedDual(layout, self)


class StackedDual:
    """The negated dual −Σ_i φ_i of a :class:`ConstraintCoupledProblem`,
    compiled for one layout.

    Â (stacked_dim × Σ x_dims, in CSR) holds A_{p,i} on the rows of agent
    i's copy of p and the columns of x_i, and â holds a_{p,i} on that copy.
    At stacked multipliers ŷ a subgradient is â − Âx with x = oracle(Âᵀŷ):
    one bound kernel, one oracle call and one bound kernel with an offset.
    ``x`` holds the minimizers of the last call, one buffer for every binding.
    """

    def __init__(self, layout: EndLayout, problem: ConstraintCoupledProblem):
        self._problem = weakref.ref(problem)  # the layout's memo must not keep it alive
        starts = list(accumulate(problem.x_dims, initial=0))
        n, width = layout.stacked_dim, starts[-1]
        rows, cols, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
        for (p, i), A in problem.con_blocks.items():
            r, c = np.nonzero(A)
            rows.append(layout.block_slice(p, i).start + r)
            cols.append(starts[i - 1] + c)
            vals.append(A[r, c])
        a_hat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                              shape=(n, width))
        self.offsets = np.zeros(n)
        for (p, i), a in problem.con_offsets.items():
            self.offsets[layout.block_slice(p, i)] = a
        self._prices = CsrOperator(a_hat.T)
        self._negated = CsrOperator(-a_hat)
        self._r, self.x = np.zeros(width), np.zeros(width)

    def primal(self, hat: np.ndarray) -> np.ndarray:
        """The inner minimizers oracle(Âᵀŷ) at the stacked multipliers ``hat``."""
        self.bind_gradient(np.ascontiguousarray(hat, dtype=float), np.empty(self.offsets.size))()
        return self.x.copy()

    def residual(self, x: np.ndarray) -> np.ndarray:
        """â − Âx: the subgradient of −Σ_i φ_i whose inner minimizers are x."""
        return self._negated.affine(x, self.offsets)

    def bind_gradient(self, hat: np.ndarray, out: np.ndarray,
                      sub: bool = False) -> Callable[[], None]:
        """A call that writes â − Âx into ``out`` for the fixed array
        ``hat``, with x = oracle(Âᵀŷ) left in ``x``. The dual has no 1-norm
        part, so ``sub`` changes nothing."""
        prices = self._prices.bind(hat, self._r)
        gap = self._negated.bind(self.x, out, offset=self.offsets)
        oracle, r, x = self._problem().argmin_oracle, self._r, self.x

        def apply() -> None:
            prices()
            minimizers = oracle(r)
            if np.shape(minimizers) != x.shape:
                raise OptimError(f"price oracle returned shape {np.shape(minimizers)}, "
                                 f"expected {x.shape}")
            x[...] = minimizers
            gap()

        return apply


def constraint_coupled_solve(
    layout: EndLayout,
    ccp: ConstraintCoupledProblem,
    design_schedule: Callable[[int], BlockOperator],
    gamma: Callable[[int], float],
    max_iters: int = 50000,
    reference_dual: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[int, np.ndarray], RunTrace]:
    """Maximize the coupled dual with push-sum and recover the primal.

    A round is a :class:`_PushSumRounds` round on the problem's
    :class:`StackedDual`: one price kernel r = Âᵀŷ, one call of the price
    oracle x = ``ccp.argmin_oracle(r)`` for every agent, and one gap kernel
    â − Âx. The primal gap of a record is max|S(Âx̄ − â)| at the
    step-weighted ergodic average x̄, S summing each component's copies.

    Returns the consensus dual estimate, the inner minimizers at that dual
    (one oracle call) and the run trace, whose metadata keeps x̄ as
    ``x_ergodic``; both primal results are keyed by agent. As in
    :func:`pushsum_solve`, the divergence guard tests the iterate the run
    ends with; the loop is :func:`~endnet.trace.run_steps`.
    """
    if max_iters < 1:
        raise OptimError("push-sum needs max_iters >= 1")
    form = stacked_form(layout, ccp)
    rounds = _PushSumRounds(layout, ccp, pushsum_init(layout))
    trace = RunTrace()
    x_sum, scaled = np.zeros(form.x.size), np.empty(form.x.size)
    weight = 0.0

    def step(k: int) -> np.ndarray:
        nonlocal weight
        gk = gamma(k)
        z = rounds.step(design_schedule(k), gk)
        np.multiply(form.x, gk, out=scaled)
        np.add(x_sum, scaled, out=x_sum)
        weight += gk
        return z

    def record(s: int) -> None:
        means = layout.component_means(rounds.z)
        row = {"k": s - 1,
               "consensus_err": float(np.linalg.norm(layout.disagreement(rounds.y)))}
        if reference_dual is not None:
            row["dual_distance"] = float(np.max(np.abs(means - reference_dual)))
        gap = layout.sum_operator @ form.residual(x_sum / weight)
        row["primal_gap"] = float(np.max(np.abs(gap)))
        trace.append(**row)

    run_steps(trace, max_iters, step, record,
              divergence_guard(rounds.z, "push-sum dual iterate"), every=100,
              guard_each_step=False)
    cuts = np.cumsum(ccp.x_dims)[:-1]
    trace.meta["x_ergodic"] = dict(enumerate(np.split(x_sum / weight, cuts), start=1))
    y_mean = layout.component_means(rounds.z)
    x_final = form.primal(layout.embed_consensus(y_mean))
    return y_mean, dict(enumerate(np.split(x_final, cuts), start=1)), trace


# -- scaled merit used by the sensing experiments --------------------------


def merit_v(layout: EndLayout, problem: SeparableProblem, hat: np.ndarray,
            reference: np.ndarray) -> float:
    """max of the copy-count-scaled disagreement (times the reference gradient
    norm) and the objective gap at the consensus projection."""
    hat = np.asarray(hat, dtype=float)
    grad_norm, ref_value, copies = _merit_constants(layout, problem,
                                                    np.asarray(reference, dtype=float))
    scaled = layout.disagreement(hat) / copies
    proj = layout.component_means(hat)
    return max(float(np.linalg.norm(scaled)) * grad_norm,
               abs(problem.total_value(proj) - ref_value))


def _merit_constants(layout: EndLayout, problem: SeparableProblem,
                     reference: np.ndarray) -> tuple[float, float, np.ndarray]:
    """What :func:`merit_v` reads of the reference: the norm of the stacked
    subgradient at its embedding, its total cost and the embedded copy
    counts. Computed once per (layout, problem, reference) and kept on the
    problem's stacked form, keyed on the reference's bytes."""
    form = stacked_form(layout, problem)
    key = (reference.tobytes(), reference.shape)
    if key not in form.merit_constants:
        grad = form.gradient(layout.embed_consensus(reference), True)
        form.merit_constants[key] = (float(np.linalg.norm(grad)),
                                     problem.total_value(reference),
                                     layout.embed_consensus(layout.copy_counts))
    return form.merit_constants[key]
