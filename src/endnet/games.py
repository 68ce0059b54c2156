"""Equilibrium seeking over estimate-exchange layouts.

Two algorithm families:

* projected pseudo-gradient dynamics for Nash problems, where each agent
  mixes its neighbors' copies of the other players' actions and takes a
  projected gradient step on its own action, with a linear-rate certificate
  built from per-component weight matrices;
* a primal-dual forward-backward iteration for generalized Nash problems
  with affine aggregation and affine coupling constraints, tracking the
  aggregation value and the dual variable over two layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Mapping, NamedTuple

import numpy as np
import scipy.sparse as sp

from .graphs import is_rooted, is_strongly_connected, laplacian
from .layout import BlockOperator, CsrOperator, EndLayout, _ranges
from .trace import RowBlocks, RunTrace, divergence_guard, run_steps


class GameError(ValueError):
    pass


# -- projection oracles ----------------------------------------------------


@dataclass(frozen=True)
class RealsSet:
    """No constraint: projection is the identity."""

    def project(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=float)


@dataclass(frozen=True)
class BoxSet:
    lower: float | np.ndarray
    upper: float | np.ndarray

    def project(self, v: np.ndarray) -> np.ndarray:
        return np.clip(v, self.lower, self.upper)


@dataclass(frozen=True)
class BallSet:
    center: np.ndarray
    radius: float

    def project(self, v: np.ndarray) -> np.ndarray:
        d = np.asarray(v, dtype=float) - self.center
        norm = float(np.linalg.norm(d))
        if norm <= self.radius:
            return np.asarray(v, dtype=float)
        return self.center + d * (self.radius / norm)


@dataclass(frozen=True)
class HalfspaceSet:
    """{v : <normal, v> <= offset}."""

    normal: np.ndarray
    offset: float

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        slack = float(self.normal @ v) - self.offset
        if slack <= 0:
            return v
        return v - slack * self.normal / float(self.normal @ self.normal)


class _Actions:
    """Actions stacked agent by agent (``action_dims``), agent i's in
    ``domains[i]`` (unconstrained when absent): what both game specs share.
    Each compiles its projection in ``__post_init__``."""

    @property
    def num_agents(self) -> int:
        return len(self.action_dims)

    @property
    def total_action_dim(self) -> int:
        return sum(self.action_dims)

    def domain(self, i: int):
        return self.domains.get(i, RealsSet())

    def action_slice(self, i: int) -> slice:
        start = sum(self.action_dims[: i - 1])
        return slice(start, start + self.action_dims[i - 1])

    def project(self, v: np.ndarray) -> np.ndarray:
        """Projection of a stacked action vector onto the product of domains."""
        return self._project_into(v, None)

    def _project_into(self, v: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """:meth:`project` written into ``out``, which may be ``v`` itself
        (None: a new array)."""
        lower, upper, others = self._projection
        out = np.maximum(v, lower, out=out)
        np.minimum(out, upper, out=out)
        for sl, dom in others:  # their bounds are infinite
            out[sl] = dom.project(out[sl])
        return out

    def _compile_projection(self) -> None:
        """Bounds of the box and unconstrained domains; the others by slice."""
        lower = np.full(self.total_action_dim, -np.inf)
        upper = np.full(self.total_action_dim, np.inf)
        others = []
        for i in range(1, self.num_agents + 1):
            dom, sl = self.domain(i), self.action_slice(i)
            if isinstance(dom, BoxSet):
                lower[sl], upper[sl] = dom.lower, dom.upper
            elif not isinstance(dom, RealsSet):
                others.append((sl, dom))
        object.__setattr__(self, "_projection", (lower, upper, tuple(others)))


# -- Nash games ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GameSpec(_Actions):
    """A game given by one stacked partial-gradient oracle.

    ``gradient(v)`` takes, for each pair (p, i) of the sorted
    ``interference``, agent i's value of agent p's action
    (``action_dims[p - 1]`` entries per pair), and returns every agent's
    partial gradient of its own cost in its own action, stacked in agent
    order. Compared by identity, so a layout can memoize what it compiles
    for a game.
    """

    action_dims: tuple[int, ...]
    gradient: Callable[[np.ndarray], np.ndarray]
    interference: frozenset[tuple[int, int]]
    domains: Mapping[int, object] = field(default_factory=dict)
    mu: float | None = None
    theta: float | None = None
    estimated_constants: bool = False
    # compiled once: the projection, and the entries of x each pair reads
    _projection: tuple = field(init=False, repr=False)
    _pair_actions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "interference", frozenset(self.interference))
        object.__setattr__(self, "domains", dict(self.domains))
        if self.mu is not None and self.theta is not None:
            if self.mu <= 0 or self.theta < self.mu:
                raise GameError("need 0 < mu <= theta")
        for i in range(1, self.num_agents + 1):
            if (i, i) not in self.interference:
                raise GameError(f"agent {i} must interfere with itself")
        self._compile_projection()
        object.__setattr__(self, "_pair_actions", _ranges(
            self.action_slice(p) for p, _ in sorted(self.interference)))

    def footprint(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(p for (p, j) in self.interference if j == i))

    def pseudo_gradient(self, x: np.ndarray) -> np.ndarray:
        """Stacked partial gradients evaluated on the true actions."""
        return self.gradient(x[self._pair_actions])


def ne_step(layout: EndLayout, game: GameSpec, hat: np.ndarray, alpha: float) -> np.ndarray:
    """One round: mix all copies, then one gather of the pairs' copies, one
    oracle call and one projected gradient step on the own blocks."""
    if alpha <= 0:
        raise GameError("step size must be positive")
    mixed = layout.apply_weight(hat)
    _own_step(layout, game, mixed, alpha)
    return mixed


def _own_step(layout: EndLayout, game: GameSpec, mixed: np.ndarray, alpha: float) -> None:
    """The part of :func:`ne_step` after the mixing, in place on the mixed
    copies ``mixed``."""
    # compiled once per game: agent i's copy of p for each pair (p, i) in
    # sorted order, then every agent's own copy
    pairs, own_blocks = layout.compiled_for(game, lambda: (
        _ranges(layout.block_slice(p, i) for p, i in sorted(game.interference)),
        _ranges(layout.block_slice(i, i) for i in range(1, game.num_agents + 1))))
    own = mixed[own_blocks]
    own -= alpha * game.gradient(mixed[pairs])
    mixed[own_blocks] = game._project_into(own, own)


@dataclass(eq=False)
class NeTheorem1Certificate:
    """Contraction certificate for the pseudo-gradient dynamics.

    ``rho`` bounds the squared per-step contraction in the weighted norm
    given by the per-component ``q_matrices``; ``certified`` is False when
    no weight construction applied or a numeric identity failed, in which
    case the iteration is still runnable but without a rate guarantee.
    """

    alpha: float
    rho: float
    m_alpha: np.ndarray
    q_matrices: dict[int, np.ndarray]
    perron: dict[int, np.ndarray]
    sigma: dict[int, float]
    sigma_bar: float
    theta_bar: float
    gamma_lo: float
    gamma_hi: float
    mu: float
    theta: float
    certified: bool
    estimated_constants: bool
    notes: list[str] = field(default_factory=list)

    def xi_norm(self, layout: EndLayout, v: np.ndarray) -> float:
        """sqrt(vᵀ Q̂ v) with Q̂ = ⊕_p (Q_p ⊗ I), compiled once per layout."""
        q_hat = layout.compiled_for(self, lambda: layout.block_operator(self.q_matrices))
        return float(np.sqrt(v @ (q_hat @ v)))


def _perron_left_vector(W: np.ndarray, tol: float = 1e-12, max_iters: int = 100000):
    n = W.shape[0]
    q = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        nxt = W.T @ q
        s = nxt.sum()
        if s <= 0:
            break
        nxt /= s
        if np.max(np.abs(nxt - q)) < tol:
            return np.maximum(nxt, 0.0) / np.maximum(nxt, 0.0).sum()
        q = nxt
    # periodic or slowly mixing chain: fall back to a null-space solve
    M = W.T - np.eye(n)
    _, _, vh = np.linalg.svd(M)
    q = vh[-1]
    if q.sum() < 0:
        q = -q
    q = np.maximum(q, 0.0)
    return q / q.sum()


def _weighted_operator_norm(E: np.ndarray, Q: np.ndarray) -> float:
    vals, vecs = np.linalg.eigh(Q)
    vals = np.maximum(vals, 0.0)
    root = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    inv_root = vecs @ np.diag(1.0 / np.sqrt(np.maximum(vals, 1e-300))) @ vecs.T
    return float(np.linalg.norm(root @ E @ inv_root, 2))


def _component_weights(layout: EndLayout, game: GameSpec, i: int, W: np.ndarray):
    """Pick (Q_i, q_i, sigma_i, note) for component i with weight block W;
    note is None on success."""
    n = W.shape[0]
    holders = layout.holders(i)
    pos = holders.index(i)
    e_pos = np.zeros(n)
    e_pos[pos] = 1.0
    tol = 1e-8

    if np.max(np.abs(W @ np.ones(n) - 1.0)) > tol:
        return None, None, None, f"component {i}: weights not row stochastic"
    if not is_rooted(layout.design[i].graph, i):
        return None, None, None, f"component {i}: exchange graph not rooted at owner"

    # star: every holder copies straight from the owner
    if np.max(np.abs(W - np.outer(np.ones(n), e_pos))) <= tol:
        return np.eye(n), e_pos, 0.0, None

    # doubly stochastic
    if np.max(np.abs(np.ones(n) @ W - 1.0)) <= tol:
        q = np.full(n, 1.0 / n)
        sigma = float(np.linalg.norm(W - np.outer(np.ones(n), q), 2))
        return np.eye(n), q, sigma, None

    has_self_loops = np.all(np.diag(W) > 0)
    if is_strongly_connected(layout.design[i].graph) and has_self_loops:
        q = _perron_left_vector(W)
        if q[pos] <= 0:
            return None, None, None, f"component {i}: owner weight vanishes in Perron vector"
        Q = np.diag(q / q[pos])
        sigma = _weighted_operator_norm(W - np.outer(np.ones(n), q), Q)
        return Q, q, sigma, None

    # leader-follower: the owner's row is frozen, followers average below it
    if abs(W[pos, pos] - 1.0) <= tol and np.max(np.abs(np.delete(W[pos], pos))) <= tol:
        if not isinstance(game.domain(i), RealsSet):
            return None, None, None, (
                f"component {i}: non-diagonal weights need an unconstrained action set"
            )
        order = [pos] + [k for k in range(n) if k != pos]
        Wp = W[np.ix_(order, order)]
        q = e_pos.copy()
        E = Wp - np.outer(np.ones(n), np.eye(n)[0])
        if np.max(np.abs(np.linalg.eigvals(E))) >= 1.0 - 1e-12:
            return None, None, None, f"component {i}: follower block not contractive"
        # imported here, not with the module: it adds ~8 MB of resident memory
        # to every run, also to those that never certify a leader-follower design
        from scipy.linalg import solve_discrete_lyapunov

        X = solve_discrete_lyapunov(E.T, np.eye(n))
        X22 = X[1:, 1:]
        Qp = np.zeros((n, n))
        Qp[0, 0] = 1.0 + float(np.ones(n - 1) @ X22 @ np.ones(n - 1))
        Qp[0, 1:] = -np.ones(n - 1) @ X22
        Qp[1:, 0] = -X22 @ np.ones(n - 1)
        Qp[1:, 1:] = X22
        inv = np.argsort(order)
        Q = Qp[np.ix_(inv, inv)]
        sigma = _weighted_operator_norm(W - np.outer(np.ones(n), q), Q)
        return Q, q, sigma, None

    return None, None, None, f"component {i}: no weight construction applies"


def _certified_weights(layout: EndLayout, game: GameSpec, i: int, W: np.ndarray, tol: float):
    """(Q_i, q_i, sigma_i, note) for component i with weight block W, its
    weights checked against the certificate's identities; note is None when
    they hold. Without weights that hold, Q_i = I, q_i is uniform and
    sigma_i = 1."""
    Q, q, sigma, note = _component_weights(layout, game, i, W)
    n = W.shape[0]
    if note is not None:
        return np.eye(n), np.full(n, 1.0 / n), 1.0, note
    pos = layout.holders(i).index(i)
    ok = (
        np.min(np.linalg.eigvalsh(Q)) > 0
        and abs((np.ones(n) @ Q)[pos] - 1.0) <= tol
        and np.max(np.abs(np.ones(n) @ Q @ W @ (np.eye(n) - np.outer(np.ones(n), q)))) <= tol
        and sigma < 1.0
    )
    return Q, q, sigma, None if ok else f"component {i}: weight identities failed numerically"


def _at_step(base: NeTheorem1Certificate, alpha: float) -> NeTheorem1Certificate:
    """``base`` completed for step size ``alpha``: M_alpha and its rate."""
    mu, theta = base.mu, base.theta
    sigma_bar, theta_bar = base.sigma_bar, base.theta_bar
    gamma_lo, gamma_hi = base.gamma_lo, base.gamma_hi
    off = sigma_bar * (alpha * (theta_bar + theta * gamma_hi) + alpha**2 * theta_bar * theta * gamma_hi)
    m_alpha = np.array(
        [
            [1.0 - 2 * alpha * mu * gamma_lo**2 + alpha**2 * theta**2 * gamma_hi**2, off],
            [off, sigma_bar**2 * (1.0 + 2 * alpha * theta_bar + alpha**2 * theta_bar**2)],
        ]
    )
    a, b, d = m_alpha[0, 0], m_alpha[0, 1], m_alpha[1, 1]
    rho = float((a + d) / 2.0 + np.sqrt(((a - d) / 2.0) ** 2 + b**2))
    return replace(base, alpha=alpha, rho=rho, m_alpha=m_alpha, notes=list(base.notes))


def _step_free_certificate(layout: EndLayout, game: GameSpec,
                           tol: float = 1e-8) -> NeTheorem1Certificate:
    """The certificate without a step size (``alpha``, ``rho`` and
    ``m_alpha`` are nan): per component weights, checked identities and the
    constants built from them. Each component group's weight block is
    formed once, used for its members and dropped."""
    if game.mu is None or game.theta is None:
        raise GameError("certificate needs monotonicity and Lipschitz constants")
    found: dict[int, tuple] = {}  # component -> (Q, q, sigma, note)
    for g in layout.groups:
        W = g.weights.matrix()
        for i in g.members:
            found[i] = _certified_weights(layout, game, i, W, tol)
    q_matrices: dict[int, np.ndarray] = {}
    perron: dict[int, np.ndarray] = {}
    sigmas: dict[int, float] = {}
    notes: list[str] = []
    for i in range(1, game.num_agents + 1):
        q_matrices[i], perron[i], sigmas[i], note = found[i]
        if note is not None:
            notes.append(note)
    certified = not notes

    lam_min_xi = min(float(np.min(np.linalg.eigvalsh(Q))) for Q in q_matrices.values())
    own_diag = max(
        float(q_matrices[i][layout.holders(i).index(i), layout.holders(i).index(i)])
        for i in range(1, game.num_agents + 1)
    )
    mass = {
        i: float(np.ones(layout.copies(i)) @ q_matrices[i] @ np.ones(layout.copies(i)))
        for i in range(1, game.num_agents + 1)
    }
    return NeTheorem1Certificate(
        alpha=np.nan,
        rho=np.nan,
        m_alpha=np.full((2, 2), np.nan),
        q_matrices=q_matrices,
        perron=perron,
        sigma=sigmas,
        sigma_bar=max(sigmas.values()),
        theta_bar=float(game.theta * np.sqrt(own_diag / lam_min_xi)),
        gamma_lo=float(np.sqrt(1.0 / max(mass.values()))),
        gamma_hi=float(np.sqrt(1.0 / min(mass.values()))),
        mu=game.mu,
        theta=game.theta,
        certified=certified,
        estimated_constants=game.estimated_constants,
        notes=notes,
    )


def certify_theorem1(
    layout: EndLayout, game: GameSpec, alpha: float, tol: float = 1e-8
) -> NeTheorem1Certificate:
    """Build the contraction certificate for the given step size."""
    return _at_step(_step_free_certificate(layout, game, tol), alpha)


def search_ne_step_size(
    layout: EndLayout, game: GameSpec, target: float = 0.999, grid: int = 60
) -> NeTheorem1Certificate:
    """Largest step size with certified contraction factor at most ``target``.

    Samples a geometric grid to find the feasible region, then bisects its
    right edge. Sparse designs can push the best certifiable rate close to
    1, so when no grid step meets ``target`` the target is moved a tenth of
    the way closer to 1 and sampled again, up to three times; the returned
    ``rho`` then lies above the requested target. The step-size independent
    part is built once for every target.
    """
    base = _step_free_certificate(layout, game)
    alphas = np.geomspace(1e-8, 1e2, grid)
    for _ in range(4):
        feas = [a for a in alphas if _at_step(base, a).rho <= target]
        if feas:
            break
        target = 1.0 - 0.1 * (1.0 - target)
    else:
        raise GameError("no certifiable step size found")
    lo = max(feas)
    hi = float(alphas[np.searchsorted(alphas, lo) + 1]) if lo < alphas[-1] else lo * 2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _at_step(base, mid).rho <= target:
            lo = mid
        else:
            hi = mid
    return _at_step(base, lo)


def ne_solve(
    layout: EndLayout,
    game: GameSpec,
    alpha: float,
    max_iters: int = 10000,
    tol: float = 1e-10,
    hat0: np.ndarray | None = None,
    reference: np.ndarray | None = None,
    certificate: NeTheorem1Certificate | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Iterate the pseudo-gradient dynamics to a fixed point.

    With a reference equilibrium the trace records the weighted distance
    and the per-step squared contraction ratio. The loop is
    :func:`~endnet.trace.run_steps`. Each step is :func:`ne_step` on two
    buffers made here, the weight operator bound into them, and the
    record's differences go to a third: a step allocates no stacked vector.
    """
    if max_iters < 1:
        raise GameError("the pseudo-gradient iteration needs max_iters >= 1")
    if alpha <= 0:
        raise GameError("step size must be positive")
    hat = np.zeros(layout.stacked_dim) if hat0 is None else np.array(hat0, float)
    ref_hat = None if reference is None else layout.embed_consensus(np.asarray(reference, float))
    trace = RunTrace(meta={"alpha": alpha})
    buffers = (hat, np.empty_like(hat))  # the iterate and the one before, swapped each step
    mix = tuple(layout.weight_operator.bind(buffers[j], buffers[1 - j]) for j in (0, 1))
    prev = hat
    prev_dist = None
    diff = np.empty_like(hat)

    def step(k: int) -> np.ndarray:
        nonlocal prev, hat
        mix[k % 2]()
        prev, hat = buffers[k % 2], buffers[1 - k % 2]
        _own_step(layout, game, hat, alpha)
        return hat

    def record(s: int) -> bool:
        nonlocal prev_dist
        row = {"k": s - 1, "step": float(np.linalg.norm(np.subtract(hat, prev, diff)))}
        if ref_hat is not None:
            np.subtract(hat, ref_hat, diff)
            if certificate is not None:
                dist = certificate.xi_norm(layout, diff)
            else:
                dist = float(np.linalg.norm(diff))
            row["distance"] = dist
            if prev_dist is not None and prev_dist > 0:
                row["ratio"] = (dist / prev_dist) ** 2
            prev_dist = dist
        trace.append(**row)
        return row.get("distance", row["step"]) < tol

    run_steps(trace, max_iters, step, record, divergence_guard(hat, f"iterate (alpha={alpha})"))
    return hat, trace


# -- generalized Nash, affine-aggregative ----------------------------------


@dataclass(frozen=True)
class AggregativeGameSpec(_Actions):
    """Aggregative game with affine aggregation and affine coupling constraints.

    Matrices are given blockwise and must vanish off the two interference
    patterns. The gradient is indexed by the pairs (q, i) of the sorted
    ``interference_sigma``, the pair being agent i's value of aggregation
    block q: ``gradient(x, sigma)`` takes the stacked actions and the pairs'
    values stacked in that order (``sigma_dims[q]`` entries per pair), and
    returns the stacked extended pseudo-gradient, whose block i is
    ∇_{x_i} f_i + Σ_q B_{q,i}ᵀ ∇_{σ_q} f_i at agent i's values.
    """

    action_dims: tuple[int, ...]
    sigma_dims: Mapping[int, int]
    lambda_dims: Mapping[int, int]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]
    agg_blocks: Mapping[tuple[int, int], np.ndarray]
    agg_offsets: Mapping[tuple[int, int], np.ndarray]
    con_blocks: Mapping[tuple[int, int], np.ndarray]
    con_offsets: Mapping[tuple[int, int], np.ndarray]
    interference_sigma: frozenset[tuple[int, int]]
    interference_lambda: frozenset[tuple[int, int]]
    sense: str = "equality"
    domains: Mapping[int, object] = field(default_factory=dict)
    # compiled once in __post_init__: the stacked aggregation (blocks in
    # sorted order) and the rows of it each pair reads, the stacked
    # constraints and the projection onto the domains
    _aggregation: tuple[CsrOperator, np.ndarray] = field(init=False, repr=False, compare=False)
    _pair_rows: np.ndarray = field(init=False, repr=False, compare=False)
    _constraints: tuple[CsrOperator, np.ndarray] = field(init=False, repr=False, compare=False)
    _projection: tuple = field(init=False, repr=False, compare=False)
    # finished centralized reference solves, keyed on their arguments; see
    # solve_vgne_centralized
    _references: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        for name in ("agg_blocks", "agg_offsets", "con_blocks", "con_offsets", "domains",
                     "sigma_dims", "lambda_dims"):
            object.__setattr__(self, name, dict(getattr(self, name)))
        object.__setattr__(self, "interference_sigma", frozenset(self.interference_sigma))
        object.__setattr__(self, "interference_lambda", frozenset(self.interference_lambda))
        if self.sense not in ("equality", "inequality"):
            raise GameError("constraint sense must be equality or inequality")
        for what, table, pattern in (
            ("aggregation block", self.agg_blocks, self.interference_sigma),
            ("aggregation offset", self.agg_offsets, self.interference_sigma),
            ("constraint block", self.con_blocks, self.interference_lambda),
            ("constraint offset", self.con_offsets, self.interference_lambda),
        ):
            for key in table:
                if key not in pattern:
                    raise GameError(f"{what} {key} off the interference pattern")
        object.__setattr__(self, "_aggregation",
                           self._stack(self.sigma_dims, self.agg_blocks, self.agg_offsets))
        starts = _block_starts(self.sigma_dims)
        pairs = sorted(self.interference_sigma)
        object.__setattr__(self, "_pair_rows", _ranges(
            slice(starts[q], starts[q] + self.sigma_dims[q]) for q, _ in pairs))
        object.__setattr__(self, "_constraints",
                           self._stack(self.lambda_dims, self.con_blocks, self.con_offsets))
        self._compile_projection()

    def _stack(self, dims, blocks, offsets) -> tuple[CsrOperator, np.ndarray]:
        """(M, m) with M x + m stacking Σ_i (M_{q,i} x_i + m_{q,i}) over the
        blocks q in sorted order."""
        starts = _block_starts(dims)
        entries = []
        for (q, i), blk in blocks.items():
            r, c = np.nonzero(blk)
            entries.append((starts[q] + r, self.action_slice(i).start + c, blk[r, c]))
        offset = np.zeros(sum(dims.values()))
        for (q, _), vec in offsets.items():
            offset[starts[q]:starts[q] + dims[q]] += vec
        return CsrOperator(_csr((offset.shape[0], self.total_action_dim), entries)), offset

    def aggregation(self, x: np.ndarray) -> dict[int, np.ndarray]:
        """True aggregation values, one block per component."""
        M, m = self._aggregation
        values = M.affine(x, m)
        starts = _block_starts(self.sigma_dims)
        return {q: values[starts[q]:starts[q] + d] for q, d in self.sigma_dims.items()}

    def constraint_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense stacked (A, a) of the coupling constraints A x = a (or <=)."""
        A, a = self._constraints
        return A.toarray(), a.copy()

    def pseudo_gradient(self, x: np.ndarray) -> np.ndarray:
        """True pseudo-gradient: every pair reads the exact aggregation."""
        M, m = self._aggregation
        return self.gradient(x, M.affine(x, m)[self._pair_rows])


def _csr(shape: tuple[int, int], entries) -> sp.csr_matrix:
    """The ``shape`` matrix with the (rows, columns, values) ``entries``, in
    canonical CSR, as ``sp.bmat`` would assemble them without its cost per
    block."""
    empty = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    rows, cols, vals = (np.concatenate(part) for part in zip(empty, *entries))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def _block_starts(dims: Mapping[int, int]) -> dict[int, int]:
    """Start of each block in a vector stacking the blocks in sorted order."""
    order = sorted(dims)
    return dict(zip(order, np.cumsum([0] + [dims[q] for q in order]).tolist()))


@dataclass
class GneOperators:
    """Stacked operators for the primal-dual iteration, built once.

    Aggregation and constraint operators are compiled
    :class:`~endnet.layout.CsrOperator` matrices; the Laplacians are the
    layouts' :class:`~endnet.layout.BlockOperator` objects, which a step
    applies as they are, scaled, and never composes with another map.
    Without layouts and Laplacians (None) every block has a single holder,
    as in :func:`solve_vgne_centralized`: B̂ and Â are the game's own.
    """

    game: AggregativeGameSpec
    sigma_layout: EndLayout | None
    lambda_layout: EndLayout | None
    B_hat: CsrOperator
    b_hat: np.ndarray
    A_hat: CsrOperator
    a_hat: np.ndarray
    L_sigma: BlockOperator | None
    L_lambda: BlockOperator | None
    # the copies the game's gradient reads: agent i's copy of block q for
    # each pair (q, i) of the sorted aggregation interference pattern
    sigma_pair_index: np.ndarray
    # the linear part of a step for the last step size used; see _Stage
    _stage: "_Stage | None" = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def coupling_bound(self) -> float:
        """λ_max(ÂᵀÂ) + max_g σ_max(L_g)² over the dual layout's component
        groups: an upper bound on the squared largest singular value of
        [-Â, L̂_λᵀ]."""
        A = self.A_hat.matrix
        gram = (A.T @ A).toarray()
        top = float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0
        return top + max((float(np.linalg.norm(laplacian(g.weights), 2)) ** 2
                          for g in self.lambda_layout.groups), default=0.0)

    def stage(self, beta: float) -> "_Stage":
        """The compiled linear part of a step with step size ``beta``."""
        if self._stage is None or self._stage.beta != beta:
            self._stage = _Stage.build(self, beta)
        return self._stage


def _scatter_blocks(layout: EndLayout, blocks: Mapping[tuple[int, int], np.ndarray],
                    offsets: Mapping[tuple[int, int], np.ndarray], scale: Mapping[int, float],
                    game: AggregativeGameSpec) -> tuple[CsrOperator, np.ndarray]:
    """Stack per-copy blocks (q, i) -> scale_q * M_{q,i} x_i into one operator."""
    entries = []
    offset = np.zeros(layout.stacked_dim)
    for q in layout.partition.components:
        for i in layout.holders(q):
            sl = layout.block_slice(q, i)
            M = blocks.get((q, i))
            if M is not None:
                r, c = np.nonzero(M)
                entries.append((sl.start + r, game.action_slice(i).start + c, scale[q] * M[r, c]))
            off = offsets.get((q, i))
            if off is not None:
                offset[sl] += scale[q] * off
    return CsrOperator(_csr((layout.stacked_dim, game.total_action_dim), entries)), offset


class _StageParts(NamedTuple):
    """Where each vector of a step sits in a round's output buffer: the new
    state [x; s; z; lam] first, then what the step reads on the way."""

    x: slice            # x - B^T s - beta A^T lam, then x_next
    s: slice            # s, then s_next = s - beta L_s sigma_hat
    z: slice            # z, then z_next = z + beta L_l lam
    lam: slice          # lam - beta (A x + a), then lam_next
    sigma: slice        # sigma_hat = s + B x + b
    sigma_pairs: slice  # sigma_hat at the pair rows the gradient reads
    s_norms: slice      # per-component sums of the copies of s over sqrt(copies)


class _Stage(NamedTuple):
    """The maps of one step with step size ``beta``.

    ``linear`` is one sparse operator from the state w = [x; s; z; lam] to
    the vectors listed in :class:`_StageParts` (plus ``offset``). It holds
    B̂, Â, identities, the pair rows and the sum rows, and no Laplacian:
    the Laplacians are the layouts' own operators, scaled, each applied
    once per round to the vector it acts on.

    * ``lap_sigma`` = -beta L_s adds -beta L_s sigma_hat into the copy of
      s, so the shifted estimates lose a Laplacian image and keep their
      per-component sums at roundoff. B^T s_next added into the x part
      then leaves x - beta (B^T L_s sigma_hat + A^T lam).
    * ``lap_lambda`` = beta L_l adds beta L_l lam into the copy of z, and
      beta L_l (z - 2 z_next) into the lam part, which with ``dual_push`` =
      2 beta A applied to x_next makes the dual update
      lam - beta (L_l (2 z_next - z) - A (2 x_next - x) + a).

    Either Laplacian is None when the operators have none. No product of
    two of these maps is formed, so the stage stores the nonzeros of the
    maps it is built from.
    """

    beta: float
    linear: CsrOperator
    offset: np.ndarray
    parts: _StageParts
    lap_sigma: BlockOperator | None   # -beta L_s
    lap_lambda: BlockOperator | None  # beta L_l
    dual_push: CsrOperator            # 2 beta A

    @classmethod
    def build(cls, ops: GneOperators, beta: float) -> "_Stage":
        A, B = ops.A_hat.matrix.tocoo(), ops.B_hat.matrix.tocoo()
        (n_s, n_x), n_l = B.shape, A.shape[0]
        pairs, layout = ops.sigma_pair_index, ops.sigma_layout
        # each coordinate's copy sum of s over the root of its copy count
        norms = (sp.csr_matrix((0, n_s)) if layout is None else sp.diags(
            1.0 / np.sqrt(layout.copy_counts)) @ layout.sum_operator.matrix).tocoo()
        at_pairs = ops.B_hat.matrix[pairs].tocoo()
        ends = np.cumsum((n_x, n_s, n_l, n_l, n_s, pairs.size, norms.shape[0])).tolist()
        parts = _StageParts(*(slice(a, b) for a, b in zip([0] + ends[:-1], ends)))
        s, lam = n_x, n_x + n_s + n_l  # where s and lam start in the state
        state, copies, pair = np.arange(lam + n_l), np.arange(n_s), np.arange(pairs.size)
        entries = [(state, state, np.ones(state.size)),  # the state, then added into it:
                   (A.col, lam + A.row, -beta * A.data),  # -beta A^T lam into x
                   (parts.lam.start + A.row, A.col, -beta * A.data),  # -beta A x into lam
                   (parts.sigma.start + B.row, B.col, B.data),  # sigma_hat = B x + s (+ b)
                   (parts.sigma.start + copies, s + copies, np.ones(n_s)),
                   (parts.sigma_pairs.start + at_pairs.row, at_pairs.col, at_pairs.data),
                   (parts.sigma_pairs.start + pair, s + pairs, np.ones(pairs.size)),
                   (parts.s_norms.start + norms.row, s + norms.col, norms.data)]
        if ops.L_sigma is not None:
            # -B^T s into x; without L_s, s never moves, and the round adds no B^T s_next
            entries.append((B.col, s + B.row, -B.data))
        linear = _csr((ends[-1], state.size), entries)
        offset = np.concatenate([np.zeros(n_x + n_s + n_l), -beta * ops.a_hat, ops.b_hat,
                                 ops.b_hat[pairs], np.zeros(norms.shape[0])])
        return cls(beta, CsrOperator(linear), offset, parts,
                   None if ops.L_sigma is None else ops.L_sigma.scaled(-beta),
                   None if ops.L_lambda is None else ops.L_lambda.scaled(beta),
                   CsrOperator(2 * beta * ops.A_hat.matrix))


class _GneRounds:
    """Primal-dual rounds run in place, on buffers allocated once.

    Two buffers laid out as :class:`_StageParts` take turns: the state of a
    round is the first part of one buffer (``states``), and the round
    writes the stage's linear image of it into the other, finishes the new
    state there and leaves the incoming s's component sums in its
    ``s_norms`` part. Every operator the stage has is bound to both
    directions here, and every operand of a ufunc is an array made here.
    """

    def __init__(self, ops: GneOperators, stage: _Stage, alpha: float, x: np.ndarray,
                 s_hat: np.ndarray, z_hat: np.ndarray, lam_hat: np.ndarray):
        self.game = ops.game
        n_state = stage.linear.shape[1]
        buffers = (np.zeros(stage.linear.shape[0]), np.zeros(stage.linear.shape[0]))
        buffers[0][:n_state] = np.concatenate((x, s_hat, z_hat, lam_hat))
        self.states = tuple(b[:n_state] for b in buffers)
        self.views = tuple(_StageParts(*(b[sl] for sl in stage.parts)) for b in buffers)
        u = np.empty(lam_hat.size)  # z - 2 z_next
        two = np.full(lam_hat.size, 2.0)
        self._zero = np.zeros(lam_hat.size)
        self._inequality = ops.game.sense == "inequality"
        self._scaled = np.empty(x.size)
        self._alpha_beta = np.full(x.size, alpha * stage.beta)
        self.turn = 0  # the buffer that holds the state
        self._bound = []
        for a, b in ((0, 1), (1, 0)):
            source, target = self.views[a], self.views[b]
            before = [stage.linear.bind(self.states[a], buffers[b], offset=stage.offset)]
            after = []
            if stage.lap_sigma is not None:
                before += [stage.lap_sigma.bind(target.sigma, target.s, accumulate=True),
                           ops.B_hat.T.bind(target.s, target.x, accumulate=True)]
            if stage.lap_lambda is not None:
                before.append(stage.lap_lambda.bind(source.lam, target.z, accumulate=True))
                after += [partial(np.multiply, target.z, two, u),
                          partial(np.subtract, source.z, u, u),
                          stage.lap_lambda.bind(u, target.lam, accumulate=True)]
            after.append(stage.dual_push.bind(target.x, target.lam, accumulate=True))
            self._bound.append((tuple(before), tuple(after)))

    @property
    def state(self) -> _StageParts:
        """Views of the current buffer."""
        return self.views[self.turn]

    def step(self) -> _StageParts:
        """One round; returns views of the new buffer."""
        old = self.views[self.turn]
        before, after = self._bound[self.turn]
        self.turn = 1 - self.turn
        new = self.views[self.turn]
        for call in before:
            call()
        grad = self.game.gradient(old.x, new.sigma_pairs)
        np.multiply(grad, self._alpha_beta, out=self._scaled)
        np.subtract(new.x, self._scaled, out=new.x)
        self.game._project_into(new.x, new.x)
        for call in after:
            call()
        if self._inequality:
            np.maximum(new.lam, self._zero, out=new.lam)
        return new


def build_gne_operators(
    game: AggregativeGameSpec, sigma_layout: EndLayout, lambda_layout: EndLayout
) -> GneOperators:
    # aggregation operator: block (q, i) of B_hat x is N_q * B_{q,i} x_i
    B_hat, b_hat = _scatter_blocks(
        sigma_layout, game.agg_blocks, game.agg_offsets,
        {q: float(sigma_layout.copies(q)) for q in sigma_layout.partition.components}, game)
    A_hat, a_hat = _scatter_blocks(
        lambda_layout, game.con_blocks, game.con_offsets,
        {m: 1.0 for m in lambda_layout.partition.components}, game)
    pairs = sorted(game.interference_sigma)
    return GneOperators(
        game=game,
        sigma_layout=sigma_layout,
        lambda_layout=lambda_layout,
        B_hat=B_hat,
        b_hat=b_hat,
        A_hat=A_hat,
        a_hat=a_hat,
        L_sigma=sigma_layout.laplacian_operator,
        L_lambda=lambda_layout.laplacian_operator,
        sigma_pair_index=_ranges(sigma_layout.block_slice(q, i) for q, i in pairs),
    )


@dataclass
class GneState:
    x: np.ndarray
    s_hat: np.ndarray       # shifted aggregation estimates (estimate - local input)
    z_hat: np.ndarray
    lam_hat: np.ndarray

    def sigma_hat(self, ops: GneOperators) -> np.ndarray:
        return self.s_hat + ops.B_hat @ self.x + ops.b_hat


def initial_gne_state(ops: GneOperators, x0: np.ndarray) -> GneState:
    x0 = np.asarray(x0, dtype=float)
    return GneState(x=x0.copy(), s_hat=np.zeros(ops.b_hat.size),
                    z_hat=np.zeros(ops.a_hat.size), lam_hat=np.zeros(ops.a_hat.size))


def extended_pseudo_gradient(ops: GneOperators, x: np.ndarray, sigma_hat: np.ndarray) -> np.ndarray:
    """The game's gradient with every pair (q, i) reading agent i's copy of
    block q from the local aggregation estimates."""
    return ops.game.gradient(x, sigma_hat[ops.sigma_pair_index])


def _rounds(ops: GneOperators, state: GneState, alpha: float, beta: float) -> _GneRounds:
    return _GneRounds(ops, ops.stage(beta), alpha, np.asarray(state.x, dtype=float),
                      state.s_hat, state.z_hat, state.lam_hat)


def _state(rounds: _GneRounds) -> GneState:
    now = rounds.state
    return GneState(x=now.x, s_hat=now.s, z_hat=now.z, lam_hat=now.lam)


def gne_step(ops: GneOperators, state: GneState, alpha: float, beta: float) -> GneState:
    """One primal-dual round with aggregation tracking and dual consensus:
    the round :func:`gne_solve` runs, on buffers of its own."""
    rounds = _rounds(ops, state, alpha, beta)
    rounds.step()
    return _state(rounds)


def preconditioner_positive(ops: GneOperators, beta: float) -> bool:
    """Positive-definiteness of the symmetric primal-dual preconditioner.

    Over [x; s; z; lam] the preconditioner is I/beta + [[0, Mᵀ], [M, 0]] with
    M = [-Â, 0, L̂_λᵀ], so it is positive definite exactly when 1/beta exceeds
    the largest singular value of M. Since σ_max([X, Y])² ≤ ‖X‖² + ‖Y‖² and
    L̂_λ applies one block L_g per component group, σ_max(M)² is at most
    λ_max(ÂᵀÂ) + max_g σ_max(L_g)², from small dense matrices: when beta
    times its root is below 1 that settles it. Otherwise σ_max(M) is the
    largest eigenvalue of the sparse symmetric [[0, Mᵀ], [M, 0]] with the
    zero s block left out, found by Lanczos from a fixed start.
    """
    if not beta > 0:
        raise GameError(f"the preconditioner needs a positive step beta, got {beta!r}")
    if beta * np.sqrt(ops.coupling_bound) < 1.0:
        return True
    # imported here, not with the module: it adds ~2 MB of resident memory
    # to every run, also to those that never check a preconditioner
    from scipy.sparse.linalg import eigsh

    M = sp.hstack([-ops.A_hat.matrix, ops.L_lambda.matrix.T], format="csr")
    sym = sp.bmat([[None, M.T], [M, None]], format="csr")
    start = np.random.default_rng(0).standard_normal(sym.shape[0])
    top = eigsh(sym, k=1, which="LA", v0=start, return_eigenvectors=False)[0]
    return 1.0 / beta - float(top) > 0.0


def skew_part_pairing(ops: GneOperators, x, s, z, lam) -> float:
    """<omega, A2 omega> for the linear coupling operator; zero when skew."""
    t1 = float(x @ (ops.A_hat.T @ lam))
    t3 = float(z @ (-(ops.L_lambda @ lam)))
    t4 = float(lam @ (ops.L_lambda @ z - ops.A_hat @ x))
    return t1 + t3 + t4


def consensus_dual(ops: GneOperators, lam_hat: np.ndarray) -> np.ndarray:
    """Per-block mean of the dual copies, stacked into one multiplier."""
    return ops.lambda_layout.component_means(lam_hat)


def kkt_residual(game: AggregativeGameSpec, x: np.ndarray, lam: np.ndarray) -> float:
    return _bind_kkt_residual(game, np.array(x, dtype=float), np.array(lam, dtype=float))()


def _bind_kkt_residual(game: AggregativeGameSpec, x: np.ndarray,
                       lam: np.ndarray) -> Callable[[], float]:
    """A call that returns the KKT residual of the fixed arrays ``x`` and
    ``lam``: projected stationarity ‖P(x - F(x) - Aᵀlam) - x‖ plus the norm
    of the constraint gap A x - a (for inequalities its positive part, plus
    |lamᵀ(A x - a)|), computed in buffers made here."""
    (A, a), (M, m) = game._constraints, game._aggregation
    pair_rows = game._pair_rows
    values, sigma = np.empty(m.size), np.empty(pair_rows.size)
    drive, moved = np.empty(x.size), np.empty(x.size)
    gap, excess = np.empty(a.size), np.empty(a.size)
    aggregate = M.bind(x, values, offset=m)
    push = A.T.bind(lam, drive)
    constrain = A.bind(x, gap)
    equality = game.sense == "equality"

    def residual() -> float:
        aggregate()
        values.take(pair_rows, out=sigma)
        push()
        np.add(game.gradient(x, sigma), drive, out=drive)
        np.subtract(x, drive, out=moved)
        game._project_into(moved, moved)
        np.subtract(moved, x, out=moved)
        stat = float(np.linalg.norm(moved))
        constrain()
        np.subtract(gap, a, out=gap)
        if equality:
            return stat + float(np.linalg.norm(gap))
        np.maximum(gap, 0.0, out=excess)
        return stat + float(np.linalg.norm(excess)) + abs(float(lam @ gap))

    return residual


def _bind_gne_record(ops: GneOperators, now: _StageParts, alpha: float,
                     reference: np.ndarray | None) -> Callable[[int], dict]:
    """A call that returns :func:`gne_solve`'s trace row for the state
    ``now`` (views of one of the rounds' buffers) at step s, each column
    with the arithmetic of the unbound functions (:func:`consensus_dual`,
    :func:`kkt_residual`, :meth:`GneState.sigma_hat` and the layouts'
    ``disagreement``), in buffers made here."""
    sig, dual = ops.sigma_layout, ops.lambda_layout
    sums, lam = np.empty(dual.partition.total_dim), np.empty(dual.partition.total_dim)
    counts = dual.copy_counts
    sigma_hat, sigma_off = np.empty(sig.stacked_dim), np.empty(sig.stacked_dim)
    lam_off = np.empty(dual.stacked_dim)
    add_copies = dual.sum_operator.bind(now.lam, sums)
    residual = _bind_kkt_residual(ops.game, now.x, lam)
    aggregate = ops.B_hat.bind(now.x, sigma_hat)
    sigma_spread = sig.bind_disagreement(sigma_hat, sigma_off)
    lam_spread = dual.bind_disagreement(now.lam, lam_off)
    to_reference = None if reference is None else np.empty(now.x.size)

    def record(s: int) -> dict:
        add_copies()
        np.divide(sums, counts, out=lam)
        # the primal step drives alpha*F + A^T lam_hat to zero, so the
        # copies track alpha-scaled multipliers
        np.divide(lam, alpha, out=lam)
        row = {"k": s - 1, "residual": residual()}
        aggregate()
        np.add(now.s, sigma_hat, out=sigma_hat)
        np.add(sigma_hat, ops.b_hat, out=sigma_hat)
        sigma_spread()
        lam_spread()
        row["sigma_disagreement"] = float(np.linalg.norm(sigma_off))
        row["lambda_disagreement"] = float(np.linalg.norm(lam_off))
        if to_reference is not None:
            np.subtract(now.x, reference, out=to_reference)
            row["distance"] = float(np.linalg.norm(to_reference))
        return row

    return record


def gne_solve(
    ops: GneOperators,
    x0: np.ndarray,
    alpha: float,
    beta: float,
    max_iters: int = 200000,
    tol: float = 1e-4,
    reference: np.ndarray | None = None,
    residual_tol: float | None = None,
    check_every: int = 50,
) -> tuple[GneState, RunTrace]:
    """Run the primal-dual iteration until the KKT residual (or the distance
    to a reference equilibrium) drops below tolerance.

    ``max_consensus_invariant`` in the trace metadata is the largest norm
    over all steps of the consensus projection of the shifted aggregation
    estimates, which the iteration conserves at zero. The loop is
    :func:`~endnet.trace.run_steps`.
    """
    if max_iters < 1 or check_every < 1:
        raise GameError("the primal-dual iteration needs max_iters >= 1 and check_every >= 1")
    if not (alpha > 0 and beta > 0):
        raise GameError(f"the primal-dual iteration needs positive steps, "
                        f"got alpha={alpha!r}, beta={beta!r}")
    rounds = _rounds(ops, initial_gne_state(ops, x0), alpha, beta)
    trace = RunTrace(meta={"alpha": alpha, "beta": beta})
    cost = ops.sigma_layout.communication_cost("unicast") + ops.lambda_layout.communication_cost(
        "unicast"
    )
    trace.meta["unicast_cost_per_iter"] = cost
    # |consensus projection of s|^2 = sum over components of (copy sum)^2 / copies
    max_invariant2 = 0.0

    def fold(block: np.ndarray) -> None:
        nonlocal max_invariant2
        max_invariant2 = max(max_invariant2, float(np.max(np.einsum("ij,ij->i", block, block))))

    norms = RowBlocks(rounds.state.s_norms.size, fold)

    def step(k: int) -> np.ndarray:
        now = rounds.step()
        # the norms belong to the s_hat this round started from; the final
        # s_hat is measured after the loop
        norms.push(now.s_norms)
        return now.x

    rows = tuple(_bind_gne_record(ops, now, alpha, reference) for now in rounds.views)

    def record(s: int) -> bool:
        row = rows[rounds.turn](s)
        trace.append(**row)
        residual = row["residual"]
        done = row["distance"] <= tol if reference is not None else residual <= tol
        return done and (residual_tol is None or residual <= residual_tol)

    run_steps(trace, max_iters, step, record, divergence_guard(x0, "primal iterate"),
              every=check_every, ring=norms)
    state = _state(rounds)
    s_sums = ops.sigma_layout.component_sums(state.s_hat)
    max_invariant2 = max(max_invariant2, s_sums @ (s_sums / ops.sigma_layout.copy_counts))
    trace.meta["max_consensus_invariant"] = float(np.sqrt(max_invariant2))
    return state, trace


def search_gne_beta(
    ops: GneOperators,
    x0: np.ndarray,
    alpha: float,
    start: float = 1e-2,
    probe_iters: int = 200,
    max_halvings: int = 30,
) -> float:
    """Largest power-of-two fraction of ``start`` that keeps the symmetric
    preconditioner positive definite and a short probe run non-expansive."""
    beta = start
    for _ in range(max_halvings):
        if preconditioner_positive(ops, beta):
            rounds = _rounds(ops, initial_gne_state(ops, x0), alpha, beta)
            norms = []
            ok = True
            try:
                for _ in range(probe_iters):
                    rounds.step()
                    x = rounds.state.x
                    if not np.isfinite(x).all():
                        ok = False
                        break
                    norms.append(float(np.linalg.norm(x)))
            except FloatingPointError:
                ok = False
            if ok and norms and norms[-1] <= 10.0 * (1.0 + max(norms[0], 1.0)):
                return beta
        beta /= 2.0
    raise GameError("no stable dual-primal step size found")


def solve_vgne_centralized(
    game: AggregativeGameSpec,
    x0: np.ndarray,
    step: float = 0.05,
    max_iters: int = 2000000,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference equilibrium via a centralized projected primal-dual loop:
    the gne round on one-holder operators (B̂ = M, Â = A, no Laplacians),
    with alpha = 1 and beta = ``step``, run until the state moves by less
    than ``tol`` (max-norm) in a round or ``max_iters`` rounds ran.

    The finished (x, lam) is kept on the game, keyed on x0 and the other
    arguments, so a second call with the same arguments (the other layout
    arm of an experiment cell) returns copies of it without iterating; a
    solve that raises keeps nothing.

    Raises :class:`~endnet.trace.DivergenceError` when the iterate blows up.
    """
    if not step > 0 or max_iters < 1:
        raise GameError(f"the reference loop needs a positive step and max_iters >= 1, "
                        f"got step={step!r}, max_iters={max_iters!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (game.total_action_dim,):
        raise GameError(f"x0 of shape {x0.shape} for {game.total_action_dim} stacked actions")
    key = (x0.tobytes(), x0.shape, step, max_iters, tol)
    if key not in game._references:
        game._references[key] = _reference_loop(game, x0, step, max_iters, tol)
    x, lam = game._references[key]
    return x.copy(), lam.copy()


def _reference_loop(game: AggregativeGameSpec, x0: np.ndarray, step: float, max_iters: int,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The loop of :func:`solve_vgne_centralized`: the gne round on the
    game's one-holder operators (:class:`GneOperators` without layouts).
    Without Laplacians s and z stay zero, so the largest change of the state
    in a round, which stops the loop below ``tol``, is that of (x, lam)."""
    (A, a), (M, m) = game._constraints, game._aggregation
    ops = GneOperators(game, None, None, M, m, A, a, None, None, game._pair_rows)
    rounds = _rounds(ops, initial_gne_state(ops, x0), 1.0, step)
    states = rounds.states
    delta = np.empty(states[0].size)

    def advance(k: int) -> np.ndarray:
        return rounds.step().x

    def converged(s: int) -> bool:
        np.subtract(states[rounds.turn], states[1 - rounds.turn], out=delta)
        return np.abs(delta, out=delta).max() < tol

    run_steps(RunTrace(), max_iters, advance, converged,
              divergence_guard(x0, "reference primal iterate"))
    now = rounds.state
    return now.x.copy(), now.lam.copy()
