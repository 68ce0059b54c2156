"""Estimate-exchange layouts: partition, graph layers, stacked operators.

A layout bundles a variable partition, the communication graph, the
interference pattern (which agents indispensably need which components)
and one weighted exchange graph per component.  The estimate assignment
is derived from the exchange graphs: agent i holds a copy of component p
iff i is a node of the p-th exchange graph.

Stacked vectors are stored variable-major: for each component p in
ascending order, the copies held by agents in ascending id order, each a
block of the component's dimension.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from .graphs import (
    Graph,
    GraphError,
    WeightedGraph,
    column_stochastic_weights,
    is_rooted,
    is_strongly_connected,
    laplacian,
    laplacian_entries,
    metropolis_hastings_weights,
    reachable,
    row_stochastic_weights,
    uniform_weights,
)


class LayoutError(ValueError):
    """Raised on malformed layouts or dimension mismatches."""


@dataclass(frozen=True)
class Partition:
    """Block sizes of the variable of interest; components are numbered 1..P."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise LayoutError("partition dims must be positive")

    @property
    def num_components(self) -> int:
        return len(self.dims)

    @property
    def components(self) -> range:
        return range(1, len(self.dims) + 1)

    def dim(self, p: int) -> int:
        return self.dims[p - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def component_slice(self, p: int) -> slice:
        """Slice of component p inside a flat vector of the full variable."""
        start = sum(self.dims[: p - 1])
        return slice(start, start + self.dims[p - 1])


@dataclass(frozen=True)
class ConnectivityMode:
    """Which connectedness variant the exchange graphs must satisfy."""

    kind: str  # "rooted" | "strong" | "undirected"
    roots: Mapping[int, int] | None = None

    def __post_init__(self):
        if self.kind not in ("rooted", "strong", "undirected"):
            raise LayoutError(f"unknown connectivity kind {self.kind!r}")
        if self.kind == "rooted" and self.roots is None:
            raise LayoutError("rooted mode needs a roots map")
        if self.roots is not None:
            object.__setattr__(self, "roots", dict(self.roots))

    @classmethod
    def rooted(cls, roots: Mapping[int, int]) -> "ConnectivityMode":
        return cls("rooted", roots)

    @classmethod
    def strongly_connected(cls) -> "ConnectivityMode":
        return cls("strong")

    @classmethod
    def undirected_connected(cls) -> "ConnectivityMode":
        return cls("undirected")


def weighted(g: Graph, scheme: str) -> WeightedGraph:
    """Assign weights to a graph by scheme name."""
    if scheme == "metropolis":
        return metropolis_hastings_weights(g)
    if scheme == "row":
        return row_stochastic_weights(g)
    if scheme == "column":
        return column_stochastic_weights(g)
    if scheme == "uniform":
        return uniform_weights(g)
    raise LayoutError(f"unknown weight scheme {scheme!r}")


def _csr_matvec_fallback(m, n, indptr, indices, data, v, out):
    """out += M v through scipy's public interface; same contract as the kernel."""
    out += sp.csr_matrix((data, indices, indptr), shape=(m, n)) @ v


def _kernel_agrees(kernel) -> bool:
    """Whether ``kernel`` accumulates M v into ``out`` on a small probe."""
    probe = sp.csr_matrix(np.array([[1.0, -2.0, 0.0], [0.0, 3.0, 0.5]]))
    v, offset = np.array([0.25, -1.0, 2.0]), np.array([1.0, -1.0])
    out = offset.copy()
    try:
        kernel(2, 3, probe.indptr, probe.indices, probe.data, v, out)
    except Exception:
        return False
    return bool(np.allclose(out, probe @ v + offset, rtol=0.0, atol=1e-15))


try:
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:
    _csr_matvec = _csr_matvec_fallback
# the kernel is private to scipy: use it only if it still behaves as assumed
if _csr_matvec is not _csr_matvec_fallback and not _kernel_agrees(_csr_matvec):
    _csr_matvec = _csr_matvec_fallback


class CsrOperator:
    """A fixed sparse matrix applied to dense vectors by scipy's CSR kernel.

    On vectors of a few hundred entries ``csr_matrix @ v`` spends most of
    its time dispatching on the argument; solver steps apply the same few
    matrices to float vectors hundreds of thousands of times, so they call
    the compiled kernel directly. ``matvec`` substitutes another function
    with the kernel's signature, such as the public-interface fallback.

    Stacked exchange operators are :class:`BlockOperator` objects, which
    keep one of these for the components they do not apply densely. Solver
    maps fused from a problem's own matrices, which never take in an
    exchange operator, and problem Hessians are plain ``CsrOperator``
    objects.
    """

    def __init__(self, matrix, matvec: Callable | None = None):
        self.matrix = sp.csr_matrix(matrix, dtype=float)
        self.shape = self.matrix.shape
        self._matvec = _csr_matvec if matvec is None else matvec
        self._transpose = None
        self._copies: dict[int, sp.csr_matrix] = {}  # k -> I_k ⊗ M, see bind

    @property
    def T(self) -> "CsrOperator":
        if self._transpose is None:
            self._transpose = CsrOperator(self.matrix.T, self._matvec)
            self._transpose._transpose = self
        return self._transpose

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.affine(v, np.zeros(self.shape[0]))

    def affine(self, v: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """M v + offset, accumulated into a copy of ``offset``."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):  # the kernel itself does not check
            raise ValueError(f"vector of shape {v.shape} for an operator of shape {self.shape}")
        m = self.matrix
        out = np.array(offset, dtype=float)
        self._matvec(self.shape[0], self.shape[1], m.indptr, m.indices, m.data, v, out)
        return out

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def bind(self, v: np.ndarray, out: np.ndarray, *, offset=None,
             accumulate: bool = False) -> Callable[[], None]:
        """A call that writes M v into ``out``: M v + ``offset`` (0 by
        default), or ``out`` + M v with ``accumulate``.

        ``v`` and ``out`` are fixed arrays that the call reads and writes on
        every use; see :func:`_operand_rows` for their shapes, which are
        checked here and never again. k rows are one kernel call over
        I_k ⊗ M, built on the first bind of k rows and kept for the next:
        each row of it holds the entries of a row of M in the same order,
        so every row is summed as a single bound row would be.
        """
        v2, out2 = _operand_rows(v, out, self.shape)
        k = len(v2)
        if k not in self._copies:
            self._copies[k] = _diagonal_copies(self.matrix, k)
        m = self._copies[k]
        return _in_order(_resetter(out, offset, accumulate), partial(
            self._matvec, *m.shape, m.indptr, m.indices, m.data, v2.ravel(), out2.ravel()))

    def bind_rows(self, v: np.ndarray, rows: np.ndarray) -> tuple[Callable[[], None], ...]:
        """One call per row of the 2-D ``rows``, call j adding M v into
        ``rows[j]``: each is ``bind(v, rows[j], accumulate=True)``, with the
        operands checked once for all the rows instead of once per row."""
        if rows.ndim != 2:
            raise ValueError(f"rows of {rows.ndim} dimensions, expected 2")
        _operand_rows(v, rows[0], self.shape)
        if not rows.flags.c_contiguous or np.may_share_memory(v, rows):
            raise ValueError("the rows must be C-contiguous and apart from the operand")
        m = self.matrix
        add = partial(self._matvec, *self.shape, m.indptr, m.indices, m.data, v)
        return tuple(partial(add, row) for row in rows)


def _diagonal_copies(m: sp.csr_matrix, k: int) -> sp.csr_matrix:
    """I_k ⊗ m, every row with the entries of m's row in m's order."""
    if k == 1:
        return m
    rows, cols = m.shape
    copy = np.arange(k)[:, None]
    indptr = np.append((m.indptr[:-1] + m.nnz * copy).ravel(), k * m.nnz)
    indices = (m.indices + cols * copy).ravel()
    return sp.csr_matrix((np.tile(m.data, k), indices, indptr), shape=(k * rows, k * cols))


def _operand_rows(v: np.ndarray, out: np.ndarray,
                  shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """``v`` and ``out`` as (k, n) and (k, m) views, for binding an m × n
    operator to them; each of the k rows is one operand and its result.

    Both must be C-contiguous float64 arrays of shape (n,) and (m,), or
    (k, n) and (k, m), and ``out`` must be writeable and must not overlap
    ``v``: the compiled kernel checks none of this.
    """
    m, n = shape
    if v.ndim != out.ndim or v.ndim not in (1, 2):
        raise ValueError(f"operands of {v.ndim} and {out.ndim} dimensions")
    k = v.shape[0] if v.ndim == 2 else 1
    if v.shape[-1] != n or out.shape[-1] != m or out.size != k * m:
        raise ValueError(f"operand of shape {v.shape} and result of shape {out.shape} "
                         f"for an operator of shape {shape}")
    for a in (v, out):
        if a.dtype != np.float64 or not a.flags.c_contiguous:
            raise ValueError("bound operands must be C-contiguous float64 arrays")
    if not out.flags.writeable or np.may_share_memory(v, out):
        raise ValueError("the result must be writeable and apart from the operand")
    return v.reshape(k, n), out.reshape(k, m)


def _resetter(out: np.ndarray, offset, accumulate: bool) -> Callable[[], None] | None:
    """What a bound apply does to ``out`` before it adds M v (None: nothing)."""
    if accumulate:
        if offset is not None:
            raise ValueError("an accumulating apply takes no offset")
        return None
    if offset is None:
        return partial(out.fill, 0.0)
    offset = np.asarray(offset, dtype=float)
    np.broadcast_to(offset, out.shape)  # fails now, not on the first call
    return partial(out.__setitem__, Ellipsis, offset)


def _in_order(*calls: Callable[[], None] | None) -> Callable[[], None]:
    """One call making the given calls in order (None entries skipped)."""
    calls = tuple(c for c in calls if c is not None)
    if len(calls) == 1:
        return calls[0]

    def each() -> None:
        for call in calls:
            call()

    return each


@dataclass(frozen=True, eq=False)
class ComponentGroup:
    """Components of a layout that share one ``WeightedGraph`` object and one
    dimension. Their part of a stacked operator is I_m ⊗ M ⊗ I_d for one
    holders × holders block M, so every derived block is built once for the
    group and shared by its members. No block is kept here: the layout's
    operators read the weights' array form.
    """

    members: tuple[int, ...]  # ascending
    weights: WeightedGraph
    dim: int
    starts: tuple[int, ...]  # where each member's copies start in a stacked vector

    @property
    def lead(self) -> int:
        """The first member; per-group blocks are keyed by it."""
        return self.members[0]

    @property
    def copies(self) -> int:
        return self.weights.graph.num_nodes

    @property
    def label(self) -> str:
        """'component p', or the members of a shared group, for messages."""
        if len(self.members) == 1:
            return f"component {self.lead}"
        shown = ", ".join(map(str, self.members[:3]))
        more = f", ... ({len(self.members)} in all)" if len(self.members) > 3 else ""
        return f"components {shown}{more}"

    @cached_property
    def index(self) -> slice | np.ndarray:
        """The members' entries of a stacked vector, member by member: a
        slice when they are contiguous."""
        width = self.copies * self.dim
        if all(b - a == width for a, b in zip(self.starts, self.starts[1:])):
            return slice(self.starts[0], self.starts[-1] + width)
        return (np.asarray(self.starts)[:, None] + np.arange(width)).ravel()

    @cached_property
    def product_order(self) -> np.ndarray:
        """The members' entries of a stacked vector in the order of the rows
        and columns of the group's product: member by member, then
        coordinate by coordinate, then holder by holder."""
        holder = np.arange(self.copies) * self.dim
        return (np.asarray(self.starts)[:, None, None] + np.arange(self.dim)[:, None]
                + holder).ravel()

    def blocks(self, hat: np.ndarray) -> np.ndarray:
        """The members' copies in a stacked vector as (members, holders, dim)."""
        return np.asarray(hat)[self.index].reshape(len(self.members), self.copies, self.dim)


def _entries(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of a dense block as rows, columns and values, in
    row-major order: the array form of :class:`WeightedGraph`."""
    r, c = np.nonzero(m)
    return r, c, m[r, c]


def _kron_csr(n: int, parts) -> sp.csr_matrix:
    """⊕ (M ⊗ I_dim) as an n × n CSR matrix, from (start, dim, rows, cols,
    values) per component, M's entries in row-major order."""
    rows, cols, vals = [], [], []
    for start, dim, r, c, v in parts:
        # entry (r, c) of M becomes the dim x dim identity block (r, c)
        k = np.arange(dim)
        rows.append((start + r[:, None] * dim + k).ravel())
        cols.append((start + c[:, None] * dim + k).ravel())
        vals.append(np.repeat(v, dim))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))


class BlockOperator:
    """The stacked operator ⊕_p (M_p ⊗ I) of a layout; see
    :meth:`EndLayout.block_operator`.

    Each entry of ``dense`` is a component group with the one block all of
    its members were given; it is applied as one dense product on the
    (members·dim, holders) reshape of the group's entries, with a
    C-contiguous copy of the block's transpose made here. Every other
    component is in the CSR operator ``sparse`` (None when there is none),
    so without one the groups cover every entry. ``matrix``, the whole
    operator in CSR, is built on first use; no solver step reads it, as
    each binds the operator itself. It is there for the checks that need
    the matrix, such as the Lanczos test of the gne preconditioner.
    """

    def __init__(self, n: int, sparse: CsrOperator | None,
                 dense: list[tuple[ComponentGroup, np.ndarray]]):
        self.shape = (n, n)
        self._sparse = sparse
        # (group, mᵀ) per dense group
        self._dense = [(g, np.ascontiguousarray(np.asarray(m, dtype=float).T))
                       for g, m in dense]
        self._transpose: BlockOperator | None = None

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        if not self._dense:
            return self._sparse.matrix
        full = _kron_csr(self.shape[0], ((start, g.dim, *_entries(mt.T)) for g, mt in self._dense
                                         for start in g.starts))
        return full if self._sparse is None else full + self._sparse.matrix

    @property
    def T(self) -> "BlockOperator":
        if self._transpose is None:
            t = BlockOperator(self.shape[0], None if self._sparse is None else self._sparse.T,
                              self._dense)
            t._transpose, self._transpose = self, t
        return self._transpose

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self._accumulate(v, np.zeros(self.shape[0]))

    def affine(self, v: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """M v + offset, accumulated into a copy of ``offset``."""
        return self._accumulate(v, np.array(offset, dtype=float))

    def _accumulate(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],) or out.shape != (self.shape[0],):
            # the CSR kernel does not check
            raise ValueError(f"vector of shape {v.shape} or offset of shape {out.shape} "
                             f"for an operator of shape {self.shape}")
        if self._sparse is not None:
            m = self._sparse.matrix
            self._sparse._matvec(*self.shape, m.indptr, m.indices, m.data, v, out)
        for g, mt in self._dense:
            _group_apply(g, mt, v[None], out[None], accumulate=True)()
        return out

    def scaled(self, factor: float) -> "BlockOperator":
        """The operator times ``factor``, with the same groups."""
        sparse = None if self._sparse is None else CsrOperator(factor * self._sparse.matrix,
                                                               self._sparse._matvec)
        return BlockOperator(self.shape[0], sparse,
                             [(g, factor * mt.T) for g, mt in self._dense])

    def bind(self, v: np.ndarray, out: np.ndarray, *,
             accumulate: bool = False) -> Callable[[], None]:
        """A call that writes M v into ``out``, or adds it with
        ``accumulate``, as :meth:`CsrOperator.bind` (without an offset).
        The dense groups are applied as in :meth:`affine`, to every row of
        ``v`` at once; without ``accumulate`` they write their entries
        straight, so ``out`` is cleared only for a CSR part."""
        v2, out2 = _operand_rows(v, out, self.shape)
        first = None if self._sparse is None else self._sparse.bind(v, out, accumulate=accumulate)
        return _in_order(first, *(_group_apply(g, mt, v2, out2, accumulate)
                                  for g, mt in self._dense))


def _group_apply(g: ComponentGroup, mt: np.ndarray, v2: np.ndarray, out2: np.ndarray,
                 accumulate: bool) -> Callable[[], None]:
    """A call that writes (I ⊗ m ⊗ I_dim) v2 into the group's entries of
    each row of the (k, n) arrays, or adds it with ``accumulate``, given the
    C-contiguous mt = mᵀ: one product over (member, coordinate) rows and
    holder columns. A contiguous group of dimension 1 is a (members, copies)
    view of each row, multiplied in place; any other is gathered into a
    buffer in the product's shape (:attr:`ComponentGroup.product_order`)
    and scattered back. Index plan and buffers are made here, once."""
    k, copies, index = v2.shape[0], g.copies, g.index
    if g.dim == 1 and isinstance(index, slice):
        x, y = v2[:, index].reshape(k, -1, copies), out2[:, index].reshape(k, -1, copies)
        if not accumulate:
            return partial(np.matmul, x, mt, y)
        product = np.empty(y.shape)

        def add() -> None:
            np.matmul(x, mt, product)
            np.add(y, product, y)

        return add
    # the product's entries of the flattened rows, and the rows flattened
    order = (np.arange(k)[:, None] * v2.shape[1] + g.product_order).ravel()
    v_flat, out_flat = v2.reshape(-1), out2.reshape(-1)
    x, product = np.empty(order.size), np.empty(order.size)
    x3, product3 = x.reshape(k, -1, copies), product.reshape(k, -1, copies)
    if not accumulate:
        def apply() -> None:
            v_flat.take(order, None, x, "wrap")
            np.matmul(x3, mt, product3)
            out_flat[order] = product

        return apply

    def add_gathered() -> None:
        v_flat.take(order, None, x, "wrap")
        np.matmul(x3, mt, product3)
        out_flat.take(order, None, x, "wrap")
        np.add(x, product, x)
        out_flat[order] = x

    return add_gathered


def _ranges(slices: Iterable[slice]) -> np.ndarray:
    """The entries of consecutive slices as one index array."""
    return np.concatenate([np.zeros(0, dtype=np.intp)]
                          + [np.arange(s.start, s.stop) for s in slices])


def group_pairs(pairs: Iterable[tuple[int, int]]) -> dict[int, tuple[int, ...]]:
    """Each first entry of ``pairs`` mapped to its second entries, ascending.

    One pass: on an interference pattern this gives the needers of every
    component (and, with the pairs swapped, the needs of every agent).
    """
    grouped: dict[int, list[int]] = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    return {key: tuple(sorted(values)) for key, values in grouped.items()}


def _edge_pass(g: Graph, agents: set[int], comm_edges: frozenset[tuple[int, int]],
               strong: bool) -> tuple[bool, list, dict, dict]:
    """One pass over the edges of an exchange graph: whether it has non-agent
    nodes, its proper edges that are not in ``comm_edges`` (in edge-set
    order), and each node's successors and, with ``strong``, predecessors
    (else an empty mapping)."""
    succ: dict[int, list[int]] = {v: [] for v in g.nodes}
    pred: dict[int, list[int]] = {v: [] for v in g.nodes} if strong else {}
    off_comm = []
    for edge in g.edges:
        u, v = edge
        if u == v:
            continue
        if edge not in comm_edges:
            off_comm.append(edge)
        succ[u].append(v)
        if strong:
            pred[v].append(u)
    return not agents.issuperset(g.nodes), off_comm, succ, pred


def _connectivity_fault(g: Graph, succ: Mapping[int, Iterable[int]],
                        pred: Mapping[int, Iterable[int]], kind: str,
                        root: int | None) -> str | None:
    """Why g, with successor lists ``succ`` and (strong ``kind``) predecessor
    lists ``pred``, misses the connectivity ``kind`` asks for (rooted at
    ``root``), or None if it does not."""
    everyone = g.num_nodes
    if kind == "rooted":
        if root is None:
            return "no root specified"
        if root not in succ:
            return f"root {root} holds no copy"
        if len(reachable(succ, root)) < everyone:
            return f"exchange graph not rooted at {root}"
    elif kind == "strong":
        first = g.nodes[0]
        if len(reachable(succ, first)) < everyone or len(reachable(pred, first)) < everyone:
            return "exchange graph not strongly connected"
    elif g.directed:
        return "exchange graph is directed, undirected required"
    elif len(reachable(succ, g.nodes[0])) < everyone:
        return "exchange graph not connected"
    return None


@dataclass(frozen=True)
class EndLayout:
    """Partition + communication/interference layers + per-component exchange graphs."""

    agents: tuple[int, ...]
    partition: Partition
    comm: Graph
    interference: frozenset[tuple[int, int]]  # (component p, agent i)
    design: Mapping[int, WeightedGraph]  # p -> weighted exchange graph on holders

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(sorted(set(self.agents))))
        object.__setattr__(self, "interference", frozenset(self.interference))
        object.__setattr__(self, "design", dict(self.design))
        if set(self.design.keys()) != set(self.partition.components):
            raise LayoutError("design graphs must cover exactly components 1..P")

    def __getstate__(self):
        # cached operators and compiled solver forms (which hold weak
        # references) are rebuilt on demand after unpickling
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- derived structure ------------------------------------------------

    def holders(self, p: int) -> tuple[int, ...]:
        """Agents keeping a copy of component p, ascending."""
        return self.design[p].graph.nodes

    def copies(self, p: int) -> int:
        return len(self.holders(p))

    @cached_property
    def _needers(self) -> dict[int, tuple[int, ...]]:
        return group_pairs(self.interference)

    @cached_property
    def _needs(self) -> dict[int, tuple[int, ...]]:
        return group_pairs((i, p) for p, i in self.interference)

    def needers(self, p: int) -> tuple[int, ...]:
        """Agents for which component p is indispensable, ascending."""
        return self._needers.get(p, ())

    def held_by(self, i: int) -> tuple[int, ...]:
        """Components agent i keeps a copy of, ascending."""
        return tuple(p for p in self.partition.components if i in self.design[p].graph.nodes)

    def needed_by(self, i: int) -> tuple[int, ...]:
        """Components indispensable for agent i, ascending."""
        return self._needs.get(i, ())

    @property
    def stacked_dim(self) -> int:
        return self._component_starts[-1]

    @cached_property
    def _component_starts(self) -> tuple[int, ...]:
        """Where each component's copies start in a stacked vector, then its length."""
        starts = [0]
        for p in self.partition.components:
            starts.append(starts[-1] + self.copies(p) * self.partition.dim(p))
        return tuple(starts)

    def block_slice(self, p: int, i: int) -> slice:
        """Slice of agent i's copy of component p in a stacked vector."""
        try:
            position = self.design[p].graph.index(i)
        except (KeyError, GraphError):
            raise LayoutError(f"agent {i} holds no copy of component {p}") from None
        dim = self.partition.dim(p)
        start = self._component_starts[p - 1] + position * dim
        return slice(start, start + dim)

    def component_slice(self, p: int) -> slice:
        return slice(self._component_starts[p - 1], self._component_starts[p])

    @cached_property
    def _compiled(self) -> weakref.WeakKeyDictionary:
        return weakref.WeakKeyDictionary()

    def compiled_for(self, owner, build: Callable[[], object]):
        """``build()``, memoized per ``owner`` object for this layout.

        Solvers keep their stacked forms of a problem here; ``owner`` is
        held weakly, so an entry lives no longer than the object it was
        compiled from.
        """
        try:
            return self._compiled[owner]
        except KeyError:
            value = self._compiled[owner] = build()
            return value

    @cached_property
    def groups(self) -> tuple[ComponentGroup, ...]:
        """The components grouped by shared ``WeightedGraph`` object and
        dimension (so also by holders), in order of their first members.

        ``standard_layout`` shares one weighted graph among components and
        ``reweight`` one per distinct exchange graph. ``design_layout``
        shares only the weighted communication graph and weights every other
        exchange graph per component, so its other groups are single
        components. ``from_json_dict`` restores the sharing that
        ``to_json_dict`` wrote, so a layout read back groups as it was built.
        Layouts that are equal but share differently compute the same
        operators with different roundoff.
        """
        members: dict[tuple[int, int], list[int]] = {}
        for p in self.partition.components:
            # the design mapping holds every key object for as long as this runs
            members.setdefault((id(self.design[p]), self.partition.dim(p)), []).append(p)
        return tuple(
            ComponentGroup(tuple(ms), self.design[ms[0]], self.partition.dim(ms[0]),
                           tuple(self.component_slice(p).start for p in ms))
            for ms in members.values())

    # -- stacked linear operators -----------------------------------------

    def block_operator(self, blocks: Mapping[int, np.ndarray]) -> BlockOperator:
        """Compile per-component blocks into the stacked operator ⊕_p (M_p ⊗ I).

        A group of several components (see :attr:`groups`) whose members are
        all given one block is applied as one dense product; every other
        component goes into one CSR matrix, its block's nonzeros read in
        row-major order: a dense block and the same block in the array form
        that :meth:`group_operator` takes give the same CSR. Which path a
        component takes follows from the layout and the blocks, never from a
        size.
        """
        dense, sparse = [], {}
        for g in self.groups:
            first = blocks[g.lead]
            if len(g.members) > 1 and all(
                    blocks[p] is first or np.array_equal(blocks[p], first)
                    for p in g.members[1:]):
                dense.append((g, np.array(first, dtype=float)))
            else:
                sparse.update((p, _entries(np.asarray(blocks[p], dtype=float)))
                              for p in g.members)
        return self._compile(dense, sparse)

    def group_operator(self, entries: Callable[[ComponentGroup], tuple]) -> BlockOperator:
        """⊕_p (M_p ⊗ I) for one holders × holders block M per component
        group, given in the array form of :class:`WeightedGraph` by
        ``entries(group)`` = (rows, cols, values). A group of several
        components is applied as one dense product on its block, densified
        here; every other group's entries go straight into one CSR matrix."""
        dense, sparse = [], {}
        for g in self.groups:
            rows, cols, values = entries(g)
            if len(g.members) > 1:
                block = np.zeros((g.copies, g.copies))
                block[rows, cols] = values
                dense.append((g, block))
            else:
                sparse[g.lead] = rows, cols, values
        return self._compile(dense, sparse)

    def _compile(self, dense: list[tuple[ComponentGroup, np.ndarray]],
                 sparse: Mapping[int, tuple]) -> BlockOperator:
        """The operator of the dense groups and, in one CSR matrix, of the
        components keyed in ``sparse`` by their blocks' array forms."""
        n = self.stacked_dim
        csr = None
        if sparse:
            csr = CsrOperator(_kron_csr(n, [
                (self.component_slice(p).start, self.partition.dim(p), *sparse[p])
                for p in sorted(sparse)]))
        return BlockOperator(n, csr, dense)

    @cached_property
    def weight_operator(self) -> BlockOperator:
        return self.group_operator(lambda g: (g.weights.rows, g.weights.cols, g.weights.values))

    @cached_property
    def laplacian_operator(self) -> BlockOperator:
        return self.group_operator(lambda g: laplacian_entries(g.weights))

    def apply_weight(self, hat: np.ndarray) -> np.ndarray:
        """Block-diagonal application of (W_p kron I) per component."""
        return self.weight_operator @ self._stacked(hat)

    def apply_laplacian(self, hat: np.ndarray) -> np.ndarray:
        return self.laplacian_operator @ self._stacked(hat)

    def _stacked(self, hat: np.ndarray) -> np.ndarray:
        hat = np.asarray(hat, dtype=float)
        if hat.shape != (self.stacked_dim,):
            raise LayoutError(
                f"stacked vector has length {hat.shape}, expected ({self.stacked_dim},)"
            )
        return hat

    # -- consensus structure ----------------------------------------------

    @cached_property
    def sum_operator(self) -> CsrOperator:
        """(total_dim x stacked_dim) 0/1 matrix summing the copies of each component."""
        rows, cols = [], []
        for p in self.partition.components:
            n_p = self.partition.dim(p)
            start = self.component_slice(p).start
            target = self.partition.component_slice(p).start + np.arange(n_p)
            rows.append(np.tile(target, self.copies(p)))
            cols.append(start + np.arange(self.copies(p) * n_p))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        return CsrOperator(sp.csr_matrix((np.ones(cols.size), (rows, cols)),
                                         shape=(self.partition.total_dim, self.stacked_dim)))

    @cached_property
    def _coordinates(self) -> np.ndarray:
        """Each stacked entry's full-variable coordinate: Sᵀ is a gather."""
        return self.sum_operator.matrix.tocsc().indices.astype(np.intp)

    @cached_property
    def copy_counts(self) -> np.ndarray:
        """Number of copies of the component owning each full-variable coordinate."""
        return np.concatenate([np.full(self.partition.dim(p), float(self.copies(p)))
                               for p in self.partition.components])

    def component_sums(self, hat: np.ndarray) -> np.ndarray:
        """Full-variable vector of per-component sums of the copies."""
        return self.sum_operator @ np.asarray(hat, dtype=float)

    def component_means(self, hat: np.ndarray) -> np.ndarray:
        """Full-variable vector of per-component means of the copies."""
        return self.component_sums(hat) / self.copy_counts

    def consensus_projection(self, hat: np.ndarray) -> np.ndarray:
        """Replace every copy by the per-component arithmetic mean."""
        return self.component_means(hat).take(self._coordinates)

    def consensus_matrix(self) -> sp.csr_matrix:
        """Sparse projector onto the consensus space (per-component averaging)."""
        S = self.sum_operator.matrix
        return (S.T @ sp.diags(1.0 / self.copy_counts) @ S).tocsr()

    def disagreement(self, hat: np.ndarray) -> np.ndarray:
        """ŷ minus its consensus projection."""
        hat = np.ascontiguousarray(hat, dtype=float)
        out = np.empty_like(hat)
        self.bind_disagreement(hat, out)()
        return out

    def bind_disagreement(self, hat: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        """A call that writes the disagreement of ``hat`` into ``out``, for
        these two fixed stacked vectors, with the arithmetic of
        :meth:`consensus_projection`, in a buffer of the full variable made
        here."""
        total = self.partition.total_dim
        sums, means, counts = np.empty(total), np.empty(total), self.copy_counts
        add_copies = self.sum_operator.bind(hat, sums)
        coordinates = self._coordinates

        def apply() -> None:
            add_copies()
            np.divide(sums, counts, means)
            means.take(coordinates, None, out, "wrap")
            np.subtract(hat, out, out)

        return apply

    def embed_consensus(self, y: np.ndarray) -> np.ndarray:
        """Copy each component of a full variable to all of its holders."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.partition.total_dim,):
            raise LayoutError(
                f"variable has length {y.shape}, expected ({self.partition.total_dim},)"
            )
        return y.take(self._coordinates)

    # -- validity ----------------------------------------------------------

    def validate(self, mode: ConnectivityMode) -> list[str]:
        """Consistency and connectivity checks; returns violations (empty = valid).

        One pass over the edges of each distinct exchange graph checks that
        they are communication edges and lists each node's successors (and,
        for strong connectivity, predecessors), which the reachability
        searches then walk; components that share a graph share its result.
        """
        violations: list[str] = []
        agent_set = set(self.agents)
        comp_set = set(self.partition.components)
        for p, i in self.interference:
            if p not in comp_set:
                violations.append(f"interference references unknown component {p}")
            elif i not in agent_set:
                violations.append(f"interference references unknown agent {i}")
            elif i not in self.design[p].graph.nodes:
                violations.append(
                    f"interference not covered: agent {i} needs component {p} but holds no copy"
                )
        # keyed by graph object: equal graphs may list their edges in different orders
        passes: dict[int, tuple] = {}  # id(graph) -> _edge_pass(graph)
        faults: dict[tuple[int, int | None], str | None] = {}  # (id(graph), root) -> fault
        for p in self.partition.components:
            if not self.needers(p):
                violations.append(f"component {p} is indispensable for no agent")
            g = self.design[p].graph
            found = passes.get(id(g))
            if found is None:
                found = passes[id(g)] = _edge_pass(g, agent_set, self.comm.edges,
                                               mode.kind == "strong")
            off_agents, off_comm, succ, pred = found
            if off_agents:
                violations.append(f"exchange graph {p} has non-agent nodes")
            violations.extend(f"exchange graph {p} edge ({u},{v}) is not a communication edge"
                              for u, v in off_comm)
            root = mode.roots.get(p) if mode.kind == "rooted" else None
            key = (id(g), root)
            if key not in faults:
                faults[key] = _connectivity_fault(g, succ, pred, mode.kind, root)
            if faults[key] is not None:
                violations.append(f"component {p}: {faults[key]}")
        return violations

    # -- lemma-level runtime checks ---------------------------------------

    def verify_null_space_is_consensus(self, roots: Mapping[int, int]) -> bool:
        """Rooted exchange graphs: null(stacked Laplacian) equals the consensus space.

        The stacked Laplacian is ⊕ (I ⊗ L ⊗ I_dim) over the component
        groups, so its rank is the sum of members × dim × rank L, and it
        sends the consensus space to zero when each group's L sends the ones
        vector there: both are read from the copies × copies blocks.
        """
        for p in self.partition.components:
            if not is_rooted(self.design[p].graph, roots[p]):
                raise LayoutError(f"component {p} not rooted at {roots[p]}")
        rank = 0
        for g in self.groups:
            lap = laplacian(g.weights)
            if np.linalg.norm(lap @ np.ones(g.copies)) > 1e-9:
                return False
            rank += len(g.members) * g.dim * int(np.linalg.matrix_rank(lap, tol=1e-9))
        return rank == self.stacked_dim - self.partition.total_dim

    def verify_disagreement_bound(
        self, num_samples: int = 32, seed: int = 0
    ) -> tuple[bool, float]:
        """Strongly connected balanced case: <y, L y> >= (lam/2) ||disagreement||^2.

        Returns (holds on a random batch, lam) with lam the minimum over
        components with at least two copies of the second-smallest eigenvalue
        of L + L^T; components with a single copy are skipped (their
        disagreement is identically zero).
        """
        lam = np.inf
        for g in self.groups:
            if not is_strongly_connected(g.weights.graph):
                raise LayoutError(f"{g.label} not strongly connected")
            w = g.weights
            if np.linalg.norm(np.bincount(w.cols, weights=w.values, minlength=g.copies)
                              - np.bincount(w.rows, weights=w.values, minlength=g.copies)) > 1e-10:
                raise LayoutError(f"{g.label} weights are not balanced")
            if g.copies < 2:
                continue
            lap = laplacian(w)
            eigs = np.linalg.eigvalsh(lap + lap.T)
            lam = min(lam, eigs[1])
        rng = np.random.default_rng(seed)
        for _ in range(num_samples):
            v = rng.standard_normal(self.stacked_dim)
            lhs = float(v @ self.apply_laplacian(v))
            rhs = 0.0
            if np.isfinite(lam):
                rhs = 0.5 * lam * float(np.sum(self.disagreement(v) ** 2))
            if lhs < rhs - 1e-8:
                return False, lam
        return True, lam

    # -- communication accounting -----------------------------------------

    def communication_cost(self, mode: str = "unicast") -> float:
        """Per-round cost of one full estimate exchange.

        unicast: one unit per scalar sent over one edge; broadcast: one unit
        per scalar broadcast by an agent holding a block with at least one
        out-neighbor. Each component group's exchange graph is counted once,
        times its members and dimension, from its weights' array form: an
        edge u→v with u ≠ v is an entry off the diagonal, u its column.
        """
        if mode == "unicast":
            def per_copy(w: WeightedGraph) -> int:
                return np.count_nonzero(w.rows != w.cols)
        elif mode == "broadcast":
            def per_copy(w: WeightedGraph) -> int:
                return np.count_nonzero(np.bincount(w.cols[w.rows != w.cols]))
        else:
            raise LayoutError(f"unknown communication mode {mode!r}")
        return float(sum(len(grp.members) * grp.dim * per_copy(grp.weights)
                         for grp in self.groups))

    def mean_estimate_count(self) -> float:
        """Mean number of component copies per agent."""
        return sum(len(g.members) * g.copies for g in self.groups) / len(self.agents)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Each distinct ``WeightedGraph`` object once under ``graphs``, in
        order of the first component that uses it, and ``design`` as the
        list of P indices into it, entry p - 1 for component p."""
        # keyed by object, not by value: sharing is what makes a group
        first = {id(self.design[p]): self.design[p] for p in self.partition.components}
        index = {key: k for k, key in enumerate(first)}
        return {
            "partition": list(self.partition.dims),
            "agents": list(self.agents),
            "comm": self.comm.to_json_dict(),
            "interference": sorted([p, i] for (p, i) in self.interference),
            "graphs": [wg.to_json_dict() for wg in first.values()],
            "design": [index[id(self.design[p])] for p in self.partition.components],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "EndLayout":
        """The layout of ``to_json_dict``: one ``WeightedGraph`` per entry of
        ``graphs``, shared by the components whose ``design`` index names it,
        so the layout groups as the one that was written."""
        partition = Partition(tuple(d["partition"]))
        indices = d["design"]
        if isinstance(indices, Mapping):
            raise LayoutError("the layout file uses the per-component format; "
                              "write it again with `endnet design`")
        if len(indices) != partition.num_components:
            raise LayoutError(f"'design' lists graph indices for components "
                              f"1..{len(indices)}, not 1..{partition.num_components}")
        graphs = [WeightedGraph.from_json_dict(g) for g in d["graphs"]]
        for p, k in enumerate(indices, start=1):
            if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < len(graphs):
                raise LayoutError(f"component {p}: graph index {k!r} is not an int in "
                                  f"[0, {len(graphs)})")
        return cls(
            agents=tuple(d["agents"]),
            partition=partition,
            comm=Graph.from_json_dict(d["comm"]),
            interference=frozenset((p, i) for p, i in d["interference"]),
            design={p: graphs[k] for p, k in enumerate(indices, start=1)},
        )


def standard_layout(
    comm: Graph,
    interference: Iterable[tuple[int, int]],
    partition: Partition,
    weight_scheme: str = "metropolis",
) -> EndLayout:
    """The sparsity-unaware baseline: every agent holds every component and
    all exchange graphs equal the communication graph.

    ``comm`` is weighted once and every component shares that one
    ``WeightedGraph``.
    """
    shared = weighted(comm, weight_scheme)
    design = {p: shared for p in partition.components}
    return EndLayout(
        agents=comm.nodes,
        partition=partition,
        comm=comm,
        interference=frozenset(interference),
        design=design,
    )


def reweight(layout: EndLayout, scheme: str) -> EndLayout:
    """Same topology, fresh weights per the named scheme.

    Row/column schemes add self-loops to the exchange graphs.  Each distinct
    exchange graph is weighted once, and components with equal exchange
    graphs share the result.
    """
    graphs = {p: layout.design[p].graph for p in layout.partition.components}
    fresh = {g: weighted(g, scheme) for g in dict.fromkeys(graphs.values())}
    design = {p: fresh[g] for p, g in graphs.items()}
    return EndLayout(
        agents=layout.agents,
        partition=layout.partition,
        comm=layout.comm,
        interference=layout.interference,
        design=design,
    )
