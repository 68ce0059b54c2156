"""Per-iteration run records and the step loop shared by the solvers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Raised when an iteration blows up (norm growth beyond the guard)."""


def divergence_guard(start: np.ndarray, what: str,
                     first: int = 0) -> Callable[[np.ndarray, int], None]:
    """The solvers' one divergence test, for iterates started at ``start``.

    ``guard(v, k)`` raises :class:`DivergenceError` once ``|v|`` exceeds
    ``DIVERGENCE_FACTOR * (1 + |start|)``, or when ``v`` holds a nan or an
    infinity; ``what`` names the iterate in the message, and the step with
    index k (from 0) is iteration ``k + first`` there.
    """
    limit = DIVERGENCE_FACTOR * (1.0 + float(np.linalg.norm(start)))
    limit2 = limit * limit

    def guard(v: np.ndarray, k: int) -> None:
        if not v @ v <= limit2:  # also trips on nan
            raise DivergenceError(f"{what} norm exceeded {limit:.3e} at iteration {k + first}")

    return guard


# rows per block pass: its few calls then cost a small fraction of a call per step
BLOCK_ROWS = 64


class RowBlocks:
    """Per-step rows kept in a ring of ``BLOCK_ROWS`` rows and reduced one
    block of rows at a time.

    A loop writes step k's row into ``rows[filled]`` (or hands it to
    :meth:`push`) and calls :meth:`advance`. When the ring is full, and on
    :meth:`flush`, ``reduce`` receives the filled rows, oldest first, as one
    (m, width) view that it may overwrite; the rows are then zeroed, so a
    step may also accumulate into its row. A running maximum or recursion
    over the steps then costs one vectorized pass per block instead of a
    few calls per step.
    """

    def __init__(self, width: int, reduce: Callable[[np.ndarray], None]):
        self.rows = np.zeros((BLOCK_ROWS, width))
        self.filled = 0
        self._reduce = reduce

    def push(self, row: np.ndarray) -> None:
        self.rows[self.filled] = row
        self.advance()

    def advance(self) -> None:
        self.filled += 1
        if self.filled == self.rows.shape[0]:
            self.flush()

    def flush(self) -> None:
        """Reduce the rows filled since the last reduction, if any."""
        if self.filled:
            block = self.rows[:self.filled]
            self.filled = 0
            self._reduce(block)
            block.fill(0.0)


@dataclass
class RunTrace:
    """Column-oriented record of a solver run.

    ``columns`` maps a name (e.g. ``residual``) to the per-iteration list;
    all columns grow in lockstep via :meth:`append`. ``steps`` counts the
    steps :func:`run_steps` ran.
    """

    columns: dict[str, list[float]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    steps: int = 0

    def append(self, **values: float) -> None:
        for name, value in values.items():
            self.columns.setdefault(name, []).append(float(value))

    def last(self, name: str) -> float:
        return self.columns[name][-1]

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return max(len(c) for c in self.columns.values())


def run_steps(trace: RunTrace, max_iters: int, step: Callable[[int], np.ndarray],
              record: Callable[[int], object], guard: Callable[[np.ndarray, int], None],
              every: int = 1, guard_each_step: bool = True,
              ring: RowBlocks | None = None) -> None:
    """The step loop of every solver: at most ``max_iters`` (>= 1) steps.

    - ``step(k)`` runs the step with index k, from 0, and returns the
      iterate the divergence guard tests.
    - ``guard(v, k)`` runs after every step or, without ``guard_each_step``,
      once on the last step's iterate, for iterations whose transients may
      pass far above the limit.
    - After s steps ``record(s)`` runs when ``s % every == 0`` or
      ``s == max_iters`` and writes its own trace row. A true return stops
      the loop, so a run stops only at a record.
    - ``ring``, the solver's :class:`RowBlocks` of per-step rows, is flushed
      before the clock stops.
    - ``trace.steps`` gets the number of steps run, and
      ``trace.meta["us_per_step"]`` the loop's wall time per step, guard,
      records and flush included.
    """
    start = time.perf_counter()
    for k in range(max_iters):
        v = step(k)
        if guard_each_step:
            guard(v, k)
        s = k + 1
        if (s % every == 0 or s == max_iters) and record(s):
            break
    if not guard_each_step:
        guard(v, k)
    if ring is not None:
        ring.flush()
    trace.steps = s
    trace.meta["us_per_step"] = 1e6 * (time.perf_counter() - start) / s
