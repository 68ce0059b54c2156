"""Per-iteration run records shared by the solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Raised when an iteration blows up (norm growth beyond the guard)."""


def divergence_guard(start: np.ndarray, what: str) -> Callable[[np.ndarray, int], None]:
    """The solvers' one divergence test, for iterates started at ``start``.

    ``guard(v, k)`` raises :class:`DivergenceError` once ``|v|`` exceeds
    ``DIVERGENCE_FACTOR * (1 + |start|)``, or when ``v`` holds a nan or an
    infinity; ``what`` names the iterate in the message.
    """
    limit = DIVERGENCE_FACTOR * (1.0 + float(np.linalg.norm(start)))
    limit2 = limit * limit

    def guard(v: np.ndarray, k: int) -> None:
        if not v @ v <= limit2:  # also trips on nan
            raise DivergenceError(f"{what} norm exceeded {limit:.3e} at iteration {k}")

    return guard


@dataclass
class RunTrace:
    """Column-oriented record of a solver run.

    ``columns`` maps a name (e.g. ``residual``) to the per-iteration list;
    all columns grow in lockstep via :meth:`append`.
    """

    columns: dict[str, list[float]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def append(self, **values: float) -> None:
        for name, value in values.items():
            self.columns.setdefault(name, []).append(float(value))

    def last(self, name: str) -> float:
        return self.columns[name][-1]

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return max(len(c) for c in self.columns.values())

    @property
    def iterations(self) -> int:
        return len(self)
