"""Spans around calls into endnet's layers, kept in memory.

A span is (name, start, end, parent). The tracer records one by replacing a
module attribute (or a method on a class) with a wrapper that opens a span,
calls the original and closes the span; ``uninstall`` puts the originals
back. Nothing inside ``src/`` is edited: the wrappers sit on the names that
``endnet.cli``, ``endnet.scenarios`` and the benchmark itself call.

A layer's self time is its span's duration minus the durations of its
direct child spans. Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

from endnet import cli, design, layout, optim, scenarios


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    result: object = None       # kept only for targets that ask for it
    peak_bytes: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    owner: object
    attr: str
    span: str
    keep_result: bool = False
    peak: bool = False


# Always wrapped: a handful of calls per round, so that set-up and solve
# time can be told apart and the reference (x, lambda) reaches the checks.
PHASE_TARGETS = (
    Target(cli, "solve_vgne_centralized", "games.reference", keep_result=True),
    Target(cli, "gne_solve", "games.gne"),
    Target(cli, "augdgm_solve", "optim.tracking"),
    Target(optim, "pushsum_solve", "optim.pushsum"),
)

SOLVER_SPANS = ("games.gne", "optim.tracking", "optim.pushsum")

# Wrapped only in traced rounds.
LAYER_TARGETS = PHASE_TARGETS + (
    Target(scenarios, "sample_unicast", "scenarios.generate"),
    Target(scenarios, "build_unicast", "scenarios.generate"),
    Target(scenarios, "build_random_separable", "scenarios.generate"),
    Target(scenarios, "build_regression", "scenarios.generate"),
    Target(layout, "weighted", "graphs.weights"),
    Target(design, "weighted", "graphs.weights"),
    Target(optim, "column_stochastic_weights", "graphs.weights"),
    Target(design, "design_layout", "design.design"),
    Target(scenarios, "design_layout", "design.design"),
    Target(layout.EndLayout, "block_operator", "layout.compile", peak=True),
    Target(cli, "build_gne_operators", "games.compile"),
    Target(cli, "preconditioner_positive", "games.precond", peak=True),
    Target(cli, "run_solver", "cli.run_solver"),
    Target(cli, "augdgm_matrices", "optim.matrices"),
    Target(optim, "merit_v", "optim.merit"),
)


class Tracer:
    """In-memory span recorder with attribute patching."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _push(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), parent=parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _pop(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._push(name)
        try:
            yield rec
        finally:
            self._pop(rec)

    def _wrap(self, target: Target, fn):
        def wrapper(*args, **kwargs):
            rec = self._push(target.span)
            # peak memory only where no outer call is already measuring it
            measure = target.peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            try:
                value = fn(*args, **kwargs)
                if target.keep_result:
                    rec.result = value
                return value
            finally:
                if measure:
                    rec.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._pop(rec)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for t in targets:
            original = vars(t.owner)[t.attr]
            self._patches.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(t, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ---------------------------------------------------------

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of every span from ``first`` on (index-aligned from
        ``first``)."""
        out = [s.duration for s in self.spans[first:]]
        for k in range(first, len(self.spans)):
            parent = self.spans[k].parent
            if parent >= first:
                out[parent - first] -= self.spans[k].duration
        return out

    def descendants(self, index: int, name: str) -> list[int]:
        """Indices of spans called ``name`` below span ``index``."""
        found = []
        for k in range(index + 1, len(self.spans)):
            p = self.spans[k].parent
            while p > index:
                p = self.spans[p].parent
            if p == index and self.spans[k].name == name:
                found.append(k)
        return found

    def to_json(self, first: int, stop: int) -> list[dict]:
        """Spans ``first`` to ``stop``, parents renumbered from ``first``."""
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent - first if s.parent >= first else -1,
             **({"peak_bytes": s.peak_bytes} if s.peak_bytes is not None else {})}
            for s in self.spans[first:stop]
        ]
