"""The step loop every solver runs (``trace.run_steps``)."""

import types

import numpy as np
import pytest

from endnet import trace as trace_module
from endnet.trace import BLOCK_ROWS, DivergenceError, RowBlocks, RunTrace, divergence_guard, \
    run_steps


class Loop:
    """A scripted solver: ``values[k]`` is the iterate step k returns, and the
    record stops the loop from ``stop_at`` completed steps on."""

    def __init__(self, values, stop_at=None):
        self.values = [np.array([v]) for v in values]
        self.stop_at = stop_at
        self.steps, self.records = [], []
        self.trace = RunTrace()

    def step(self, k):
        self.steps.append(k)
        return self.values[k]

    def record(self, s):
        self.records.append(s)
        self.trace.append(k=s - 1)
        return self.stop_at is not None and s >= self.stop_at

    def run(self, max_iters, **kw):
        kw.setdefault("guard", divergence_guard(np.zeros(1), "x"))
        run_steps(self.trace, max_iters, self.step, self.record, **kw)
        return self


def fake_clock(monkeypatch, events):
    """Make the loop's clock read 0, 1, 2, ... seconds and log each reading."""
    ticks = iter(range(1000))

    def perf_counter():
        events.append("clock")
        return float(next(ticks))

    monkeypatch.setattr(trace_module, "time", types.SimpleNamespace(perf_counter=perf_counter))


def test_records_every_interval_and_at_the_last_step():
    loop = Loop([1.0] * 10).run(10, every=4)
    assert loop.steps == list(range(10))
    assert loop.records == [4, 8, 10]
    assert loop.trace.steps == 10
    assert loop.trace.columns["k"] == [3.0, 7.0, 9.0]


def test_stops_only_at_a_record():
    # the stop test holds from step 5 on, the next record is at step 6
    loop = Loop([1.0] * 20, stop_at=5).run(20, every=3)
    assert loop.records == [3, 6]
    assert loop.steps == list(range(6))
    assert loop.trace.steps == 6


@pytest.mark.parametrize("first, message", [(0, "iteration 7"), (1, "iteration 8")])
def test_the_per_step_guard_trips_at_the_step_that_crossed(first, message):
    # limit 1e6: 10**6 passes, 10**7 (step index 7) does not
    loop = Loop([10.0 ** k for k in range(12)])
    with pytest.raises(DivergenceError, match=f"exceeded 1.000e\\+06 at {message}$"):
        loop.run(12, guard=divergence_guard(np.zeros(1), "x", first=first))
    assert loop.steps == list(range(8))
    assert loop.records == list(range(1, 8))


def test_the_end_of_run_guard_lets_a_transient_pass():
    values = [1.0, 1e9, 1e12, np.inf, 1.0]
    loop = Loop(values).run(5, guard_each_step=False)
    assert loop.trace.steps == 5
    with pytest.raises(DivergenceError, match="at iteration 5$"):
        Loop(values + [1e9]).run(6, guard_each_step=False)
    # a stop ends the run there, and the guard tests that step's iterate
    with pytest.raises(DivergenceError, match="at iteration 1$"):
        Loop(values, stop_at=2).run(5, guard_each_step=False)


def test_the_ring_is_flushed_before_the_clock_stops(monkeypatch):
    events, seen = [], []

    def reduce(block):
        events.append("flush")
        seen.append(block.copy())

    ring = RowBlocks(1, reduce)
    n = BLOCK_ROWS + 3

    def step(k):
        ring.push(np.array([float(k)]))
        return np.zeros(1)

    fake_clock(monkeypatch, events)
    trace = RunTrace()
    run_steps(trace, n, step, lambda s: None, divergence_guard(np.zeros(1), "x"), ring=ring)
    assert events == ["clock", "flush", "flush", "clock"]
    assert ring.filled == 0
    assert np.array_equal(np.concatenate(seen)[:, 0], np.arange(n, dtype=float))


def test_us_per_step_is_the_loop_time_over_the_steps_run(monkeypatch):
    events = []
    fake_clock(monkeypatch, events)
    loop = Loop([1.0] * 20, stop_at=5).run(20, every=3)
    # the clock read 0 and then 1 second, around 6 steps
    assert events == ["clock", "clock"]
    assert loop.trace.meta["us_per_step"] == pytest.approx(1e6 / 6)
