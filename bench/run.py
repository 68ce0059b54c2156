"""endnet benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload unicast-gne --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. A run repeats whole rounds -- set-up, then the standard and the
customized arm, then the checks -- until the next round would end after
``--seconds``. One operation is one arm's solve with its checks.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over rounds). With ``--trace 1`` rounds alternate untraced and
traced; it carries the per-layer metrics (medians over traced rounds) and
the tracing overhead, and the spans of the traced rounds are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run_round(wl, seed, tracer):
    """One timed round; returns (state, arm records, failures, span indices)."""
    from workloads import ARMS

    arms, failed, arm_spans = {}, [], {}
    with tracer.span("round"):
        round_index = len(tracer.spans) - 1
        with tracer.span("setup"):
            state = wl.setup(seed)
        for arm in ARMS:
            with tracer.span(f"arm.{arm}"):
                arm_spans[arm] = len(tracer.spans) - 1
                try:
                    arms[arm] = wl.solve(state, arm)
                except Exception:
                    # a failed operation is counted, not fatal to the run
                    traceback.print_exc()
                    failed.append(arm)
    return state, arms, failed, round_index, arm_spans


def round_metrics(tracer, round_index, arms, arm_spans) -> dict:
    from tracing import SOLVER_SPANS

    spans = tracer.spans
    solve_s = setup_s = 0.0
    for arm, index in arm_spans.items():
        solvers = [k for name in SOLVER_SPANS for k in tracer.descendants(index, name)]
        solve_s += sum(spans[k].duration for k in solvers)
        first = min((spans[k].start for k in solvers), default=spans[index].end)
        setup_s += first - spans[index].start
    setup_s += spans[round_index + 1].duration
    cust = arms.get("customized")
    return {
        "run_s": spans[round_index].duration,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "iterations": sum(rec.iterations for rec in arms.values()),
        "cust_scalars_sent": cust.iterations * cust.unicast_cost if cust else float("nan"),
        "cust_estimates_per_agent": cust.estimates_per_agent if cust else float("nan"),
    }


# per-layer self-time sums: metric -> span name
_SELF_TIME = {
    "scenarios.generate_s": "scenarios.generate",
    "graphs.weights_s": "graphs.weights",
    "design.design_s": "design.design",
    "layout.compile_s": "layout.compile",
    "games.reference_s": "games.reference",
    "games.compile_s": "games.compile",
    "games.precond_s": "games.precond",
    "optim.merit_s": "optim.merit",
    "optim.matrices_s": "optim.matrices",
    "cli.self_s": "cli.run_solver",
}
_CALLS = {"graphs.weights_calls": "graphs.weights", "games.reference_calls": "games.reference"}
_PEAK = {"layout.compile_peak_mb": "layout.compile", "games.precond_peak_mb": "games.precond"}
_PER_STEP = {"games.gne_us_per_step": "games.gne",
             "optim.tracking_us_per_step": "optim.tracking",
             "optim.pushsum_us_per_step": "optim.pushsum"}
_ARM_SUFFIX = {"standard": "std", "customized": "cust"}


def layer_metrics(tracer, round_index, arms, arm_spans) -> dict:
    spans = tracer.spans[round_index:]
    self_time = tracer.self_times(round_index)
    out = {}
    for metric, name in _SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, self_time) if s.name == name)
    for metric, name in _CALLS.items():
        out[metric] = sum(1 for s in spans if s.name == name)
    for metric, name in _PEAK.items():
        peaks = [s.peak_bytes for s in spans if s.name == name and s.peak_bytes is not None]
        out[metric] = max(peaks, default=0) / 2**20
    for metric, name in _PER_STEP.items():
        for arm, suffix in _ARM_SUFFIX.items():
            ks = tracer.descendants(arm_spans[arm], name) if arm in arms else []
            busy = sum(self_time[k - round_index] for k in ks)
            out[f"{metric}.{suffix}"] = 1e6 * busy / arms[arm].iterations if ks else 0.0
    return out


_UNITS = {"run_s": "s", "setup_s": "s", "solve_s": "s", "iterations": "count",
          "cust_scalars_sent": "scalars", "cust_estimates_per_agent": "copies",
          "peak_rss_mb": "MB", "trace.overhead_s": "s"}


def _unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_calls"):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if "_us_per_step" in name:
        return "us/step"
    return "s"


def _medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import endnet
    except ImportError as exc:
        print(f"cannot import endnet from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(endnet.__file__).resolve().parent != ROOT / "src" / "endnet":
        print(f"endnet imported from {endnet.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from tracing import LAYER_TARGETS, PHASE_TARGETS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tracer = Tracer()
    plain, traced, layers, traced_ranges, walls = [], [], [], [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        tracing = bool(args.trace) and len(walls) % 2 == 1
        round_start = time.perf_counter()
        with tracer.installed(LAYER_TARGETS if tracing else PHASE_TARGETS):
            state, arms, fails, index, arm_spans = run_round(wl, args.seed, tracer)
        attempted += 2
        failed += len(fails)
        problems = wl.check(state, arms, tracer, arm_spans) if arms else {}
        for arm, msgs in problems.items():
            for msg in msgs:
                print(f"check failed ({args.workload}, seed {args.seed}): {msg}",
                      file=sys.stderr)
            correct = correct and not msgs
        e2e = {}
        if not fails:
            e2e = round_metrics(tracer, index, arms, arm_spans)
            (traced if tracing else plain).append(e2e)
            if tracing:
                layers.append(layer_metrics(tracer, index, arms, arm_spans))
                traced_ranges.append((index, len(tracer.spans)))
        # drop this round's objects before the next set-up starts
        del state, arms
        walls.append(time.perf_counter() - round_start)
        print(json.dumps({"round": len(walls), "traced": tracing, "failed": len(fails), **e2e}),
              file=sys.stderr)
        # traced runs go in whole (untraced, traced) pairs
        step = 2 if args.trace else 1
        elapsed = time.perf_counter() - start
        if len(walls) % step == 0 and elapsed + step * statistics.median(walls) > args.seconds:
            break

    metrics = {}
    if args.trace and plain and traced:
        metrics.update(_medians(layers))
        metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                       - statistics.median(r["run_s"] for r in plain))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = {"workload": args.workload, "seed": args.seed,
                 "rounds": [tracer.to_json(a, b) for a, b in traced_ranges]}
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(spans, fh)
    elif not args.trace and plain:
        metrics.update(_medians(plain))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
