"""Command-line front end: design exchange layouts, run solvers, sweep
standard-vs-customized experiments, and validate layout files.

Everything is configured through JSON files; outputs are CSV traces (RFC
4180, header row, 17 significant digits), JSON summaries, and optional
gnuplot scripts. Identical config and seed produce byte-identical CSVs, so
wall-clock times are reported only in the JSON summaries.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
import warnings

import numpy as np

from .design import DesignCriterion, DesignInfeasible, design_layout
from .games import (
    GameError,
    build_gne_operators,
    gne_solve,
    ne_solve,
    preconditioner_positive,
    search_ne_step_size,
    solve_vgne_centralized,
)
from .graphs import Graph, GraphError
from .layout import ConnectivityMode, EndLayout, LayoutError, Partition, standard_layout
from .optim import (
    TRACKING_BUDGET,
    ConstraintCoupledProblem,
    OptimError,
    abc_solve,
    admm_solve,
    augdgm_gamma_bound,
    augdgm_matrices,
    augdgm_solve,
    constant_design_weights,
    constraint_coupled_solve,
    merit_v,
    power_step_schedule,
    pushsum_solve,
    warn_uncertified_step,
)
from .scenarios import (
    ScenarioError,
    SensorScenario,
    build_lasso,
    build_random_quadratic_game,
    build_random_separable,
    build_regression,
    build_unicast,
    reference_scheme_unicast,
    sample_unicast,
)
from .trace import DivergenceError, RunTrace

log = logging.getLogger("endnet")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGENCE = 4

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


_REQUIRED = object()


def _not_whole(value) -> bool:
    """Whether ``value`` is a bool, or a float with a fractional part (or not
    finite): values that ``int`` would change instead of refusing."""
    return isinstance(value, bool) or isinstance(value, float) and not value.is_integer()


def _read(cfg: dict, key: str, kind, default=_REQUIRED):
    """``kind(cfg.get(key, default))``, where a missing required key or a
    value ``kind`` cannot convert is a ConfigError that names the key; so is
    a bool for an int or float field, a fractional number for an int field,
    or anything but a JSON array for a list field. A default of None makes
    the field optional and passes None through."""
    if key in cfg:
        value = cfg[key]
    elif default is _REQUIRED:
        raise ConfigError(f"missing field {key!r}")
    else:
        value = default
    if value is None and default is None:
        return None
    try:
        if (kind is int and _not_whole(value) or kind is float and isinstance(value, bool)
                or kind is list and not isinstance(value, list)):
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {key!r}: expected {kind.__name__}, got {value!r}") from exc


def _read_positive(cfg: dict, key: str, kind, default=_REQUIRED, note: str | None = None):
    """``_read``, where a value that is not above zero (for an int field:
    not a whole number above zero) is also a ConfigError that names the key,
    with ``note`` appended when given."""
    raw = cfg.get(key, default)
    if not (kind is int and _not_whole(raw)):
        value = _read(cfg, key, kind, default)
        if value > 0:
            return value
    whole = " and whole" if kind is int else ""
    why = f" ({note})" if note else ""
    raise ConfigError(f"field {key!r}: must be positive{whole}, got {raw!r}{why}")


def _block(cfg: dict, key: str) -> dict:
    """The JSON object under ``key`` (empty when absent)."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object")
    return value


# -- output helpers ---------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _trace_table(trace: RunTrace) -> tuple[list[str], list[list]]:
    names = list(trace.columns)
    if "k" in names:
        names.remove("k")
        names.insert(0, "k")
    n = len(trace)
    rows = []
    for r in range(n):
        row = []
        for name in names:
            col = trace.columns[name]
            # columns that start late (e.g. ratios from the second step)
            # are front-padded so the tail lines up with the iterations
            idx = r - (n - len(col))
            row.append("" if idx < 0 else _fmt(col[idx]))
        rows.append(row)
    return names, rows


def write_trace_csv(path: str, trace: RunTrace) -> list[str]:
    header, rows = _trace_table(trace)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return header


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_json(path: str, obj) -> None:
    """``obj`` written as JSON once numpy values, tuples and non-string keys
    are made JSON-native (see :func:`dump_json`)."""
    dump_json(path, _jsonable(obj))


def dump_json(path: str, data) -> None:
    """JSON-native ``data`` written as every file of the CLI is: keys
    sorted, a newline at the end, and no indent, which would select
    ``json``'s pure-Python encoder over its C one. The text is encoded whole
    and written once, not chunk by chunk as ``json.dump`` writes it."""
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True) + "\n")


def emit_plot_script(csv_path: str, columns: list[str]) -> str:
    """Write a gnuplot script next to the CSV plotting every column vs. the
    first one (usually the iteration counter)."""
    gp_path = os.path.splitext(csv_path)[0] + ".gp"
    base = os.path.basename(csv_path)
    lines = [
        'set datafile separator ","',
        "set key autotitle columnhead",
        "set logscale y",
        f'set xlabel "{columns[0] if columns else "k"}"',
    ]
    plots = [
        f'"{base}" using 1:{idx + 2} with lines'
        for idx in range(len(columns) - 1)
    ]
    if plots:
        lines.append("plot " + ", \\\n     ".join(plots))
    lines.append("pause -1")
    with open(gp_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return gp_path


# -- scenario construction --------------------------------------------------

_SENSOR_FIELDS = {
    "num_sensors": int, "num_sources": int, "sensing_radius": float,
    "comm_radius_min": float, "comm_radius_width": float, "output_dim": int,
    "noise_var": float, "emit_fraction": float, "seed": int, "max_resample": int,
}


# the fields each scenario kind reads, besides "kind"; a unicast preset
# reads only its seed
_SCENARIO_FIELDS = {
    "unicast": ("num_users", "max_path_len", "extra_edge_prob", "relay_prob", "alpha",
                "beta", "seed"),
    "unicast preset": ("preset", "seed"),
    "regression": tuple(_SENSOR_FIELDS),
    "lasso": tuple(_SENSOR_FIELDS),
    "random_game": ("num_agents", "sparsity", "shift", "topology", "seed"),
    "random_separable": ("num_agents", "num_components", "sparsity", "topology", "seed"),
    "coupled_qp": ("num_agents", "dim", "box_bound", "topology", "seed"),
}
_PRESETS = ("reference",)


def _check_scenario_fields(cfg: dict, kind: str) -> None:
    """Reject a field the scenario kind does not read, naming it."""
    form, what = kind, f"{kind} scenario"
    if kind == "unicast" and "preset" in cfg:
        if cfg["preset"] not in _PRESETS:
            raise ConfigError(f"unknown preset {cfg['preset']!r} "
                              f"(expected {', '.join(_PRESETS)})")
        form, what = "unicast preset", "unicast scenario with a preset"
    allowed = _SCENARIO_FIELDS[form]
    unknown = sorted(set(cfg) - {"kind", *allowed})
    if unknown:
        raise ConfigError(f"unknown field(s) {', '.join(map(repr, unknown))} in a "
                          f"{what} (expected {', '.join(allowed)})")


def _comm_graph(topology: str, n: int) -> Graph:
    nodes = range(1, n + 1)
    if topology == "complete":
        return Graph.complete(nodes)
    if topology == "ring":
        edges = sorted({(min(i, i % n + 1), max(i, i % n + 1)) for i in nodes})
        return Graph.undirected_graph(nodes, edges)
    raise ConfigError(f"unknown topology {topology!r} (expected ring or complete)")


def _undirected_arms(comm, interference, partition, scheme="metropolis"):
    std = standard_layout(comm, interference, partition, weight_scheme=scheme)
    cust = design_layout(
        comm, interference, partition,
        DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges"),
        weight_scheme=scheme,
    )
    return std, cust


def _build_coupled_qp(cfg: dict, seed: int) -> dict:
    """Seeded quadratic resource-allocation problem with one coupling row
    per component and a closed-form multiplier for reference."""
    n = _read(cfg, "num_agents", int, 4)
    d = _read(cfg, "dim", int, 1)
    bound = _read(cfg, "box_bound", float, 10.0)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(n, d))
    y_star = rng.uniform(-0.2, 0.2, size=d)
    offset = centers.sum(axis=0) - n * y_star

    flat = centers.ravel()

    def oracle(r: np.ndarray) -> np.ndarray:
        # each A_{1,i} is the identity: agent i's price is its multiplier copy
        return np.minimum(np.maximum(flat - r, -bound), bound)

    ccp = ConstraintCoupledProblem(
        x_dims=(d,) * n,
        component_dims=(d,),
        footprints=((1,),) * n,
        con_blocks={(1, i): np.eye(d) for i in range(1, n + 1)},
        con_offsets={(1, i): offset / n for i in range(1, n + 1)},
        argmin_oracle=oracle,
    )
    comm = _comm_graph(cfg.get("topology", "ring"), n)
    interference = frozenset((1, i) for i in range(1, n + 1))
    std, cust = _undirected_arms(comm, interference, Partition((d,)))
    return {"kind": "coupled_qp", "problem": ccp, "reference_dual": y_star,
            "layouts": (std, cust), "mode": ConnectivityMode.undirected_connected()}


def build_scenario(cfg: dict, seed_override: int | None = None) -> dict:
    """Turn a scenario config block into problem objects plus both layout
    arms; returns a bundle dict keyed by scenario kind."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("scenario block must be an object with a 'kind' field")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _DEFAULT_ALGORITHM:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    _check_scenario_fields(cfg, kind)
    seed = int(seed_override) if seed_override is not None else _read(cfg, "seed", int, 0)
    if kind == "unicast":
        if "preset" in cfg:
            sc = reference_scheme_unicast(seed)
        else:
            sc = sample_unicast(
                _read(cfg, "num_users", int), seed,
                max_path_len=_read(cfg, "max_path_len", int, 4),
                extra_edge_prob=_read(cfg, "extra_edge_prob", float, 0.25),
                relay_prob=_read(cfg, "relay_prob", float, 0.1),
                alpha=_read_positive(cfg, "alpha", float, 0.1),
                beta=_read_positive(cfg, "beta", float, 1e-3),
            )
        inst = build_unicast(sc)
        return {"kind": kind, "instance": inst,
                "layouts": (inst.standard[0], inst.customized[0]),
                "mode": ConnectivityMode.undirected_connected()}
    if kind in ("regression", "lasso"):
        fields = {k: _read(cfg, k, convert) for k, convert in _SENSOR_FIELDS.items()
                  if k in cfg or k in ("num_sensors", "num_sources")}
        fields["seed"] = seed
        sc = SensorScenario(**fields)
        inst = build_regression(sc) if kind == "regression" else build_lasso(sc)
        return {"kind": kind, "instance": inst,
                "layouts": (inst.standard, inst.customized),
                "mode": ConnectivityMode.strongly_connected()}
    if kind == "random_game":
        n = _read(cfg, "num_agents", int, 5)
        game, x_star = build_random_quadratic_game(
            n, _read(cfg, "sparsity", float, 0.4), seed,
            shift=_read(cfg, "shift", float, 1.0))
        comm = _comm_graph(cfg.get("topology", "ring"), n)
        std, cust = _undirected_arms(comm, game.interference, Partition((1,) * n))
        return {"kind": kind, "game": game, "reference": x_star,
                "layouts": (std, cust),
                "mode": ConnectivityMode.undirected_connected()}
    if kind == "random_separable":
        n = _read(cfg, "num_agents", int, 6)
        m = _read(cfg, "num_components", int, 8)
        problem, y_star = build_random_separable(n, m, _read(cfg, "sparsity", float, 0.5), seed)
        comm = _comm_graph(cfg.get("topology", "ring"), n)
        interference = frozenset(
            (p, i) for i, fp in enumerate(problem.footprints, start=1) for p in fp
        )
        std, cust = _undirected_arms(comm, interference, Partition((1,) * m))
        return {"kind": kind, "problem": problem, "reference": y_star,
                "layouts": (std, cust),
                "mode": ConnectivityMode.undirected_connected()}
    return _build_coupled_qp(cfg, seed)  # the one kind left


_DEFAULT_ALGORITHM = {
    "unicast": "gne",
    "regression": "pushsum",
    "lasso": "pushsum",
    "random_game": "ne",
    "random_separable": "augdgm",
    "coupled_qp": "dual",
}


# the scenario kinds each algorithm runs on
_ALGORITHM_KINDS = {
    "gne": ("unicast",),
    "ne": ("random_game",),
    "augdgm": ("random_separable",),
    "abc": ("random_separable",),
    "admm": ("random_separable",),
    "pushsum": ("regression", "lasso"),
    "dual": ("coupled_qp",),
}

# the run-config fields each algorithm reads, besides "algorithm"
_RUN_FIELDS = {
    "gne": ("alpha", "beta", "reference", "reference_step", "reference_max_iters",
            "max_iters", "tol", "residual_tol", "check_every"),
    "ne": ("alpha", "rho_target", "max_iters", "tol"),
    "augdgm": ("gamma", "max_iters", "merit_every"),
    "abc": ("gamma", "max_iters", "merit_every"),
    "admm": ("alpha", "max_iters", "tol"),
    "pushsum": ("step_scale", "step_exponent", "max_iters", "stop_tol", "check_every"),
    "dual": ("step_scale", "step_exponent", "max_iters"),
}

# the run-config fields that must be positive (steps, iteration budgets,
# record and check intervals), with their types
_POSITIVE_RUN_FIELDS = {
    "gne": {"alpha": float, "beta": float, "reference_step": float,
            "reference_max_iters": int, "max_iters": int, "check_every": int},
    "ne": {"alpha": float, "max_iters": int},
    "augdgm": {"gamma": float, "max_iters": int, "merit_every": int},
    "abc": {"gamma": float, "max_iters": int, "merit_every": int},
    "admm": {"alpha": float, "max_iters": int},
    "pushsum": {"step_scale": float, "max_iters": int, "check_every": int},
    "dual": {"step_scale": float, "max_iters": int},
}

# why a solver needs its positive int fields, added to the message
_POSITIVE_NOTES = {
    "augdgm": TRACKING_BUDGET,
    "abc": TRACKING_BUDGET,
}


def _check_run(kind: str, run_cfg: dict, arm: str) -> str:
    """The algorithm a run config selects on a scenario kind, once the arm,
    the algorithm's name, its fit to the kind, the names of the run's
    fields, the sign of those that must be positive and the upper end of
    ADMM's relaxation parameter are checked."""
    if arm not in ("standard", "customized"):
        raise ConfigError(f"unknown arm {arm!r} (expected standard or customized)")
    algorithm = run_cfg.get("algorithm", _DEFAULT_ALGORITHM[kind])
    if not isinstance(algorithm, str) or algorithm not in _ALGORITHM_KINDS:
        raise ConfigError(f"unknown algorithm {algorithm!r} "
                          f"(expected one of {', '.join(_ALGORITHM_KINDS)})")
    kinds = _ALGORITHM_KINDS[algorithm]
    if kind not in kinds:
        raise ConfigError(f"{algorithm} solver requires a {' or '.join(kinds)} scenario")
    unknown = sorted(set(run_cfg) - {"algorithm", *_RUN_FIELDS[algorithm]})
    if unknown:
        raise ConfigError(f"unknown field(s) {', '.join(map(repr, unknown))} in a run of "
                          f"{algorithm} (expected {', '.join(_RUN_FIELDS[algorithm])})")
    for key, convert in _POSITIVE_RUN_FIELDS[algorithm].items():
        if key in run_cfg:
            note = _POSITIVE_NOTES.get(algorithm) if convert is int else None
            _read_positive(run_cfg, key, convert, note=note)
    if algorithm == "admm" and "alpha" in run_cfg:
        alpha = _read(run_cfg, "alpha", float)
        if alpha >= 1.0:
            raise ConfigError(f"field 'alpha': relaxation parameter {alpha} outside (0, 1)")
    return algorithm


def _arm_layout(bundle: dict, arm: str):
    return bundle["layouts"][0 if arm == "standard" else 1]


def _gne_arm(bundle: dict, run_cfg: dict, arm: str):
    """The arm's gne operators and step beta, and whether beta keeps the
    preconditioner positive definite, warned about if not."""
    inst = bundle["instance"]
    ops = build_gne_operators(inst.game, *(inst.standard if arm == "standard"
                                           else inst.customized))
    beta = _read(run_cfg, "beta", float, inst.scenario.beta)
    positive = preconditioner_positive(ops, beta)
    if not positive:
        warnings.warn(f"step size beta={beta} is not certified: the primal-dual "
                      f"preconditioner is not positive definite", stacklevel=2)
    return ops, beta, positive


# -- solver dispatch --------------------------------------------------------


def run_solver(bundle: dict, run_cfg: dict, arm: str) -> dict:
    """Dispatch one (scenario, arm) cell to its solver and collect a
    uniform result record."""
    kind = bundle["kind"]
    algorithm = _check_run(kind, run_cfg, arm)
    layout = _arm_layout(bundle, arm)
    result = {
        "kind": kind,
        "arm": arm,
        "algorithm": algorithm,
        "unicast_cost": layout.communication_cost("unicast"),
        "broadcast_cost": layout.communication_cost("broadcast"),
        "estimates_per_agent": layout.mean_estimate_count(),
    }

    if algorithm == "gne":
        inst = bundle["instance"]
        ops, beta, positive = _gne_arm(bundle, run_cfg, arm)
        alpha = _read(run_cfg, "alpha", float, inst.scenario.alpha)
        x0 = np.zeros(inst.game.total_action_dim)
        reference = reference_s = None
        if run_cfg.get("reference", True):
            start = time.perf_counter()
            # once per arm: a second arm on the same game reads the first
            # arm's result, which the game keeps
            reference, _ = solve_vgne_centralized(
                inst.game, x0,
                step=_read(run_cfg, "reference_step", float, 0.05),
                max_iters=_read(run_cfg, "reference_max_iters", int, 500000),
            )
            reference_s = time.perf_counter() - start
        state, trace = gne_solve(
            ops, x0, alpha, beta,
            max_iters=_read(run_cfg, "max_iters", int, 200000),
            tol=_read(run_cfg, "tol", float, 1e-2),
            reference=reference,
            residual_tol=_read(run_cfg, "residual_tol", float, None),
            check_every=_read(run_cfg, "check_every", int, 50),
        )
        # both exchange layers talk every iteration
        result["unicast_cost"] = trace.meta["unicast_cost_per_iter"]
        result["broadcast_cost"] = (ops.sigma_layout.communication_cost("broadcast")
                                    + ops.lambda_layout.communication_cost("broadcast"))
        result["certified"] = {
            "alpha": alpha, "beta": beta,
            "preconditioner_positive": positive,
        }
        result["final_merit"] = trace.last("residual")
        result["reference_s"] = reference_s
        result["solution"] = state.x
    elif algorithm == "ne":
        game = bundle["game"]
        if "alpha" in run_cfg:
            alpha = _read(run_cfg, "alpha", float)
            cert = None
        else:
            cert = search_ne_step_size(layout, game,
                                       target=_read(run_cfg, "rho_target", float, 0.999))
            alpha = cert.alpha
        hat, trace = ne_solve(
            layout, game, alpha,
            max_iters=_read(run_cfg, "max_iters", int, 10000),
            tol=_read(run_cfg, "tol", float, 1e-10),
            reference=bundle["reference"],
            certificate=cert,
        )
        result["certified"] = {"alpha": alpha}
        if cert is not None:
            result["certified"]["rho"] = cert.rho
        result["final_merit"] = trace.last("distance")
        result["solution"] = layout.component_means(hat)
    elif algorithm in ("augdgm", "abc"):
        problem = bundle["problem"]
        bound = augdgm_gamma_bound(problem)
        gamma = _read(run_cfg, "gamma", float, 0.5 * bound)
        common = dict(
            gamma=gamma,
            max_iters=_read(run_cfg, "max_iters", int, 2000),
            reference=bundle["reference"],
            merit_every=_read(run_cfg, "merit_every", int, 10),
        )
        if algorithm == "augdgm":
            hat, trace = augdgm_solve(layout, problem, **common)
        else:
            # the two-matrix form: coefficients in the layout's own W, run
            # on the weight operator augdgm applies
            hat, trace = abc_solve(layout, augdgm_matrices(layout), problem, **common)
        result["certified"] = {"gamma": gamma, "gamma_bound": bound}
        result["final_merit"] = trace.last("merit")
        result["solution"] = layout.component_means(hat)
    elif algorithm == "admm":
        problem = bundle["problem"]
        alpha = _read(run_cfg, "alpha", float, 0.5)
        hat, trace = admm_solve(
            layout, problem, alpha,
            max_iters=_read(run_cfg, "max_iters", int, 5000),
            tol=_read(run_cfg, "tol", float, 1e-10),
            reference=bundle["reference"],
        )
        result["certified"] = {"alpha": alpha}
        result["final_merit"] = trace.last("distance")
        result["solution"] = layout.component_means(hat)
    elif algorithm == "pushsum":
        inst = bundle["instance"]
        problem = inst.problem
        reference = problem.solve_reference()
        gamma = power_step_schedule(
            _read(run_cfg, "step_scale", float, 1.0),
            _read(run_cfg, "step_exponent", float, 0.51),
        )
        weights = constant_design_weights(layout)
        state, trace = pushsum_solve(
            layout, lambda k: weights, problem, gamma,
            max_iters=_read(run_cfg, "max_iters", int, 20000),
            reference=reference,
            stop_tol=_read(run_cfg, "stop_tol", float, 1e-2),
            merit=lambda hat: merit_v(layout, problem, hat, reference),
            check_every=_read(run_cfg, "check_every", int, 100),
        )
        result["certified"] = {
            "step_scale": _read(run_cfg, "step_scale", float, 1.0),
            "step_exponent": _read(run_cfg, "step_exponent", float, 0.51),
        }
        result["final_merit"] = trace.last("merit")
        result["solution"] = layout.component_means(state.y)
    elif algorithm == "dual":
        ccp = bundle["problem"]
        gamma = power_step_schedule(
            _read(run_cfg, "step_scale", float, 1.0),
            _read(run_cfg, "step_exponent", float, 0.51),
        )
        weights = constant_design_weights(layout)
        y_mean, x_final, trace = constraint_coupled_solve(
            layout, ccp, lambda k: weights, gamma,
            max_iters=_read(run_cfg, "max_iters", int, 5000),
            reference_dual=bundle["reference_dual"],
        )
        result["certified"] = {
            "step_scale": _read(run_cfg, "step_scale", float, 1.0),
            "step_exponent": _read(run_cfg, "step_exponent", float, 0.51),
        }
        result["final_merit"] = trace.last("dual_distance")
        result["solution"] = y_mean
        trace.meta.pop("x_ergodic", None)

    result["trace"] = trace
    result["iterations"] = trace.steps
    return result


# -- subcommands ------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg


def _per_agent_counts(layout: EndLayout) -> dict[int, int]:
    counts = {i: 0 for i in layout.agents}
    for p in layout.partition.components:
        for i in layout.holders(p):
            counts[i] += 1
    return counts


def cmd_design(args) -> int:
    cfg = _load_config(args.config)
    bundle = build_scenario(cfg.get("scenario", cfg), args.seed)
    os.makedirs(args.out, exist_ok=True)
    report = {"kind": bundle["kind"], "arms": {}}
    for arm in ("standard", "customized"):
        layout = _arm_layout(bundle, arm)
        path = os.path.join(args.out, f"{arm}_layout.json")
        dump_json(path, layout.to_json_dict())  # JSON-native already
        violations = layout.validate(bundle["mode"])
        report["arms"][arm] = {
            "layout_file": os.path.basename(path),
            "violations": violations,
            "unicast_cost": layout.communication_cost("unicast"),
            "broadcast_cost": layout.communication_cost("broadcast"),
            "mean_estimate_count": layout.mean_estimate_count(),
            "per_agent_estimate_counts": _per_agent_counts(layout),
        }
        print(f"{arm}: mean estimate size {layout.mean_estimate_count():g}, "
              f"unicast cost {layout.communication_cost('unicast'):g}, "
              f"broadcast cost {layout.communication_cost('broadcast'):g}")
    write_json(os.path.join(args.out, "design_report.json"), report)
    bad = [v for arm in report["arms"].values() for v in arm["violations"]]
    if bad:
        for v in bad:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    scenario_cfg = cfg.get("scenario")
    if scenario_cfg is None:
        raise ConfigError("run config needs a 'scenario' block")
    run_cfg = _block(cfg, "run")
    arm = cfg.get("arm", "customized")
    bundle = build_scenario(scenario_cfg, args.seed)
    if args.dry_run:
        algorithm = _check_run(bundle["kind"], run_cfg, arm)
        if algorithm in ("augdgm", "abc") and "gamma" in run_cfg:
            # the certified bound of both is 1 / the smoothness constant: no solve needed
            warn_uncertified_step(_read(run_cfg, "gamma", float),
                                  augdgm_gamma_bound(bundle["problem"]), stacklevel=2)
        elif algorithm == "gne":
            _gne_arm(bundle, run_cfg, arm)
        print(f"config ok: kind={bundle['kind']}, arm={arm}, algorithm={algorithm}")
        return EXIT_OK
    start = time.perf_counter()
    result = run_solver(bundle, run_cfg, arm)
    wall = time.perf_counter() - start
    os.makedirs(args.out, exist_ok=True)
    trace = result.pop("trace")
    csv_path = os.path.join(args.out, "trace.csv")
    header = write_trace_csv(csv_path, trace)
    if args.emit_plots:
        emit_plot_script(csv_path, header)
    summary = dict(result)
    summary["final"] = {name: trace.last(name) for name in trace.columns
                        if trace.columns[name]}
    summary["trace_meta"] = trace.meta
    summary["wall_seconds"] = wall
    write_json(os.path.join(args.out, "summary.json"), summary)
    print(f"{result['algorithm']} ({arm}): {result['iterations']} iterations, "
          f"final merit {result['final_merit']:.3e}")
    return EXIT_OK


def _experiment_cell(job: tuple[dict, dict, int, object]) -> dict:
    """One sweep cell: both arms on the same instance and seed."""
    scenario_cfg, run_cfg, seed, value = job
    bundle = build_scenario(scenario_cfg, seed)
    row = {"value": value, "seed": seed}
    for arm in ("standard", "customized"):
        start = time.perf_counter()
        res = run_solver(bundle, run_cfg, arm)
        wall = time.perf_counter() - start
        prefix = "std" if arm == "standard" else "cust"
        row[f"{prefix}_iterations"] = res["iterations"]
        row[f"{prefix}_unicast_cost"] = res["unicast_cost"]
        row[f"{prefix}_broadcast_cost"] = res["broadcast_cost"]
        row[f"{prefix}_estimates_per_agent"] = res["estimates_per_agent"]
        row[f"{prefix}_final_merit"] = res["final_merit"]
        row[f"{prefix}_wall_seconds"] = wall
    return row


_EXPERIMENT_COLUMNS = [
    "value", "seed",
    "std_iterations", "cust_iterations",
    "std_unicast_cost", "cust_unicast_cost",
    "std_broadcast_cost", "cust_broadcast_cost",
    "std_estimates_per_agent", "cust_estimates_per_agent",
    "std_final_merit", "cust_final_merit",
]


def cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    if "scenario" not in cfg:
        raise ConfigError("experiment config needs a 'scenario' block")
    base = _block(cfg, "scenario")
    sweep = _block(cfg, "sweep")
    parameter = _read(sweep, "parameter", str, None)
    values = _read(sweep, "values", list, [None])
    seeds = _read(cfg, "seeds", list, [int(args.seed) if args.seed is not None else 0])
    try:
        if any(_not_whole(seed) for seed in seeds):
            raise ValueError(seeds)
        seeds = [int(seed) for seed in seeds]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'seeds': expected integers, got {seeds!r}") from exc
    run_cfg = _block(cfg, "run")
    jobs = []
    for value in values:
        scenario_cfg = dict(base)
        if parameter is not None:
            scenario_cfg[parameter] = value
        for seed in seeds:
            jobs.append((scenario_cfg, run_cfg, seed, value))
    if args.jobs > 1:
        # imported here: the process pool machinery is only needed with --jobs > 1
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_experiment_cell, jobs))
    else:
        rows = [_experiment_cell(job) for job in jobs]
    os.makedirs(args.out, exist_ok=True)
    header = ([parameter or "value"] + _EXPERIMENT_COLUMNS[1:])
    table = [[row[c] for c in _EXPERIMENT_COLUMNS] for row in rows]
    csv_path = os.path.join(args.out, "experiment.csv")
    _write_csv(csv_path, header, table)
    if args.emit_plots:
        emit_plot_script(csv_path, header)
    summary = {
        "parameter": parameter,
        "values": values,
        "seeds": list(seeds),
        "wall_seconds": {
            f"{row['value']}/{row['seed']}": {
                "standard": row["std_wall_seconds"],
                "customized": row["cust_wall_seconds"],
            }
            for row in rows
        },
    }
    write_json(os.path.join(args.out, "experiment_summary.json"), summary)
    worse = sum(1 for row in rows
                if row["cust_unicast_cost"] > row["std_unicast_cost"])
    print(f"{len(rows)} cells; customized per-iteration unicast cost exceeds "
          f"standard on {worse} of them")
    return EXIT_OK


_MODES = {
    "undirected": ConnectivityMode.undirected_connected,
    "strong": ConnectivityMode.strongly_connected,
}


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    layout_file = cfg.get("layout_file")
    if layout_file is None:
        raise ConfigError("validate config needs a 'layout_file' field")
    path = layout_file
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(os.path.abspath(args.config)), path)
    try:
        with open(path) as fh:
            layout = EndLayout.from_json_dict(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read layout {path}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"layout file {path} is malformed: {exc}") from exc
    mode_name = cfg.get("mode", "undirected")
    if mode_name == "rooted":
        roots = cfg.get("roots")
        if not isinstance(roots, dict):
            raise ConfigError("rooted mode needs a 'roots' mapping {component: root}")
        try:
            mode = ConnectivityMode.rooted({int(p): int(r) for p, r in roots.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"'roots' must map component ids to agent ids: {exc}") from exc
    elif mode_name in _MODES:
        mode = _MODES[mode_name]()
    else:
        raise ConfigError(f"unknown connectivity mode {mode_name!r}")
    violations = layout.validate(mode)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"layout ok: {len(layout.agents)} agents, "
          f"{len(layout.partition.components)} components, "
          f"mean estimate size {layout.mean_estimate_count():g}")
    return EXIT_OK


# -- entry point ------------------------------------------------------------


def _setup_logging() -> None:
    """Apply ``END_LOG_LEVEL``, when set, to the ``endnet`` logger itself,
    which also works inside a host process that configured the root logger
    (unset, the level is left as it is: WARNING, from the root logger, in a
    fresh process). The logger gets a stderr handler only when no handler
    would see its records, so a host that set up logging keeps its own
    output and sees each record once."""
    name = os.environ.get("END_LOG_LEVEL")
    if name is not None:
        if name.lower() not in _LOG_LEVELS:
            raise ConfigError(
                f"END_LOG_LEVEL must be one of {sorted(_LOG_LEVELS)}, got {name.lower()!r}")
        log.setLevel(_LOG_LEVELS[name.lower()])
    if not log.hasHandlers():
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endnet",
        description="Design estimate-exchange layouts and run distributed solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "design": (cmd_design, "build both layout arms and report their costs"),
        "run": (cmd_run, "run one solver and write its trace"),
        "experiment": (cmd_experiment, "sweep standard vs customized arms"),
        "validate": (cmd_validate, "check a layout file against a connectivity mode"),
    }
    for name, (fn, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for sweeps")
        p.add_argument("--emit-plots", action="store_true",
                       help="write a gnuplot script next to each CSV")
        if name == "run":
            p.add_argument("--dry-run", action="store_true",
                           help="validate the config and exit")
        p.set_defaults(handler=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _setup_logging()
        return args.handler(args)
    except DesignInfeasible as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        if exc.components:
            print(f"affected components: {list(exc.components)}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, ScenarioError, GameError, OptimError, LayoutError,
            GraphError) as exc:
        # scenario/game/optim errors at this level mean bad parameters; any
        # other exception is a fault of the program and keeps its traceback
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
