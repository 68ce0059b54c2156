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
from typing import NamedTuple

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

# the JSON name of each field type, for messages
_JSON_TYPES = {int: "int", float: "float", bool: "bool", str: "str", list: "list",
               dict: "object"}

# the bounds a field can carry besides a tuple of the strings it takes
_POSITIVE = "positive"
_RELAXATION = "in (0, 1)"
_EXPONENT = "in (1/2, 1]"
_NON_NEGATIVE = "non-negative"
_INTEGERS = "integers"


class _Field(NamedTuple):
    """One config field: its JSON type, its default (``_REQUIRED`` when it
    must be given; None when it is optional, and then null reads as absent)
    and the bound a solver needs: ``_POSITIVE``, ``_RELAXATION``,
    ``_EXPONENT``, ``_NON_NEGATIVE``, ``_INTEGERS`` (a list of non-negative
    ints) or the tuple of strings it takes. ``note`` says why a positive
    field must be."""

    kind: type
    default: object = _REQUIRED
    bound: object = None
    note: str = ""


def _as(kind: type, raw):
    """``raw`` as a value of JSON type ``kind``, or None when it is not one:
    a bool is not a number, and an int is a whole number (40.0 reads as 40)."""
    if kind not in (int, float):
        return raw if isinstance(raw, kind) else None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    if kind is int and not (isinstance(raw, int) or raw.is_integer()):
        return None
    return kind(raw)


def _value(key: str, field: _Field, raw):
    """``raw`` as the value of field ``key``: converted to its type and
    checked against its bound, or a ConfigError naming the key. An int field
    that must be positive reads a fraction or a bool as out of bound."""
    bound = field.bound
    if raw is None and field.default is None:
        return None
    if isinstance(bound, tuple):
        if isinstance(raw, str) and raw in bound:
            return raw
        raise ConfigError(f"unknown {key} {raw!r} (expected {' or '.join(bound)})")
    value = _as(field.kind, raw)
    positive = bound in (_POSITIVE, _RELAXATION)
    if value is None and not (positive and field.kind is int and isinstance(raw, (int, float))):
        raise ConfigError(f"field {key!r}: expected {_JSON_TYPES[field.kind]}, got {raw!r}")
    if positive and not (value is not None and value > 0):
        whole = " and whole" if field.kind is int else ""
        why = f" ({field.note})" if field.note else ""
        raise ConfigError(f"field {key!r}: must be positive{whole}, got {raw!r}{why}")
    if bound == _RELAXATION and value >= 1.0:
        raise ConfigError(f"field {key!r}: relaxation parameter {value} outside (0, 1)")
    if bound == _EXPONENT and not 0.5 < value <= 1.0:
        raise ConfigError(f"field {key!r}: must be in (1/2, 1], got {raw!r}")
    if bound == _INTEGERS:
        value = [_as(int, item) for item in value]
        if None in value:
            raise ConfigError(f"field {key!r}: expected integers, got {raw!r}")
    if bound == _NON_NEGATIVE and value < 0 or bound == _INTEGERS and min(value, default=0) < 0:
        raise ConfigError(f"field {key!r}: must be non-negative, got {raw!r}")
    return value


def _resolve(cfg: dict, fields: dict, what: str, selector: str | None = None) -> dict:
    """The value of each of ``fields`` in the config block ``cfg``, which is
    ``what`` (for messages): read by :func:`_value`, or its default when
    absent. A key that is neither a field nor ``selector``, or a missing
    required field, is a ConfigError naming it."""
    unknown = sorted(set(cfg) - set(fields) - {selector})
    if unknown:
        raise ConfigError(f"unknown field(s) {', '.join(map(repr, unknown))} in {what} "
                          f"(expected {', '.join(fields)})")
    values = {}
    for key, field in fields.items():
        if key in cfg:
            values[key] = _value(key, field, cfg[key])
        elif field.default is _REQUIRED:
            raise ConfigError(f"missing field {key!r} in {what}")
        else:
            values[key] = field.default
    return values


# -- config spec ------------------------------------------------------------
#
# Every field of every config block, declared once. A scenario kind names
# its default algorithm, and an algorithm the scenario kinds it runs on.

_ARMS = ("standard", "customized")
# numpy's generators take no negative seed
_SEED = _Field(int, 0, _NON_NEGATIVE)
_TOPOLOGY = _Field(str, "ring", ("ring", "complete"))
_SENSOR = {
    "num_sensors": _Field(int), "num_sources": _Field(int),
    "sensing_radius": _Field(float, 0.2), "comm_radius_min": _Field(float, 0.1),
    "comm_radius_width": _Field(float, 0.1), "output_dim": _Field(int, 10),
    "noise_var": _Field(float, 0.1), "emit_fraction": _Field(float, 0.3), "seed": _SEED,
    "max_resample": _Field(int, 200),
}

# kind: (default algorithm, the fields besides "kind")
_SCENARIOS = {
    "unicast": ("gne", {
        "num_users": _Field(int), "max_path_len": _Field(int, 4),
        "extra_edge_prob": _Field(float, 0.25), "relay_prob": _Field(float, 0.1),
        "alpha": _Field(float, 0.1, _POSITIVE), "beta": _Field(float, 1e-3, _POSITIVE),
        "seed": _SEED}),
    "regression": ("pushsum", _SENSOR),
    "lasso": ("pushsum", _SENSOR),
    "random_game": ("ne", {
        "num_agents": _Field(int, 5), "sparsity": _Field(float, 0.4),
        "shift": _Field(float, 1.0), "topology": _TOPOLOGY, "seed": _SEED}),
    "random_separable": ("augdgm", {
        "num_agents": _Field(int, 6), "num_components": _Field(int, 8),
        "sparsity": _Field(float, 0.5), "topology": _TOPOLOGY, "seed": _SEED}),
    "coupled_qp": ("dual", {
        "num_agents": _Field(int, 4), "dim": _Field(int, 1), "box_bound": _Field(float, 10.0),
        "topology": _TOPOLOGY, "seed": _SEED}),
}

# the fields of a unicast scenario that names a preset network
_UNICAST_PRESET = {"preset": _Field(str, _REQUIRED, ("reference",)), "seed": _SEED}

_TRACKING = {
    "gamma": _Field(float, None, _POSITIVE),
    "max_iters": _Field(int, 2000, _POSITIVE, TRACKING_BUDGET),
    "merit_every": _Field(int, 10, _POSITIVE, TRACKING_BUDGET),
}
_STEP_SCHEDULE = {
    "step_scale": _Field(float, 1.0, _POSITIVE), "step_exponent": _Field(float, 0.51, _EXPONENT),
}

# algorithm: (the scenario kinds it runs on, the run fields besides
# "algorithm"); a default of None is worked out from the instance
_ALGORITHMS = {
    "gne": (("unicast",), {
        "alpha": _Field(float, None, _POSITIVE), "beta": _Field(float, None, _POSITIVE),
        "reference": _Field(bool, True), "reference_step": _Field(float, 0.05, _POSITIVE),
        "reference_max_iters": _Field(int, 500000, _POSITIVE),
        "max_iters": _Field(int, 200000, _POSITIVE), "tol": _Field(float, 1e-2),
        "residual_tol": _Field(float, None), "check_every": _Field(int, 50, _POSITIVE)}),
    "ne": (("random_game",), {
        "alpha": _Field(float, None, _POSITIVE), "rho_target": _Field(float, 0.999),
        "max_iters": _Field(int, 10000, _POSITIVE), "tol": _Field(float, 1e-10)}),
    "augdgm": (("random_separable",), _TRACKING),
    "abc": (("random_separable",), _TRACKING),
    "admm": (("random_separable",), {
        "alpha": _Field(float, 0.5, _RELAXATION), "max_iters": _Field(int, 5000, _POSITIVE),
        "tol": _Field(float, 1e-10)}),
    "pushsum": (("regression", "lasso"), {
        **_STEP_SCHEDULE, "max_iters": _Field(int, 20000, _POSITIVE),
        "stop_tol": _Field(float, 1e-2), "check_every": _Field(int, 100, _POSITIVE)}),
    "dual": (("coupled_qp",), {**_STEP_SCHEDULE, "max_iters": _Field(int, 5000, _POSITIVE)}),
}

# the top level of each command's config
_COMMANDS = {
    "design": {"scenario": _Field(dict)},
    "run": {"scenario": _Field(dict), "run": _Field(dict, {}),
            "arm": _Field(str, "customized", _ARMS)},
    "experiment": {"scenario": _Field(dict), "sweep": _Field(dict, {}),
                   "seeds": _Field(list, None, _INTEGERS), "run": _Field(dict, {})},
    "validate": {"layout_file": _Field(str),
                 "mode": _Field(str, "undirected", ("undirected", "strong", "rooted")),
                 "roots": _Field(dict, None)},
}

# an experiment's sweep: the scenario field it sets, and the values it takes
_SWEEP = {"parameter": _Field(str, None), "values": _Field(list, [None])}


def _resolve_scenario(cfg) -> tuple[str, dict]:
    """The kind of a scenario block and its values."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("scenario block must be an object with a 'kind' field")
    kind = cfg["kind"]
    if not isinstance(kind, str) or kind not in _SCENARIOS:
        raise ConfigError(f"unknown scenario kind {kind!r} (expected {', '.join(_SCENARIOS)})")
    if kind == "unicast" and "preset" in cfg:
        return kind, _resolve(cfg, _UNICAST_PRESET, "a unicast scenario with a preset", "kind")
    return kind, _resolve(cfg, _SCENARIOS[kind][1], f"a {kind} scenario", "kind")


def _resolve_run(kind: str, run_cfg: dict) -> tuple[str, dict]:
    """The algorithm a run block selects on a scenario kind, and its values."""
    algorithm = run_cfg.get("algorithm", _SCENARIOS[kind][0])
    if not isinstance(algorithm, str) or algorithm not in _ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r} "
                          f"(expected one of {', '.join(_ALGORITHMS)})")
    kinds, fields = _ALGORITHMS[algorithm]
    if kind not in kinds:
        raise ConfigError(f"{algorithm} solver requires a {' or '.join(kinds)} scenario")
    return algorithm, _resolve(run_cfg, fields, f"a run of {algorithm}", "algorithm")


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


def _comm_graph(topology: str, n: int) -> Graph:
    nodes = range(1, n + 1)
    if topology == "complete":
        return Graph.complete(nodes)
    edges = sorted({(min(i, i % n + 1), max(i, i % n + 1)) for i in nodes})
    return Graph.undirected_graph(nodes, edges)  # a ring


def _undirected_arms(comm, interference, partition, scheme="metropolis"):
    std = standard_layout(comm, interference, partition, weight_scheme=scheme)
    cust = design_layout(
        comm, interference, partition,
        DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges"),
        weight_scheme=scheme,
    )
    return std, cust


def _build_coupled_qp(n: int, d: int, bound: float, topology: str, seed: int) -> dict:
    """Seeded quadratic resource-allocation problem with one coupling row
    per component and a closed-form multiplier for reference."""
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
    comm = _comm_graph(topology, n)
    interference = frozenset((1, i) for i in range(1, n + 1))
    std, cust = _undirected_arms(comm, interference, Partition((d,)))
    return {"kind": "coupled_qp", "problem": ccp, "reference_dual": y_star,
            "layouts": (std, cust), "mode": ConnectivityMode.undirected_connected()}


def build_scenario(cfg: dict, seed_override: int | None = None) -> dict:
    """Turn a scenario config block into problem objects plus both layout
    arms; returns a bundle dict keyed by scenario kind."""
    kind, v = _resolve_scenario(cfg)
    if seed_override is not None:
        v["seed"] = int(seed_override)
    seed = v["seed"]
    if kind == "unicast":
        sc = reference_scheme_unicast(seed) if "preset" in v else sample_unicast(**v)
        inst = build_unicast(sc)
        return {"kind": kind, "instance": inst,
                "layouts": (inst.standard[0], inst.customized[0]),
                "mode": ConnectivityMode.undirected_connected()}
    if kind in ("regression", "lasso"):
        sc = SensorScenario(**v)
        inst = build_regression(sc) if kind == "regression" else build_lasso(sc)
        return {"kind": kind, "instance": inst,
                "layouts": (inst.standard, inst.customized),
                "mode": ConnectivityMode.strongly_connected()}
    n = v["num_agents"]
    if kind == "random_game":
        game, x_star = build_random_quadratic_game(n, v["sparsity"], seed, shift=v["shift"])
        comm = _comm_graph(v["topology"], n)
        std, cust = _undirected_arms(comm, game.interference, Partition((1,) * n))
        return {"kind": kind, "game": game, "reference": x_star,
                "layouts": (std, cust),
                "mode": ConnectivityMode.undirected_connected()}
    if kind == "random_separable":
        m = v["num_components"]
        problem, y_star = build_random_separable(n, m, v["sparsity"], seed)
        comm = _comm_graph(v["topology"], n)
        interference = frozenset(
            (p, i) for i, fp in enumerate(problem.footprints, start=1) for p in fp
        )
        std, cust = _undirected_arms(comm, interference, Partition((1,) * m))
        return {"kind": kind, "problem": problem, "reference": y_star,
                "layouts": (std, cust),
                "mode": ConnectivityMode.undirected_connected()}
    return _build_coupled_qp(n, v["dim"], v["box_bound"], v["topology"], seed)  # the one kind left


def _arm_layout(bundle: dict, arm: str):
    return bundle["layouts"][_ARMS.index(arm)]


def _gne_arm(bundle: dict, beta: float | None, arm: str):
    """The arm's gne operators and step beta (the scenario's when None), and
    whether beta keeps the preconditioner positive definite, warned about if
    not."""
    inst = bundle["instance"]
    ops = build_gne_operators(inst.game, *(inst.standard if arm == "standard"
                                           else inst.customized))
    beta = float(inst.scenario.beta) if beta is None else beta
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
    algorithm, run = _resolve_run(kind, run_cfg)
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
        ops, beta, positive = _gne_arm(bundle, run["beta"], arm)
        alpha = float(inst.scenario.alpha) if run["alpha"] is None else run["alpha"]
        x0 = np.zeros(inst.game.total_action_dim)
        reference = reference_s = None
        if run["reference"]:
            start = time.perf_counter()
            # once per arm: a second arm on the same game reads the first
            # arm's result, which the game keeps
            reference, _ = solve_vgne_centralized(
                inst.game, x0, step=run["reference_step"],
                max_iters=run["reference_max_iters"],
            )
            reference_s = time.perf_counter() - start
        state, trace = gne_solve(
            ops, x0, alpha, beta,
            max_iters=run["max_iters"],
            tol=run["tol"],
            reference=reference,
            residual_tol=run["residual_tol"],
            check_every=run["check_every"],
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
        alpha, cert = run["alpha"], None
        if alpha is None:
            cert = search_ne_step_size(layout, game, target=run["rho_target"])
            alpha = cert.alpha
        hat, trace = ne_solve(
            layout, game, alpha,
            max_iters=run["max_iters"],
            tol=run["tol"],
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
        gamma = float(0.5 * bound) if run["gamma"] is None else run["gamma"]
        common = dict(
            gamma=gamma,
            max_iters=run["max_iters"],
            reference=bundle["reference"],
            merit_every=run["merit_every"],
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
        hat, trace = admm_solve(
            layout, problem, run["alpha"],
            max_iters=run["max_iters"],
            tol=run["tol"],
            reference=bundle["reference"],
        )
        result["certified"] = {"alpha": run["alpha"]}
        result["final_merit"] = trace.last("distance")
        result["solution"] = layout.component_means(hat)
    elif algorithm == "pushsum":
        inst = bundle["instance"]
        problem = inst.problem
        reference = problem.solve_reference()
        gamma = power_step_schedule(run["step_scale"], run["step_exponent"])
        weights = constant_design_weights(layout)
        state, trace = pushsum_solve(
            layout, lambda k: weights, problem, gamma,
            max_iters=run["max_iters"],
            reference=reference,
            stop_tol=run["stop_tol"],
            merit=lambda hat: merit_v(layout, problem, hat, reference),
            check_every=run["check_every"],
        )
        result["certified"] = {key: run[key] for key in _STEP_SCHEDULE}
        result["final_merit"] = trace.last("merit")
        result["solution"] = layout.component_means(state.y)
    elif algorithm == "dual":
        ccp = bundle["problem"]
        gamma = power_step_schedule(run["step_scale"], run["step_exponent"])
        weights = constant_design_weights(layout)
        y_mean, x_final, trace = constraint_coupled_solve(
            layout, ccp, lambda k: weights, gamma,
            max_iters=run["max_iters"],
            reference_dual=bundle["reference_dual"],
        )
        result["certified"] = {key: run[key] for key in _STEP_SCHEDULE}
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
    if "scenario" in cfg:
        cfg = _resolve(cfg, _COMMANDS["design"], "a design config")["scenario"]
    # else the config is the scenario block itself
    bundle = build_scenario(cfg, args.seed)
    os.makedirs(args.out, exist_ok=True)
    report = {"kind": bundle["kind"], "arms": {}}
    for arm in _ARMS:
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
    cfg = _resolve(_load_config(args.config), _COMMANDS["run"], "a run config")
    arm = cfg["arm"]
    bundle = build_scenario(cfg["scenario"], args.seed)
    if args.dry_run:
        # the values run_solver reads, without a solve
        algorithm, run = _resolve_run(bundle["kind"], cfg["run"])
        if algorithm in ("augdgm", "abc") and run["gamma"] is not None:
            # the certified bound of both is 1 / the smoothness constant: no solve needed
            warn_uncertified_step(run["gamma"], augdgm_gamma_bound(bundle["problem"]),
                                  stacklevel=2)
        elif algorithm == "gne":
            _gne_arm(bundle, run["beta"], arm)
        print(f"config ok: kind={bundle['kind']}, arm={arm}, algorithm={algorithm}")
        return EXIT_OK
    start = time.perf_counter()
    result = run_solver(bundle, cfg["run"], arm)
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
    for arm in _ARMS:
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


def _experiment_jobs(cfg: dict, seed: int | None) -> tuple[dict, dict, list]:
    """An experiment config's values, its sweep's values and its cells
    (scenario block, run block, seed, sweep value), once the scenario and
    run blocks of every sweep value are checked; ``seed`` is the seed when
    the config lists none."""
    cfg = _resolve(cfg, _COMMANDS["experiment"], "an experiment config")
    sweep = _resolve(cfg["sweep"], _SWEEP, "a sweep")
    if cfg["seeds"] is None:
        cfg["seeds"] = [0 if seed is None else int(seed)]
    jobs = []
    for value in sweep["values"]:
        scenario_cfg = dict(cfg["scenario"])
        if sweep["parameter"] is not None:
            scenario_cfg[sweep["parameter"]] = value
        kind, _ = _resolve_scenario(scenario_cfg)
        _resolve_run(kind, cfg["run"])
        jobs += [(scenario_cfg, cfg["run"], s, value) for s in cfg["seeds"]]
    return cfg, sweep, jobs


def cmd_experiment(args) -> int:
    cfg, sweep, jobs = _experiment_jobs(_load_config(args.config), args.seed)
    parameter = sweep["parameter"]
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
        "values": sweep["values"],
        "seeds": cfg["seeds"],
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
    cfg = _resolve(_load_config(args.config), _COMMANDS["validate"], "a validate config")
    path = cfg["layout_file"]
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(os.path.abspath(args.config)), path)
    try:
        with open(path) as fh:
            layout = EndLayout.from_json_dict(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read layout {path}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"layout file {path} is malformed: {exc}") from exc
    if cfg["mode"] == "rooted":
        roots = cfg["roots"]
        if roots is None:
            raise ConfigError("rooted mode needs a 'roots' mapping {component: root}")
        try:
            mode = ConnectivityMode.rooted({int(p): int(r) for p, r in roots.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"'roots' must map component ids to agent ids: {exc}") from exc
    else:
        mode = _MODES[cfg["mode"]]()
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
        if args.seed is not None:
            _value("--seed", _SEED, args.seed)
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
