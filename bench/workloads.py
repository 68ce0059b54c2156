"""The three workloads: how each makes its inputs, runs both layout arms
and checks the answers.

Every workload solves one fixed instance. ``--seed`` draws a relabelling of
it (a permutation of agent and/or component ids), so the program sees
different inputs on every seed -- stacked-vector order, design tie-breaks,
dictionary order -- while the problem is the same up to names, and step
counts and sizes repeat from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from endnet import cli, design, layout, optim, scenarios
from endnet.graphs import Graph
from endnet.layout import ConnectivityMode, Partition
from endnet.optim import QuadraticSeparable

import checks

ARMS = ("standard", "customized")


# -- relabelling ----------------------------------------------------------


def relabel_unicast(sc: scenarios.UnicastScenario, rng) -> scenarios.UnicastScenario:
    """The same network, routes and link data with node ids permuted."""
    perm = rng.permutation(sc.num_users) + 1

    def node(v):
        return int(perm[v - 1])

    def edge(e):
        return (node(e[0]), node(e[1]))

    return scenarios.UnicastScenario(
        comm=Graph.undirected_graph(sc.comm.nodes, [edge(e) for e in sc.comm.edges]),
        paths={node(i): tuple(edge(e) for e in seq) for i, seq in sc.paths.items()},
        psi={edge(e): w for e, w in sc.psi.items()},
        capacities={edge(e): c for e, c in sc.capacities.items()},
        utility_scale=sc.utility_scale, alpha=sc.alpha, beta=sc.beta,
    )


def relabel_quadratic(problem: QuadraticSeparable, agent_order, component_perm):
    """The same cost with agents reordered (new agent k is old agent
    ``agent_order[k]``) and component p renamed ``component_perm[p - 1]``."""
    def comp(p):
        return int(component_perm[p - 1])

    dims = [0] * problem.num_components
    for p in range(1, problem.num_components + 1):
        dims[comp(p) - 1] = problem.dim(p)
    return QuadraticSeparable(
        component_dims=dims,
        footprints=[tuple(sorted(comp(p) for p in problem.footprints[a])) for a in agent_order],
        quadratics=[{(comp(p), comp(q)): b for (p, q), b in problem.quadratics[a].items()}
                    for a in agent_order],
        linears=[{comp(p): v for p, v in problem.linears[a].items()} for a in agent_order],
        constants=[problem.constants[a] for a in agent_order],
    )


def _interference(footprints) -> frozenset:
    return frozenset((p, i) for i, fp in enumerate(footprints, start=1) for p in fp)


# -- workloads ------------------------------------------------------------


@dataclass
class Workload:
    setup: Callable          # seed -> state (the timed set-up)
    solve: Callable          # (state, arm) -> ArmRecord
    check: Callable          # (state, arms, tracer, arm span indices) -> {arm: [failures]}


@dataclass
class ArmRecord:
    iterations: int
    unicast_cost: float
    estimates_per_agent: float
    detail: dict = field(default_factory=dict)


def _from_cli(res: dict) -> ArmRecord:
    return ArmRecord(res["iterations"], res["unicast_cost"], res["estimates_per_agent"], res)


# unicast-gne: the 20-user network of sample_unicast(seed 0), the CLI's gne
# path, with max_iters, tol and reference_step cut from the defaults so a
# round takes seconds (see README)
UNICAST_RUN = {"max_iters": 40000, "tol": 5e-2, "reference_step": 0.2}


def unicast_setup(seed: int) -> dict:
    sc = relabel_unicast(scenarios.sample_unicast(20, 0), np.random.default_rng(seed))
    inst = scenarios.build_unicast(sc)
    return {"kind": "unicast", "instance": inst,
            "layouts": (inst.standard[0], inst.customized[0]),
            "mode": ConnectivityMode.undirected_connected()}


def unicast_solve(bundle: dict, arm: str) -> ArmRecord:
    return _from_cli(cli.run_solver(bundle, UNICAST_RUN, arm))


def unicast_check(bundle, arms, tracer, arm_spans) -> dict:
    model = checks.UnicastModel(bundle["instance"].scenario)
    out = {}
    for arm, rec in arms.items():
        found = tracer.descendants(arm_spans[arm], "games.reference")
        x_ref, lam = tracer.spans[found[0]].result
        res = rec.detail
        fails = checks.check_unicast_reference(model, x_ref, lam)
        fails += checks.check_at_most(f"{arm} max_consensus_invariant",
                                      res["trace"].meta["max_consensus_invariant"], 1e-10)
        if not res["certified"]["preconditioner_positive"]:
            fails.append(f"{arm}: preconditioner not positive definite")
        if arm == "customized":
            fails += checks.check_within(arm, res["solution"], x_ref, UNICAST_RUN["tol"])
            if "standard" in arms:
                fails += checks.check_cheaper(rec.unicast_cost, arms["standard"].unicast_cost)
        out[arm] = fails
    return out


# separable-tracking: random_separable 50 agents x 150 components at
# sparsity 0.05 on the complete graph, augdgm for a fixed 3000 steps
SEPARABLE_RUN = {"algorithm": "augdgm", "max_iters": 3000}
SEPARABLE_TOL = 1e-2


def separable_setup(seed: int) -> dict:
    base, _ = scenarios.build_random_separable(50, 150, 0.05, 0)
    rng = np.random.default_rng(seed)
    problem = relabel_quadratic(base, rng.permutation(base.num_agents),
                                rng.permutation(base.num_components) + 1)
    comm = Graph.complete(range(1, problem.num_agents + 1))
    interference = _interference(problem.footprints)
    partition = Partition(problem.component_dims)
    std = layout.standard_layout(comm, interference, partition, weight_scheme="metropolis")
    cust = design.design_layout(
        comm, interference, partition,
        design.DesignCriterion(ConnectivityMode.undirected_connected(), objective="min_edges"),
        weight_scheme="metropolis")
    return {"kind": "random_separable", "problem": problem,
            "reference": problem.solve_reference(), "layouts": (std, cust),
            "mode": ConnectivityMode.undirected_connected()}


def separable_solve(bundle: dict, arm: str) -> ArmRecord:
    return _from_cli(cli.run_solver(bundle, SEPARABLE_RUN, arm))


def separable_check(bundle, arms, tracer, arm_spans) -> dict:
    y_star = checks.quadratic_optimum(bundle["problem"])
    out = {}
    for arm, rec in arms.items():
        fails = checks.check_within(arm, rec.detail["solution"], y_star, SEPARABLE_TOL)
        if arm == "customized" and "standard" in arms:
            fails += checks.check_cheaper(rec.unicast_cost, arms["standard"].unicast_cost)
        out[arm] = fails
    return out


# sensor-pushsum: the acceptance test's regression instance, push-sum over
# 3-periodic designs until merit_v reaches PUSHSUM_STOP. Only source ids are
# relabelled: the schedule splits the sorted sensor edge list, so renaming
# sensors would change the schedule itself.
SENSOR_SCENARIO = dict(num_sensors=20, num_sources=8, comm_radius_min=0.35,
                       output_dim=3, noise_var=0.01)
PUSHSUM_STOP = 1.5e-4


def sensor_setup(seed: int) -> dict:
    inst = scenarios.build_regression(scenarios.SensorScenario(**SENSOR_SCENARIO))
    base = inst.problem
    problem = relabel_quadratic(base, range(base.num_agents),
                                np.random.default_rng(seed).permutation(base.num_components) + 1)
    comm = inst.geometry.comm
    interference = _interference(problem.footprints)
    partition = Partition(problem.component_dims)
    std = layout.standard_layout(comm, interference, partition, weight_scheme="column")
    cust = design.design_layout(
        comm, interference, partition,
        design.DesignCriterion(ConnectivityMode.strongly_connected(), objective="min_nodes",
                               augment=True),
        weight_scheme="column")
    edges = sorted(e for e in comm.edges if e[0] != e[1])
    snapshots = [Graph.directed_graph(comm.nodes, edges[q::3]) for q in range(3)]
    return {"problem": problem, "reference": problem.solve_reference(),
            "layouts": {"standard": std, "customized": cust}, "snapshots": snapshots}


def sensor_solve(state: dict, arm: str) -> ArmRecord:
    lay, problem, reference = state["layouts"][arm], state["problem"], state["reference"]
    schedule = optim.example_design_schedule(lay, state["snapshots"])
    final, trace = optim.pushsum_solve(
        lay, schedule, problem, optim.power_step_schedule(1.0, 0.51),
        max_iters=100000, reference=reference, stop_tol=PUSHSUM_STOP,
        merit=lambda hat: optim.merit_v(lay, problem, hat, reference), check_every=100)
    return ArmRecord(int(trace.last("k")) + 1, lay.communication_cost("unicast"),
                     lay.mean_estimate_count(),
                     {"state": final, "trace": trace, "solution": lay.component_means(final.y)})


def sensor_check(state, arms, tracer, arm_spans) -> dict:
    problem = state["problem"]
    y_star = checks.quadratic_optimum(problem)
    radius = checks.gap_radius(problem, PUSHSUM_STOP)
    out = {}
    for arm, rec in arms.items():
        meta = rec.detail["trace"].meta
        fails = checks.check_within(arm, rec.detail["solution"], y_star, radius)
        fails += checks.check_at_most(f"{arm} max_mass_error", meta["max_mass_error"], 1e-10)
        fails += checks.check_at_most(f"{arm} max_averaged_process_error",
                                      meta["max_averaged_process_error"], 1e-10)
        fails += checks.check_mass(state["layouts"][arm], rec.detail["state"].q)
        if arm == "customized" and "standard" in arms:
            fails += checks.check_cheaper(rec.unicast_cost, arms["standard"].unicast_cost)
        out[arm] = fails
    return out


WORKLOADS = {
    "unicast-gne": Workload(unicast_setup, unicast_solve, unicast_check),
    "separable-tracking": Workload(separable_setup, separable_solve, separable_check),
    "sensor-pushsum": Workload(sensor_setup, sensor_solve, sensor_check),
}
