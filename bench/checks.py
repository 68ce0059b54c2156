"""Correctness checks that recompute what they test from the inputs.

None of these trusts a value the solver reports about its own answer:
the unicast pseudo-gradient and link constraints are rebuilt here from the
scenario's routes, congestion coefficients, capacities and utility scale;
quadratic optima come from a dense solve assembled here from the problem's
blocks. Each check returns a list of failure messages (empty when it holds).
"""

from __future__ import annotations

import numpy as np


def _canonical(edge):
    u, v = edge
    return (u, v) if u <= v else (v, u)


class UnicastModel:
    """The rate-allocation game of a unicast scenario, in matrix form.

    ``A[l, i] = 1`` when user ``i`` routes over link ``l`` (links sorted
    canonically, which is also the order of the game's multipliers);
    user i's cost is ``-s log(x_i + 1) + sum_l A[l, i] psi_l x_i sig(A x)_l``
    and link l carries at most ``capacity_l``.
    """

    def __init__(self, sc):
        links = sorted({_canonical(e) for seq in sc.paths.values() for e in seq})
        row = {e: k for k, e in enumerate(links)}
        users = sorted(sc.paths)
        self.A = np.zeros((len(links), len(users)))
        for col, i in enumerate(users):
            for e in {_canonical(e) for e in sc.paths[i]}:
                self.A[row[e], col] = 1.0
        self.psi = np.array([sc.psi[e] for e in links])
        self.capacity = np.array([sc.capacities[e] for e in links])
        self.scale = float(sc.utility_scale)

    def pseudo_gradient(self, x: np.ndarray) -> np.ndarray:
        s = 1.0 / (1.0 + np.exp(-(self.A @ x)))
        return (-self.scale / (x + 1.0) + self.A.T @ (self.psi * s)
                + x * (self.A.T @ (self.psi * s * (1.0 - s))))

    def kkt_residual(self, x: np.ndarray, lam: np.ndarray) -> float:
        """Stationarity on the box [0, 1], primal and dual feasibility and
        complementary slackness, summed."""
        drive = self.pseudo_gradient(x) + self.A.T @ lam
        stationarity = np.linalg.norm(np.clip(x - drive, 0.0, 1.0) - x)
        gap = self.A @ x - self.capacity
        return float(stationarity + np.linalg.norm(np.maximum(gap, 0.0))
                     + np.linalg.norm(np.minimum(lam, 0.0)) + abs(lam @ gap)
                     + np.linalg.norm(np.clip(x, 0.0, 1.0) - x))


def check_unicast_reference(model: UnicastModel, x, lam, tol: float = 1e-6) -> list[str]:
    r = model.kkt_residual(np.asarray(x, float), np.asarray(lam, float))
    return [] if r <= tol else [f"reference KKT residual {r:.3e} > {tol:.0e}"]


def check_within(name: str, x, reference, tol: float) -> list[str]:
    d = float(np.linalg.norm(np.asarray(x, float) - np.asarray(reference, float)))
    return [] if d <= tol else [f"{name}: distance {d:.3e} to the reference > {tol:.3e}"]


def check_at_most(name: str, value: float, limit: float) -> list[str]:
    return [] if value <= limit else [f"{name} = {value:.3e} > {limit:.0e}"]


def check_cheaper(cust_cost: float, std_cost: float) -> list[str]:
    if cust_cost < std_cost:
        return []
    return [f"customized arm sends {cust_cost:g} scalars per round, standard {std_cost:g}"]


def quadratic_system(problem) -> tuple[np.ndarray, np.ndarray]:
    """Dense (H, c) of sum_i 1/2 y'H_i y + c_i'y from the problem's blocks."""
    starts = np.concatenate(([0], np.cumsum(problem.component_dims)))
    n = int(starts[-1])
    H = np.zeros((n, n))
    c = np.zeros(n)
    for quad, lin in zip(problem.quadratics, problem.linears):
        for (p, q), blk in quad.items():
            H[starts[p - 1]:starts[p], starts[q - 1]:starts[q]] += blk
        for p, vec in lin.items():
            c[starts[p - 1]:starts[p]] += vec
    return (H + H.T) / 2.0, c


def quadratic_optimum(problem) -> np.ndarray:
    H, c = quadratic_system(problem)
    return np.linalg.solve(H, -c)


def gap_radius(problem, gap: float) -> float:
    """Largest distance to the optimum of a point whose objective gap is at
    most ``gap``: f(y) - f* >= lambda_min(H) |y - y*|^2 / 2."""
    H, _ = quadratic_system(problem)
    return float(np.sqrt(2.0 * gap / np.linalg.eigvalsh(H)[0]))


def check_mass(layout, q) -> list[str]:
    """Push-sum weights keep their per-component mass: sum_j q_p[j] = N_p."""
    worst = max(abs(float(np.sum(q[p])) - layout.copies(p)) for p in layout.partition.components)
    return check_at_most("final push-sum mass error", worst, 1e-10)
