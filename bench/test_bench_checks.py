"""The benchmark's checks accept right answers and reject wrong ones.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from endnet.games import solve_vgne_centralized
from endnet.graphs import Graph
from endnet.layout import Partition, standard_layout
from endnet.scenarios import build_random_separable, build_unicast, reference_scheme_unicast

import checks
import workloads


@pytest.fixture(scope="module")
def unicast():
    sc = reference_scheme_unicast(0)
    inst = build_unicast(sc)
    x, lam = solve_vgne_centralized(inst.game, np.zeros(sc.num_users), step=0.2,
                                    max_iters=200000)
    return sc, inst, x, lam


def test_unicast_model_matches_the_game(unicast):
    sc, inst, _, _ = unicast
    model = checks.UnicastModel(sc)
    A, a = inst.game.constraint_matrix()
    x = np.random.default_rng(0).uniform(size=sc.num_users)
    np.testing.assert_allclose(model.pseudo_gradient(x), inst.game.pseudo_gradient(x),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(model.A @ x - model.capacity, A @ x - a, atol=1e-12)


def test_kkt_check_accepts_the_reference_and_rejects_wrong_answers(unicast):
    sc, _, x, lam = unicast
    model = checks.UnicastModel(sc)
    assert checks.check_unicast_reference(model, x, lam) == []
    assert np.max(lam) > 1e-2  # some link is congested, so a zero multiplier is wrong
    assert checks.check_unicast_reference(model, x, np.zeros_like(lam))
    assert checks.check_unicast_reference(model, x + 1e-4 * np.eye(len(x))[0], lam)
    assert checks.check_unicast_reference(model, x, lam + 1e-4)


def test_relabelled_unicast_keeps_its_equilibrium(unicast):
    sc, _, x, lam = unicast
    rng = np.random.default_rng(5)
    perm = np.random.default_rng(5).permutation(sc.num_users) + 1
    moved = workloads.relabel_unicast(sc, rng)
    x_moved = np.empty_like(x)
    x_moved[perm - 1] = x
    # links are renamed too, so the multipliers follow their links
    links = sorted({checks._canonical(e) for seq in sc.paths.values() for e in seq})
    moved_links = sorted({checks._canonical(e) for seq in moved.paths.values() for e in seq})
    where = {checks._canonical((int(perm[u - 1]), int(perm[v - 1]))): k
             for k, (u, v) in enumerate(links)}
    lam_moved = np.array([lam[where[e]] for e in moved_links])
    assert checks.check_unicast_reference(checks.UnicastModel(moved), x_moved, lam_moved) == []


def test_quadratic_optimum_is_independent_and_check_rejects_a_perturbed_solution():
    problem, reference = build_random_separable(6, 8, 0.5, 0)
    y_star = checks.quadratic_optimum(problem)
    np.testing.assert_allclose(y_star, reference, atol=1e-10)
    assert checks.check_within("arm", y_star, reference, 1e-8) == []
    assert checks.check_within("arm", y_star + 1e-3, reference, 1e-3)


def test_relabelled_quadratic_has_the_permuted_optimum():
    problem, reference = build_random_separable(6, 8, 0.5, 1)
    rng = np.random.default_rng(3)
    order, perm = rng.permutation(6), rng.permutation(8) + 1
    moved = workloads.relabel_quadratic(problem, order, perm)
    expected = np.empty_like(reference)
    expected[perm - 1] = reference
    np.testing.assert_allclose(checks.quadratic_optimum(moved), expected, atol=1e-10)


def test_gap_radius_bounds_the_distance_to_the_optimum():
    problem, reference = build_random_separable(6, 8, 0.5, 2)
    H, c = checks.quadratic_system(problem)
    vals, vecs = np.linalg.eigh(H)

    def gap(y):
        return 0.5 * y @ H @ y + c @ y - (0.5 * reference @ H @ reference + c @ reference)

    rng = np.random.default_rng(0)
    for _ in range(20):
        y = reference + 1e-2 * rng.standard_normal(8)
        assert np.linalg.norm(y - reference) <= checks.gap_radius(problem, gap(y)) * (1 + 1e-9)
    # tight along the softest direction: a slightly farther point fails
    y = reference + 1e-2 * vecs[:, 0]
    radius = checks.gap_radius(problem, gap(y))
    assert checks.check_within("arm", y, reference, radius * (1 + 1e-6)) == []
    assert checks.check_within("arm", y, reference, radius * (1 - 1e-3))


def test_invariant_and_cost_checks_reject_violations():
    assert checks.check_at_most("max_mass_error", 1e-12, 1e-10) == []
    assert checks.check_at_most("max_mass_error", 1e-9, 1e-10)
    assert checks.check_cheaper(10.0, 20.0) == []
    assert checks.check_cheaper(20.0, 20.0)


def test_mass_check_rejects_lost_weight():
    problem, _ = build_random_separable(5, 4, 0.6, 0)
    lay = standard_layout(Graph.complete(range(1, 6)),
                          workloads._interference(problem.footprints), Partition((1,) * 4))
    q = {p: np.ones(lay.copies(p)) for p in lay.partition.components}
    assert checks.check_mass(lay, q) == []
    q[2][0] -= 1e-6
    assert checks.check_mass(lay, q)
