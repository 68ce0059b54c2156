"""Tests for the experiment generators."""

import hashlib

import numpy as np
import pytest

from endnet.design import DesignInfeasible, try_minimal_layout
from endnet.games import build_gne_operators, extended_pseudo_gradient, gne_step, initial_gne_state
from endnet.layout import ConnectivityMode, Partition
from endnet.scenarios import (
    ScenarioError,
    SensorScenario,
    UnicastScenario,
    _sigmoid,
    build_lasso,
    build_random_quadratic_game,
    build_random_separable,
    build_regression,
    build_unicast,
    reference_scheme_unicast,
    sample_sensor_geometry,
    sample_unicast,
)


# -- unicast ----------------------------------------------------------------


def test_reference_scheme_structure():
    sc = reference_scheme_unicast(seed=0)
    assert sc.paths[7] == ()
    assert sc.users_of((4, 5)) == (3, 5)
    # the two users of the shared link are not communication neighbors
    assert not sc.comm.has_edge(3, 5) and not sc.comm.has_edge(5, 3)


def test_reference_scheme_customized_has_relay():
    inst = build_unicast(reference_scheme_unicast(seed=0))
    p = inst.labels[(4, 5)]
    holders = inst.customized[0].holders(p)
    # users 3 and 5 plus a relay in between
    assert 3 in holders and 5 in holders
    assert set(holders) - {3, 5}


def test_relay_agent_holds_nothing_customized():
    inst = build_unicast(reference_scheme_unicast(seed=0))
    assert inst.customized[0].held_by(7) == ()
    # the baseline assigns everything to everyone
    assert len(inst.standard[0].held_by(7)) == len(inst.labels)


def test_standard_estimate_count_is_p():
    inst = build_unicast(reference_scheme_unicast(seed=0))
    P = len(inst.labels)
    assert inst.standard[0].mean_estimate_count() == P
    assert inst.customized[0].mean_estimate_count() < P


def test_unicast_layouts_validate():
    inst = build_unicast(reference_scheme_unicast(seed=0))
    mode = ConnectivityMode.undirected_connected()
    assert inst.standard[0].validate(mode) == []
    assert inst.customized[0].validate(mode) == []


def test_unicast_gradient_matches_finite_differences():
    inst = build_unicast(reference_scheme_unicast(seed=0))
    game = inst.game
    n = game.num_agents
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        x = rng.uniform(size=n)
        F = game.pseudo_gradient(x)
        i = int(rng.integers(1, n + 1))
        xp, xm = x.copy(), x.copy()
        xp[i - 1] += h
        xm[i - 1] -= h
        fd = (inst.cost(i, xp) - inst.cost(i, xm)) / (2 * h)
        assert abs(fd - F[i - 1]) <= 1e-5 * max(1.0, abs(fd))


def test_unicast_fast_gradient_matches_generic():
    inst = build_unicast(sample_unicast(9, seed=4))
    sc, labels = inst.scenario, inst.labels
    ops = build_gne_operators(inst.game, *inst.standard)
    state = initial_gne_state(ops, np.full(9, 0.3))
    for _ in range(25):
        state = gne_step(ops, state, 0.1, 1e-3)
    sigma_hat = state.sigma_hat(ops)
    fast = extended_pseudo_gradient(ops, state.x, sigma_hat)
    # per user, from its own copies: -s / (x_i + 1) + sum_p psi_p (g + x_i g (1 - g))
    # over its links p, with g the sigmoid of its copy of link p's total
    generic = np.empty(9)
    for i in range(1, 10):
        xi = state.x[i - 1]
        generic[i - 1] = -sc.utility_scale / (xi + 1.0)
        for link in {tuple(sorted(e)) for e in sc.paths[i]}:
            g = 1.0 / (1.0 + np.exp(-sigma_hat[ops.sigma_layout.block_slice(labels[link], i)][0]))
            generic[i - 1] += sc.psi[link] * (g + xi * g * (1.0 - g))
    assert np.max(np.abs(fast - generic)) <= 1e-12


def closed_form_unicast_gradient(inst, x, sigma):
    """Per pair (p, i) of the sorted pattern, psi_p (s + x_i s (1 - s)) with
    s the scalar sigmoid of the pair's value, added to user i's
    -scale / (x_i + 1)."""
    sc = inst.scenario
    link = {p: e for e, p in inst.labels.items()}
    out = -sc.utility_scale / (x + 1.0)
    for k, (p, i) in enumerate(sorted(inst.game.interference_sigma)):
        s = _sigmoid(float(sigma[k]))
        out[i - 1] += sc.psi[link[p]] * (s + x[i - 1] * s * (1.0 - s))
    return out


@pytest.mark.parametrize("scenario", [reference_scheme_unicast(0), sample_unicast(20, 0)])
def test_compiled_unicast_gradient_matches_the_scalar_closed_form(scenario):
    """The compiled gradient against the closed form at random rates in
    [0, 1] and pair values of every magnitude up to 1e3 (both saturated
    tails included), raising no floating-point error on the way."""
    inst = build_unicast(scenario)
    n, pairs = scenario.num_users, len(inst.game.interference_sigma)
    rng = np.random.default_rng(11)
    for scale in (0.0, 1e-3, 1.0, 30.0, 1e3):
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, n)
            sigma = rng.uniform(-scale, scale, pairs)
            sigma[:2] = -scale, scale
            with np.errstate(all="raise"):
                fast = inst.game.gradient(x, sigma)
            assert np.max(np.abs(fast - closed_form_unicast_gradient(inst, x, sigma))) <= 1e-13


def test_compiled_unicast_gradient_returns_independent_arrays_and_checks_shapes():
    inst = build_unicast(sample_unicast(20, 0))
    gradient, pairs = inst.game.gradient, len(inst.game.interference_sigma)
    rng = np.random.default_rng(12)
    x1, x2 = rng.uniform(size=20), rng.uniform(size=20)
    s1, s2 = rng.standard_normal(pairs), rng.standard_normal(pairs)
    first = gradient(x1, s1)
    kept = first.copy()
    second = gradient(x2, s2)
    assert first is not second and not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert np.array_equal(gradient(x1, s1), kept)
    for x, sigma in ((x1, s1[:1]), (x1, s1[:-1]), (x1, np.append(s1, 0.0)), (x1[:1], s1),
                     (x1[:-1], s1)):
        with pytest.raises(ValueError, match="shape"):
            gradient(x, sigma)


def test_unicast_path_validation():
    sc = reference_scheme_unicast(seed=0)
    bad = dict(sc.paths)
    bad[1] = ((1, 2), (3, 4))  # not consecutive
    with pytest.raises(ScenarioError):
        UnicastScenario(comm=sc.comm, paths=bad, psi=sc.psi, capacities=sc.capacities)
    bad[1] = ((1, 5),)  # not a network edge
    with pytest.raises(ScenarioError):
        UnicastScenario(comm=sc.comm, paths=bad, psi=sc.psi, capacities=sc.capacities)


def test_unicast_missing_penalty_rejected():
    sc = reference_scheme_unicast(seed=0)
    psi = dict(sc.psi)
    psi.pop(sorted(psi)[0])
    with pytest.raises(ScenarioError):
        UnicastScenario(comm=sc.comm, paths=sc.paths, psi=psi, capacities=sc.capacities)


def test_unicast_all_paths_empty_rejected():
    sc = reference_scheme_unicast(seed=0)
    empty = {i: () for i in sc.paths}
    scenario = UnicastScenario(comm=sc.comm, paths=empty, psi={}, capacities={})
    with pytest.raises(ScenarioError):
        build_unicast(scenario)


def test_unicast_json_roundtrip():
    sc = reference_scheme_unicast(seed=3)
    again = UnicastScenario.from_json_dict(sc.to_json_dict())
    assert again.paths == sc.paths
    assert again.psi == sc.psi
    assert again.capacities == sc.capacities
    assert again.comm.edges == sc.comm.edges


def test_sample_unicast_deterministic_and_bounded_paths():
    a = sample_unicast(12, seed=5)
    b = sample_unicast(12, seed=5)
    assert a.paths == b.paths and a.psi == b.psi and a.capacities == b.capacities
    assert all(len(seq) <= 4 for seq in a.paths.values())
    c = sample_unicast(12, seed=6)
    assert c.paths != a.paths


# sha256 prefixes of (paths, psi, capacities) for every (num_users, seed)
# the tests, the CLI tests and the benchmark draw, plus a 200-user network,
# as the networkx-routed generator produced them
ROUTE_DIGESTS = {
    (20, 0): "5a700f6b87a10fba",
    (9, 4): "9ce7a83dfba006b7",
    (8, 3): "f217924ac5eadcce",
    (10, 0): "2877266986054a8b",
    (10, 1): "5bd69ed328c9e6e4",
    (10, 2): "31defab4f6425dee",
    (10, 3): "e03670d9fedb9658",
    (10, 4): "faa8d3a10c6e8d55",
    (12, 0): "f58f42f49b7e09f4",
    (12, 1): "72b136edcd7a49e5",
    (12, 2): "0829cd49fd074bf9",
    (12, 3): "071af75310818d3d",
    (12, 4): "63f89314c6af0ca2",
    (12, 5): "93967c7934c1ad10",
    (12, 6): "0f941859fc424348",
    (12, 7): "c6bc57205d71dd9b",
    (12, 8): "3c52d319285458c0",
    (12, 9): "c7a8a0b3c22ca46b",
    (200, 0): "c28309ee68bd54b6",
}


def route_digest(sc):
    payload = (tuple(sorted(sc.paths.items())), tuple(sorted(sc.psi.items())),
               tuple(sorted(sc.capacities.items())))
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


@pytest.mark.parametrize("num_users,seed", sorted(ROUTE_DIGESTS))
def test_sample_unicast_routes_are_pinned(num_users, seed):
    """Routes, congestion coefficients and capacities stay bit for bit."""
    assert route_digest(sample_unicast(num_users, seed)) == ROUTE_DIGESTS[num_users, seed]


def test_sampled_instances_build_on_several_seeds():
    for seed in range(5):
        inst = build_unicast(sample_unicast(10, seed=seed))
        mode = ConnectivityMode.undirected_connected()
        assert inst.customized[0].validate(mode) == []
        assert inst.customized[0].communication_cost("unicast") < inst.standard[
            0
        ].communication_cost("unicast")


# -- sensor network ---------------------------------------------------------


def _desk_scenario(**kw):
    defaults = dict(num_sensors=20, num_sources=8, output_dim=10,
                    comm_radius_min=0.35, seed=0)
    defaults.update(kw)
    return SensorScenario(**defaults)


def test_geometry_deterministic_and_consistent():
    sc = _desk_scenario()
    a = sample_sensor_geometry(sc)
    b = sample_sensor_geometry(sc)
    assert np.array_equal(a.sensor_pos, b.sensor_pos)
    assert a.footprints == b.footprints
    # footprints agree with a direct distance computation
    for i, fp in enumerate(a.footprints):
        d = np.linalg.norm(a.source_pos - a.sensor_pos[i], axis=1)
        assert fp == tuple(int(p + 1) for p in np.flatnonzero(d <= sc.sensing_radius))


def test_geometry_comm_edges_follow_radii():
    geo = sample_sensor_geometry(_desk_scenario())
    pos = geo.sensor_pos
    for u, v in geo.comm.edges:
        if u != v:
            assert np.linalg.norm(pos[u - 1] - pos[v - 1]) <= geo.comm_radii[u - 1]


def test_geometry_disconnected_raises():
    with pytest.raises(ScenarioError):
        sample_sensor_geometry(
            _desk_scenario(comm_radius_min=0.01, comm_radius_width=0.0, max_resample=5)
        )


def test_orphan_sources_attached_and_flagged():
    sc = _desk_scenario(num_sources=12, sensing_radius=0.02, max_resample=5)
    geo = sample_sensor_geometry(sc)
    assert geo.notes  # fallback path taken
    for p in range(1, sc.num_sources + 1):
        assert any(p in fp for fp in geo.footprints)


def test_regression_value_matches_direct_formula():
    inst = build_regression(_desk_scenario())
    geo = inst.geometry
    y_bar, mats, reads = None, None, None
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = rng.uniform(size=8)
        total = inst.problem.total_value(y)
        direct = 0.0
        for i, fp in enumerate(geo.footprints, start=1):
            blocks = {p: y[p - 1 : p] for p in fp}
            # recompute from the agent oracle itself is circular; use the
            # quadratic data instead
            direct += inst.problem.value(i, blocks)
        assert np.isclose(total, direct)


def test_regression_residual_form():
    """f_i equals the squared sensing residual built from the raw data."""
    sc = _desk_scenario()
    inst = build_regression(sc)
    geo = inst.geometry
    rng = np.random.default_rng(2)
    y = rng.uniform(size=sc.num_sources)
    # reconstruct H_i and h_i from the quadratic coefficients:
    # M = 2 H'H, c = -2 H'h, const = h'h, so f_i(y) = ||h - H y||^2
    for i, fp in enumerate(geo.footprints, start=1):
        if not fp:
            continue
        blocks = {p: y[p - 1 : p] for p in fp}
        val = inst.problem.value(i, blocks)
        yv = np.concatenate([blocks[p] for p in fp])
        M = np.zeros((len(fp), len(fp)))
        c = np.zeros(len(fp))
        for a, p in enumerate(fp):
            c[a] = inst.problem.linears[i - 1][p][0]
            for b, q in enumerate(fp):
                M[a, b] = inst.problem.quadratics[i - 1][(p, q)][0, 0]
        expect = 0.5 * yv @ M @ yv + c @ yv + inst.problem.constants[i - 1]
        assert np.isclose(val, expect)
        # and the quadratic is PSD with the right structure
        assert np.min(np.linalg.eigvalsh(M)) >= -1e-10


def test_regression_reference_first_order():
    inst = build_regression(_desk_scenario())
    y = inst.problem.solve_reference()
    assert np.max(np.abs(inst.problem.total_smooth_gradient(y))) <= 1e-8
    # estimate should sit near the true signals (noise-limited)
    assert np.linalg.norm(y - inst.signals) <= 0.5


def test_regression_layouts():
    inst = build_regression(_desk_scenario())
    mode = ConnectivityMode.strongly_connected()
    assert inst.standard.validate(mode) == []
    assert inst.customized.validate(mode) == []
    assert inst.customized.communication_cost("broadcast") <= inst.standard.communication_cost(
        "broadcast"
    )


def test_lasso_weights_and_sparsity():
    sc = SensorScenario(num_sensors=10, num_sources=20, output_dim=1,
                        comm_radius_min=0.35, seed=1)
    inst = build_lasso(sc)
    geo = inst.geometry
    needers = {p: sum(1 for fp in geo.footprints if p in fp)
               for p in range(1, sc.num_sources + 1)}
    for i, fp in enumerate(geo.footprints, start=1):
        for p in fp:
            assert inst.problem.l1_weight(i, p) == pytest.approx(1.0 / needers[p])
    # the emitted signal is sparse
    assert np.sum(np.abs(inst.signals) > 0) == round(0.3 * sc.num_sources)


def test_lasso_reference_subgradient_optimality():
    sc = SensorScenario(num_sensors=10, num_sources=20, output_dim=1,
                        comm_radius_min=0.35, seed=1)
    inst = build_lasso(sc)
    y = inst.problem.solve_reference(tol=1e-12)
    g = inst.problem.total_smooth_gradient(y)
    w = np.zeros(sc.num_sources)
    for i in range(1, inst.problem.num_agents + 1):
        for p in inst.problem.footprint(i):
            w[p - 1] += inst.problem.l1_weight(i, p)
    for p in range(sc.num_sources):
        if abs(y[p]) > 1e-9:
            assert abs(g[p] + w[p] * np.sign(y[p])) <= 1e-6
        else:
            assert abs(g[p]) <= w[p] + 1e-6


def test_lasso_complete_interference_layouts_coincide():
    sc = SensorScenario(num_sensors=10, num_sources=20, output_dim=1,
                        comm_radius_min=0.35, sensing_radius=1.5, seed=1)
    inst = build_lasso(sc)
    assert inst.standard.to_json_dict() == inst.customized.to_json_dict()


def test_dense_comm_allows_minimal_layout():
    sc = _desk_scenario(comm_radius_min=0.6)
    inst = build_regression(sc)
    geo = inst.geometry
    layout, violations = try_minimal_layout(
        geo.comm,
        geo.interference(),
        Partition((1,) * sc.num_sources),
        ConnectivityMode.strongly_connected(),
        weight_scheme="column",
    )
    assert layout is not None, violations


# -- synthetic instances ----------------------------------------------------


def test_random_game_equilibrium_and_constants():
    for seed in range(5):
        game, x_star = build_random_quadratic_game(6, 0.4, seed)
        assert np.max(np.abs(game.pseudo_gradient(x_star))) <= 1e-10
        # recover the linear map column by column and cross-check constants
        n = game.num_agents
        G = np.zeros((n, n))
        base = game.pseudo_gradient(np.zeros(n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            G[:, j] = game.pseudo_gradient(e) - base
        assert game.mu == pytest.approx(float(np.linalg.eigvalsh((G + G.T) / 2).min()))
        assert game.theta == pytest.approx(float(np.linalg.norm(G, 2)))
        assert game.mu > 0


def test_random_game_dense_when_sparsity_one():
    game, _ = build_random_quadratic_game(5, 1.0, 0)
    for i in range(1, 6):
        assert game.footprint(i) == tuple(range(1, 6))


def test_random_separable_optimum_and_coverage():
    for seed in range(3):
        problem, y_star = build_random_separable(6, 9, 0.5, seed)
        assert np.max(np.abs(problem.total_smooth_gradient(y_star))) <= 1e-8
        for p in range(1, 10):
            assert any(p in problem.footprint(i) for i in range(1, 7))


def test_generators_deterministic():
    g1, x1 = build_random_quadratic_game(6, 0.4, 9)
    g2, x2 = build_random_quadratic_game(6, 0.4, 9)
    assert np.array_equal(x1, x2)
    p1, y1 = build_random_separable(5, 7, 0.6, 9)
    p2, y2 = build_random_separable(5, 7, 0.6, 9)
    assert np.array_equal(y1, y2)
    assert p1.footprints == p2.footprints


def separable_digest(problem, reference):
    """sha256 prefix of a random_separable instance: its footprints, the
    bytes of every quadratic and linear block in key order, and the bytes of
    its reference optimum."""
    h = hashlib.sha256(repr(problem.footprints).encode())
    for quad, lin in zip(problem.quadratics, problem.linears):
        for key in sorted(quad):
            h.update(repr(key).encode())
            h.update(np.ascontiguousarray(quad[key], dtype=float).tobytes())
        for p in sorted(lin):
            h.update(repr(p).encode())
            h.update(np.ascontiguousarray(lin[p], dtype=float).tobytes())
    h.update(np.ascontiguousarray(reference, dtype=float).tobytes())
    return h.hexdigest()[:16]


# (num_agents, num_components, sparsity, seed): two small instances, the
# separable-tracking benchmark's and the CI design smoke run's
SEPARABLE_DIGESTS = {
    (7, 3, 0.5, 9): "f072d60a8aa30be4",
    (30, 5, 0.5, 3): "205e30ce8d64619b",
    (50, 150, 0.05, 0): "6a4e00977a3f94a9",
    (60, 300, 0.03, 0): "af128164a19ee7dd",
}


@pytest.mark.parametrize("args", sorted(SEPARABLE_DIGESTS))
def test_random_separable_instances_are_pinned(args):
    """Footprints, quadratics, linears and the reference stay bit for bit."""
    assert separable_digest(*build_random_separable(*args)) == SEPARABLE_DIGESTS[args]
