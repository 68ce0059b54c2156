"""Experiment generators: rate allocation, sensor regression, random instances.

Each builder returns the problem object together with a matched pair of
layouts -- the sparsity-unaware baseline (every agent keeps a full copy of
the decision variable) and a customized one produced by the exchange-graph
design heuristics.  Generators are pure functions of their seed, so a
config + seed pair reproduces the instance bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .design import DesignCriterion, design_layout
from .games import AggregativeGameSpec, BoxSet, GameSpec
from .graphs import Graph, bidirectional_bfs, is_connected_undirected, is_strongly_connected
from .layout import ConnectivityMode, CsrOperator, EndLayout, Partition, standard_layout
from .optim import LassoSeparable, QuadraticSeparable


class ScenarioError(ValueError):
    """Raised on malformed scenario configurations."""


def _canonical(edge: tuple[int, int]) -> tuple[int, int]:
    u, v = edge
    return (u, v) if u <= v else (v, u)


# -- unicast rate allocation ------------------------------------------------


@dataclass(frozen=True)
class UnicastScenario:
    """Bandwidth allocation over fixed routes on a shared network.

    Each user ``i`` sends at rate ``x_i in [0, 1]`` along a walk of
    consecutive edges starting at its own node; links accumulate the rates
    of every route crossing them and charge a congestion penalty, and each
    link's total rate is capped by its capacity.
    """

    comm: Graph
    paths: Mapping[int, tuple[tuple[int, int], ...]]
    psi: Mapping[tuple[int, int], float]       # congestion coefficient per link
    capacities: Mapping[tuple[int, int], float]
    utility_scale: float = 10.0
    alpha: float = 0.1
    beta: float = 1e-3

    def __post_init__(self):
        if self.comm.directed:
            raise ScenarioError("communication graph must be undirected")
        if not is_connected_undirected(self.comm):
            raise ScenarioError("communication graph must be connected")
        paths = {i: tuple(tuple(e) for e in seq) for i, seq in dict(self.paths).items()}
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "psi", {_canonical(e): float(w)
                                         for e, w in dict(self.psi).items()})
        object.__setattr__(self, "capacities", {_canonical(e): float(c)
                                                for e, c in dict(self.capacities).items()})
        if set(paths) != set(self.comm.nodes):
            raise ScenarioError("paths must be given for every node (possibly empty)")
        for i, seq in paths.items():
            at = i
            for u, v in seq:
                if u != at:
                    raise ScenarioError(f"path of user {i} is not a consecutive walk")
                if u == v or (u, v) not in self.comm.edges:
                    raise ScenarioError(f"path of user {i} leaves the network")
                at = v
        active = self.active_links
        for name, table in (("psi", self.psi), ("capacities", self.capacities)):
            missing = set(active) - set(table)
            if missing:
                raise ScenarioError(f"{name} missing for links {sorted(missing)}")
        if any(c <= 0 for c in self.capacities.values()):
            raise ScenarioError("capacities must be positive")

    @property
    def num_users(self) -> int:
        return len(self.comm.nodes)

    @property
    def active_links(self) -> tuple[tuple[int, int], ...]:
        """Links carried by at least one route, sorted canonically."""
        used = {_canonical(e) for seq in self.paths.values() for e in seq}
        return tuple(sorted(used))

    def link_labels(self) -> dict[tuple[int, int], int]:
        """Relabeling of the active links as components 1..P."""
        return {e: p for p, e in enumerate(self.active_links, start=1)}

    def users_of(self, link: tuple[int, int]) -> tuple[int, ...]:
        link = _canonical(link)
        return tuple(sorted(
            i for i, seq in self.paths.items()
            if any(_canonical(e) == link for e in seq)
        ))

    def to_json_dict(self) -> dict:
        return {
            "comm": self.comm.to_json_dict(),
            "paths": {str(i): [list(e) for e in seq] for i, seq in sorted(self.paths.items())},
            "psi": [[u, v, w] for (u, v), w in sorted(self.psi.items())],
            "capacities": [[u, v, c] for (u, v), c in sorted(self.capacities.items())],
            "utility_scale": self.utility_scale,
            "alpha": self.alpha,
            "beta": self.beta,
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "UnicastScenario":
        return cls(
            comm=Graph.from_json_dict(d["comm"]),
            paths={int(i): tuple(tuple(e) for e in seq) for i, seq in d["paths"].items()},
            psi={(u, v): w for u, v, w in d["psi"]},
            capacities={(u, v): c for u, v, c in d["capacities"]},
            utility_scale=float(d.get("utility_scale", 10.0)),
            alpha=float(d.get("alpha", 0.1)),
            beta=float(d.get("beta", 1e-3)),
        )


def _sigmoid(s: float) -> float:
    # numerically safe on both tails
    if s >= 0:
        return 1.0 / (1.0 + np.exp(-s))
    e = np.exp(s)
    return e / (1.0 + e)


@dataclass(frozen=True)
class UnicastInstance:
    """A rate-allocation game plus its two layout arms.

    ``standard`` and ``customized`` each pair a layout for the aggregation
    estimates with one for the multiplier estimates; here the two layers
    share a single exchange graph per link, so each pair repeats one layout.
    """

    scenario: UnicastScenario
    game: AggregativeGameSpec
    standard: tuple[EndLayout, EndLayout]
    customized: tuple[EndLayout, EndLayout]
    labels: Mapping[tuple[int, int], int]

    def cost(self, i: int, x: np.ndarray) -> float:
        """User i's cost at the joint rate profile (true link totals)."""
        sc = self.scenario
        xi = float(x[i - 1])
        val = -sc.utility_scale * np.log(xi + 1.0)
        for link in {_canonical(e) for e in sc.paths[i]}:
            total = sum(x[j - 1] for j in sc.users_of(link))
            val += sc.psi[link] * xi * _sigmoid(total)
        return float(val)


def _unicast_gradient(owners: np.ndarray, psi: np.ndarray, num_users: int,
                      scale: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The rate game's pseudo-gradient ``gradient(x, sigma)``, compiled once.

    Pair k of the sorted interference pattern is user ``owners[k]``'s copy
    of a link with congestion coefficient ``psi[k]``; it adds
    psi (s + x s (1 - s)) with s = sig(sigma_k) to that user's entry, on
    top of -scale / (x + 1). With t = tanh(sigma / 2), s = (1 + t) / 2 and
    s (1 - s) = (1 - t²) / 4, so per user the sum is a + x b with
    a = Σ psi / 2 + Σ (psi / 2) t and b = Σ psi / 4 - Σ (psi / 4) t²: one
    sparse map of [t; t²] onto those constants. tanh saturates, so no |sigma|
    overflows. Each call returns a new array; the buffers are made here.
    """
    num_pairs = owners.size
    rows = np.concatenate((owners, owners + num_users))
    weigh = CsrOperator(sp.csr_matrix(
        (np.concatenate((psi / 2.0, -psi / 4.0)), (rows, np.arange(2 * num_pairs))),
        shape=(2 * num_users, 2 * num_pairs)))
    per_user = np.bincount(owners, weights=psi, minlength=num_users)
    powers, sums = np.empty(2 * num_pairs), np.empty(2 * num_users)
    t, t2 = powers[:num_pairs], powers[num_pairs:]
    a, b = sums[:num_users], sums[num_users:]
    weigh_powers = weigh.bind(powers, sums,
                              offset=np.concatenate((per_user / 2.0, per_user / 4.0)))
    shift, xb = np.empty(num_users), np.empty(num_users)
    # array operands: a ufunc call with a Python float operand takes longer
    half, one = np.full(num_pairs, 0.5), np.ones(num_users)
    minus_scale = np.full(num_users, -scale)
    x_shape, sigma_shape = (num_users,), (num_pairs,)

    def gradient(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        if x.shape != x_shape or sigma.shape != sigma_shape:
            raise ValueError(f"actions of shape {x.shape} and pair values of shape "
                             f"{sigma.shape}, expected {x_shape} and {sigma_shape}")
        np.multiply(sigma, half, t)
        np.tanh(t, t)
        np.multiply(t, t, t2)
        weigh_powers()
        np.multiply(x, b, xb)
        np.add(xb, a, xb)
        np.add(x, one, shift)
        np.divide(minus_scale, shift, shift)
        return np.add(shift, xb)

    return gradient


def build_unicast(sc: UnicastScenario, weight_scheme: str = "metropolis") -> UnicastInstance:
    """Assemble the game and both layout arms from a unicast scenario."""
    labels = sc.link_labels()
    num_links = len(labels)
    if num_links == 0:
        raise ScenarioError("no active links: every path is empty")
    inv = {p: link for link, p in labels.items()}
    footprints = {
        i: tuple(sorted({labels[_canonical(e)] for e in seq}))
        for i, seq in sc.paths.items()
    }
    interference = frozenset((p, i) for i, fp in footprints.items() for p in fp)
    pairs = sorted(interference)
    gradient = _unicast_gradient(np.array([i - 1 for _, i in pairs], dtype=np.intp),
                                 np.array([sc.psi[inv[p]] for p, _ in pairs]),
                                 sc.num_users, sc.utility_scale)

    agg_blocks = {(p, i): np.array([[1.0]]) for i in sc.paths for p in footprints[i]}
    agg_offsets = {key: np.zeros(1) for key in agg_blocks}
    con_blocks = dict(agg_blocks)
    # each user on a link carries an equal share of its capacity
    con_offsets = {
        (p, i): np.array([sc.capacities[inv[p]] / len(sc.users_of(inv[p]))])
        for (p, i) in con_blocks
    }
    game = AggregativeGameSpec(
        action_dims=(1,) * sc.num_users,
        sigma_dims={p: 1 for p in inv},
        lambda_dims={p: 1 for p in inv},
        gradient=gradient,
        agg_blocks=agg_blocks,
        agg_offsets=agg_offsets,
        con_blocks=con_blocks,
        con_offsets=con_offsets,
        interference_sigma=interference,
        interference_lambda=interference,
        sense="inequality",
        domains={i: BoxSet(0.0, 1.0) for i in sc.paths},
    )
    partition = Partition((1,) * num_links)
    std = standard_layout(sc.comm, interference, partition, weight_scheme=weight_scheme)
    criterion = DesignCriterion(
        ConnectivityMode.undirected_connected(), objective="min_edges"
    )
    cust = design_layout(sc.comm, interference, partition, criterion,
                         weight_scheme=weight_scheme)
    return UnicastInstance(
        scenario=sc,
        game=game,
        standard=(std, std),
        customized=(cust, cust),
        labels=labels,
    )


def reference_scheme_unicast(seed: int = 0) -> UnicastScenario:
    """Small hand-built network on 7 nodes.

    Node 7 carries no flow of its own and acts purely as a communication
    node; the link between nodes 4 and 5 is shared by users 3 and 5, which
    are not communication neighbors, so any connected exchange graph for
    that link must pass through a relay.
    """
    ring = [(k, k + 1) for k in range(1, 7)] + [(7, 1)]
    comm = Graph.undirected_graph(range(1, 8), ring)
    paths = {
        1: ((1, 2),),
        2: ((2, 3),),
        3: ((3, 4), (4, 5)),
        4: ((4, 3),),
        5: ((5, 4),),
        6: ((6, 5),),
        7: (),
    }
    rng = np.random.default_rng(seed)
    active = sorted({_canonical(e) for seq in paths.values() for e in seq})
    psi = {e: float(rng.uniform(0.0, 1.0)) for e in active}
    users = {e: sum(1 for i, seq in paths.items()
                    if any(_canonical(q) == e for q in seq)) for e in active}
    capacities = {e: float((0.4 + 0.5 * rng.uniform()) * users[e]) for e in active}
    return UnicastScenario(comm=comm, paths=paths, psi=psi, capacities=capacities)


def sample_unicast(
    num_users: int,
    seed: int,
    max_path_len: int = 4,
    extra_edge_prob: float = 0.25,
    relay_prob: float = 0.1,
    alpha: float = 0.1,
    beta: float = 1e-3,
) -> UnicastScenario:
    """Random connected network with shortest-path routes of bounded length.

    The network is a random attachment tree plus a Bernoulli sprinkling of
    chords; each user routes toward a uniformly random other node along a
    shortest path truncated to ``max_path_len`` edges, and a few users are
    demoted to pure relays. Routes come from ``graphs.bidirectional_bfs``
    with each node's neighbours scanned in ``comm.edges`` iteration order
    (not ascending id order), which keeps every route as it always was.
    """
    if num_users < 2:
        raise ScenarioError("need at least two users")
    rng = np.random.default_rng(seed)
    nodes = list(range(1, num_users + 1))
    edges = []
    for k in range(2, num_users + 1):
        edges.append((int(rng.integers(1, k)), k))
    tree = set(edges)
    for u in nodes:
        for v in nodes:
            if u < v and (u, v) not in tree and rng.uniform() < extra_edge_prob:
                edges.append((u, v))
    comm = Graph.undirected_graph(nodes, edges)
    # each node's neighbours, as keys, in comm.edges iteration order
    adj: dict[int, dict[int, None]] = {v: {} for v in nodes}
    for u, v in comm.edges:
        if u != v:
            adj[u][v] = adj[v][u] = None
    paths: dict[int, tuple[tuple[int, int], ...]] = {}
    for i in nodes:
        if rng.uniform() < relay_prob:
            paths[i] = ()
            continue
        target = i
        while target == i:
            target = int(rng.integers(1, num_users + 1))
        walk = bidirectional_bfs(adj, adj, i, target)[: max_path_len + 1]
        paths[i] = tuple(zip(walk[:-1], walk[1:]))
    if all(len(seq) == 0 for seq in paths.values()):
        # force at least one route so the game is nontrivial
        i = nodes[0]
        j = next(iter(adj[i]))
        paths[i] = ((i, j),)
    active = sorted({_canonical(e) for seq in paths.values() for e in seq})
    psi = {e: float(rng.uniform(0.0, 1.0)) for e in active}
    users = {e: sum(1 for seq in paths.values()
                    if any(_canonical(q) == e for q in seq)) for e in active}
    capacities = {e: float((0.4 + 0.5 * rng.uniform()) * users[e]) for e in active}
    return UnicastScenario(comm=comm, paths=paths, psi=psi, capacities=capacities,
                           alpha=alpha, beta=beta)


# -- sensor network estimation ---------------------------------------------


@dataclass(frozen=True)
class SensorScenario:
    """Sensors and signal sources scattered on the unit square.

    Every sensor observes the sources within ``sensing_radius`` through a
    random row-normalized output matrix plus Gaussian noise, and can
    transmit to peers within its own communication radius, drawn uniformly
    from ``[comm_radius_min, comm_radius_min + comm_radius_width]``.
    """

    num_sensors: int
    num_sources: int
    sensing_radius: float = 0.2
    comm_radius_min: float = 0.1
    comm_radius_width: float = 0.1
    output_dim: int = 10
    noise_var: float = 0.1
    emit_fraction: float = 0.3     # share of sources active in the sparse variant
    seed: int = 0
    max_resample: int = 200

    def __post_init__(self):
        if self.num_sensors < 1 or self.num_sources < 1:
            raise ScenarioError("need at least one sensor and one source")
        if self.sensing_radius <= 0.0:
            raise ScenarioError("sensing radius must be positive")
        if not (0.0 <= self.emit_fraction <= 1.0):
            raise ScenarioError("emit fraction must be in [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "num_sensors": self.num_sensors,
            "num_sources": self.num_sources,
            "sensing_radius": self.sensing_radius,
            "comm_radius_min": self.comm_radius_min,
            "comm_radius_width": self.comm_radius_width,
            "output_dim": self.output_dim,
            "noise_var": self.noise_var,
            "emit_fraction": self.emit_fraction,
            "seed": self.seed,
            "max_resample": self.max_resample,
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SensorScenario":
        return cls(**{k: d[k] for k in d})


@dataclass(frozen=True)
class SensorGeometry:
    """Sampled positions, radii and the derived graphs."""

    sensor_pos: np.ndarray     # (I, 2)
    source_pos: np.ndarray     # (P, 2)
    comm_radii: np.ndarray     # (I,)
    comm: Graph
    footprints: tuple[tuple[int, ...], ...]   # sources sensed per sensor
    notes: tuple[str, ...] = ()

    def interference(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (p, i) for i, fp in enumerate(self.footprints, start=1) for p in fp
        )


def sample_sensor_geometry(sc: SensorScenario) -> SensorGeometry:
    """Draw positions until the network is strongly connected and every
    source is sensed; after the retry budget, orphan sources are attached
    to their nearest sensor (noted on the result)."""
    rng = np.random.default_rng(sc.seed)
    last = None
    for _ in range(sc.max_resample):
        sensor_pos = rng.uniform(size=(sc.num_sensors, 2))
        source_pos = rng.uniform(size=(sc.num_sources, 2))
        radii = rng.uniform(sc.comm_radius_min, sc.comm_radius_min + sc.comm_radius_width,
                            size=sc.num_sensors)
        dist = np.linalg.norm(sensor_pos[:, None, :] - sensor_pos[None, :, :], axis=2)
        edges = [
            (i + 1, j + 1)
            for i in range(sc.num_sensors)
            for j in range(sc.num_sensors)
            if i != j and dist[i, j] <= radii[i]
        ]
        comm = Graph.directed_graph(range(1, sc.num_sensors + 1), edges)
        sense = np.linalg.norm(sensor_pos[:, None, :] - source_pos[None, :, :], axis=2)
        footprints = tuple(
            tuple(int(p + 1) for p in np.flatnonzero(sense[i] <= sc.sensing_radius))
            for i in range(sc.num_sensors)
        )
        geo = SensorGeometry(sensor_pos, source_pos, radii, comm, footprints)
        if not is_strongly_connected(comm):
            last = geo
            continue
        orphans = [p for p in range(1, sc.num_sources + 1)
                   if not any(p in fp for fp in footprints)]
        if not orphans:
            return geo
        last = geo
    if last is None or not is_strongly_connected(last.comm):
        raise ScenarioError(
            "no strongly connected sensor network within the retry budget"
        )
    # keep the connected draw; give each orphan source to its nearest sensor
    sense = np.linalg.norm(last.sensor_pos[:, None, :] - last.source_pos[None, :, :], axis=2)
    footprints = [list(fp) for fp in last.footprints]
    notes = []
    for p in range(1, sc.num_sources + 1):
        if not any(p in fp for fp in footprints):
            i = int(np.argmin(sense[:, p - 1]))
            footprints[i].append(p)
            notes.append(f"source {p} attached to nearest sensor {i + 1}")
    footprints = tuple(tuple(sorted(fp)) for fp in footprints)
    return SensorGeometry(last.sensor_pos, last.source_pos, last.comm_radii,
                          last.comm, footprints, notes=tuple(notes))


def _sensor_measurements(sc: SensorScenario, geo: SensorGeometry, sparse: bool):
    """Signals, output matrices and noisy readings (one stream per seed)."""
    rng = np.random.default_rng(sc.seed + 1)
    y_bar = rng.uniform(size=sc.num_sources)
    if sparse:
        active = rng.choice(sc.num_sources,
                            size=max(1, round(sc.emit_fraction * sc.num_sources)),
                            replace=False)
        mask = np.zeros(sc.num_sources)
        mask[active] = 1.0
        y_bar = y_bar * mask
    matrices, readings = [], []
    for fp in geo.footprints:
        H = rng.uniform(size=(sc.output_dim, len(fp)))
        norms = np.linalg.norm(H, axis=1, keepdims=True)
        H = H / np.where(norms > 0, norms, 1.0)
        w = rng.normal(0.0, np.sqrt(sc.noise_var), size=sc.output_dim)
        matrices.append(H)
        readings.append(H @ y_bar[[p - 1 for p in fp]] + w)
    return y_bar, matrices, readings


def _sensor_layouts(geo: SensorGeometry, num_sources: int):
    partition = Partition((1,) * num_sources)
    interference = geo.interference()
    std = standard_layout(geo.comm, interference, partition, weight_scheme="column")
    criterion = DesignCriterion(
        ConnectivityMode.strongly_connected(), objective="min_nodes", augment=True
    )
    cust = design_layout(geo.comm, interference, partition, criterion,
                         weight_scheme="column")
    return std, cust


@dataclass(frozen=True)
class SensorInstance:
    """An estimation problem plus the two layout arms."""

    scenario: SensorScenario
    geometry: SensorGeometry
    problem: QuadraticSeparable | LassoSeparable
    standard: EndLayout
    customized: EndLayout
    signals: np.ndarray


def build_regression(sc: SensorScenario) -> SensorInstance:
    """Least-squares source estimation: min over y of sum_i ||h_i - H_i y||^2."""
    geo = sample_sensor_geometry(sc)
    y_bar, matrices, readings = _sensor_measurements(sc, geo, sparse=False)
    quadratics, linears, constants = [], [], []
    for H, h, fp in zip(matrices, readings, geo.footprints):
        # ||h - H y||^2 written as (1/2) y' (2 H'H) y - (2 H'h)' y + h'h
        M = 2.0 * H.T @ H
        c = -2.0 * H.T @ h
        quad = {}
        for a, p in enumerate(fp):
            for b, q in enumerate(fp):
                quad[(p, q)] = np.array([[M[a, b]]])
        quadratics.append(quad)
        linears.append({p: np.array([c[a]]) for a, p in enumerate(fp)})
        constants.append(float(h @ h))
    problem = QuadraticSeparable(
        component_dims=(1,) * sc.num_sources,
        footprints=geo.footprints,
        quadratics=quadratics,
        linears=linears,
        constants=constants,
    )
    std, cust = _sensor_layouts(geo, sc.num_sources)
    return SensorInstance(sc, geo, problem, std, cust, y_bar)


def build_lasso(sc: SensorScenario) -> SensorInstance:
    """Sparse variant: the squared-residual cost plus a shared 1-norm term,
    split across the sensors that sense each source."""
    geo = sample_sensor_geometry(sc)
    y_bar, matrices, readings = _sensor_measurements(sc, geo, sparse=True)
    needers = {p: sum(1 for fp in geo.footprints if p in fp)
               for p in range(1, sc.num_sources + 1)}
    l1_weights = {
        (i, p): 1.0 / needers[p]
        for i, fp in enumerate(geo.footprints, start=1)
        for p in fp
    }
    problem = LassoSeparable(
        component_dims=(1,) * sc.num_sources,
        footprints=geo.footprints,
        # the smooth part here is (1/2)||G y - d||^2, so scale by sqrt(2)
        # to realize the plain squared residual
        design_matrices=[np.sqrt(2.0) * H for H in matrices],
        observations=[np.sqrt(2.0) * h for h in readings],
        l1_weights=l1_weights,
    )
    std, cust = _sensor_layouts(geo, sc.num_sources)
    return SensorInstance(sc, geo, problem, std, cust, y_bar)


# -- synthetic instances with known solutions -------------------------------


def build_random_quadratic_game(
    num_agents: int, sparsity: float, seed: int, shift: float = 1.0
) -> tuple[GameSpec, np.ndarray]:
    """Scalar-action game with affine interactions and a known equilibrium.

    The interaction pattern is Bernoulli(``sparsity``) off the diagonal;
    the linear map is shifted until its symmetric part is positive
    definite, so the equilibrium is the unique zero of the joint gradient.
    The oracle is one sparse map over the pairs with offset g: row i holds
    agent i's row of G on its pairs (j, i), in ascending j, summed onto g_i.
    """
    if not (0.0 <= sparsity <= 1.0):
        raise ScenarioError("sparsity must be in [0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(num_agents, num_agents)) < sparsity
    np.fill_diagonal(mask, True)
    G = rng.standard_normal((num_agents, num_agents)) * mask
    sym = (G + G.T) / 2.0
    lam_min = float(np.linalg.eigvalsh(sym).min())
    if lam_min < shift:
        G = G + (shift - lam_min) * np.eye(num_agents)
    g = rng.standard_normal(num_agents)
    interference = frozenset(
        (j + 1, i + 1)
        for i in range(num_agents)
        for j in range(num_agents)
        if mask[i, j] or i == j
    )

    pairs = np.array(sorted(interference)) - 1
    weigh = CsrOperator(sp.csr_matrix(
        (G[pairs[:, 1], pairs[:, 0]], (pairs[:, 1], np.arange(len(pairs)))),
        shape=(num_agents, len(pairs))))
    mu = float(np.linalg.eigvalsh((G + G.T) / 2.0).min())
    theta = float(np.linalg.norm(G, 2))
    game = GameSpec(
        action_dims=(1,) * num_agents,
        gradient=lambda v: weigh.affine(v, g),
        interference=interference,
        mu=mu,
        theta=theta,
    )
    x_star = np.linalg.solve(G, -g)
    return game, x_star


def build_random_separable(
    num_agents: int, num_components: int, sparsity: float, seed: int
) -> tuple[QuadraticSeparable, np.ndarray]:
    """Random strongly convex separable cost with a closed-form optimum."""
    if not (0.0 < sparsity <= 1.0):
        raise ScenarioError("sparsity must be in (0, 1]")
    rng = np.random.default_rng(seed)
    # one uniform draw per (agent, component), agent by agent: the stream of
    # num_components scalar draws per agent, taken in one call
    footprints = []
    covered = np.zeros(num_components + 1, dtype=bool)  # entry 0 unused
    for i in range(num_agents):
        fp = np.flatnonzero(rng.uniform(size=num_components) < sparsity) + 1
        if not fp.size:
            fp = np.array([rng.integers(1, num_components + 1)])
        covered[fp] = True
        footprints.append(tuple(fp.tolist()))
    for p in np.flatnonzero(~covered[1:]).tolist():
        i = int(rng.integers(0, num_agents))
        footprints[i] = tuple(sorted(footprints[i] + (p + 1,)))
    quadratics, linears = [], []
    for fp in footprints:
        n = len(fp)
        A = rng.standard_normal((n, n))
        M = A @ A.T + n * np.eye(n)
        c = rng.standard_normal(n)
        # block (p, q) is the 1 x 1 view of M[a, b], in row-major order
        quadratics.append(dict(zip(((p, q) for p in fp for q in fp), M.reshape(n * n, 1, 1))))
        linears.append(dict(zip(fp, c.reshape(n, 1))))
    problem = QuadraticSeparable(
        component_dims=(1,) * num_components,
        footprints=footprints,
        quadratics=quadratics,
        linears=linears,
    )
    return problem, problem.solve_reference()
