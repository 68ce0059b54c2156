"""The modules a plain run loads: the package imports numpy and scipy.sparse
only, each heavier dependency waits for the path that calls it, and some
modules no path loads at all."""

import json
import os
import subprocess
import sys

import endnet

# each is imported inside the one function that uses it
DEFERRED = ("scipy.linalg", "scipy.sparse.linalg", "networkx", "concurrent.futures.process")
# no path imports these: the unicast gradient needs numpy and scipy.sparse
# only, and the weights and layout operators are built from edge arrays
# (scipy.sparse.csgraph would add ~8 MB of resident memory to every run)
UNUSED = ("scipy.special", "scipy.sparse.csgraph")

PROBE = """
import json, sys
import numpy as np
import endnet, endnet.cli
from endnet.cli import build_scenario
from endnet.games import build_gne_operators, gne_solve, solve_vgne_centralized
from endnet.optim import (augdgm_solve, constant_design_weights, power_step_schedule,
                          pushsum_solve)
from endnet.scenarios import build_unicast, sample_unicast

sep = build_scenario({"kind": "random_separable", "num_agents": 5, "num_components": 6,
                      "sparsity": 0.5, "seed": 1})
for layout in sep["layouts"]:
    augdgm_solve(layout, sep["problem"], 0.1, max_iters=20, reference=sep["reference"])
reg = build_scenario({"kind": "regression", "num_sensors": 8, "num_sources": 3,
                      "comm_radius_min": 0.45, "comm_radius_width": 0.1})
for layout in reg["layouts"]:
    weights = constant_design_weights(layout)
    pushsum_solve(layout, lambda k: weights, reg["instance"].problem,
                  power_step_schedule(0.1, 0.6), max_iters=20, check_every=10)
uni = build_unicast(sample_unicast(6, 0))
x0 = np.zeros(6)
reference, _ = solve_vgne_centralized(uni.game, x0, step=0.2, max_iters=2000)
for pair in (uni.standard, uni.customized):
    gne_solve(build_gne_operators(uni.game, *pair), x0, uni.scenario.alpha, uni.scenario.beta,
              max_iters=50, reference=reference, check_every=10)
print(json.dumps(sorted(sys.modules)))
"""


def test_plain_runs_load_none_of_the_deferred_modules():
    """Importing the package and its CLI, then short augdgm, push-sum and
    unicast gne solves on both arms (the gne with a centralized reference),
    in a fresh interpreter, leave every deferred and unused module
    unloaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(endnet.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True)
    loaded = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert "scipy.sparse" in loaded and "endnet.cli" in loaded
    assert sorted(loaded & set(DEFERRED + UNUSED)) == []


def test_no_package_source_names_an_unused_module():
    """No path loads an unused module: no file of the package names it."""
    package = os.path.dirname(os.path.abspath(endnet.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                text = f.read()
            assert [m for m in UNUSED if m in text] == [], name
