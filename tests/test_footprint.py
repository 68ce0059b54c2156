"""The modules a plain run loads: the package imports numpy and scipy.sparse
only, and each heavier dependency waits for the path that calls it."""

import json
import os
import subprocess
import sys

import endnet

# each is imported inside the one function that uses it
DEFERRED = ("scipy.linalg", "scipy.special", "scipy.sparse.linalg", "networkx",
            "concurrent.futures.process")

PROBE = """
import json, sys
import endnet, endnet.cli
from endnet.cli import build_scenario
from endnet.optim import (augdgm_solve, constant_design_weights, power_step_schedule,
                          pushsum_solve)

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
print(json.dumps(sorted(sys.modules)))
"""


def test_plain_runs_load_none_of_the_deferred_modules():
    """Importing the package and its CLI, then short augdgm and push-sum
    solves on both arms, in a fresh interpreter, leave every deferred
    module unloaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(endnet.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True)
    loaded = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert "scipy.sparse" in loaded and "endnet.cli" in loaded
    assert sorted(loaded & set(DEFERRED)) == []
