"""Cold-start gate: the command-line path never loads ``scipy.special``.

Importing ``scipy.special`` costs about as long as a whole small run, and
every function the harness evaluates on its run paths is elementary.  A
fresh interpreter imports the CLI, runs one small config of each simulating
edge and lists the scipy modules it has loaded; it then takes the one
branch that still needs scipy (a non-integer log-power exponent), so the
gate is seen to notice a load.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import json, sys

from subortrim import cli  # noqa: F401
from subortrim.experiments import ExperimentConfig, run_experiment
from subortrim.levy import log_power_tail, small_jump_mean


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


after_import = loaded()
configs = [
    dict(edge="fidi", replicates=50),
    dict(edge="right", tail="log", r_grid=(0, 1), t_grid=(1e-2,), lambda_grid=(0.5, 1.0),
         level_grid=(1.0, 2.0), replicates=1000, seed_blocks=1),
    dict(edge="left", tail="rational", alpha_grid=(0.5,), r_grid=(0,), t_grid=(1e-2,),
         lambda_grid=(1.0,), replicates=1000, seed_blocks=1),
    dict(edge="bottom", alpha_grid=(0.4, 0.2), r_grid=(0,), lambda_grid=(1.0,),
         replicates=2, n_terms=1000),
]
rows = [len(run_experiment(ExperimentConfig(**kw)).rows) for kw in configs]
after_runs = loaded()
small_jump_mean(log_power_tail(2.5), 0.3)
print(json.dumps({"after_import": after_import, "rows": rows, "after_runs": after_runs,
                  "after_lazy": loaded()}))
"""


def _run_fresh_interpreter() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_and_edge_runs_leave_scipy_special_unloaded():
    out = _run_fresh_interpreter()
    assert all(n > 0 for n in out["rows"])
    assert "scipy.special" not in out["after_import"]
    assert "scipy.special" not in out["after_runs"]
    # The non-integer log-power mean imports it inside its branch.
    assert "scipy.special" in out["after_lazy"]
