"""covsel needs NumPy alone: every public entry point runs with SciPy unimportable."""

import os
import subprocess
import sys
from pathlib import Path

import covsel

SCRIPT = """
import sys
sys.modules["scipy"] = None  # any "import scipy..." now raises ImportError

import numpy as np
from covsel import (
    Dataset, SimulationConfig, SingularSubmatrixError, VariableSubset, benchmark_model,
    convergence_probe, criterion, empirical_covariances, projector, run_study,
    sample_dataset, select_variables,
)

model = benchmark_model()
summary = run_study(SimulationConfig(sample_sizes=(60,), replications=3, base_seed=5))
assert [row.failures for row in summary.rows] == [0]

data = sample_dataset(model, 300, seed=3)
suite = empirical_covariances(data)
assert suite.v1_certified
select_variables(data)
assert criterion(suite, VariableSubset((1, 4, 7), 7)) > 0
projector(suite.v1, VariableSubset((1, 2), 7))
convergence_probe(model, VariableSubset((1, 4, 7), 7), [60, 90], 2, 11)

# a copied column: no certificate, so selection takes the per-block path
rng = np.random.default_rng(20240817)
x = rng.standard_normal((60, 3))
copied = Dataset(x=np.column_stack([x, x[:, 0]]), y=rng.standard_normal((60, 2)))
try:
    select_variables(copied)
except SingularSubmatrixError as e:
    assert e.indices == (1, 3, 4)
else:
    raise AssertionError("a copied column must fail the per-block check")

assert sys.modules["scipy"] is None
assert not [name for name in sys.modules if name.startswith("scipy.")]
"""


def test_runs_without_scipy():
    src = Path(covsel.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
