"""SciPy stays unloaded until the quadrature oracle runs, and NumPy loads nothing more.

The package needs NumPy alone; only the memory-kernel oracle ``x_tau_integral``
(through ``c_tau_ode_residual``, criterion 7) imports ``scipy.integrate``.
Importing the package loads no ``numpy.*`` module that ``import numpy`` has not
loaded already (``np.unique`` at import time, for one, would load
``numpy.ma``).  The test modules import SciPy themselves, so the guard runs in
a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GUARD = """
import sys

import numpy as np


def numpy_modules():
    return {name for name in sys.modules if name == "numpy" or name.startswith("numpy.")}


with_numpy = numpy_modules()

import darklind
import darklind.checks
import darklind.cli
from darklind import analysis, effective, engine, protocols

assert numpy_modules() <= with_numpy, ("numpy", sorted(numpy_modules() - with_numpy))

SCIPY = ("scipy.linalg", "scipy.integrate")


def loaded():
    return [name for name in SCIPY if name in sys.modules]


assert loaded() == [], ("import", loaded())
path = protocols.linear_path(1, 0)
proto = protocols.spin32_protocol(path, 20.0)
ds = effective.dark_space(proto.L_rot)
rho_d = analysis.dark_state_from_bloch((0.0, 0.0, 1.0))
calls = {
    "integrate": lambda: engine.integrate(
        effective.lab_generator(proto), effective.embed_dark(ds, rho_d), (0.0, 2.0)),
    "evolve_effective": lambda: effective.evolve_effective(rho_d, proto, ds, [10.0, 20.0]),
    "end_of_cycle_state": lambda: effective.end_of_cycle_state(
        rho_d, proto, ds, method="formula"),
    "purity_prediction_general": lambda: analysis.purity_prediction_general(rho_d, proto, ds),
    "purity_prediction_spin32": lambda: analysis.purity_prediction_spin32(
        path, (0.0, 0.0, 1.0), 20.0),
    "berry_holonomy": lambda: effective.berry_holonomy(proto, ds, 13.0),
    "effective_jump": lambda: effective.effective_jump(proto, ds, np.array([1.0, 5.0])),
    "gauge_covariance_check": lambda: analysis.gauge_covariance_check(
        proto, ds, np.diag([0.5, -0.5]), gammaT_pair=(20.0, 40.0)),
}
for name, call in calls.items():
    call()
    assert loaded() == [], (name, loaded())
effective.c_tau_ode_residual(proto, ds, [1.0, 2.0])
assert "scipy.integrate" in sys.modules, "c_tau_ode_residual"
print("ok")
"""


def test_scipy_loads_only_with_the_quadrature_oracle():
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", GUARD], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
