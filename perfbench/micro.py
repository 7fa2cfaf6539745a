"""Micro timings of the primitives behind one RHS evaluation and one set-up.

They explain ``engine.us_per_rhs`` (a lab-frame RHS is one ``lab_jump`` plus
one ``lindblad_rhs``; the accepted step adds a ``validate_density_matrix``-sized
check) and ``setup_s`` (one ``spin32_protocol`` per protocol).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from darklind import analysis, effective, engine, linalg, protocols
from workloads import N0_Z, spin52_protocol

REPEATS = 5


def per_call(fn, number: int) -> float:
    """Median over repeats of the mean seconds per call."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def micro_metrics() -> dict:
    path = protocols.linear_path(1, 0)
    p4 = protocols.spin32_protocol(path, 200.0)
    p6 = spin52_protocol(200.0)
    ds4 = effective.dark_space(p4.L_rot)
    ds6 = effective.dark_space(p6.L_rot)
    rho4 = effective.embed_dark(ds4, analysis.dark_state_from_bloch(N0_Z))
    rho6 = effective.embed_dark(ds6, np.eye(1, dtype=complex))
    s = 0.3
    gen4 = engine.LindbladGenerator(None, (protocols.lab_jump(p4, s),))
    gen6 = engine.LindbladGenerator(None, (protocols.lab_jump(p6, s),))
    h = effective.adiabatic_hamiltonian(p4, s)
    rotating = engine.LindbladGenerator(h, (p4.L_rot,), 1.0 / p4.gammaT)
    # one midpoint step of the 2x2 holonomy at the default grid spacing
    holonomy_step = -1j * effective.projected_hamiltonian(h, ds4) / 2048
    us = 1e6
    return {
        "engine.lindblad_rhs.d4.us": per_call(lambda: engine.lindblad_rhs(rho4, gen4), 2000) * us,
        "engine.lindblad_rhs.d6.us": per_call(lambda: engine.lindblad_rhs(rho6, gen6), 2000) * us,
        "engine.validate_density_matrix.us":
            per_call(lambda: engine.validate_density_matrix(rho4), 2000) * us,
        "engine.vectorize.us": per_call(lambda: engine.vectorize(rotating), 500) * us,
        "protocols.lab_jump.us": per_call(lambda: protocols.lab_jump(p4, s), 2000) * us,
        "effective.adiabatic_hamiltonian.us":
            per_call(lambda: effective.adiabatic_hamiltonian(p4, s), 2000) * us,
        "linalg.matrix_exp.us": per_call(lambda: linalg.matrix_exp(holonomy_step), 2000) * us,
        "protocols.spin32_protocol.s": per_call(lambda: protocols.spin32_protocol(path, 200.0), 5),
    }
