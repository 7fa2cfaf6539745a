"""A fixed calibration kernel that measures how fast this core runs right now.

On a shared VM the same code runs up to twice as slow when neighbours are
busy, in wall and CPU time alike, and the slow spells last seconds to minutes.
The benchmark therefore runs this kernel between its timed items and reports
each item's time relative to the kernel's time next to it, rescaled to a core
on which the kernel takes ``REFERENCE_S``.  The kernel is a small Lindblad
equation integrated by fixed-step RK4 in numpy, the same kind of work as the
program's (a Python loop over 4×4 complex matrix products), so a busy
neighbour slows both alike.

It imports nothing from darklind: a change to the program does not change the
unit.  Changing this file, ``STEPS`` or ``REFERENCE_S`` changes the unit of
every time metric, so a benchmark that compares two commits must keep them.
"""

from __future__ import annotations

import time

import numpy as np

#: RK4 steps per sample, about 25 ms on a 2-vCPU Xeon VM
STEPS = 300
#: a calibration block after an item lasts this share of the item's time,
#: and holds at least ``MIN_SAMPLES`` samples
SHARE = 0.1
MIN_SAMPLES = 3
#: kernel seconds per sample on the reference core; the time metrics are in
#: seconds on a core where one sample takes this long
REFERENCE_S = 0.025

_RNG = np.random.default_rng(20240603)
_A = _RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
_H0 = _A + _A.conj().T
_H1 = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
_JUMP = np.triu(_RNG.normal(size=(4, 4)), 1).astype(complex)
_JUMP_DAG = _JUMP.conj().T
_JDJ = _JUMP_DAG @ _JUMP


def _rhs(t: float, rho: np.ndarray) -> np.ndarray:
    h = _H0 + np.cos(t) * _H1
    return (-1j * (h @ rho - rho @ h) + _JUMP @ rho @ _JUMP_DAG
            - 0.5 * (_JDJ @ rho + rho @ _JDJ))


def kernel() -> np.ndarray:
    """Integrate the fixed Lindblad equation for ``STEPS`` RK4 steps."""
    rho = np.eye(4, dtype=complex) / 4.0
    dt, t = 0.01, 0.0
    for _ in range(STEPS):
        k1 = _rhs(t, rho)
        k2 = _rhs(t + dt / 2, rho + dt / 2 * k1)
        k3 = _rhs(t + dt / 2, rho + dt / 2 * k2)
        k4 = _rhs(t + dt, rho + dt * k3)
        rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho)
        t += dt
    return rho


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel run."""
    t0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - t0, time.process_time() - c0


def block(item_seconds: float = 0.0) -> list[tuple[float, float]]:
    """Samples for ``SHARE`` of ``item_seconds``, and at least ``MIN_SAMPLES``."""
    samples = []
    t0 = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - t0 < SHARE * item_seconds:
        samples.append(sample())
    return samples
