"""The CF4 reduced propagator against the joint Runge-Kutta oracle.

``evolve_effective`` propagates the reduced state with the fourth-order
commutator-free Magnus exponential, its effective jump taken from the exact
kernel recurrence.  The oracle here integrates the reduced state together
with the kernel block X (bright rows x dark columns) in SciPy's DOP853:
dX/dtau = -L^dag L X / 2 + U_b^dag H B, linear and independent of rho, and
d rho/dtau = -i eps [H0, rho] + eps^2 D_ell(rho) with ell = P0 L X P0, where
H = i U' U^dag is built here from the protocol's U and dU.  The two routes
share the protocol and nothing else; the oracle uses neither the propagator
nor the engine's integrator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import darklind.effective as eff
from darklind.analysis import dark_state_from_bloch, trace_distance
from darklind.effective import dark_space, evolve_effective
from darklind.engine import NUMERICAL_ERRORS, ConvergenceError, InvariantViolationError
from darklind.linalg import dagger
from darklind.protocols import (
    custom_protocol,
    fourier_path,
    linear_path,
    smoothstep_path,
    spin32_jump,
    spin32_protocol,
    spin_operators,
)

#: the gate: trace distance of the propagator at its default tolerances from
#: the oracle at rtol 1e-12
GATE = 1e-10
ORACLE_RTOL = 1e-12


def joint_ode_states(rho0_d, protocol, ds, taus, mode="full", rtol=ORACLE_RTOL, atol=None):
    """Reduced states at sorted ``taus`` from the joint DOP853 integration of rho and X."""
    modes = eff._KernelModes(protocol, ds)
    d = ds.d
    nb = modes.rates.size
    eps = 1.0 / protocol.gammaT
    need_x = mode in ("full", "dissipator") and nb > 0

    def unpack(y):
        rho = y[: d * d].reshape(d, d)
        x = y[d * d:].reshape(nb, d) if need_x else None
        return rho, x

    def fun(tau, y):
        rho, x = unpack(y)
        s = min(max(tau / protocol.gammaT, 0.0), 1.0)
        u = protocol.U(s)
        h = 1j * protocol.dU(s) @ dagger(u)
        h = 0.5 * (h + dagger(h))
        drho = np.zeros((d, d), dtype=complex)
        if mode in ("full", "unitary"):
            h0 = eff.projected_hamiltonian(h, ds)
            drho += -1j * eps * (h0 @ rho - rho @ h0)
        dy = [drho.reshape(-1)]
        if need_x:
            dy[0] = dy[0] + eps**2 * eff._dissipator(modes.reduce_jump @ x, rho).reshape(-1)
            drive = dagger(modes.modes) @ h @ ds.basis
            dy.append((-0.5 * modes.rates[:, None] * x + drive).reshape(-1))
        return np.concatenate(dy)

    y0 = [np.asarray(rho0_d, dtype=complex).reshape(-1)]
    if need_x:
        y0.append(np.zeros(nb * d, dtype=complex))
    sol = solve_ivp(
        fun, (0.0, float(max(taus))), np.concatenate(y0), method="DOP853",
        t_eval=sorted(taus), rtol=rtol, atol=rtol * 1e-3 if atol is None else atol,
        max_step=min(0.1 * protocol.gammaT, 2.0), first_step=min(0.01, protocol.gammaT / 1e3),
    )
    assert sol.success, sol.message
    return [unpack(y)[0] for y in sol.y.T]


def worst_distance(rho0_d, protocol, taus, mode="full", **oracle):
    ds = dark_space(protocol.L_rot)
    fast = evolve_effective(rho0_d, protocol, ds, taus, mode=mode)
    slow = joint_ode_states(rho0_d, protocol, ds, taus, mode=mode, **oracle)
    assert len(fast) == len(slow) == len(taus)
    return max(trace_distance(a, b) for a, b in zip(fast, slow))


#: the benchmark's reduced paths, one with fixed Fourier knots
REDUCED_PATHS = {
    "linear-200": (linear_path(1, 0), 200.0),
    "linear-800": (linear_path(1, 0), 800.0),
    "smoothstep-200": (smoothstep_path(1, 1), 200.0),
    "fourier-200": (fourier_path(1, 0, theta_knots=(0.17,), phi_knots=(-0.2,)), 200.0),
}


@pytest.mark.parametrize("name", list(REDUCED_PATHS))
def test_reduced_paths_match_joint_ode(name):
    path, gammaT = REDUCED_PATHS[name]
    proto = spin32_protocol(path, gammaT)
    taus = np.linspace(0.0, gammaT, 33)
    assert worst_distance(dark_state_from_bloch((0.0, 0.0, 1.0)), proto, taus) <= GATE


@pytest.mark.parametrize("n0", [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0)], ids=["z", "y"])
def test_large_gammaT_matches_joint_ode(n0):
    # rate h >> 1 on every step but the onset's: the kernel weights must stay
    # exact in the decay, where Gauss-Legendre node weights would underflow;
    # one oracle run serves the 33 checkpoints and the single time gammaT
    proto = spin32_protocol(linear_path(1, 0), 3200.0)
    ds = dark_space(proto.L_rot)
    rho0 = dark_state_from_bloch(n0)
    taus = np.linspace(0.0, 3200.0, 33)
    slow = joint_ode_states(rho0, proto, ds, taus)
    fast = evolve_effective(rho0, proto, ds, taus)
    assert max(trace_distance(a, b) for a, b in zip(fast, slow)) <= GATE
    single = evolve_effective(rho0, proto, ds, [3200.0])[-1]
    assert trace_distance(single, slow[-1]) <= GATE


def test_fast_jump_matches_joint_ode():
    # the spin-3/2 jump scaled by 4 (bright rates 48): the loss depends on
    # rate * gammaT, so it must be near the rate-3 value at gammaT 12800
    path = linear_path(1, 0)
    _, sy, sz = spin_operators(3)
    proto = custom_protocol(
        [sy, sz], [path.theta, path.phi], 4.0 * spin32_jump(), 800.0,
        dangles=[path.dtheta, path.dphi],
    )
    rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
    assert worst_distance(rho0, proto, [400.0, 800.0]) <= GATE
    final = evolve_effective(rho0, proto, dark_space(proto.L_rot), [800.0])[-1]
    loss = 1.0 - np.trace(final @ final).real
    assert abs(loss - 3.0748e-3) <= 1e-6


@pytest.mark.parametrize("mode", ["full", "unitary", "dissipator"])
@pytest.mark.parametrize(
    "path", [linear_path(1, 0), smoothstep_path(1, 1)], ids=["linear", "smoothstep"]
)
def test_every_mode_matches_joint_ode(path, mode):
    proto = spin32_protocol(path, 10.0)
    taus = np.linspace(0.0, 10.0, 5)
    rho0 = dark_state_from_bloch((0.6, 0.5, 0.3))
    assert worst_distance(rho0, proto, taus, mode=mode) <= GATE


def test_custom_protocol_matches_joint_ode():
    # two generators, the theta angle wiggling, phi winding once
    _, sy, sz = spin_operators(3)
    turn = 2.0 * math.pi
    proto = custom_protocol(
        [sy, sz],
        [lambda s: turn * s + 0.3 * np.sin(turn * s), lambda s: turn * s],
        spin32_jump(),
        20.0,
        dangles=[lambda s: turn * (1.0 + 0.3 * np.cos(turn * s)), lambda s: turn],
    )
    taus = [0.0, 2.5, 10.0, 20.0]
    assert worst_distance(dark_state_from_bloch((0.0, 1.0, 0.0)), proto, taus) <= GATE


@settings(max_examples=5)
@given(
    theta_knots=st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=2),
    phi_knots=st.lists(st.floats(-0.3, 0.3), max_size=2),
    m_phi=st.integers(0, 1),
    gammaT=st.floats(20.0, 40.0),
)
def test_random_fourier_paths(theta_knots, phi_knots, m_phi, gammaT):
    path = fourier_path(1, m_phi, theta_knots=theta_knots, phi_knots=phi_knots)
    proto = spin32_protocol(path, gammaT)
    ds = dark_space(proto.L_rot)
    rho0 = dark_state_from_bloch((0.0, 0.6, 0.8))
    taus = np.linspace(0.0, gammaT, 3)
    fast = evolve_effective(rho0, proto, ds, taus)
    slow = joint_ode_states(rho0, proto, ds, taus, rtol=1e-10)
    for a, b in zip(fast, slow):
        assert np.linalg.norm(a - a.conj().T) <= 1e-12
        assert abs(np.trace(a) - 1.0) <= 1e-12
        assert trace_distance(a, b) <= 1e-9


class TestFailsLoudly:
    def test_doubling_cap_names_interval_and_estimate(self, monkeypatch):
        monkeypatch.setattr(eff, "_MAGNUS_MAX_DOUBLINGS", 4)  # the cap is reached sooner
        proto = spin32_protocol(smoothstep_path(1, 1), 20.0)
        ds = dark_space(proto.L_rot)
        with pytest.raises(ConvergenceError, match=r"tau in \[0, 0\.5\]: error estimate") as info:
            evolve_effective(dark_state_from_bloch((0.0, 0.0, 1.0)), proto, ds, [0.5],
                             mode="unitary", rtol=0.0, atol=0.0)
        assert info.value.interval == (0.0, 0.5)
        assert info.value.tau == 0.0
        assert info.value.estimate > 0.0
        assert isinstance(info.value, NUMERICAL_ERRORS)

    @pytest.mark.parametrize("tolerances", [(-1e-10, 1e-13), (1e-10, -1e-13), (math.nan, 1e-13)])
    def test_rejects_negative_tolerances(self, tolerances, spin32_linear, spin32_ds):
        rtol, atol = tolerances
        with pytest.raises(ValueError, match="non-negative"):
            evolve_effective(dark_state_from_bloch((0.0, 0.0, 1.0)), spin32_linear, spin32_ds,
                             [200.0], rtol=rtol, atol=atol)

    def test_tolerances_take_effect(self, spin32_ds):
        proto = spin32_protocol(smoothstep_path(1, 1), 20.0)
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        oracle = joint_ode_states(rho0, proto, spin32_ds, [20.0], rtol=1e-10)[-1]
        errors = []
        for rtol, atol in ((1e-4, 1e-13), (1e-10, 1e-13), (0.0, 1e-4), (0.0, 1e-10)):
            final = evolve_effective(rho0, proto, spin32_ds, [20.0], rtol=rtol, atol=atol)[-1]
            errors.append(trace_distance(final, oracle))
        assert errors[1] < errors[0] and errors[3] < errors[2]

    def test_unphysical_state_is_reported_not_projected(self, spin32_linear, spin32_ds):
        rho0 = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvariantViolationError, match="positivity violated at tau=") as info:
            evolve_effective(rho0, spin32_linear, spin32_ds, np.linspace(0.0, 200.0, 33))
        assert 0.0 < info.value.tau <= 6.25  # at the first breakpoint

    def test_rejects_times_outside_the_cycle(self, spin32_linear, spin32_ds):
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        for taus in ([-1.0, 100.0], [100.0, 200.5]):
            with pytest.raises(ValueError, match="gammaT"):
                evolve_effective(rho0, spin32_linear, spin32_ds, taus)

