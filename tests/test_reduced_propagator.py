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

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import darklind.effective as eff
import darklind.linalg as linalg
from darklind.analysis import dark_state_from_bloch, trace_distance
from darklind.effective import dark_space, evolve_effective
from darklind.engine import InvariantViolationError
from darklind.linalg import _norms, dagger
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
    """Reduced states at sorted ``taus`` from the joint DOP853 integration of rho and X.

    ``rho0_d`` is one (d, d) start, or a (k, d, d) stack of starts carried in
    one run, each state then the (k, d, d) stack: the rho equation is linear
    and X does not depend on rho.
    """
    record = eff._cycle_record(protocol, ds)
    d = ds.d
    nb = record.rates.size
    eps = 1.0 / protocol.gammaT
    need_x = mode in ("full", "dissipator") and nb > 0
    starts = np.asarray(rho0_d, dtype=complex)

    def unpack(y):
        rho = y[: starts.size].reshape(starts.shape)
        x = y[starts.size:].reshape(nb, d) if need_x else None
        return rho, x

    def fun(tau, y):
        rho, x = unpack(y)
        s = min(max(tau / protocol.gammaT, 0.0), 1.0)
        u = protocol.U(s)
        h = 1j * protocol.dU(s) @ dagger(u)
        h = 0.5 * (h + dagger(h))
        drho = np.zeros(starts.shape, dtype=complex)
        if mode in ("full", "unitary"):
            h0 = eff.projected_hamiltonian(h, ds)
            drho += -1j * eps * (h0 @ rho - rho @ h0)
        dy = [drho.reshape(-1)]
        if need_x:
            dy[0] = dy[0] + eps**2 * eff._dissipator(record.reduce_jump @ x, rho).reshape(-1)
            drive = dagger(record.modes) @ h @ ds.basis
            dy.append((-0.5 * record.rates[:, None] * x + drive).reshape(-1))
        return np.concatenate(dy)

    y0 = [starts.reshape(-1)]
    if need_x:
        y0.append(np.zeros(nb * d, dtype=complex))
    sol = solve_ivp(
        fun, (0.0, float(max(taus))), np.concatenate(y0), method="DOP853",
        t_eval=sorted(taus), rtol=rtol, atol=rtol * 1e-3 if atol is None else atol,
        max_step=min(0.1 * protocol.gammaT, 2.0), first_step=min(0.01, protocol.gammaT / 1e3),
    )
    assert sol.success, sol.message
    return [unpack(y)[0] for y in sol.y.T]


def counting_u(proto) -> tuple:
    """The protocol with U wrapped to record the size of every call, and that record."""
    calls = []

    def counted(s, u_of=proto.U):
        calls.append(np.size(s))
        return u_of(s)

    proto = dataclasses.replace(proto, U=counted)
    calls.clear()  # construction samples the path
    return proto, calls


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


#: the starts of the large-gammaT case, by test id
LARGE_GAMMAT_STARTS = {"z": (0.0, 0.0, 1.0), "y": (0.0, 1.0, 0.0)}


@pytest.fixture(scope="module")
def large_gammaT_oracle():
    """linear(1, 0) at gammaT 3200, its 33 checkpoints, and the oracle's states per start.

    One oracle run carries every start of ``LARGE_GAMMAT_STARTS``.
    """
    proto = spin32_protocol(linear_path(1, 0), 3200.0)
    ds = dark_space(proto.L_rot)
    taus = np.linspace(0.0, 3200.0, 33)
    starts = np.stack([dark_state_from_bloch(n0) for n0 in LARGE_GAMMAT_STARTS.values()])
    slow = joint_ode_states(starts, proto, ds, taus)
    return proto, ds, taus, {name: [s[k] for s in slow] for k, name in enumerate(LARGE_GAMMAT_STARTS)}


@pytest.mark.parametrize("n0", list(LARGE_GAMMAT_STARTS))
def test_large_gammaT_matches_joint_ode(large_gammaT_oracle, n0):
    # rate h >> 1 on every step but the onset's: the kernel weights must stay
    # exact in the decay, where Gauss-Legendre node weights would underflow;
    # one oracle run serves both starts, the 33 checkpoints and the single time gammaT
    proto, ds, taus, oracle = large_gammaT_oracle
    rho0 = dark_state_from_bloch(LARGE_GAMMAT_STARTS[n0])
    slow = oracle[n0]
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


def wiggling_protocol(gammaT: float, windings: int = 1):
    """Two generators, the theta angle wiggling, phi winding ``windings`` times."""
    _, sy, sz = spin_operators(3)
    turn = 2.0 * math.pi
    return custom_protocol(
        [sy, sz],
        [lambda s: turn * s + 0.3 * np.sin(turn * s), lambda s: windings * turn * s],
        spin32_jump(),
        gammaT,
        dangles=[lambda s: turn * (1.0 + 0.3 * np.cos(turn * s)), lambda s: windings * turn],
    )


def test_custom_protocol_matches_joint_ode():
    taus = [0.0, 2.5, 10.0, 20.0]
    proto = wiggling_protocol(20.0)
    assert worst_distance(dark_state_from_bloch((0.0, 1.0, 0.0)), proto, taus) <= GATE


def test_a_fast_winding_drive_matches_joint_ode():
    # phi winds 8 times over the cycle record's 2048 steps, one CF4 step each
    # (measured 3.1e-11; 2.1e-9 at 32 windings, past the gate)
    taus = [0.0, 50.0, 200.0]
    proto = wiggling_protocol(200.0, windings=8)
    assert worst_distance(dark_state_from_bloch((0.0, 1.0, 0.0)), proto, taus) <= GATE


@settings(max_examples=5)
@given(
    theta_knots=st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=2),
    phi_knots=st.lists(st.floats(-0.3, 0.3), max_size=2),
    m_phi=st.integers(0, 1),
    gammaT=st.floats(20.0, 40.0),
)
# a path whose onset missed this gate (1.5e-9) when a propagator carried the kernel
# start between its intervals, each of them stepped on a coarse chain of its own
@example(theta_knots=[0.0, 0.25], phi_knots=[], m_phi=1, gammaT=20.0)
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
    def test_unphysical_state_is_reported_not_projected(self, spin32_linear, spin32_ds):
        rho0 = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvariantViolationError, match="positivity violated at tau=") as info:
            evolve_effective(rho0, spin32_linear, spin32_ds, np.linspace(0.0, 200.0, 33))
        assert info.value.tau == 6.25  # at the first checkpoint

    def test_rejects_times_outside_the_cycle(self, spin32_linear, spin32_ds):
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        for taus in ([-1.0, 100.0], [100.0, 200.5]):
            with pytest.raises(ValueError, match="gammaT"):
                evolve_effective(rho0, spin32_linear, spin32_ds, taus)

    @pytest.mark.parametrize("rho0, named", [
        (np.eye(3) / 3, r"shape \(3, 3\), not the dark block's \(2, 2\)"),
        (np.eye(4) / 4, r"shape \(4, 4\), not the dark block's \(2, 2\)"),
        (np.ones((1, 1)), r"shape \(1, 1\), not the dark block's \(2, 2\)"),
        (np.array([[0.5, 0.0], [0.0, math.nan]]), r"non-finite entry \(nan\+0j\)"),
    ], ids=["3x3", "full-space", "1x1", "nan"])
    def test_rejects_a_start_that_is_not_a_finite_dark_block(self, spin32_ds, rho0, named):
        # before any U call: a wrong shape would fail only when the prefix
        # products meet the start, after every step is formed, and a NaN at
        # the first invariant check; a finite start that is not a state is
        # evolved and reported instead (above)
        proto, calls = counting_u(spin32_protocol(smoothstep_path(1, 1), 200.0))
        with pytest.raises(ValueError, match=named):
            evolve_effective(rho0, proto, spin32_ds, np.linspace(0.0, 200.0, 33))
        assert calls == []

    @pytest.mark.parametrize("taus, bad", [
        ([5.0, math.nan, 10.0], "nan"), ([math.inf, 5.0], "inf"), ([5.0, -1.0, math.nan], "-1.0"),
    ])
    def test_names_the_first_bad_time_before_any_u_call(self, spin32_ds, taus, bad):
        # sorting leaves a NaN where it is: every time is checked, not the ends
        proto, calls = counting_u(spin32_protocol(linear_path(1, 0), 20.0))
        with pytest.raises(ValueError, match=rf"time {bad} outside \[0, gammaT = 20.0\]"):
            evolve_effective(dark_state_from_bloch((0.0, 0.0, 1.0)), proto, spin32_ds, taus)
        assert calls == []

    @pytest.mark.parametrize("tau", [300.0, -50.0, 200.0 + 1e-6, math.nan, math.inf, -math.inf])
    def test_every_mode_rejects_a_time_outside_the_cycle(self, spin32_ds, tau):
        # the per-tau queries' bad times, each named in every mode before any U call
        proto, calls = counting_u(spin32_protocol(linear_path(1, 0), 200.0))
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        for mode in eff._MODE_WEIGHTS:
            with pytest.raises(ValueError, match=rf"time {tau} outside \[0, gammaT = 200.0\]"):
                evolve_effective(rho0, proto, spin32_ds, [100.0, tau], mode=mode)
        assert calls == []


@pytest.mark.parametrize("taus", [[], [0.0]], ids=["none", "start"])
def test_no_interval_evaluates_nothing(spin32_ds, taus):
    # no time past 0: the start state itself, with no cycle pass and no step
    proto, calls = counting_u(spin32_protocol(smoothstep_path(1, 1), 200.0))
    rho0 = dark_state_from_bloch((0.0, 0.6, 0.8))
    states = evolve_effective(rho0, proto, spin32_ds, taus)
    assert len(states) == len(taus) and all(np.array_equal(s, rho0) for s in states)
    assert calls == []


@pytest.mark.parametrize("path, bound", [
    (linear_path(1, 0), 1e-13),
    (smoothstep_path(1, 1), 1e-13),
], ids=["linear", "smoothstep"])
def test_gauss_point_jumps_are_the_effective_jump(monkeypatch, path, bound, spin32_ds):
    # the ell that every CF4 step takes at its Gauss points against the
    # per-tau query at those times: both take the one partial step on the
    # record's interpolated samples, so they agree to roundoff (measured 0;
    # 6.9e-12 on smoothstep(1, 1) when the Gauss points took a quadratic
    # dense output of their whole cycle step)
    proto = spin32_protocol(path, 200.0)
    seen = []
    gauss_blocks = eff._MagnusPropagator._gauss_blocks

    def spied(self, t):
        h0, ell = gauss_blocks(self, t)
        seen.append((t, ell))
        return h0, ell

    monkeypatch.setattr(eff._MagnusPropagator, "_gauss_blocks", spied)
    evolve_effective(dark_state_from_bloch((0.0, 0.0, 1.0)), proto, spin32_ds,
                     np.linspace(0.0, 200.0, 9))
    t = np.concatenate([t for t, _ in seen])
    used = np.concatenate([ell for _, ell in seen])
    expected = eff.effective_jump(proto, spin32_ds, t)
    assert t.size == 2 * 2253  # two per step of the graded grid to gammaT (CF4_STEPS)
    assert np.abs(used - expected).max() <= bound * np.abs(expected).max()


#: CF4 steps from z with 33 checkpoints on each reduced path: the 2048 cycle
#: steps with the 205 (52 at gammaT 800) below the onset end, 60/rate = 20,
#: replaced by twice as many graded ones, and at gammaT 200 one partial step
#: for each of the three checkpoints inside the onset, which are no nodes
CF4_STEPS = {"linear-200": 2256, "linear-800": 2100, "smoothstep-200": 2256, "fourier-200": 2256}


def spy_steps(monkeypatch) -> list:
    """Record the number of CF4 steps of every stack ``_MagnusPropagator._steps`` forms."""
    steps = []
    form = eff._MagnusPropagator._steps

    def counting(self, starts, lengths):
        steps.append(lengths.size)
        return form(self, starts, lengths)

    monkeypatch.setattr(eff._MagnusPropagator, "_steps", counting)
    return steps


def halved(grid: np.ndarray) -> np.ndarray:
    """The grid with the midpoint of every step inserted."""
    out = np.empty(2 * grid.size - 1)
    out[0::2], out[1::2] = grid, 0.5 * (grid[:-1] + grid[1:])
    return out


#: the spin-3/2 paths of the halved-step test, each at gammaT 200 and 12800
HALVED_PATHS = {
    "linear": linear_path(1, 0),
    "smoothstep": smoothstep_path(1, 1),
    "fourier": fourier_path(1, 0, theta_knots=(0.17,), phi_knots=(-0.2,)),
}


class TestOneGrid:
    @pytest.mark.parametrize("gammaT", [200.0, 12800.0])
    @pytest.mark.parametrize("name", list(HALVED_PATHS) + ["wiggling"])
    def test_halving_every_step_moves_no_state(self, monkeypatch, name, gammaT):
        # the same record on a grid of twice the steps, from z and y: the
        # fourth-order steps leave the normal grid within 1e-12 of it, for
        # the custom drive too (measured 2.6e-13); no estimate guards a
        # faster drive (5e-12 with phi winding 4 times)
        if name == "wiggling":
            proto = wiggling_protocol(gammaT)
        else:
            proto = spin32_protocol(HALVED_PATHS[name], gammaT)
        ds = dark_space(proto.L_rot)
        taus = np.linspace(0.0, gammaT, 33)
        starts = [dark_state_from_bloch(n0) for n0 in ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0))]
        normal = [evolve_effective(rho0, proto, ds, taus) for rho0 in starts]
        graded = eff._graded_grid
        monkeypatch.setattr(eff, "_graded_grid", lambda nodes, rates: halved(graded(nodes, rates)))
        for rho0, states in zip(starts, normal):
            finer = evolve_effective(rho0, proto, ds, taus)
            assert max(np.abs(a - b).max() for a, b in zip(states, finer)) <= 1e-12

    @pytest.mark.parametrize("name", list(REDUCED_PATHS))
    def test_the_end_state_alone_is_the_last_checkpoint(self, name):
        # both runs step the same grid to gammaT and take the same prefix products
        path, gammaT = REDUCED_PATHS[name]
        proto = spin32_protocol(path, gammaT)
        ds = dark_space(proto.L_rot)
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        alone = evolve_effective(rho0, proto, ds, [gammaT])[-1]
        assert np.array_equal(alone, evolve_effective(rho0, proto, ds, np.linspace(0.0, gammaT, 33))[-1])

    def test_a_checkpoint_off_the_nodes_takes_one_partial_step(self, monkeypatch, spin32_ds):
        # 5.0 lies between two nodes of the graded onset: the run steps the
        # grid of a run to the node below it, then takes one partial step
        proto = spin32_protocol(linear_path(1, 0), 200.0)
        record = eff._cycle_record(proto, spin32_ds)
        grid = eff._graded_grid(record.nodes, record.rates)
        below = grid[np.searchsorted(grid, 5.0) - 1]
        assert below < 5.0
        steps = spy_steps(monkeypatch)
        rho0 = dark_state_from_bloch((0.0, 1.0, 0.0))
        at_node, off_node = (evolve_effective(rho0, proto, spin32_ds, [t])[-1] for t in (below, 5.0))
        assert steps[0] == steps[1] and steps[2:] == [1]
        assert not np.array_equal(off_node, at_node)
        assert trace_distance(off_node, joint_ode_states(rho0, proto, spin32_ds, [5.0])[-1]) <= GATE

    @pytest.mark.parametrize("gammaT, scale, onset, graded", [
        (20.0, 1.0, 2048, 4096), (200.0, 1.0, 205, 410), (800.0, 1.0, 52, 104),
        (12800.0, 1.0, 4, 64), (200.0, 16.0, 13, 64),
    ], ids=["whole-cycle", "200", "800", "12800", "fast-jump"])
    def test_the_onset_takes_graded_steps(self, spin32_ds, gammaT, scale, onset, graded):
        # the k cycle steps below the first node at or above 60/rate_min (20
        # for the spin-3/2 jump, 1.25 with the rates x16 of the jump x4), or
        # all of them, give way to max(64, 2k) steps at u^2 of the onset
        record = eff._cycle_record(spin32_protocol(linear_path(1, 0), gammaT), spin32_ds)
        nodes, rates = record.nodes, scale * record.rates
        end = 60.0 / rates.min()
        assert nodes[onset - 1] < end and (nodes[onset] >= end or onset == nodes.size - 1)
        grid = eff._graded_grid(nodes, rates)
        assert grid.size == graded + nodes.size - onset
        assert np.array_equal(grid[graded:], nodes[onset:])
        u = np.sqrt(grid[:graded] / nodes[onset])
        assert grid[0] == 0.0 and np.abs(u - np.arange(graded) / graded).max() <= 1e-15
        assert np.all(np.diff(grid) > 0.0)

    def test_a_record_without_a_bright_rate_keeps_its_nodes(self, spin32_linear, spin32_ds):
        nodes = eff._cycle_record(spin32_linear, spin32_ds).nodes
        assert eff._graded_grid(nodes, np.empty(0)) is nodes

    def test_every_mode_steps_the_same_grid(self, monkeypatch, spin32_ds):
        # a mode weights the two terms and leaves the grid and the partial steps alone
        proto = spin32_protocol(smoothstep_path(1, 1), 200.0)
        steps = spy_steps(monkeypatch)
        counts = []
        for mode in eff._MODE_WEIGHTS:
            steps.clear()
            evolve_effective(dark_state_from_bloch((0.0, 0.0, 1.0)), proto, spin32_ds,
                             np.linspace(0.0, 200.0, 33), mode=mode)
            counts.append(list(steps))
        assert counts[0] == counts[1] == counts[2] and sum(counts[0]) == CF4_STEPS["smoothstep-200"]

    @pytest.mark.parametrize("name", list(HALVED_PATHS))
    def test_the_full_generator_is_the_sum_of_its_terms(self, spin32_ds, name):
        # S is linear in the weighted H0 and in the weighted jump's dissipator,
        # so the full mode's superoperator is the unitary's plus the dissipator's
        proto = spin32_protocol(HALVED_PATHS[name], 200.0)
        t = np.linspace(0.0, 200.0, 41)
        full, unitary, dissipator = (eff._MagnusPropagator(proto, spin32_ds, *w)._generators(t)
                                     for w in eff._MODE_WEIGHTS.values())
        assert np.abs(unitary).max() > 0.0 and np.abs(dissipator).max() > 0.0
        assert np.abs(full - (unitary + dissipator)).max() <= 1e-15 * np.abs(full).max()


class TestHermitianCoordinates:
    @pytest.mark.parametrize("name", list(REDUCED_PATHS))
    def test_step_counts_are_pinned(self, monkeypatch, name):
        path, gammaT = REDUCED_PATHS[name]
        proto = spin32_protocol(path, gammaT)
        steps = spy_steps(monkeypatch)
        evolve_effective(dark_state_from_bloch((0.0, 0.0, 1.0)), proto, dark_space(proto.L_rot),
                         np.linspace(0.0, gammaT, 33))
        assert sum(steps) == CF4_STEPS[name]

    def test_series_sees_real_stacks_only(self, monkeypatch, spin32_ds):
        # every CF4 exponential of the reduced equation is taken in float64
        dtypes = []
        series = linalg._expm_series

        def spied(a):
            dtypes.append(a.dtype)
            return series(a)

        monkeypatch.setattr(linalg, "_expm_series", spied)
        proto = spin32_protocol(smoothstep_path(1, 1), 200.0)
        for mode in ("full", "unitary", "dissipator"):
            evolve_effective(dark_state_from_bloch((0.0, 0.6, 0.8)), proto, spin32_ds,
                             np.linspace(0.0, 200.0, 9), mode=mode)
        assert dtypes and set(dtypes) == {np.dtype(float)}

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_hermitian_matrices_round_trip_bit_for_bit(self, rng, d):
        coordinates = eff._HermitianCoordinates(d)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h, k = a + dagger(a), (a - dagger(a)) / 2j
        coords = coordinates.of(h)
        assert coords.shape == (d * d, 2) and coords.dtype == float
        assert np.array_equal(coords[:, 1], np.zeros(d * d))
        assert np.array_equal(coordinates.matrix(coords), h)
        # a general matrix H + iK: both parts kept
        both = coordinates.of(h + 1j * k)
        assert np.allclose(coordinates.matrix(both), h + 1j * k, rtol=0.0, atol=1e-15)

    def test_generator_that_breaks_hermiticity_raises(self, monkeypatch, spin32_ds):
        # vectorize maps any H0 and ell to rho -> A rho + rho A^dag + ell rho ell^dag,
        # which keeps rho Hermitian, so a broken generator is injected behind it:
        # S + i 1e-9 |S| 1 takes a Hermitian rho to one with an anti-Hermitian
        # part, which the real coordinates cannot carry; it must be reported with
        # its time, not made real
        vectorize = eff.vectorize

        def broken(gen):
            s = vectorize(gen)
            return s + 1e-9j * _norms(s)[..., None, None] * np.eye(s.shape[-1])

        monkeypatch.setattr(eff, "vectorize", broken)
        proto = spin32_protocol(smoothstep_path(1, 1), 20.0)
        with pytest.raises(ValueError, match="does not preserve Hermiticity") as info:
            evolve_effective(dark_state_from_bloch((0.0, 0.0, 1.0)), proto, spin32_ds, [10.0, 20.0])
        tau = float(str(info.value).split("tau=")[1].split()[0])
        assert 0.0 < tau < 20.0

    def test_anti_hermitian_part_is_evolved_not_dropped(self, spin32_ds):
        # rho0 + iK, K Hermitian and small enough for the invariant checks: the
        # state's anti-Hermitian part is iK carried by the same linear map as K
        proto = spin32_protocol(smoothstep_path(1, 1), 200.0)
        rho0 = dark_state_from_bloch((0.0, 0.6, 0.8))
        k = 1e-11 * np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.3]])
        taus = np.linspace(0.0, 200.0, 5)
        base, plus_k, plus_ik = (evolve_effective(rho, proto, spin32_ds, taus)
                                 for rho in (rho0, rho0 + k, rho0 + 1j * k))
        for b, h, a in zip(base, plus_k, plus_ik):
            moved = h - b  # K, evolved
            assert np.linalg.norm(moved) >= 0.1 * np.linalg.norm(k)
            assert np.linalg.norm((a - dagger(a)) / 2 - 1j * moved) <= 1e-4 * np.linalg.norm(moved)
            assert np.linalg.norm((a + dagger(a)) / 2 - b) <= 1e-15
