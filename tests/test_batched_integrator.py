"""The brute-force DOP853 integrator, one generator call per step attempt.

``integrate`` asks ``gen_of_t`` once per step attempt for the attempt's eleven
distinct stage times, in increasing order, as one array, and turns the
generator stack into superoperators.  These tests gate the array generators
against their scalar evaluation, the integrator at its default tolerances
against itself at a tight one in both frames, and its step counters.
"""

import math

import numpy as np
import pytest

from darklind.analysis import dark_state_from_bloch, trace_distance
from darklind.effective import (
    adiabatic_hamiltonian,
    dark_space,
    embed_dark,
    lab_generator,
    rotating_generator,
)
from darklind.engine import LindbladGenerator, integrate, vectorize
from darklind.linalg import dagger
from darklind.protocols import (
    custom_protocol,
    fourier_path,
    lab_jump,
    linear_path,
    smoothstep_path,
    spin32_protocol,
    spin_operators,
)


def spin52_protocol(gammaT):
    """Spin-5/2 custom protocol: one S_y winding, lowering jump, dimension 6."""
    sx, sy, _ = spin_operators(5)
    turn = 2.0 * math.pi
    return custom_protocol(
        [sy], [lambda s: turn * s], dagger(sx + 1j * sy), gammaT, dangles=[lambda s: turn]
    )


PROTOCOLS = {
    "linear": lambda g: spin32_protocol(linear_path(1, 0), g),
    "smoothstep": lambda g: spin32_protocol(smoothstep_path(1, 1), g),
    "fourier": lambda g: spin32_protocol(
        fourier_path(1, 1, theta_knots=(0.2, -0.1), phi_knots=(0.15,)), g
    ),
    "spin52": spin52_protocol,
}
FRAMES = {"lab": lab_generator, "rotating": rotating_generator}


def scalar_generator(frame, proto, tau):
    """The generator at one time from the one-phase primitives."""
    s = min(max(tau / proto.gammaT, 0.0), 1.0)
    if frame == "lab":
        return LindbladGenerator(hamiltonian=None, jumps=(lab_jump(proto, s),))
    return LindbladGenerator(
        adiabatic_hamiltonian(proto, s), (proto.L_rot,), 1.0 / proto.gammaT
    )


def initial_state(proto):
    ds = dark_space(proto.L_rot)
    rho_d = dark_state_from_bloch((0.0, 0.6, 0.8)) if ds.d == 2 else np.eye(1, dtype=complex)
    return embed_dark(ds, rho_d)


class TestGeneratorsOnTimeArrays:
    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_matches_scalar_calls(self, name, frame):
        proto = PROTOCOLS[name](40.0)
        # stage-like times across the cycle, its two ends and one past each end (clipped)
        taus = np.concatenate([[-0.5, 0.0], np.linspace(0.3, 39.7, 17), [40.0, 40.5]])
        batch = FRAMES[frame](proto)(taus)
        sups = vectorize(batch)
        assert sups.shape == (taus.size, proto.dim**2, proto.dim**2)
        for k, tau in enumerate(taus):
            one = FRAMES[frame](proto)(float(tau))
            for gen in (one, scalar_generator(frame, proto, float(tau))):
                if frame == "lab":
                    assert np.linalg.norm(batch.jumps[0][k] - gen.jumps[0]) <= 1e-14
                else:
                    assert np.linalg.norm(batch.hamiltonian[k] - gen.hamiltonian) <= 1e-14
                assert np.linalg.norm(sups[k] - vectorize(gen)) <= 1e-14 * max(
                    1.0, np.linalg.norm(sups[k])
                )

    @pytest.mark.parametrize("frame", FRAMES)
    def test_one_time_gives_single_matrices(self, frame, spin32_linear):
        gen = FRAMES[frame](spin32_linear)(3.0)
        assert gen.dim == 4
        matrices = gen.jumps if frame == "lab" else (gen.hamiltonian,)
        assert all(m.shape == (4, 4) for m in matrices)


class TestStackedGenerator:
    def test_non_hermitian_element_raises(self, rng):
        a = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        hs = a + dagger(a)
        LindbladGenerator(hamiltonian=hs, jumps=())
        hs[1, 0, 1] += 0.1
        with pytest.raises(ValueError, match=r"Hermitian to 1e-10 \(element 1 of the stack\)"):
            LindbladGenerator(hamiltonian=hs, jumps=())

    def test_dimension_from_last_axis(self):
        assert LindbladGenerator(None, (np.zeros((5, 3, 3)),)).dim == 3
        assert LindbladGenerator(np.zeros((5, 2, 2)), ()).dim == 2

    def test_dimension_mismatch_rejected(self, spin32_linear):
        with pytest.raises(ValueError, match="dimension mismatch"):
            integrate(lab_generator(spin32_linear), np.eye(2, dtype=complex) / 2, (0.0, 1.0))


class TestIntegrate:
    def test_one_generator_call_per_step_attempt(self, spin32_linear):
        proto = spin32_linear.with_gammaT(20.0)
        calls = []
        gen = lab_generator(proto)

        def recorded(taus):
            calls.append(np.array(taus))
            return gen(taus)

        traj = integrate(recorded, initial_state(proto), (0.0, 20.0))
        stats = traj.step_stats
        attempts = stats.accepted + stats.rejected
        assert stats.generator_calls == attempts + 1 == len(calls)
        assert stats.rhs_evaluations == 12 * attempts + 1
        assert np.array_equal(calls[0], [0.0])
        for taus in calls[1:]:
            assert taus.shape == (11,) and np.all(np.diff(taus) > 0.0)
        assert calls[-1][-1] == 20.0  # the last attempt's c = 1 node ends the run

    def test_counters_repeat(self):
        proto = PROTOCOLS["smoothstep"](20.0)
        runs = [integrate(lab_generator(proto), initial_state(proto), (0.0, 20.0)) for _ in range(2)]
        assert runs[0].step_stats == runs[1].step_stats
        stats = runs[0].step_stats
        assert stats.generator_calls == stats.accepted + stats.rejected + 1
        assert np.array_equal(runs[0].final, runs[1].final)

    def test_constant_generator_broadcasts(self, rng, spin32_linear):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gen = LindbladGenerator(a + dagger(a), (spin32_linear.L_rot,), 0.2)
        rho0 = initial_state(spin32_linear)
        constant = integrate(lambda t: gen, rho0, (0.0, 3.0))
        stacked = integrate(
            lambda t: LindbladGenerator(
                np.broadcast_to(gen.hamiltonian, t.shape + (4, 4)),
                (np.broadcast_to(spin32_linear.L_rot, t.shape + (4, 4)),),
                0.2,
            ),
            rho0, (0.0, 3.0),
        )
        assert constant.step_stats == stacked.step_stats
        assert np.array_equal(constant.final, stacked.final)

    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_default_tolerances_within_gate_of_tight_run(self, name, frame):
        proto = PROTOCOLS[name](20.0)
        rho0 = initial_state(proto)
        taus = np.linspace(0.0, 20.0, 9)
        default = integrate(FRAMES[frame](proto), rho0, (0.0, 20.0), checkpoints=taus)
        tight = integrate(FRAMES[frame](proto), rho0, (0.0, 20.0), rtol=1e-11, atol=1e-14,
                          checkpoints=taus)
        assert len(default.states) == len(tight.states) == taus.size
        assert max(trace_distance(a, b) for a, b in zip(default.states, tight.states)) <= 1e-9
