import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from darklind import engine
from darklind.analysis import dark_state_from_bloch, trace_distance
from darklind.effective import dark_space, embed_dark, lab_generator
from darklind.engine import (
    GaplessLindbladianError,
    LindbladGenerator,
    InvariantViolationError,
    StepSizeUnderflowError,
    check_invariants,
    asymptotic_channel,
    dark_block_kraus,
    integrate,
    kraus_from_channel,
    lindblad_rhs,
    spectral_gap,
    validate_density_matrix,
    vectorize,
)
from darklind.linalg import dagger
from darklind.protocols import linear_path, spin32_protocol

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # lowers m in the descending basis


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ dagger(a)
    return rho / np.trace(rho).real


def apply_superoperator(sup, rho):
    """A vectorised superoperator applied to a matrix."""
    return (sup @ rho.reshape(-1)).reshape(rho.shape)


def spin32_gen(protocol):
    return LindbladGenerator(hamiltonian=None, jumps=(protocol.L_rot,))


class TestRhs:
    def test_dark_state_is_fixed_point(self, spin32_linear, spin32_ds):
        rho = spin32_ds.basis[:, [0]] @ dagger(spin32_ds.basis[:, [0]])
        out = lindblad_rhs(rho, spin32_gen(spin32_linear))
        assert np.linalg.norm(out) <= 1e-12

    def test_stretched_state_decay(self, spin32_linear):
        # |3/2> decays into |1/2>: L|3/2> = sqrt(3)|1/2>, L^dag L|3/2> = 3|3/2>
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 3.0
        expected[0, 0] = -3.0
        out = lindblad_rhs(rho, spin32_gen(spin32_linear))
        assert np.linalg.norm(out - expected) <= 1e-12

    def test_traceless_and_hermitian(self, rng, spin32_linear):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gen = LindbladGenerator(
            hamiltonian=h + dagger(h), jumps=(spin32_linear.L_rot,), hamiltonian_prefactor=0.05
        )
        rho = random_density(rng, 4)
        out = lindblad_rhs(rho, gen)
        assert abs(np.trace(out)) <= 1e-12
        assert np.linalg.norm(out - dagger(out)) <= 1e-12

    def test_dimension_mismatch(self, spin32_linear):
        with pytest.raises(ValueError, match="mismatch"):
            lindblad_rhs(np.eye(2) / 2, spin32_gen(spin32_linear))

    def test_hamiltonian_must_be_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            LindbladGenerator(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]), jumps=())

    @pytest.mark.parametrize("k", [0, 3])
    def test_names_the_non_hermitian_element_of_a_stack(self, rng, k):
        h = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        h = h + dagger(h)
        LindbladGenerator(hamiltonian=h, jumps=())
        h[k, 0, 1] += 0.5
        with pytest.raises(ValueError, match=rf"Hermitian to 1e-10 \(element {k} of the stack\)"):
            LindbladGenerator(hamiltonian=h, jumps=())


class TestIntegrate:
    def test_zero_generator_keeps_state(self, rng):
        rho0 = random_density(rng, 3)
        gen = LindbladGenerator(hamiltonian=np.zeros((3, 3)), jumps=())
        traj = integrate(lambda t: gen, rho0, (0.0, 5.0))
        assert trace_distance(traj.final, rho0) <= 1e-12

    @pytest.mark.parametrize("rtol, atol", [
        (np.nan, 1e-12), (1e-9, np.nan), (-1e-9, 1e-12), (1e-9, 0.0), (0.0, 0.0),
    ])
    def test_rejects_negative_or_nan_tolerances(self, rtol, atol):
        # a zero atol leaves the error scale atol + rtol|rho| zero on vanishing entries
        message = "atol must be positive" if atol == 0.0 else "rtol and atol must be non-negative"
        gen = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=())
        with pytest.raises(ValueError, match=message):
            integrate(lambda t: gen, np.eye(2) / 2, (0.0, 1.0), rtol=rtol, atol=atol)

    @pytest.mark.parametrize("rtol, atol, named", [
        (np.inf, 1e-12, "rtol is inf"), (1e-9, np.inf, "atol is inf"),
        (np.nan, 1e-12, "rtol is nan"), (1e-9, np.nan, "atol is nan"),
    ])
    def test_rejects_non_finite_tolerances(self, spin32_linear, spin32_ds, rtol, atol, named):
        # an infinite rtol accepts every step, and the run ends in a
        # positivity violation at tau 3.84; each is named before the generator is called
        from darklind.analysis import dark_state_from_bloch
        from darklind.effective import embed_dark, lab_generator

        calls = []

        def gen(taus, inner=lab_generator(spin32_linear.with_gammaT(20.0))):
            calls.append(taus)
            return inner(taus)

        rho0 = embed_dark(spin32_ds, dark_state_from_bloch((0.0, 0.0, 1.0)))
        with pytest.raises(ValueError, match=named):
            integrate(gen, rho0, (0.0, 20.0), rtol=rtol, atol=atol)
        assert calls == []

    def test_lab_frame_run_broadcasts_nothing(self, monkeypatch, spin32_linear, spin32_ds):
        # every stack the lab generator builds has the stage times' shape already
        from darklind.analysis import dark_state_from_bloch
        from darklind.effective import embed_dark, lab_generator

        calls = []
        broadcast_to = np.broadcast_to

        def spy(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return broadcast_to(*args, **kwargs)

        monkeypatch.setattr(np, "broadcast_to", spy)
        rho0 = embed_dark(spin32_ds, dark_state_from_bloch((0.0, 0.0, 1.0)))
        traj = integrate(lab_generator(spin32_linear.with_gammaT(10.0)), rho0, (0.0, 10.0))
        assert traj.step_stats.generator_calls > 50
        assert calls == []

    def test_generator_of_single_matrices_stands_for_every_time(self, rng, spin32_linear):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gen = LindbladGenerator(h + dagger(h), (spin32_linear.L_rot,), 0.3)
        rho0 = random_density(rng, 4)
        single = integrate(lambda t: gen, rho0, (0.0, 2.0))
        stacked = integrate(
            lambda t: LindbladGenerator(np.broadcast_to(gen.hamiltonian, t.shape + (4, 4)),
                                        (np.broadcast_to(gen.jumps[0], t.shape + (4, 4)),), 0.3),
            rho0, (0.0, 2.0))
        assert np.array_equal(single.final, stacked.final)
        assert single.step_stats == stacked.step_stats

    @pytest.mark.parametrize("span, checkpoints, message", [
        ((0.0, np.nan), None, "tau_span bound nan is not finite"),
        ((0.0, np.inf), None, "tau_span bound inf is not finite"),
        ((-np.inf, 20.0), None, "tau_span bound -inf is not finite"),
        ((0.0, 20.0), [5.0, np.nan], "checkpoint nan is not finite"),
        ((0.0, 20.0), [np.inf], "checkpoint inf is not finite"),
    ])
    def test_rejects_non_finite_times(self, spin32_linear, spin32_ds, span, checkpoints, message):
        # unchecked, a NaN end gives back the start state after no step and a
        # NaN checkpoint is dropped; each is named before the generator is called
        from darklind.analysis import dark_state_from_bloch
        from darklind.effective import embed_dark, rotating_generator

        proto = spin32_linear.with_gammaT(20.0)
        calls = []

        def gen(taus, inner=rotating_generator(proto)):
            calls.append(taus)
            return inner(taus)

        rho0 = embed_dark(spin32_ds, dark_state_from_bloch((0.0, 0.0, 1.0)))
        with pytest.raises(ValueError, match=message):
            integrate(gen, rho0, span, checkpoints=checkpoints)
        assert calls == []

    def test_constant_generator_matches_matrix_exponential(self, rng, spin32_linear):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gen = LindbladGenerator(h + dagger(h), (spin32_linear.L_rot,), 0.3)
        rho0 = random_density(rng, 4)
        tau = 3.0
        traj = integrate(lambda t: gen, rho0, (0.0, tau), rtol=1e-11, atol=1e-14)
        exact = scipy.linalg.expm(tau * vectorize(gen)) @ rho0.reshape(-1)
        assert np.max(np.abs(traj.final.reshape(-1) - exact)) <= 1e-12

    def test_relaxation_into_dark_space(self, spin32_linear, spin32_ds):
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        gen = spin32_gen(spin32_linear)
        traj = integrate(lambda t: gen, rho0, (0.0, 50.0))
        p_perp = np.eye(4) - spin32_ds.projector
        leak = np.linalg.norm(p_perp @ traj.final @ spin32_ds.projector) + np.linalg.norm(
            p_perp @ traj.final @ p_perp
        )
        assert leak <= 1e-8
        channel = asymptotic_channel(vectorize(gen))
        assert trace_distance(traj.final, apply_superoperator(channel, rho0)) <= 1e-6

    def test_matches_matrix_exponential_oracle(self, rng, spin32_linear):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gen = LindbladGenerator(
            hamiltonian=h + dagger(h), jumps=(spin32_linear.L_rot,), hamiltonian_prefactor=0.2
        )
        rho0 = random_density(rng, 4)
        traj = integrate(lambda t: gen, rho0, (0.0, 3.0), rtol=1e-10, atol=1e-13)
        propagator = scipy.linalg.expm(3.0 * vectorize(gen))
        assert trace_distance(traj.final, apply_superoperator(propagator, rho0)) <= 1e-8

    def test_refinement_self_consistency(self, spin32_linear, spin32_ds):
        from darklind.effective import embed_dark, lab_generator

        rho0 = embed_dark(spin32_ds, np.diag([0.7, 0.3]).astype(complex))
        proto = spin32_linear.with_gammaT(50.0)
        fine = integrate(lab_generator(proto), rho0, (0.0, 50.0), rtol=1e-9, atol=1e-12)
        finer = integrate(lab_generator(proto), rho0, (0.0, 50.0), rtol=1e-10, atol=1e-13)
        assert trace_distance(fine.final, finer.final) <= 1e-8

    def test_invariants_along_trajectory(self, spin32_linear, spin32_ds):
        from darklind.effective import embed_dark, lab_generator

        proto = spin32_linear.with_gammaT(60.0)
        rho0 = embed_dark(spin32_ds, np.diag([0.5, 0.5]).astype(complex))
        taus = np.linspace(0.0, 60.0, 13)
        traj = integrate(lab_generator(proto), rho0, (0.0, 60.0), checkpoints=taus)
        assert traj.step_stats.accepted > 0
        assert len(traj.states) == taus.size
        for state in traj.states:
            assert abs(np.trace(state).real - 1.0) <= 1e-9
            assert np.linalg.norm(state - dagger(state)) <= 1e-10
            assert np.linalg.eigvalsh(state).min() >= -1e-8

    def test_trace_conserved_over_long_span(self, spin32_linear, spin32_ds):
        gen = spin32_gen(spin32_linear)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 0.5
        rho0[2, 2] = 0.5
        traj = integrate(lambda t: gen, rho0, (0.0, 1000.0), rtol=1e-8, atol=1e-11)
        assert abs(np.trace(traj.final).real - 1.0) <= 1e-9
        assert np.linalg.norm(traj.final - dagger(traj.final)) <= 1e-10

    def test_rejects_invalid_initial_state(self):
        gen = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=())
        with pytest.raises(ValueError):
            integrate(lambda t: gen, np.eye(2, dtype=complex), (0.0, 1.0))  # trace 2

    def test_step_underflow_at_the_smallest_tolerances_warns_nothing(self):
        # at rtol = atol = 1e-300 the error ratios pass 1e154, whose squares
        # overflowed the plain norm: three RuntimeWarnings came before the
        # underflow, which must still end the run at its first step
        proto = spin32_protocol(linear_path(1, 0), 50.0)
        rho0 = embed_dark(dark_space(proto.L_rot), dark_state_from_bloch((0.0, 0.0, 1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeUnderflowError) as caught:
                integrate(lab_generator(proto), rho0, (0.0, 50.0), rtol=1e-300, atol=1e-300)
        assert caught.value.tau == 0.0

    def test_error_norm_is_the_plain_norm_scaled_by_powers_of_two(self, rng):
        # where the plain formula overflows nowhere the norm has its bits, and a
        # scale 2^-900 times smaller, whose plain squares overflow, gives
        # exactly 2^900 times the norm
        def plain(h, e5, e3, scale):
            r5, r3 = np.abs(e5) / scale, np.abs(e3) / scale
            sq5 = r5.dot(r5)
            denom = sq5 + 0.01 * r3.dot(r3)
            return 0.0 if denom == 0.0 else float(h * sq5 / math.sqrt(denom * e5.size))

        for _ in range(50):
            e5, e3 = (rng.normal(size=(2, 16)) * 10.0 ** rng.uniform(-12, 2, size=(2, 1)))
            scale = 1e-12 + 1e-9 * rng.uniform(size=16)
            h = float(rng.uniform(1e-3, 1.0))
            norm = engine._error_norm(h, e5, e3, scale)
            assert norm == plain(h, e5, e3, scale)
            assert engine._error_norm(h, e5, e3, scale * 2.0**-900) == norm * 2.0**900
        zeros = np.zeros(16)
        assert engine._error_norm(0.1, zeros, zeros, np.full(16, 1e-300)) == 0.0

    def test_step_underflow_on_nan_dynamics(self):
        bad = LindbladGenerator(hamiltonian=None, jumps=(np.array([[np.nan + 0j]]),))
        rho0 = np.array([[1.0 + 0j]])
        with pytest.raises(StepSizeUnderflowError):
            integrate(lambda t: bad, rho0, (0.0, 1.0))

    def test_validate_density_matrix(self):
        validate_density_matrix(np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(np.array([[0.5, 0.4], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(ValueError, match="eigenvalue"):
            validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_validate_density_matrix_rejects_non_finite(self, bad, where):
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[where] = bad
        if where == (0, 1):
            rho[1, 0] = np.conj(bad)
        with pytest.raises(ValueError, match="NaN or infinite"):
            validate_density_matrix(rho)


class TestLandings:
    """Each stop of ``integrate`` (the checkpoints after t0, then t1) stored once, on a 30-long cycle.

    The times and step counts are pinned to those of the run before the stop
    loop; a landing is t + h, so a checkpoint within 1e-12 of t1 keeps its
    own value, and one within 1e-12 of t0 stands for t0.
    """

    @staticmethod
    def run(spin32_linear, spin32_ds, span, checkpoints):
        from darklind.analysis import dark_state_from_bloch
        from darklind.effective import embed_dark, rotating_generator

        rho0 = embed_dark(spin32_ds, dark_state_from_bloch((0.0, 0.0, 1.0)))
        gen = rotating_generator(spin32_linear.with_gammaT(30.0))
        return integrate(gen, rho0, span, checkpoints=checkpoints)

    @pytest.mark.parametrize("span, checkpoints, times, stats", [
        ((0.0, 30.0), [5.0, 5.0, 30.0], [5.0, 5.0, 30.0], (62, 0, 745, 63)),
        ((0.0, 30.0), [1e-13, 10.0], [0.0, 10.0, 30.0], (63, 0, 757, 64)),
        ((0.0, 30.0), [10.0, 30.0 - 1e-13], [10.0, 30.0 - 1e-13], (63, 0, 757, 64)),
        ((0.0, 0.0), [0.0], [0.0], (0, 0, 0, 0)),
    ], ids=["duplicates", "near-t0", "near-t1", "zero-span"])
    def test_pinned_times_and_work(self, spin32_linear, spin32_ds, span, checkpoints, times,
                                   stats):
        traj = self.run(spin32_linear, spin32_ds, span, checkpoints)
        assert np.array_equal(traj.times, times)
        assert traj.step_stats == engine.StepStats(*stats)
        assert len(traj.states) == len(times)
        if checkpoints[:2] == [5.0, 5.0]:
            assert np.array_equal(traj.states[0], traj.states[1])

    def test_every_stop_gives_one_state(self, spin32_linear, spin32_ds):
        # a repeated last checkpoint is a stop of its own, as a repeated first one is
        traj = self.run(spin32_linear, spin32_ds, (0.0, 30.0), [5.0, 30.0, 30.0])
        assert np.array_equal(traj.times, [5.0, 30.0, 30.0])
        assert np.array_equal(traj.states[1], traj.states[2])

    def test_a_gap_to_t1_is_snapped(self, spin32_linear, spin32_ds):
        # a checkpoint 1e-11 short of t1 leaves a gap below the snap threshold
        # 1e-12 * 30: the last state is t1's, at t1, with no step of its own
        traj = self.run(spin32_linear, spin32_ds, (0.0, 30.0), [30.0 - 1e-11])
        assert np.array_equal(traj.times, [30.0 - 1e-11, 30.0])
        assert np.array_equal(traj.states[0], traj.states[1])


class TestDop853Tableau:
    """The hand-typed Dormand-Prince 8(5,3) coefficients of ``integrate``."""

    def test_nodes_are_row_sums(self):
        for i, row in enumerate(engine._DOP_A):
            assert abs(row.sum() - engine._DOP_C[i]) <= 1e-15

    @pytest.mark.parametrize("q", range(1, 9))
    def test_quadrature_conditions(self, q):
        assert abs(engine._DOP_B @ engine._DOP_C ** (q - 1) - 1.0 / q) <= 1e-14

    def test_error_weights_sum_to_zero(self):
        assert abs(engine._DOP_E5.sum()) <= 1e-15
        assert abs(engine._DOP_E3.sum()) <= 1e-15

    def test_stage_nodes_are_the_distinct_cs_in_increasing_order(self):
        assert len(set(engine._DOP_C[1:])) == 11
        assert np.array_equal(engine._DOP_NODES, np.unique(engine._DOP_C[1:]))

    def test_stage_nodes_sorted_and_mapped(self):
        nodes = engine._DOP_NODES
        assert nodes.shape == (11,) and np.all(np.diff(nodes) > 0.0) and nodes[-1] == 1.0
        assert np.array_equal(nodes[engine._DOP_STAGE_NODE[1:]], engine._DOP_C[1:])


class TestCheckInvariants:
    def test_names_tau_and_violation(self):
        check_invariants(3.0, np.diag([0.7, 0.3]).astype(complex))
        with pytest.raises(InvariantViolationError, match="positivity violated at tau=3"):
            check_invariants(3.0, np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(InvariantViolationError, match="trace"):
            check_invariants(1.0, np.diag([0.7, 0.4]).astype(complex))
        # the margin scales the tolerances
        check_invariants(1.0, np.diag([0.7, 0.3 + 5e-8]).astype(complex), 100.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_names_tau(self, bad):
        rho = np.array([[0.5, bad], [bad, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolationError, match="finiteness violated at tau=2.5") as exc:
            check_invariants(2.5, rho, 100.0)
        assert exc.value.tau == 2.5 and exc.value.what == "finiteness"


class TestVectorize:
    def test_hamiltonian_only_formula(self, rng):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = h + dagger(h)
        gen = LindbladGenerator(hamiltonian=h, jumps=(), hamiltonian_prefactor=0.7)
        expected = -0.7j * (np.kron(h, np.eye(2)) - np.kron(np.eye(2), h.T))
        assert np.linalg.norm(vectorize(gen) - expected) <= 1e-12

    def test_action_matches_rhs(self, rng, spin32_linear):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gen = LindbladGenerator(
            hamiltonian=h + dagger(h), jumps=(spin32_linear.L_rot,), hamiltonian_prefactor=0.3
        )
        sup = vectorize(gen)
        for _ in range(10):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert (
                np.linalg.norm(apply_superoperator(sup, m) - lindblad_rhs(m, gen)) <= 1e-10
            )

    def test_multi_jump_action_matches_rhs(self, rng):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        jumps = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        gen = LindbladGenerator(h + dagger(h), tuple(jumps), 0.3)
        sup = vectorize(gen)
        for _ in range(10):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rhs = lindblad_rhs(m, gen)
            assert np.linalg.norm(apply_superoperator(sup, m) - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_spin32_kernel_dimension(self, spin32_linear):
        sup = vectorize(spin32_gen(spin32_linear))
        rank = np.linalg.matrix_rank(sup, tol=1e-10)
        assert sup.shape == (16, 16)
        assert 16 - rank == 4  # d^2 dark matrix units

    def test_zero_generator(self):
        gen = LindbladGenerator(hamiltonian=np.zeros((3, 3)), jumps=())
        assert np.linalg.norm(vectorize(gen)) == 0.0

    def test_stack_matches_each_generator(self, rng):
        hs = rng.normal(size=(5, 2, 3, 3)) + 1j * rng.normal(size=(5, 2, 3, 3))
        hs = hs + dagger(hs)
        jumps = rng.normal(size=(5, 2, 3, 3)) + 1j * rng.normal(size=(5, 2, 3, 3))
        sups = vectorize(LindbladGenerator(hs, (jumps,), 0.4))
        assert sups.shape == (5, 2, 9, 9)
        for k in np.ndindex(5, 2):
            gen = LindbladGenerator(hamiltonian=hs[k], jumps=(jumps[k],), hamiltonian_prefactor=0.4)
            assert np.array_equal(sups[k], vectorize(gen))


def kron_superoperator(h, jumps, prefactor):
    """The superoperator of one generator as the explicit np.kron sum of its terms."""
    dim = (h if h is not None else jumps[0]).shape[-1]
    eye = np.eye(dim)
    sup = np.zeros((dim * dim, dim * dim), dtype=complex)
    if h is not None:
        sup += -1j * prefactor * (np.kron(h, eye) - np.kron(eye, h.T))
    for jump in jumps:
        jdj = dagger(jump) @ jump
        sup += np.kron(jump, jump.conj()) - 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T))
    return sup


@settings(max_examples=60)
@given(
    dim=st.integers(1, 6),
    n_jumps=st.integers(0, 3),
    with_hamiltonian=st.booleans(),
    prefactor=st.floats(-3.0, 3.0).filter(lambda p: p != 1.0),
    stacked=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_vectorize_matches_kron_sum_and_rhs(dim, n_jumps, with_hamiltonian, prefactor,
                                            stacked, seed):
    """vectorize against np.kron and lindblad_rhs, single matrices mixed with (2, 3) stacks."""
    if not (n_jumps or with_hamiltonian):
        n_jumps = 1
    rng = np.random.default_rng(seed)

    def matrix(stack):
        shape = ((2, 3) if stack else ()) + (dim, dim)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h = None
    if with_hamiltonian:
        a = matrix(stacked[-1])
        h = a + dagger(a)
    jumps = tuple(matrix(stacked[i]) for i in range(n_jumps))
    sups = vectorize(LindbladGenerator(h, jumps, prefactor))
    lead = np.broadcast_shapes(*(m.shape[:-2] for m in jumps + (() if h is None else (h,))))
    assert sups.shape == lead + (dim * dim, dim * dim)
    for k in np.ndindex(lead):
        hk = None if h is None else h[k if h.ndim > 2 else ()]
        jk = tuple(j[k if j.ndim > 2 else ()] for j in jumps)
        expected = kron_superoperator(hk, jk, prefactor)
        scale = max(1.0, np.linalg.norm(expected))
        assert np.linalg.norm(sups[k] - expected) <= 1e-13 * scale
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rhs = lindblad_rhs(m, LindbladGenerator(hk, jk, prefactor))
        assert np.linalg.norm(apply_superoperator(sups[k], m) - rhs) <= 1e-13 * scale * np.linalg.norm(m)


class TestWatch:
    """``integrate`` checks accepted states in stacks and still names the first bad one."""

    GAMMA_T = 20.0

    def lab_run(self, spin32_linear, spin32_ds):
        from darklind.effective import embed_dark, lab_generator

        proto = spin32_linear.with_gammaT(self.GAMMA_T)
        rho0 = embed_dark(spin32_ds, np.diag([0.7, 0.3]).astype(complex))
        return lab_generator(proto), rho0

    def leaking_run(self, monkeypatch, spin32_linear, spin32_ds, tau_star, fail_after=math.inf):
        """A lab run whose trace grows after tau_star.

        gen_of_t raises ValueError on the call after the one whose last stage
        time is ``fail_after``: the attempt after the step landing there.
        """
        gen, rho0 = self.lab_run(spin32_linear, spin32_ds)
        seen = {"taus": np.zeros(1)}

        def gen_of_t(taus):
            if seen["taus"][-1] == fail_after:
                raise ValueError("generator failed")
            seen["taus"] = np.asarray(taus)
            return gen(taus)

        eye_vec = np.eye(4).reshape(-1)

        def leaking(g):
            # adds 1e-3 tr(rho) I/4 to the slope at every stage time past tau_star
            late = (seen["taus"] > tau_star)[:, None, None]
            return vectorize(g) + late * (1e-3 / 4.0) * np.outer(eye_vec, eye_vec)

        monkeypatch.setattr(engine, "vectorize", leaking)
        return integrate(gen_of_t, rho0, (0.0, self.GAMMA_T))

    def test_stacked_watch_names_the_same_violation(self, monkeypatch, spin32_linear, spin32_ds):
        with pytest.raises(InvariantViolationError) as stacked:
            self.leaking_run(monkeypatch, spin32_linear, spin32_ds, 7.3)
        monkeypatch.setattr(engine, "_WATCH_BLOCK", 1)
        with pytest.raises(InvariantViolationError) as one_by_one:
            self.leaking_run(monkeypatch, spin32_linear, spin32_ds, 7.3)
        assert stacked.value.what == one_by_one.value.what == "trace"
        assert stacked.value.tau == one_by_one.value.tau > 7.3
        assert str(stacked.value) == str(one_by_one.value)

    def test_queued_violation_surfaces_over_a_later_error(
        self, monkeypatch, spin32_linear, spin32_ds
    ):
        monkeypatch.setattr(engine, "_WATCH_BLOCK", 1)
        with pytest.raises(InvariantViolationError) as first:
            self.leaking_run(monkeypatch, spin32_linear, spin32_ds, 7.3)
        monkeypatch.setattr(engine, "_WATCH_BLOCK", 64)
        # the generator fails on the attempt after the violating step
        with pytest.raises(InvariantViolationError) as queued:
            self.leaking_run(monkeypatch, spin32_linear, spin32_ds, 7.3, fail_after=first.value.tau)
        assert (queued.value.tau, queued.value.what) == (first.value.tau, first.value.what)
        assert isinstance(queued.value.__context__, ValueError)

    def test_eigvalsh_once_per_block(self, monkeypatch, spin32_linear, spin32_ds):
        gen, rho0 = self.lab_run(spin32_linear, spin32_ds)
        calls = []
        original = np.linalg.eigvalsh

        def counted(a):
            calls.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        traj = integrate(gen, rho0, (0.0, self.GAMMA_T))
        accepted = traj.step_stats.accepted
        assert accepted > 64
        assert len(calls) <= math.ceil(accepted / 64) + 1

    def test_margins_bound_the_checkpoint_states(self, spin32_linear, spin32_ds):
        gen, rho0 = self.lab_run(spin32_linear, spin32_ds)
        traj = integrate(gen, rho0, (0.0, self.GAMMA_T), checkpoints=np.linspace(0.0, 20.0, 9))
        herm, tr_dev, min_eig = engine._physicality(traj.states[1:])
        assert 0.0 <= herm.max() <= traj.worst_hermiticity <= 100 * engine.HERMITICITY_TOL
        assert 0.0 <= tr_dev.max() <= traj.worst_trace_deviation <= 100 * engine.TRACE_TOL
        assert -100 * engine.POSITIVITY_TOL <= traj.least_eigenvalue <= min_eig.min()

    def test_one_state_and_stack_measure_alike(self, rng):
        states = np.array([random_density(rng, 3) for _ in range(5)])
        states[2, 0, 1] = np.nan
        stacked = engine._physicality(states)
        for k, state in enumerate(states):
            one = engine._physicality(state)
            assert all(isinstance(v, float) for v in one)
            np.testing.assert_array_equal(one, [v[k] for v in stacked])
        assert all(math.isnan(v[2]) for v in stacked)


class TestSpectralGap:
    def test_sigma_minus_decay(self):
        sup = vectorize(LindbladGenerator(hamiltonian=None, jumps=(SIGMA_MINUS,)))
        eigs = np.sort(np.linalg.eigvals(sup).real)
        assert np.allclose(eigs, [-1.0, -0.5, -0.5, 0.0], atol=1e-12)
        assert abs(spectral_gap(sup) - 0.5) <= 1e-12

    def test_spin32_gap_regression(self, spin32_linear):
        sup = vectorize(spin32_gen(spin32_linear))
        # kernel decay exponent 3/2: coherence sector of the L^dag L eigenvalue 3
        assert abs(spectral_gap(sup) - 1.5) <= 1e-9

    def test_zero_generator_is_gapless(self):
        sup = np.zeros((9, 9), dtype=complex)
        assert spectral_gap(sup) is None


class TestAsymptoticChannel:
    def test_zero_generator_gives_identity(self):
        channel = asymptotic_channel(np.zeros((4, 4), dtype=complex))
        assert np.allclose(channel, np.eye(4), atol=1e-12)

    def test_idempotence_and_annihilation(self, spin32_linear):
        sup = vectorize(spin32_gen(spin32_linear))
        channel = asymptotic_channel(sup)
        assert np.linalg.norm(channel @ channel - channel) <= 1e-8
        assert np.linalg.norm(sup @ channel) <= 1e-8

    def test_twice_equals_once_on_states(self, rng, spin32_linear):
        channel = asymptotic_channel(vectorize(spin32_gen(spin32_linear)))
        for _ in range(10):
            rho = random_density(rng, 4)
            once = apply_superoperator(channel, rho)
            twice = apply_superoperator(channel, once)
            assert trace_distance(once, twice) <= 1e-10
            validate_density_matrix(once)
            assert np.linalg.eigvalsh(0.5 * (once + dagger(once))).min() >= -1e-9

    def test_output_is_a_fixed_point_of_the_flow(self, rng, spin32_linear):
        gen = spin32_gen(spin32_linear)
        channel = asymptotic_channel(vectorize(gen))
        settled = apply_superoperator(channel, random_density(rng, 4))
        traj = integrate(lambda t: gen, settled, (0.0, 10.0))
        assert trace_distance(traj.final, settled) <= 1e-8

    def test_rejects_purely_unitary_dynamics(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        sup = vectorize(LindbladGenerator(hamiltonian=h, jumps=()))
        with pytest.raises(GaplessLindbladianError):
            asymptotic_channel(sup)


class TestKraus:
    def test_identity_channel(self):
        ops = kraus_from_channel(np.eye(4, dtype=complex))
        assert len(ops) == 1
        phase = ops[0][0, 0]
        assert np.linalg.norm(ops[0] - phase * np.eye(2)) <= 1e-10
        assert abs(abs(phase) - 1.0) <= 1e-10

    def test_depolarizing_channel(self):
        # rho -> I/2: superoperator maps vec(rho) to tr(rho) vec(I)/2
        sup = np.zeros((4, 4), dtype=complex)
        eye_vec = np.eye(2).reshape(-1)
        for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            weight = 1.0 if i == j else 0.0
            sup[:, idx] = 0.5 * weight * eye_vec
        ops = kraus_from_channel(sup)
        assert len(ops) == 4
        total = sum(dagger(m) @ m for m in ops)
        assert np.linalg.norm(total - np.eye(2)) <= 1e-8

    def test_reconstructs_channel_action(self, rng, spin32_linear):
        channel = asymptotic_channel(vectorize(spin32_gen(spin32_linear)))
        ops = kraus_from_channel(channel)
        for _ in range(10):
            rho = random_density(rng, 4)
            direct = apply_superoperator(channel, rho)
            via_kraus = sum(m @ rho @ dagger(m) for m in ops)
            assert np.linalg.norm(direct - via_kraus) <= 1e-8

    def test_spin32_dark_block_structure(self, spin32_linear, spin32_ds):
        channel = asymptotic_channel(vectorize(spin32_gen(spin32_linear)))
        ops = dark_block_kraus(kraus_from_channel(channel), spin32_ds.projector)
        p0 = spin32_ds.projector
        dark_like = [m for m in ops if np.linalg.norm(p0 @ m @ p0 - p0) <= 1e-8]
        off_block = [m for m in ops if np.linalg.norm(p0 @ m @ p0) <= 1e-8]
        assert len(dark_like) == 1
        assert len(dark_like) + len(off_block) == len(ops)

    def test_rejects_non_cp_map(self):
        # the transpose map is positive but not completely positive
        dim = 2
        sup = np.zeros((4, 4), dtype=complex)
        for a in range(dim):
            for b in range(dim):
                sup[a * dim + b, b * dim + a] = 1.0
        with pytest.raises(ValueError, match="positive"):
            kraus_from_channel(sup)
