import numpy as np
import pytest
import scipy.linalg

from darklind.analysis import trace_distance
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


class TestIntegrate:
    def test_zero_generator_keeps_state(self, rng):
        rho0 = random_density(rng, 3)
        gen = LindbladGenerator(hamiltonian=np.zeros((3, 3)), jumps=())
        traj = integrate(lambda t: gen, rho0, (0.0, 5.0))
        assert trace_distance(traj.final, rho0) <= 1e-12

    @pytest.mark.parametrize("rtol, atol", [(np.nan, 1e-12), (1e-9, np.nan), (-1e-9, 1e-12)])
    def test_rejects_negative_or_nan_tolerances(self, rtol, atol):
        gen = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=())
        with pytest.raises(ValueError, match="rtol and atol must be non-negative"):
            integrate(lambda t: gen, np.eye(2) / 2, (0.0, 1.0), rtol=rtol, atol=atol)

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
