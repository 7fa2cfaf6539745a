"""Concrete time-dependent control families.

A protocol bundles the rotating-frame jump operator with the cyclic unitary
path that drags its dark space around, parameterized by the protocol phase
s in [0, 1].  For half-integer spins a full 2*pi winding returns the unitary
only up to a global sign, so cyclicity is enforced projectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .linalg import _norms, dagger, frobenius

__all__ = [
    "spin_operators",
    "PathSpec",
    "linear_path",
    "smoothstep_path",
    "fourier_path",
    "ramp_angle",
    "path_from_descriptor",
    "Protocol",
    "spin32_jump",
    "spin32_protocol",
    "custom_protocol",
    "lab_jump",
]

_PHASE_SAMPLES = 64  # construction-time grid for unitarity/cyclicity checks


def _is_grid(s) -> bool:
    """True when ``s`` is an array of phases rather than one phase.

    The test is ``np.ndim``; floats (NumPy's included) skip it, since the
    scalar path runs once per RHS evaluation and ``np.ndim`` costs a
    microsecond on a Python float.
    """
    return not isinstance(s, float) and np.ndim(s) > 0


def _angle(fn: Callable, s):
    """fn(s); for an array of n phases an (n, 1, 1) column, so that it scales a stack.

    An angle constant in s may return a scalar for an array phase; it is broadcast.
    """
    if not _is_grid(s):
        return fn(s)
    return np.broadcast_to(fn(s), np.shape(s)).reshape(-1, 1, 1)


def spin_operators(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin operators (S_x, S_y, S_z) for spin j = two_j / 2.

    Standard basis ordered by descending magnetic quantum number, so
    S_z = diag(j, j-1, ..., -j); satisfies [S_x, S_y] = i S_z cyclically.
    """
    if two_j < 1:
        raise ValueError("two_j must be >= 1")
    j = two_j / 2.0
    dim = two_j + 1
    m = j - np.arange(dim)
    sz = np.diag(m).astype(complex)
    raising = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        raising[k, k + 1] = math.sqrt(j * (j + 1) - m[k + 1] * (m[k + 1] + 1))
    lowering = dagger(raising)
    sx = 0.5 * (raising + lowering)
    sy = -0.5j * (raising - lowering)
    return sx, sy, sz


@dataclass(frozen=True)
class PathSpec:
    """Closed path (theta(s), phi(s)) on the control sphere.

    The angle functions take the protocol phase s and return radians; their
    derivatives are with respect to s.  Over one cycle each angle must advance
    by an integer number of full turns.
    """

    theta: Callable[[float], float]
    phi: Callable[[float], float]
    dtheta: Callable[[float], float]
    dphi: Callable[[float], float]
    winding: tuple[int, int]
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        m_theta, m_phi = self.winding
        if abs(self.theta(1.0) - self.theta(0.0) - 2 * math.pi * m_theta) > 1e-10:
            raise ValueError("theta(1) - theta(0) is not 2*pi times the declared winding")
        if abs(self.phi(1.0) - self.phi(0.0) - 2 * math.pi * m_phi) > 1e-10:
            raise ValueError("phi(1) - phi(0) is not 2*pi times the declared winding")


def ramp_angle(family: str, turns: float, offset: float = 0.0):
    """Angle offset + 2*pi*turns*r(s) and its derivative for a ramp profile r.

    ``family`` names r: "linear" (r = s) or "smoothstep" (r = 3s^2 - 2s^3).
    """
    w = 2 * math.pi * turns
    if family == "linear":
        return (lambda s: offset + w * s), (lambda s: w)
    if family == "smoothstep":
        return (
            (lambda s: offset + w * (s * s * (3.0 - 2.0 * s))),
            (lambda s: w * (6.0 * s * (1.0 - s))),
        )
    raise ValueError(f"unknown ramp family {family!r}")


def _ramp_path(family: str, m_theta: int, m_phi: int, theta0: float, phi0: float) -> PathSpec:
    theta, dtheta = ramp_angle(family, m_theta, theta0)
    phi, dphi = ramp_angle(family, m_phi, phi0)
    descriptor = {"family": family, "m_theta": m_theta, "m_phi": m_phi,
                  "theta0": theta0, "phi0": phi0}
    return PathSpec(theta, phi, dtheta, dphi, winding=(m_theta, m_phi), descriptor=descriptor)


def linear_path(m_theta: int = 1, m_phi: int = 0, theta0: float = 0.0, phi0: float = 0.0) -> PathSpec:
    """Uniform ramp: theta = theta0 + 2*pi*m_theta*s, likewise phi."""
    return _ramp_path("linear", m_theta, m_phi, theta0, phi0)


def smoothstep_path(m_theta: int = 1, m_phi: int = 0, theta0: float = 0.0, phi0: float = 0.0) -> PathSpec:
    """Windings traversed with the cubic smoothstep profile 3s^2 - 2s^3."""
    return _ramp_path("smoothstep", m_theta, m_phi, theta0, phi0)


def fourier_path(
    m_theta: int = 0,
    m_phi: int = 0,
    theta0: float = 0.0,
    phi0: float = 0.0,
    theta_knots: Sequence[float] = (),
    phi_knots: Sequence[float] = (),
) -> PathSpec:
    """Winding plus periodic Fourier wiggles sum_k a_k sin(2*pi*k*s).

    The sine series vanishes at both endpoints, so the declared windings stay
    exact whatever the knot amplitudes.  The angles take one phase or an
    array of phases.
    """
    wt, wp = 2 * math.pi * m_theta, 2 * math.pi * m_phi
    tk = tuple(float(a) for a in theta_knots)
    pk = tuple(float(a) for a in phi_knots)

    def series(knots, s):
        sin = np.sin if _is_grid(s) else math.sin
        return sum(a * sin(2 * math.pi * (k + 1) * s) for k, a in enumerate(knots))

    def dseries(knots, s):
        cos = np.cos if _is_grid(s) else math.cos
        return sum(
            a * 2 * math.pi * (k + 1) * cos(2 * math.pi * (k + 1) * s)
            for k, a in enumerate(knots)
        )

    return PathSpec(
        theta=lambda s: theta0 + wt * s + series(tk, s),
        phi=lambda s: phi0 + wp * s + series(pk, s),
        dtheta=lambda s: wt + dseries(tk, s),
        dphi=lambda s: wp + dseries(pk, s),
        winding=(m_theta, m_phi),
        descriptor={"family": "fourier", "m_theta": m_theta, "m_phi": m_phi,
                    "theta0": theta0, "phi0": phi0,
                    "theta_knots": list(tk), "phi_knots": list(pk)},
    )


_PATH_FAMILIES = {"linear": linear_path, "smoothstep": smoothstep_path, "fourier": fourier_path}


def path_from_descriptor(desc: dict) -> PathSpec:
    """Rebuild a path from its descriptor, the inverse of ``PathSpec.descriptor``.

    Every family needs ``m_theta``, ``m_phi``, ``theta0`` and ``phi0``; the
    Fourier family also reads optional ``theta_knots`` and ``phi_knots``.
    """
    family = desc.get("family")
    if family not in _PATH_FAMILIES:
        raise ValueError(f"unknown path family {family!r}")
    knots = {k: desc.get(k, ()) for k in ("theta_knots", "phi_knots") if family == "fourier"}
    windings = int(desc["m_theta"]), int(desc["m_phi"])
    return _PATH_FAMILIES[family](*windings, float(desc["theta0"]), float(desc["phi0"]), **knots)


@dataclass(frozen=True)
class Protocol:
    """Rotating-frame jump operator plus the cyclic unitary control path.

    ``U(s)`` rotates the lab-frame jump, L_lab(s) = U(s)^dag L_rot U(s); the
    path is cyclic up to a global phase (exactly -1 can occur for half-integer
    spin windings, which no observable sees).  ``dU`` is the analytic phase
    derivative and is required: no consumer falls back to finite differences.

    ``U`` and ``dU`` take one phase and return a (dim, dim) matrix, or a 1-D
    array of n phases and return an (n, dim, dim) stack, element k belonging
    to phase k.  Consumers evaluate whole phase grids in one call; they check
    the shape and every element as they would check one matrix.  Construction
    makes one ``U`` call, on a grid of phases from 0 to 1, and reads U(0) = 1,
    cyclicity and unitarity off it.
    """

    dim: int
    L_rot: np.ndarray
    U: Callable[[float], np.ndarray]
    dU: Callable[[float], np.ndarray]
    gammaT: float
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.gammaT) and self.gammaT > 0):
            raise ValueError(f"gammaT must be finite and positive, got {self.gammaT}")
        if self.L_rot.shape != (self.dim, self.dim):
            raise ValueError("L_rot shape does not match protocol dimension")
        if not callable(self.dU):
            raise ValueError(f"dU must be the analytic phase derivative, got {self.dU!r}")
        samples = np.linspace(0.0, 1.0, _PHASE_SAMPLES)
        u = np.asarray(self.U(samples))
        if u.shape != (samples.size, self.dim, self.dim):
            raise ValueError(f"U returned shape {u.shape} for {samples.size} phases, "
                             f"expected {(samples.size, self.dim, self.dim)}")
        eye = np.eye(self.dim)
        if frobenius(u[0] - eye) > 1e-10:
            raise ValueError("U(0) must be the identity")
        phase = np.trace(u[-1]) / self.dim
        if abs(abs(phase) - 1.0) > 1e-10 or frobenius(u[-1] - phase * eye) > 1e-10:
            raise ValueError("path is not cyclic: U(1) is not the identity up to a phase")
        bad = np.flatnonzero(_norms(dagger(u) @ u - eye) > 1e-9)
        if bad.size:
            raise ValueError(f"U({samples[bad[0]]}) is not unitary")

    def with_gammaT(self, gammaT: float) -> "Protocol":
        """Same control path at a different cycle duration."""
        return replace(self, gammaT=gammaT)


def _exp_factory(generator: np.ndarray) -> Callable[[float], np.ndarray]:
    """Cached eigenbasis for exp(i * angle * G) with G Hermitian.

    The returned function takes one angle, or an (n, 1, 1) column of angles
    (see ``_angle``) and then returns the (n, d, d) stack of exponentials.
    """
    w, v = np.linalg.eigh(generator)
    vd = dagger(v)

    def rot(angle: float) -> np.ndarray:
        return (v * np.exp(1j * angle * w)) @ vd

    return rot


class _Handoff:
    """What ``U`` built at one phase, left for the ``dU`` call that follows.

    ``adiabatic_hamiltonian`` asks for U and then dU at the same phase.
    ``put`` builds the pieces and leaves them with the phase (copied unless
    it is a float); ``take`` hands them over once, and builds them afresh for
    another phase object or for an array rewritten in place since.
    """

    def __init__(self, build: Callable):
        self.build = build
        self.left = None

    def put(self, s):
        pieces = self.build(s)
        self.left = (s, None if isinstance(s, float) else np.array(s), pieces)
        return pieces

    def take(self, s):
        left, self.left = self.left, None
        if left is None or s is not left[0] or (
            left[1] is not None and not np.array_equal(s, left[1])
        ):
            return self.build(s)
        return left[2]


def spin32_jump() -> np.ndarray:
    """Spin-3/2 jump operator S_x (S_z^2 - 1/4), dark on the S_z = +-1/2 states."""
    sx, _, sz = spin_operators(3)
    return sx @ (sz @ sz - 0.25 * np.eye(4))


def spin32_protocol(path: PathSpec, gammaT: float) -> Protocol:
    """Spin-3/2 system with jump operator S_x (S_z^2 - 1/4).

    The two S_z = +-1/2 states span the dark space; the control unitary is
    the two-factor product U(s) = exp(i theta S_y) exp(i phi S_z) with
    (theta, phi) and their analytic derivatives from ``path``.
    """
    _, sy, sz = spin_operators(3)
    return custom_protocol(
        [sy, sz], [path.theta, path.phi], spin32_jump(), gammaT,
        dangles=[path.dtheta, path.dphi],
        descriptor={"family": "spin32", "path": dict(path.descriptor), "gammaT": float(gammaT)},
    )


def custom_protocol(
    generators: Sequence[np.ndarray],
    angles: Sequence[Callable[[float], float]],
    L_rot: np.ndarray,
    gammaT: float,
    dangles: Sequence[Callable[[float], float]],
    descriptor: dict | None = None,
) -> Protocol:
    """Product-of-exponentials path U(s) = prod_k exp(i alpha_k(s) G_k).

    Generators must be Hermitian, and ``dangles`` holds the analytic
    derivative alpha_k'(s) of every angle, from which dU is built; there is
    no finite-difference fallback.  With no generators U = 1 and dU = 0.
    Construction rejects non-cyclic paths.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if len(gens) != len(angles):
        raise ValueError("need one angle function per generator")
    if len(dangles) != len(angles):
        raise ValueError("need one derivative per angle function")
    for g in gens:
        if frobenius(g - dagger(g)) > 1e-10 * max(frobenius(g), 1.0):
            raise ValueError("generators must be Hermitian")
    dim = gens[0].shape[0] if gens else np.asarray(L_rot).shape[0]
    if not gens:  # no rotation, which a config may ask for: exp(i 0 0) = 1, so dU = 0
        gens = [np.zeros((dim, dim), dtype=complex)]
        angles = dangles = [lambda s: 0.0]
    n = len(gens)
    rots = [_exp_factory(g) for g in gens]
    handoff = _Handoff(lambda s: [rot(_angle(ang, s)) for rot, ang in zip(rots, angles)])

    def u_of(s: float) -> np.ndarray:
        return reduce(np.matmul, handoff.put(s))

    def du_of(s: float) -> np.ndarray:
        # the sum over k of the product with F_k replaced by i alpha_k' G_k F_k
        factors = handoff.take(s)
        for k in range(n):
            chain = factors.copy()
            chain[k] = 1j * _angle(dangles[k], s) * (gens[k] @ factors[k])
            term = reduce(np.matmul, chain)
            du = du + term if k else term
        return du

    return Protocol(
        dim=dim,
        L_rot=np.asarray(L_rot, dtype=complex),
        U=u_of,
        dU=du_of,
        gammaT=float(gammaT),
        descriptor=descriptor or {"family": "custom", "n_generators": len(generators),
                                  "gammaT": float(gammaT)},
    )


def lab_jump(protocol: Protocol, s) -> np.ndarray:
    """Lab-frame jump operator U(s)^dag L_rot U(s).

    For a 1-D array of n phases it returns the (n, dim, dim) stack; every
    phase must lie in [0, 1], and a failure names the first one outside.
    """
    phases = np.atleast_1d(s)
    outside = np.flatnonzero(~((0.0 <= phases) & (phases <= 1.0)))
    if outside.size:
        raise ValueError(f"phase {phases[outside[0]]} outside [0, 1]")
    u = protocol.U(s)
    return dagger(u) @ protocol.L_rot @ u
