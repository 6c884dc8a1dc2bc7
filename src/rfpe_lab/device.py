"""State-vector model of the single-ancilla interferometric circuit.

The target unitary V is parametrized by physical phase-shifter angles
(Z-Y-Z Euler angles plus a controlled global phase), state preparation
by an Rz/Ry angle pair, and one run of the circuit applies

    H on control, controlled-W, feedback phase zeta on the control,
    H on control, measure control,

with W = V^M compiled as a single composite gate and zeta = -M*theta.
Phase noise therefore acts once on seven physical angles: two for the
preparation, four Euler phases of the composite, and the feedback
shifter. For an eigenstate input the noiseless outcome probability
reduces to the analytic fringe cos^2(M(phi - theta)/2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .noise import perturb_phases
from .phases import TWO_PI, ExperimentSetting, wrap_phase

UNITARITY_TOL = 1e-12
# Euler extraction switches to an axis-aligned branch inside this margin.
GIMBAL_TOL = 1e-12


class NonUnitaryError(RuntimeError):
    """A reconstructed matrix failed the unitarity tolerance."""


def rz(angle: float) -> np.ndarray:
    h = 0.5 * angle
    return np.array([[cmath.exp(-1j * h), 0.0], [0.0, cmath.exp(1j * h)]])


def ry(angle: float) -> np.ndarray:
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class UnitarySpec:
    """V = exp(i*delta) Rz(alpha) Ry(beta) Rz(gamma).

    delta is a physical, controlled phase: it distinguishes V from
    exp(i*delta)*V in the interference pattern of the controlled gate.
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0

    def matrix(self) -> np.ndarray:
        m = cmath.exp(1j * self.delta) * (rz(self.alpha) @ ry(self.beta) @ rz(self.gamma))
        check_unitary(m)
        return m


@dataclass(frozen=True)
class StatePrepSpec:
    """|psi> = Rz(theta_z) Ry(theta_y) |0>, i.e. amplitudes
    (exp(-i theta_z/2) cos(theta_y/2), exp(+i theta_z/2) sin(theta_y/2)).

    theta_z sets the relative phase between the components, so it is a
    physical (noise-exposed) angle except at the poles.
    """

    theta_z: float = 0.0
    theta_y: float = 0.0

    def state(self) -> np.ndarray:
        return _prep_state(self.theta_z, self.theta_y)


def _prep_state(theta_z: float, theta_y: float) -> np.ndarray:
    h = 0.5 * theta_z
    return np.array([cmath.exp(-1j * h) * math.cos(0.5 * theta_y),
                     cmath.exp(1j * h) * math.sin(0.5 * theta_y)])


def check_unitary(m: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
    if dev > tol:
        raise NonUnitaryError(f"matrix deviates from unitarity by {dev:.3e}")


def euler_angles(w: np.ndarray) -> tuple[float, float, float, float]:
    """Decompose a 2x2 unitary as exp(i*delta) Rz(alpha) Ry(beta) Rz(gamma).

    beta lies in [0, pi]. On the rotation axis (beta near 0 or pi) the
    split between alpha and gamma is not identifiable; gamma is set to 0.
    """
    check_unitary(w)
    delta = 0.5 * cmath.phase(np.linalg.det(w))
    su = cmath.exp(-1j * delta) * w
    a00, a10 = su[0, 0], su[1, 0]
    beta = 2.0 * math.atan2(abs(a10), abs(a00))
    if abs(a10) < GIMBAL_TOL:
        alpha = 2.0 * cmath.phase(su[1, 1])
        gamma = 0.0
    elif abs(a00) < GIMBAL_TOL:
        alpha = 2.0 * cmath.phase(a10)
        gamma = 0.0
    else:
        phi_sum = cmath.phase(su[1, 1])
        phi_diff = cmath.phase(a10)
        alpha = phi_sum + phi_diff
        gamma = phi_sum - phi_diff
    return alpha, beta, gamma, delta


def _matrix_from_euler(alpha: float, beta: float, gamma: float, delta: float) -> np.ndarray:
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    ps = cmath.exp(0.5j * (alpha + gamma))
    pd = cmath.exp(0.5j * (alpha - gamma))
    return cmath.exp(1j * delta) * np.array([[c / ps, -s / pd], [s * pd, c * ps]])


@dataclass(frozen=True)
class CircuitInstance:
    """One fully compiled experiment: all seven physical phases.

    Order: theta_z, theta_y, alpha_M, beta_M, gamma_M, delta_M, zeta.
    The middle four are the Euler phases of the composite W = V^M and
    zeta = -M*theta is the ancilla feedback shifter.
    """

    unitary: UnitarySpec
    prep: StatePrepSpec
    setting: ExperimentSetting
    phases: tuple[float, ...]

    def __post_init__(self):
        if len(self.phases) != 7:
            raise ValueError(f"expected 7 physical phases, got {len(self.phases)}")


def compose_power(v: np.ndarray, m: int) -> np.ndarray:
    """m-fold application V^m in closed form.

    Writing V = e^{i delta} (cos(w/2) I - i sin(w/2) n.sigma) with a unit
    axis n gives V^m = e^{i m delta} (cos(m w/2) I - i sin(m w/2) n.sigma),
    which is unitary to rounding for every m. The SU(2) part is
    symmetrised to [[a, b], [-b*, a*]] before the axis is read off, so a
    rounding-level departure of V from unitarity does not grow with m.
    """
    check_unitary(v)
    v00, v01, v10, v11 = v.ravel().tolist()
    delta = 0.5 * cmath.phase(v00 * v11 - v01 * v10)
    phase = cmath.exp(-1j * delta)
    a = 0.5 * (phase * v00 + (phase * v11).conjugate())
    b = 0.5 * (phase * v01 - (phase * v10).conjugate())
    # -i sin(w/2) n.sigma = [[i a.imag, b], [-b*, -i a.imag]]
    s = math.sqrt(a.imag * a.imag + abs(b) ** 2)
    half = m * math.atan2(s, a.real)
    c = math.cos(half)
    k = math.sin(half) / s if s > 0.0 else 0.0
    am = complex(c, k * a.imag)
    bm = k * b
    return cmath.exp(1j * m * delta) * np.array(
        [[am, bm], [-bm.conjugate(), am.conjugate()]])


def build_instance(unitary: UnitarySpec, prep: StatePrepSpec,
                   setting: ExperimentSetting) -> CircuitInstance:
    w = compose_power(unitary.matrix(), setting.m)
    am, bm, gm, dm = euler_angles(w)
    zeta = -setting.m * setting.theta
    phases = (prep.theta_z, prep.theta_y, am, bm, gm, dm, zeta)
    return CircuitInstance(unitary=unitary, prep=prep, setting=setting, phases=phases)


def probability_from_phases(phases: Sequence[float]) -> float:
    """Outcome-0 probability given the seven physical phases.

    Fast scalar path used by the oracle; the 4x4 matrix pipeline in
    simulate_probability is the independent reference for it.
    """
    tz, ty, am, bm, gm, dm, zeta = phases
    psi = _prep_state(tz, ty)
    w = _matrix_from_euler(am, bm, gm, dm)
    v = psi + cmath.exp(1j * zeta) * (w @ psi)
    p = 0.25 * float(np.real(v.conj() @ v))
    return min(1.0, max(0.0, p))


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def simulate_probability(instance: CircuitInstance, sigma_phase: float,
                         rng: Optional[np.random.Generator] = None) -> float:
    """Reference evaluation through the explicit 4-dimensional circuit.

    Perturbs the seven physical phases, rebuilds the controlled
    composite from its Euler phases, applies H, controlled-W, the
    feedback phase and H on the control, and returns the probability of
    measuring control 0 (summed over the target basis).
    """
    if sigma_phase > 0.0 and rng is None:
        raise ValueError("phase noise requires an rng")
    phases = instance.phases
    if sigma_phase > 0.0:
        phases = perturb_phases(phases, sigma_phase, rng)
    tz, ty, am, bm, gm, dm, zeta = phases
    w = _matrix_from_euler(am, bm, gm, dm)
    check_unitary(w, tol=1e-10)
    eye = np.eye(2)
    controlled_w = np.block([[eye, np.zeros((2, 2))], [np.zeros((2, 2)), w]])
    feedback = np.kron(np.diag([1.0, cmath.exp(1j * zeta)]), eye)
    h_control = np.kron(_HADAMARD, eye)
    state = np.kron(np.array([1.0, 0.0]), _prep_state(tz, ty))
    final = h_control @ (feedback @ (controlled_w @ (h_control @ state)))
    p = float(np.abs(final[0]) ** 2 + np.abs(final[1]) ** 2)
    return min(1.0, max(0.0, p))


def eigenstate_prep(unitary: UnitarySpec, which: int = 0) -> tuple[StatePrepSpec, float]:
    """Preparation angles for an eigenvector of V and its eigenphase."""
    if which not in (0, 1):
        raise ValueError("which must select eigenvector 0 or 1")
    vals, vecs = np.linalg.eig(unitary.matrix())
    order = np.argsort(np.angle(vals) % TWO_PI)
    lam = vals[order[which]]
    vec = vecs[:, order[which]]
    theta_y = 2.0 * math.atan2(abs(vec[1]), abs(vec[0]))
    theta_z = cmath.phase(vec[1]) - cmath.phase(vec[0]) if abs(vec[0]) > 1e-15 and abs(
        vec[1]) > 1e-15 else 0.0
    prep = StatePrepSpec(theta_z=theta_z, theta_y=theta_y)
    overlap = abs(np.vdot(prep.state(), vec))
    if overlap < 1.0 - 1e-9:
        raise RuntimeError(f"eigenstate preparation overlap only {overlap}")
    return prep, wrap_phase(cmath.phase(lam))


def phase_gate_instance(phi: float) -> tuple[UnitarySpec, StatePrepSpec]:
    """Default target: V = diag(1, e^{i phi}) probed in its |1> eigenstate.

    With alpha=phi and delta=phi/2 the Euler reconstruction is exactly
    diag(1, e^{i phi}); preparing theta_y=pi puts the target in the
    eigenstate whose eigenphase is phi.
    """
    unitary = UnitarySpec(alpha=phi, beta=0.0, gamma=0.0, delta=0.5 * phi)
    prep = StatePrepSpec(theta_z=0.0, theta_y=math.pi)
    return unitary, prep


@dataclass(frozen=True)
class FidelityPoint:
    sigma: float
    state_fidelity: float
    state_stderr: float
    gate_fidelity: float
    gate_stderr: float


def fidelity_vs_noise(unitary: UnitarySpec, prep: StatePrepSpec,
                      sigma_grid: Sequence[float], samples: int,
                      rng: np.random.Generator) -> list[FidelityPoint]:
    """Monte-Carlo fidelity-vs-noise curve with standard errors.

    State fidelity perturbs the two preparation angles and averages
    |<psi|psi_noisy>|^2. Gate fidelity perturbs the Euler angles of V
    proper (alpha, beta, gamma) and averages the standard d=4 formula
    (|Tr(U^dag U_noisy)|^2 + d)/(d(d+1)) for the controlled gate;
    the composite global-phase shifter is calibrated per setting and
    attributed to the circuit-level noise model, not this benchmark.
    sigma = 0 is reported as exactly (1, 1) with zero stderr.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    psi = prep.state()
    v = unitary.matrix()
    rows = []
    for sigma in sigma_grid:
        if sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        if sigma == 0.0:
            rows.append(FidelityPoint(0.0, 1.0, 0.0, 1.0, 0.0))
            continue
        state_vals = np.empty(samples)
        gate_vals = np.empty(samples)
        for i in range(samples):
            tz, ty = perturb_phases((prep.theta_z, prep.theta_y), sigma, rng)
            state_vals[i] = abs(np.vdot(psi, _prep_state(tz, ty))) ** 2
            al, be, ga = perturb_phases((unitary.alpha, unitary.beta, unitary.gamma),
                                        sigma, rng)
            v_noisy = _matrix_from_euler(al, be, ga, unitary.delta)
            tr = 2.0 + complex(np.trace(v.conj().T @ v_noisy))
            gate_vals[i] = (abs(tr) ** 2 + 4.0) / 20.0
        rows.append(FidelityPoint(
            sigma=float(sigma),
            state_fidelity=float(state_vals.mean()),
            state_stderr=float(state_vals.std(ddof=1) / math.sqrt(samples)),
            gate_fidelity=float(gate_vals.mean()),
            gate_stderr=float(gate_vals.std(ddof=1) / math.sqrt(samples))))
    return rows
