"""The entanglement-parameterized quantum Prisoner's Dilemma.

Both players hold one qubit of the shared state J(gamma)|CC>, apply a local
move from the restricted two-parameter family U(theta, phi), and the referee
disentangles and measures.  gamma in [0, pi/2] tunes the game continuously
from the classical dilemma (gamma = 0) to the maximally entangled game
(gamma = pi/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import KET_CC

GAMMA_MAX = math.pi / 2


def validate_gamma(gamma: float) -> float:
    """gamma as a float in [0, pi/2]; a string or a bool is not a number here,
    though float() would take either."""
    if isinstance(gamma, (bool, str)):
        raise ValueError(f"entanglement parameter must be a number, got {gamma!r}")
    gamma = float(gamma)
    if not 0.0 <= gamma <= GAMMA_MAX:
        raise ValueError(f"entanglement parameter must lie in [0, pi/2], got {gamma}")
    return gamma


@dataclass(frozen=True)
class Strategy:
    """A local move U(theta, phi) with theta in [0, pi], phi in [0, pi/2].

    The bounds are hard errors, not clamps: the equilibrium structure of the
    game is only valid on this restricted manifold.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi <= math.pi / 2:
            raise ValueError(f"phi must lie in [0, pi/2], got {self.phi}")


COOPERATE = Strategy(0.0, 0.0)
DEFECT = Strategy(math.pi, 0.0)
QUANTUM = Strategy(0.0, math.pi / 2)


@dataclass(frozen=True)
class PayoffTable:
    """Prisoner's Dilemma payoffs, ordered temptation > reward > punishment > sucker."""

    reward: float = 3.0
    sucker: float = 0.0
    temptation: float = 5.0
    punishment: float = 1.0

    def __post_init__(self):
        for name, value in zip(("reward", "sucker", "temptation", "punishment"), self.as_tuple()):
            if not math.isfinite(value):
                raise ValueError(f"payoff table entry {name} must be finite, got {value}")
        if not (self.temptation > self.reward > self.punishment > self.sucker):
            raise ValueError(
                "not a Prisoner's Dilemma: need temptation > reward > punishment > sucker, "
                f"got ({self.reward}, {self.sucker}, {self.temptation}, {self.punishment})"
            )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.reward, self.sucker, self.temptation, self.punishment)


DEFAULT_TABLE = PayoffTable()


def strategy_features(thetas, phis) -> np.ndarray:
    """Real features f(theta, phi), shape (..., 6): Alice's payoff is f(A) . M . f(B).

    f = (cos^2(theta/2), sin^2(theta/2), sin theta cos phi, sin theta sin phi,
    cos^2(theta/2) cos 2phi, cos^2(theta/2) sin 2phi) spans the same space as
    (1, cos theta, ...) without the cancellation of 1 + cos theta near pi.
    """
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    sin_t, cos2_h = np.sin(thetas), np.cos(thetas / 2) ** 2
    columns = (cos2_h, np.sin(thetas / 2) ** 2, sin_t * np.cos(phis), sin_t * np.sin(phis),
               cos2_h * np.cos(2 * phis), cos2_h * np.sin(2 * phis))
    return np.stack(columns, axis=-1)


def _outcome_forms() -> np.ndarray:
    """Bilinear forms of the outcome probabilities (CC, CD, DC, DD) as coefficients
    of (1, sin^2 gamma, sin gamma), shape (4, 3, 6, 6).

    With c, s = cos, sin of theta/2, u = c^2 sin^2 phi and Phi = phi_A + phi_B:
        P_CC = c_A^2 c_B^2 (1 - sin^2 gamma sin^2 Phi)
        P_CD = c_A^2 s_B^2 + sin^2 gamma (s_A^2 u_B - u_A s_B^2)
               - 2 sin gamma s_A c_A cos phi_A s_B c_B sin phi_B
        P_DC = P_CD with the players swapped
        P_DD = (s_A s_B + sin gamma c_A c_B sin Phi)^2
    Each product of per-player terms is an outer product of two feature functionals.
    """
    cos2, sin2, e2, e3, e4, e5 = np.eye(6)  # pick c^2, s^2 and f[2] .. f[5]
    u = (cos2 - e4) / 2  # c^2 sin^2 phi
    o = np.outer
    twist = (o(cos2, cos2) - o(e4, e4) + o(e5, e5)) / 2  # c_A^2 c_B^2 sin^2 Phi
    swap = o(sin2, u) - o(u, sin2)
    forms = np.array([
        [o(cos2, cos2), -twist, np.zeros((6, 6))],
        [o(cos2, sin2), swap, -o(e2, e3) / 2],
        [o(sin2, cos2), -swap, -o(e3, e2) / 2],
        [o(sin2, sin2), twist, (o(e2, e3) + o(e3, e2)) / 2],
    ])
    forms.setflags(write=False)
    return forms


_OUTCOME_FORMS = _outcome_forms()


def payoff_form(gamma: float, table: PayoffTable = DEFAULT_TABLE) -> np.ndarray:
    """The 6x6 matrix M of Alice's payoff f(A) . M . f(B); Bob's form is M.T.

    M = A + B sin^2(gamma) + C sin(gamma): the outcome-probability forms
    weighted by (reward, sucker, temptation, punishment).
    """
    sg = math.sin(validate_gamma(gamma))
    weights = np.outer(table.as_tuple(), (1.0, sg * sg, sg))
    return np.tensordot(weights, _OUTCOME_FORMS, 2)


@dataclass(frozen=True)
class GameOutcome:
    probabilities: tuple[float, float, float, float]
    payoff_a: float
    payoff_b: float


def strategy_unitary(s: Strategy) -> np.ndarray:
    """The 2x2 move matrix [[e^{i phi} cos(theta/2), sin(theta/2)],
    [-sin(theta/2), e^{-i phi} cos(theta/2)]]."""
    c, sn = math.cos(s.theta / 2), math.sin(s.theta / 2)
    e = complex(math.cos(s.phi), math.sin(s.phi))
    return np.array([[e * c, sn], [-sn, e.conjugate() * c]], dtype=complex)


# D x D for D = strategy_unitary(DEFECT) = i sigma_y.  Antidiagonal (1,-1,-1,1)
# reading rows top to bottom; squares to the identity, which makes the
# entangler's matrix exponential exact in closed form.
DEFECT_TENSOR = np.kron(strategy_unitary(DEFECT), strategy_unitary(DEFECT))
DEFECT_TENSOR.setflags(write=False)


def entangling_gate(gamma: float) -> np.ndarray:
    """exp(i gamma (D x D) / 2) = cos(gamma/2) I + i sin(gamma/2) (D x D).

    Applied to |CC> this yields cos(gamma/2)|CC> + i sin(gamma/2)|DD>.
    """
    gamma = validate_gamma(gamma)
    return math.cos(gamma / 2) * np.eye(4, dtype=complex) + 1j * math.sin(
        gamma / 2
    ) * DEFECT_TENSOR


def disentangling_gate(gamma: float) -> np.ndarray:
    """Conjugate transpose (= inverse) of the entangling gate."""
    return entangling_gate(gamma).conj().T


def payoffs_from_probabilities(
    probs, table: PayoffTable = DEFAULT_TABLE
) -> tuple[float, float]:
    p_cc, p_cd, p_dc, p_dd = probs
    r, s, t, p = table.as_tuple()
    return (float(r * p_cc + s * p_cd + t * p_dc + p * p_dd),
            float(r * p_cc + t * p_cd + s * p_dc + p * p_dd))


def play(
    gamma: float,
    sa: Strategy,
    sb: Strategy,
    table: PayoffTable = DEFAULT_TABLE,
) -> GameOutcome:
    """Play one round through the full unitary pipeline,
    disentangle((U_A x U_B) entangle |CC>), and score both players.

    Alice's payoff weights the outcome probabilities as
    reward*P_CC + sucker*P_CD + temptation*P_DC + punishment*P_DD;
    Bob's swaps the CD/DC roles.
    """
    j = entangling_gate(gamma)
    moves = np.kron(strategy_unitary(sa), strategy_unitary(sb))
    psi = j.conj().T @ (moves @ (j @ KET_CC))
    probs = tuple((np.abs(psi) ** 2).tolist())
    pa, pb = payoffs_from_probabilities(probs, table)
    return GameOutcome(probabilities=probs, payoff_a=pa, payoff_b=pb)


def sweep_gammas() -> list[float]:
    """The paper's entanglement sweep gamma = n pi / 36 for n = 0 .. 18."""
    return [n * math.pi / 36 for n in range(19)]
