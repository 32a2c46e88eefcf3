"""Pulse-level simulation of the game on a two-spin J-coupled system.

Gates compile to hard pulses plus free evolution under the weak-coupling
Hamiltonian H = (pi J / 2) sigma_z x sigma_z (rotating frame on resonance
for both spins, so chemical shifts drop out).  Rotations are instantaneous
unitaries; the fixed nominal pulse width enters only duration accounting and
the optional T2 damping.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .datasets import format_exact
from .equilibrium import REGIME_LABELS, classify_regime
from .game import DEFAULT_TABLE, PayoffTable, validate_gamma
from .linalg import I2, KET_CC, kron2, rotation
from .streams import ChildStreams

NOMINAL_PULSE_WIDTH_S = 1e-3

# The sample's constants: the J coupling between the two spins, in Hz, and
# the coherence time T2, in seconds.
J_COUPLING_HZ = 7.17
T2_S = 3.0

AXES = ("x", "-x", "y", "-y")
TARGETS = ("alice", "bob", "both")


@dataclass(frozen=True)
class NoiseModel:
    """Pulse imperfections: a fractional angle error drawn for every pulse,
    and a field-inhomogeneity spread drawn once per run that scales the
    coupling and every pulse angle of the run.  `run_experiment` gives the
    draw order that `seed` pins."""

    rotation_angle_error: float = 0.0
    field_inhomogeneity: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("rotation_angle_error", "field_inhomogeneity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.2:
                raise ValueError(f"{name} must lie in [0, 0.2], got {v}")

    @property
    def is_noiseless(self) -> bool:
        return self.rotation_angle_error == 0.0 and self.field_inhomogeneity == 0.0


NOISELESS = NoiseModel()


@dataclass(frozen=True)
class Pulse:
    """Hard rotation by angle_deg about phase_axis on one spin or both.  Every
    pulse lasts NOMINAL_PULSE_WIDTH_S, a class constant rather than a field."""

    target: str
    angle_deg: float
    phase_axis: str

    duration_s = NOMINAL_PULSE_WIDTH_S

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"pulse target must be one of {TARGETS}")
        if self.phase_axis not in AXES:
            raise ValueError(f"pulse axis must be one of {AXES}")
        if not math.isfinite(self.angle_deg):
            raise ValueError("pulse needs a finite angle")


@dataclass(frozen=True)
class Delay:
    """Free evolution under the z-z coupling for duration_s seconds."""

    duration_s: float

    def __post_init__(self):
        if not 0 <= self.duration_s < math.inf:
            raise ValueError("delay needs a finite non-negative duration")


@dataclass(frozen=True)
class PulseSequence:
    primitives: tuple[Pulse | Delay, ...]

    def __post_init__(self):
        if not self.primitives:
            raise ValueError("pulse sequence must be non-empty")

    def free_evolution_time(self) -> float:
        return sum(p.duration_s for p in self.primitives if isinstance(p, Delay))

    def to_text(self) -> str:
        """Line-oriented form: `PULSE <target> <angle>deg <axis>` / `DELAY <seconds>`."""
        lines = []
        for p in self.primitives:
            if isinstance(p, Pulse):
                lines.append(f"PULSE {p.target} {format_exact(p.angle_deg)}deg {p.phase_axis}")
            else:
                lines.append(f"DELAY {format_exact(p.duration_s, min_digits=9)}")
        return "\n".join(lines) + "\n"


def sequence_from_text(text: str) -> PulseSequence:
    prims = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        is_pulse = parts[0] == "PULSE" and len(parts) == 4 and parts[2].endswith("deg")
        if not is_pulse and not (parts[0] == "DELAY" and len(parts) == 2):
            raise ValueError(f"cannot parse pulse line {lineno}: {raw!r}")
        try:
            prims.append(Pulse(parts[1], float(parts[2][:-3]), parts[3]) if is_pulse
                         else Delay(float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return PulseSequence(primitives=tuple(prims))


_OPEN_COUPLING, _CLOSE_COUPLING = Pulse("both", 90.0, "x"), Pulse("both", 90.0, "-x")


def _coupling_sequence(t: float) -> PulseSequence:
    """90x on both spins, z-z evolution for t seconds, 90(-x) on both spins."""
    return PulseSequence((_OPEN_COUPLING, Delay(t), _CLOSE_COUPLING))


def compile_entangler(gamma: float) -> PulseSequence:
    """Entangling gate as 90x on both spins, z-z evolution for
    gamma / (pi J) seconds, then 90(-x) on both spins.

    The x rotations map the z-z coupling onto the y-y form the gate needs;
    the composite equals the ideal gate including global phase.
    """
    gamma = validate_gamma(gamma)
    t = gamma / (math.pi * J_COUPLING_HZ)
    return _coupling_sequence(t)


def compile_disentangler(gamma: float) -> PulseSequence:
    """Same bracketing pulses as the entangler with the free evolution set to
    (2 pi - gamma) / (pi J): time only runs forward, so the inverse gate is
    reached by completing the full 2 pi z-z rotation (a global phase)."""
    gamma = validate_gamma(gamma)
    # computed as the complement of the entangler period so the pair always
    # sums to exactly 2/J in floating point as well
    t = 2 / J_COUPLING_HZ - gamma / (math.pi * J_COUPLING_HZ)
    return _coupling_sequence(t)


# (angle_deg, axis) pulses of each equilibrium move on one spin: a 180y pulse
# is the defect matrix up to sign, the 90(-y)-180x-90y sandwich the quantum move.
_MOVE_PULSES = {
    "D": ((180.0, "y"),),
    "Q": ((90.0, "-y"), (180.0, "x"), (90.0, "y")),
}


def compile_strategies(
    gamma: float,
    table: PayoffTable = DEFAULT_TABLE,
    flip_intermediate: bool = False,
) -> PulseSequence:
    """Pulse recipe for the Nash-equilibrium moves at this entanglement.

    The regime's first REGIME_LABELS pair, or its last if flip_intermediate
    (QD rather than DQ; the other regimes have one pair).  Equal moves are one
    recipe on both spins; unequal ones address the spins one at a time, and
    the defector's pulse comes first.
    """
    labels = REGIME_LABELS[classify_regime(gamma, table)]
    return _move_sequence(labels[-1] if flip_intermediate else labels[0])


@functools.lru_cache(maxsize=None)
def _move_sequence(label: str) -> PulseSequence:
    """The pulses of one move pair, e.g. DQ; a sequence is immutable, so each
    pair is built once."""
    if label[0] == label[1]:
        moves = [("both", label[0])]
    else:  # a stable sort puts the defector first
        moves = sorted(zip(("alice", "bob"), label), key=lambda tm: tm[1] != "D")
    return PulseSequence(tuple(
        Pulse(target, angle, axis) for target, move in moves for angle, axis in _MOVE_PULSES[move]
    ))


_DIAGONAL = np.eye(4, dtype=bool)
_ZZ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
_RHO_CC = np.outer(KET_CC, KET_CC.conj())
for _a in (_DIAGONAL, _ZZ_SIGNS, _RHO_CC):
    _a.setflags(write=False)


def _diagonal_matrix(values: np.ndarray) -> np.ndarray:
    """np.diag(values) for four values, without its Python wrappers."""
    out = np.zeros((4, 4), dtype=complex)
    out[_DIAGONAL] = values
    return out


def _primitive_unitary(p: Pulse | Delay, j_hz: float, angle_scale: float) -> np.ndarray:
    if isinstance(p, Delay):
        phi = math.pi * j_hz * p.duration_s / 2
        return _diagonal_matrix(np.exp(-1j * phi * _ZZ_SIGNS))
    r = rotation(math.radians(p.angle_deg) * angle_scale, p.phase_axis)
    if p.target == "alice":
        return kron2(r, I2)
    if p.target == "bob":
        return kron2(I2, r)
    return kron2(r, r)


def sequence_unitary(seq: PulseSequence) -> np.ndarray:
    """Noiseless ordered product of the primitive unitaries (first primitive
    acts first)."""
    u = np.eye(4, dtype=complex)
    for p in seq.primitives:
        u = _primitive_unitary(p, J_COUPLING_HZ, 1.0) @ u
    return u


def _damp_coherences(rho: np.ndarray, dt: float) -> np.ndarray:
    lam = math.exp(-dt / T2_S)
    return lam * rho + (1 - lam) * _diagonal_matrix(rho[_DIAGONAL])


def run_experiment(
    gamma: float,
    strategy_seq: PulseSequence | None = None,
    *,
    noise: NoiseModel = NOISELESS,
    apply_t2: bool = False,
) -> np.ndarray:
    """Full pulse-level run: ideal |CC> start, compiled entangler, strategy
    pulses, compiled disentangler; returns the final density matrix.  The
    strategies default to the default table's equilibrium moves.

    Effective-pure-state preparation is abstracted away: the run starts in
    the exact |CC> density matrix.  Noise is drawn in a fixed order, so a
    seeded run is bit-reproducible.  There is one stream each for the
    entangler, the strategies and the disentangler: stream k draws exactly
    what default_rng(SeedSequence(noise.seed).spawn(3)[k]) draws, derived by
    ChildStreams without building the children.  With field inhomogeneity,
    the entangler's stream first gives the run's J factor and then its
    pulse-amplitude factor, each 1 + N(0, field_inhomogeneity).  With an
    angle error, each pulse then scales its angle by
    1 + N(0, rotation_angle_error) from its own sequence's stream, in pulse
    order (one draw of a sequence's pulse count, the same numbers as one
    draw per pulse).  T2 damping of coherences (rate 1/T2_S over each
    primitive's duration) is off by default.
    """
    gamma = validate_gamma(gamma)
    if strategy_seq is None:
        strategy_seq = compile_strategies(gamma)
    sequences = (compile_entangler(gamma), strategy_seq, compile_disentangler(gamma))
    j_hz, amp_factor = J_COUPLING_HZ, 1.0
    errors = [()] * len(sequences)  # each sequence's pulse angle errors, in pulse order
    if not noise.is_noiseless:
        streams = ChildStreams(noise.seed, len(sequences))
        rng = streams.generator(0)  # the entangler's stream
        if noise.field_inhomogeneity > 0:
            j_hz *= 1.0 + rng.normal(0.0, noise.field_inhomogeneity)
            amp_factor = 1.0 + rng.normal(0.0, noise.field_inhomogeneity)
        if noise.rotation_angle_error > 0:
            for k, seq in enumerate(sequences):
                if k:
                    rng = streams.generator(k)
                pulses = sum(isinstance(p, Pulse) for p in seq.primitives)
                errors[k] = rng.normal(0.0, noise.rotation_angle_error, size=pulses).tolist()

    rho = _RHO_CC
    for seq, seq_errors in zip(sequences, errors):
        seq_errors = iter(seq_errors)
        for p in seq.primitives:
            scale = amp_factor
            if isinstance(p, Pulse) and noise.rotation_angle_error > 0:
                scale *= 1.0 + next(seq_errors)
            u = _primitive_unitary(p, j_hz, scale)
            rho = u @ rho @ u.conj().T
            if apply_t2:
                rho = _damp_coherences(rho, p.duration_s)
    return rho


def experiment_duration(sequences: Iterable[PulseSequence]) -> float:
    """Modeled wall time of a compiled run, its sequences in run order: free
    evolution plus nominal pulse widths.

    The free-evolution part is 2/J independent of gamma, since the entangler
    and disentangler periods always sum to a full coupling cycle.
    """
    return sum(
        seq.free_evolution_time()
        + sum(isinstance(p, Pulse) for p in seq.primitives) * NOMINAL_PULSE_WIDTH_S
        for seq in sequences
    )
