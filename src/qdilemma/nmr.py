"""Pulse-level simulation of the game on a two-spin J-coupled system.

Gates compile to hard pulses plus free evolution under the weak-coupling
Hamiltonian H = (pi J / 2) sigma_z x sigma_z (rotating frame on resonance
for both spins, so chemical shifts drop out).  Rotations are instantaneous
unitaries; a nominal per-pulse width enters only duration accounting and
the optional T2 damping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import format_exact
from .equilibrium import (
    REGIME_CLASSICAL,
    REGIME_INTERMEDIATE,
    classify_regime,
)
from .game import (
    DEFAULT_TABLE,
    PayoffTable,
    validate_gamma,
)
from .linalg import I2, KET_CC, kron2, rotation

NOMINAL_PULSE_WIDTH_S = 1e-3

AXES = ("x", "-x", "y", "-y")
TARGETS = ("alice", "bob", "both")


@dataclass(frozen=True)
class SpinSystem:
    """Two coupled spins: J in Hz, T2 in seconds, selective addressing flag."""

    j_coupling: float = 7.17
    t2: float = 3.0
    selective_addressing: bool = True

    def __post_init__(self):
        if self.j_coupling <= 0:
            raise ValueError("j_coupling must be positive")
        if self.t2 <= 0:
            raise ValueError("t2 must be positive")


DEFAULT_SYSTEM = SpinSystem()


@dataclass(frozen=True)
class NoiseModel:
    """Pulse imperfections: per-pulse fractional angle error plus a per-run
    field-inhomogeneity spread on both the coupling and the pulse angles."""

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
class PulsePrimitive:
    """One rotation pulse or one free-evolution period.

    Rotations carry (target, angle, axis) and no duration; free evolution
    carries only a duration.
    """

    kind: str  # "rotation" | "free_evolution"
    target: str | None = None
    angle_deg: float | None = None
    phase_axis: str | None = None
    duration_s: float | None = None

    def __post_init__(self):
        if self.kind == "rotation":
            if self.target not in TARGETS:
                raise ValueError(f"rotation target must be one of {TARGETS}")
            if self.phase_axis not in AXES:
                raise ValueError(f"rotation axis must be one of {AXES}")
            if self.angle_deg is None or not math.isfinite(self.angle_deg):
                raise ValueError("rotation needs a finite angle")
            if self.duration_s is not None:
                raise ValueError("rotation must not set a duration")
        elif self.kind == "free_evolution":
            if self.duration_s is None or not math.isfinite(self.duration_s):
                raise ValueError("free evolution needs a finite duration")
            if self.angle_deg is not None or self.phase_axis is not None:
                raise ValueError("free evolution must not set angle or axis")
        else:
            raise ValueError(f"unknown primitive kind {self.kind!r}")


def pulse(target: str, angle_deg: float, axis: str) -> PulsePrimitive:
    return PulsePrimitive(kind="rotation", target=target, angle_deg=float(angle_deg), phase_axis=axis)


def delay(seconds: float) -> PulsePrimitive:
    return PulsePrimitive(kind="free_evolution", duration_s=float(seconds))


@dataclass(frozen=True)
class PulseSequence:
    primitives: tuple[PulsePrimitive, ...]
    label: str = ""

    def __post_init__(self):
        if not self.primitives:
            raise ValueError("pulse sequence must be non-empty")

    def free_evolution_time(self) -> float:
        return sum(p.duration_s for p in self.primitives if p.kind == "free_evolution")

    def rotation_count(self) -> int:
        return sum(1 for p in self.primitives if p.kind == "rotation")

    def total_duration(self, pulse_width: float = NOMINAL_PULSE_WIDTH_S) -> float:
        return self.free_evolution_time() + self.rotation_count() * pulse_width

    def to_text(self) -> str:
        """Line-oriented form: `PULSE <target> <angle>deg <axis>` / `DELAY <seconds>`."""
        lines = []
        for p in self.primitives:
            if p.kind == "rotation":
                lines.append(f"PULSE {p.target} {format_exact(p.angle_deg)}deg {p.phase_axis}")
            else:
                lines.append(f"DELAY {format_exact(p.duration_s, min_digits=9)}")
        return "\n".join(lines) + "\n"


def sequence_from_text(text: str, label: str = "") -> PulseSequence:
    prims = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "PULSE" and len(parts) == 4 and parts[2].endswith("deg"):
            prims.append(pulse(parts[1], float(parts[2][:-3]), parts[3]))
        elif parts[0] == "DELAY" and len(parts) == 2:
            prims.append(delay(float(parts[1])))
        else:
            raise ValueError(f"cannot parse pulse line {lineno}: {raw!r}")
    return PulseSequence(primitives=tuple(prims), label=label)


def _coupling_sequence(t: float, label: str) -> PulseSequence:
    """90x on both spins, z-z evolution for t seconds, 90(-x) on both spins."""
    return PulseSequence(
        primitives=(pulse("both", 90, "x"), delay(t), pulse("both", 90, "-x")),
        label=label,
    )


def compile_entangler(gamma: float, system: SpinSystem = DEFAULT_SYSTEM) -> PulseSequence:
    """Entangling gate as 90x on both spins, z-z evolution for
    gamma / (pi J) seconds, then 90(-x) on both spins.

    The x rotations map the z-z coupling onto the y-y form the gate needs;
    the composite equals the ideal gate including global phase.
    """
    gamma = validate_gamma(gamma)
    t = gamma / (math.pi * system.j_coupling)
    return _coupling_sequence(t, f"entangler gamma={format_exact(gamma)}")


def compile_disentangler(gamma: float, system: SpinSystem = DEFAULT_SYSTEM) -> PulseSequence:
    """Same bracketing pulses as the entangler with the free evolution set to
    (2 pi - gamma) / (pi J): time only runs forward, so the inverse gate is
    reached by completing the full 2 pi z-z rotation (a global phase)."""
    gamma = validate_gamma(gamma)
    # computed as the complement of the entangler period so the pair always
    # sums to exactly 2/J in floating point as well
    t = 2 / system.j_coupling - gamma / (math.pi * system.j_coupling)
    return _coupling_sequence(t, f"disentangler gamma={format_exact(gamma)}")


def compile_strategies(
    gamma: float,
    table: PayoffTable = DEFAULT_TABLE,
    system: SpinSystem = DEFAULT_SYSTEM,
    flip_intermediate: bool = False,
) -> PulseSequence:
    """Pulse recipe for the Nash-equilibrium moves at this entanglement.

    Classical regime: non-selective 180y (mutual defection, since a y pulse
    of 180 degrees is the defect matrix up to sign).  Intermediate regime:
    selective 180y on the defector, selective 90(-y)-180x-90y sandwich (the
    quantum move) on the other player; Alice defects unless
    flip_intermediate.  Quantum regime: the sandwich on both spins.
    """
    regime = classify_regime(gamma, table)
    if regime == REGIME_CLASSICAL:
        return PulseSequence(
            primitives=(pulse("both", 180, "y"),),
            label=f"strategies DD gamma={format_exact(gamma)}",
        )
    if regime == REGIME_INTERMEDIATE:
        if not system.selective_addressing:
            raise ValueError("intermediate-regime recipe needs selective addressing")
        defector, quantum_player = ("alice", "bob") if not flip_intermediate else ("bob", "alice")
        name = "DQ" if not flip_intermediate else "QD"
        return PulseSequence(
            primitives=(
                pulse(defector, 180, "y"),
                pulse(quantum_player, 90, "-y"),
                pulse(quantum_player, 180, "x"),
                pulse(quantum_player, 90, "y"),
            ),
            label=f"strategies {name} gamma={format_exact(gamma)}",
        )
    return PulseSequence(
        primitives=(
            pulse("both", 90, "-y"),
            pulse("both", 180, "x"),
            pulse("both", 90, "y"),
        ),
        label=f"strategies QQ gamma={format_exact(gamma)}",
    )


def _free_evolution_unitary(j_hz: float, t: float) -> np.ndarray:
    phi = math.pi * j_hz * t / 2
    return np.diag(np.exp(-1j * phi * np.array([1.0, -1.0, -1.0, 1.0])))


class _NoiseDraw:
    """Per-run noise realization: one coupling/amplitude spread draw, then an
    independent fractional angle error per pulse.  Draw order is fixed so a
    seed pins the whole stream."""

    def __init__(self, noise: NoiseModel | None, rng: np.random.Generator | None):
        self.noise = noise if noise is not None else NOISELESS
        self.rng = rng
        self.j_factor = 1.0
        self.amp_factor = 1.0
        if not self.noise.is_noiseless:
            if self.rng is None:
                self.rng = np.random.default_rng(self.noise.seed)
            if self.noise.field_inhomogeneity > 0:
                self.j_factor = 1.0 + self.rng.normal(0.0, self.noise.field_inhomogeneity)
                self.amp_factor = 1.0 + self.rng.normal(0.0, self.noise.field_inhomogeneity)

    def angle(self, nominal_rad: float) -> float:
        scale = self.amp_factor
        if self.noise.rotation_angle_error > 0:
            scale *= 1.0 + self.rng.normal(0.0, self.noise.rotation_angle_error)
        return nominal_rad * scale


def _primitive_unitary(p: PulsePrimitive, system: SpinSystem, draw: _NoiseDraw) -> np.ndarray:
    if p.kind == "rotation":
        r = rotation(draw.angle(math.radians(p.angle_deg)), p.phase_axis)
        if p.target == "alice":
            return kron2(r, I2)
        if p.target == "bob":
            return kron2(I2, r)
        return kron2(r, r)
    if p.duration_s < 0:
        raise ValueError("free evolution duration must be non-negative")
    return _free_evolution_unitary(system.j_coupling * draw.j_factor, p.duration_s)


def sequence_unitary(
    seq: PulseSequence,
    system: SpinSystem = DEFAULT_SYSTEM,
    noise: NoiseModel | None = None,
) -> np.ndarray:
    """Ordered product of the primitive unitaries (first primitive acts first)."""
    draw = _NoiseDraw(noise, rng=None)
    u = np.eye(4, dtype=complex)
    for p in seq.primitives:
        u = _primitive_unitary(p, system, draw) @ u
    return u


def _damp_coherences(rho: np.ndarray, dt: float, t2: float) -> np.ndarray:
    lam = math.exp(-dt / t2)
    diag = np.diag(np.diag(rho))
    return lam * rho + (1 - lam) * diag


def _run_sequences(
    gamma: float,
    strategy_seq: PulseSequence | None,
    system: SpinSystem,
    table: PayoffTable,
) -> tuple[PulseSequence, PulseSequence, PulseSequence]:
    """Entangler, strategies and disentangler of one run; without strategy_seq
    the strategies are the equilibrium recipe for this gamma and table."""
    gamma = validate_gamma(gamma)
    if strategy_seq is None:
        strategy_seq = compile_strategies(gamma, table, system)
    return compile_entangler(gamma, system), strategy_seq, compile_disentangler(gamma, system)


def run_experiment(
    gamma: float,
    strategy_seq: PulseSequence | None = None,
    system: SpinSystem = DEFAULT_SYSTEM,
    noise: NoiseModel | None = None,
    table: PayoffTable = DEFAULT_TABLE,
    apply_t2: bool = False,
    pulse_width: float = NOMINAL_PULSE_WIDTH_S,
) -> np.ndarray:
    """Full pulse-level run: ideal |CC> start, compiled entangler, strategy
    pulses, compiled disentangler; returns the final density matrix.

    Effective-pure-state preparation is abstracted away: the run starts in
    the exact |CC> density matrix.  Noise streams for the three sequences
    are spawned from one seed, so a run is bit-reproducible.  T2 damping of
    coherences (rate 1/t2 over each primitive's duration) is off by default.
    """
    sequences = _run_sequences(gamma, strategy_seq, system, table)
    noise = noise if noise is not None else NOISELESS
    if noise.is_noiseless:
        rngs = [None, None, None]
    else:
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(noise.seed).spawn(3)]

    rho = np.outer(KET_CC, KET_CC.conj())
    for seq, rng in zip(sequences, rngs):
        draw = _NoiseDraw(noise, rng=rng)
        for p in seq.primitives:
            u = _primitive_unitary(p, system, draw)
            rho = u @ rho @ u.conj().T
            if apply_t2:
                dt = p.duration_s if p.kind == "free_evolution" else pulse_width
                rho = _damp_coherences(rho, dt, system.t2)
    return rho


def experiment_duration(
    gamma: float,
    strategy_seq: PulseSequence | None = None,
    system: SpinSystem = DEFAULT_SYSTEM,
    table: PayoffTable = DEFAULT_TABLE,
    pulse_width: float = NOMINAL_PULSE_WIDTH_S,
) -> float:
    """Modeled wall time of a run: free evolution plus nominal pulse widths.

    The free-evolution part is 2/J independent of gamma, since the entangler
    and disentangler periods always sum to a full coupling cycle.
    """
    return sum(
        seq.total_duration(pulse_width)
        for seq in _run_sequences(gamma, strategy_seq, system, table)
    )
