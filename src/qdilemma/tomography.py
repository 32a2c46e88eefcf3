"""Nine-setting readout simulation and least-squares state reconstruction.

Each readout setting optionally tips each spin with a 90-degree pulse about
x or y before a z-basis read.  A setting yields six values, all read from
the rotated state's (CC, CD, DC, DD) populations through one weight table:
the four populations themselves, then sigma_z on Alice's spin
(1, 1, -1, -1) and on Bob's (1, -1, 1, -1).  Across the nine settings the
15 real parameters of a Hermitian unit-trace matrix are overdetermined, and
the estimate is the normal-equations least-squares solution, projected back
to the physical cone when noise pushes an eigenvalue negative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product, repeat

import numpy as np

from .datasets import format_exact
from .game import DEFAULT_TABLE, PayoffTable, payoffs_from_probabilities
from .linalg import EIGENVALUE_FLOOR, I2, SIGMA_X, SIGMA_Y, SIGMA_Z, kron2, rotation
from .streams import ChildStreams

ROTATION_CHOICES = ("none", "x90", "y90")

_ROTATION_1Q = {"none": I2, "x90": rotation(math.pi / 2, "x"), "y90": rotation(math.pi / 2, "y")}

OBSERVABLE_IDS = ("pop_cc", "pop_cd", "pop_dc", "pop_dd", "z_alice", "z_bob")

_PAULI_1Q = {"I": I2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
# 15 traceless Hermitian basis directions; II is fixed by the unit trace.
PARAM_LABELS = tuple(
    a + b for a, b in product("IXYZ", repeat=2) if (a, b) != ("I", "I")
)
_PARAM_MATRICES = np.array([kron2(_PAULI_1Q[l[0]], _PAULI_1Q[l[1]]) for l in PARAM_LABELS])


@dataclass(frozen=True)
class ReadoutSetting:
    alice_rotation: str = "none"
    bob_rotation: str = "none"

    def __post_init__(self):
        for name in (self.alice_rotation, self.bob_rotation):
            if name not in ROTATION_CHOICES:
                raise ValueError(f"rotation must be one of {ROTATION_CHOICES}, got {name!r}")

    @property
    def id(self) -> str:
        return f"{self.alice_rotation}-{self.bob_rotation}"


ALL_SETTINGS = tuple(
    ReadoutSetting(a, b) for a, b in product(ROTATION_CHOICES, repeat=2)
)


@dataclass(frozen=True)
class MeasurementRecord:
    setting: ReadoutSetting
    observed_values: tuple[float, ...]
    noise_sigma: float = 0.0

    def __post_init__(self):
        if len(self.observed_values) != len(OBSERVABLE_IDS):
            raise ValueError(f"expected {len(OBSERVABLE_IDS)} observed values")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")
        slack = 10 * self.noise_sigma + 1e-9
        if not all(abs(v) <= 1 + slack for v in self.observed_values):
            raise ValueError("observed values must be finite and in [-1, 1] up to noise slack")


@dataclass(frozen=True)
class ReconstructionResult:
    """rho_hat is always physical (projected if needed, flagged); rho_raw is
    the unconstrained Hermitian unit-trace minimizer.  Both are read-only,
    and rho_hat is rho_raw itself when it is not projected.  Linear
    functionals of the state (payoffs in particular) are unbiased on rho_raw,
    while the projection biases them for states near the boundary of the
    physical cone, so noisy payoff extraction should read rho_raw."""

    rho_hat: np.ndarray
    residual_norm: float
    projected: bool
    rho_raw: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_SETTING_UNITARIES = {
    s.id: _read_only(kron2(_ROTATION_1Q[s.alice_rotation], _ROTATION_1Q[s.bob_rotation]))
    for s in ALL_SETTINGS
}
# the transposed view u.conj().T, not a contiguous copy: the products then take
# the same BLAS path and keep every bit
_SETTING_ADJOINTS = {sid: _read_only(u.conj().T) for sid, u in _SETTING_UNITARIES.items()}


# Each observable's weights on the rotated (CC, CD, DC, DD) populations: the
# four basis-state projectors, then sigma_z on Alice's and on Bob's spin.
_READOUT_WEIGHTS = _read_only(np.array([
    [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
    [1, 1, -1, -1], [1, -1, 1, -1],
], dtype=float))


def simulate_readout(
    rho: np.ndarray,
    setting: ReadoutSetting,
    noise_sigma: float = 0.0,
    seed: int | np.random.SeedSequence | None = 0,
) -> MeasurementRecord:
    """Rotate, read the six values off the populations, add Gaussian noise.

    Deterministic for a fixed seed (an int or a SeedSequence); no generator
    is built when noise_sigma is 0.
    """
    rng = np.random.default_rng(seed) if noise_sigma > 0 else None
    return _read(np.asarray(rho, dtype=complex), setting, noise_sigma, rng)


def _read(rho: np.ndarray, setting: ReadoutSetting, noise_sigma: float,
          rng: np.random.Generator | None) -> MeasurementRecord:
    """The one definition of a read: rotate, read the six values off the
    populations, then add noise_sigma-wide Gaussian noise drawn from rng
    (None at noise_sigma 0)."""
    sid = setting.id
    rotated = _SETTING_UNITARIES[sid] @ rho @ _SETTING_ADJOINTS[sid]
    # a complex sum of four, like np.trace's, not a real dot product: the
    # summation order keeps every value bitwise equal to tr(obs @ rotated)
    values = (_READOUT_WEIGHTS * rotated.diagonal()).sum(axis=1).real
    if rng is not None:
        values = values + rng.normal(0.0, noise_sigma, size=values.shape)
    return MeasurementRecord(setting=setting, observed_values=tuple(values.tolist()),
                             noise_sigma=float(noise_sigma))


def tomography_records(
    rho: np.ndarray, noise_sigma: float = 0.0, seed: int = 0
) -> list[MeasurementRecord]:
    """One record per readout setting, with independent per-setting noise streams.

    Setting k draws exactly what simulate_readout draws with seed
    SeedSequence(seed).spawn(9)[k].  ChildStreams derives the nine streams
    without building the children, and each generator as its setting is
    read; nothing is derived at noise_sigma 0.
    """
    rho = np.asarray(rho, dtype=complex)
    if noise_sigma > 0:
        rngs = map(ChildStreams(seed, len(ALL_SETTINGS)).generator, range(len(ALL_SETTINGS)))
    else:
        rngs = repeat(None)
    return [_read(rho, s, noise_sigma, rng) for s, rng in zip(ALL_SETTINGS, rngs)]


def _design_block(setting_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows mapping the 15 Pauli coefficients to this setting's values."""
    u = _SETTING_UNITARIES[setting_id]
    back = np.array([u.conj().T @ np.diag(w).astype(complex) @ u for w in _READOUT_WEIGHTS])
    rows = np.trace(back[:, None] @ _PARAM_MATRICES, axis1=2, axis2=3).real / 4.0
    offsets = np.trace(back, axis1=1, axis2=2).real / 4.0
    return rows, offsets


def _null_direction_labels(a: np.ndarray, rank: int) -> list[str]:
    _, _, vt = np.linalg.svd(a)
    labels = set()
    for row in vt[rank:]:
        for m, w in enumerate(row):
            if abs(w) > 0.3:
                labels.add(PARAM_LABELS[m])
    return sorted(labels)


@functools.lru_cache(maxsize=64)
def _checked_design(setting_ids: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked design rows, offsets and normal matrix for these settings, in order.

    Raises, naming the unconstrained Pauli components, if the settings leave
    any parameter direction free; a failing tuple is never cached, so it
    raises on every call."""
    blocks, offsets = zip(*(_design_block(sid) for sid in setting_ids))
    a = np.vstack(blocks)
    rank = int(np.linalg.matrix_rank(a, tol=1e-8))
    if rank < len(PARAM_LABELS):
        missing = _null_direction_labels(a, rank)
        raise ValueError(
            f"readout design is rank deficient ({rank}/{len(PARAM_LABELS)}); "
            f"unconstrained directions: {', '.join(missing)}"
        )
    return _read_only(a), _read_only(np.concatenate(offsets)), _read_only(a.T @ a)


def design_matrix_rank_check() -> int:
    """Rank of the nine-setting readout design matrix; raises if any parameter
    direction is unconstrained, naming the offending Pauli components."""
    _checked_design(tuple(s.id for s in ALL_SETTINGS))
    return len(PARAM_LABELS)


def reconstruct(records) -> ReconstructionResult:
    """Least-squares density-matrix estimate from measurement records.

    Solves the normal equations over the 15 free real parameters (the unit
    trace is eliminated), reports the residual, and applies the physicality
    projection (clip negative eigenvalues, renormalize the trace) only when
    the raw minimizer leaves the physical cone.

    The one eigendecomposition of rho_raw both decides the projection and
    certifies rho_hat: Hermiticity and unit trace hold by construction (real
    coefficients on the traceless Hermitian Pauli basis, plus I/4), and the
    spectrum is either above -EIGENVALUE_FLOOR or clipped to be non-negative.
    Readout values are checked for finiteness where they enter, in
    MeasurementRecord.
    """
    records = list(records)
    if not records:
        raise ValueError("no measurement records supplied")
    a, offsets, normal = _checked_design(tuple(r.setting.id for r in records))
    y = np.array([r.observed_values for r in records]).ravel() - offsets
    c = np.linalg.solve(normal, a.T @ y)
    residual = float(np.linalg.norm(a @ c - y))

    raw = np.eye(4, dtype=complex) / 4.0
    for coeff, pauli in zip((c / 4.0).tolist(), _PARAM_MATRICES):
        raw += coeff * pauli
    _read_only(raw)

    vals, vecs = np.linalg.eigh(raw)
    projected = bool(vals.min() < -EIGENVALUE_FLOOR)
    rho_hat = raw
    if projected:
        vals = np.clip(vals, 0.0, None)
        rho_hat = _read_only((vecs * (vals / vals.sum())) @ vecs.conj().T)
    return ReconstructionResult(rho_hat=rho_hat, residual_norm=residual, projected=projected,
                                rho_raw=raw)


def payoff_from_density(
    rho: np.ndarray, table: PayoffTable = DEFAULT_TABLE
) -> tuple[float, float]:
    """Both payoffs from the diagonal outcome probabilities of rho."""
    return payoffs_from_probabilities(np.asarray(rho, dtype=complex).diagonal().real, table)


def records_to_text(records) -> str:
    """Columnar form (setting id, observable id, value), one value per line,
    under the one noise_sigma header that every record shares."""
    records = list(records)
    sigmas = sorted({r.noise_sigma for r in records}) or [0.0]
    if len(sigmas) > 1:
        raise ValueError("records disagree on noise_sigma "
                         f"({', '.join(map(format_exact, sigmas))}); the text holds one")
    lines = [f"# noise_sigma {format_exact(sigmas[0])}"]
    for r in records:
        for obs_id, value in zip(OBSERVABLE_IDS, r.observed_values):
            lines.append(f"{r.setting.id} {obs_id} {format_exact(value)}")
    return "\n".join(lines) + "\n"


def records_from_text(text: str) -> list[MeasurementRecord]:
    sigma = None  # until the one noise_sigma header
    by_setting: dict[ReadoutSetting, dict[str, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["noise_sigma"]:
                if sigma is not None:
                    raise ValueError(f"line {lineno}: a second noise_sigma header")
                try:
                    (sigma,) = map(float, parts[1:])
                except ValueError:  # no number, a second field, or not a number
                    sigma = math.nan
                if not 0 <= sigma < math.inf:
                    raise ValueError(f"line {lineno}: noise_sigma header needs one finite, "
                                     f"non-negative number, got {raw!r}")
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"cannot parse record line {lineno}: {raw!r}")
        sid, obs_id, value = parts
        if obs_id not in OBSERVABLE_IDS:
            raise ValueError(f"unknown observable id {obs_id!r} on line {lineno}")
        if sid.count("-") != 1:
            raise ValueError(f"setting id {sid!r} on line {lineno} is not ALICE-BOB, e.g. x90-none")
        try:
            setting = ReadoutSetting(*sid.split("-"))
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"observed value must be finite, got {value}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        values = by_setting.setdefault(setting, {})
        if obs_id in values:
            raise ValueError(f"line {lineno} repeats {sid} {obs_id}")
        values[obs_id] = value

    records = []
    for setting, values in by_setting.items():
        if set(values) != set(OBSERVABLE_IDS):
            raise ValueError(f"setting {setting.id} is missing observables")
        records.append(
            MeasurementRecord(
                setting=setting,
                observed_values=tuple(values[o] for o in OBSERVABLE_IDS),
                noise_sigma=0.0 if sigma is None else sigma,
            )
        )
    return records
