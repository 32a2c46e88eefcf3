"""Nine-setting readout simulation and least-squares state reconstruction.

Each readout setting optionally tips each spin with a 90-degree pulse about
x or y before a z-basis read.  A setting yields the four rotated-basis
populations plus the two single-spin z expectations; across the nine
settings the 15 real parameters of a Hermitian unit-trace matrix are
overdetermined, and the estimate is the normal-equations least-squares
solution, projected back to the physical cone when noise pushes an
eigenvalue negative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .datasets import format_exact
from .game import DEFAULT_TABLE, PayoffTable, payoffs_from_probabilities
from .linalg import EIGENVALUE_FLOOR, I2, SIGMA_X, SIGMA_Y, SIGMA_Z, density_matrix, kron2, rotation

ROTATION_CHOICES = ("none", "x90", "y90")

_ROTATION_1Q = {"none": I2, "x90": rotation(math.pi / 2, "x"), "y90": rotation(math.pi / 2, "y")}

OBSERVABLE_IDS = ("pop_cc", "pop_cd", "pop_dc", "pop_dd", "z_alice", "z_bob")

_PAULI_1Q = {"I": I2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
# 15 traceless Hermitian basis directions; II is fixed by the unit trace.
PARAM_LABELS = tuple(
    a + b for a, b in product("IXYZ", repeat=2) if (a, b) != ("I", "I")
)
_PARAM_MATRICES = [kron2(_PAULI_1Q[l[0]], _PAULI_1Q[l[1]]) for l in PARAM_LABELS]


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
        if any(abs(v) > 1 + slack for v in self.observed_values):
            raise ValueError("observed values must lie in [-1, 1] up to noise slack")


@dataclass(frozen=True)
class ReconstructionResult:
    """rho_hat is always physical (projected if needed, flagged); rho_raw is
    the unconstrained Hermitian unit-trace minimizer.  Linear functionals of
    the state (payoffs in particular) are unbiased on rho_raw, while the
    projection biases them for states near the boundary of the physical
    cone, so noisy payoff extraction should read rho_raw."""

    rho_hat: np.ndarray
    residual_norm: float
    projected: bool
    rho_raw: np.ndarray | None = None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_SETTING_UNITARIES = {
    s.id: _read_only(kron2(_ROTATION_1Q[s.alice_rotation], _ROTATION_1Q[s.bob_rotation]))
    for s in ALL_SETTINGS
}


# The four basis-state projectors, then sigma_z on Alice's and on Bob's spin.
_OBSERVABLES = [np.diag(e).astype(complex) for e in np.eye(4)] + [
    kron2(SIGMA_Z, I2), kron2(I2, SIGMA_Z)
]


def simulate_readout(
    rho: np.ndarray,
    setting: ReadoutSetting,
    noise_sigma: float = 0.0,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
) -> MeasurementRecord:
    """Rotate, read the z-accessible observables, add Gaussian readout noise.

    Deterministic for a fixed seed; pass an explicit generator to share a
    stream across settings.
    """
    rho = np.asarray(rho, dtype=complex)
    u = _SETTING_UNITARIES[setting.id]
    rotated = u @ rho @ u.conj().T
    values = np.array([np.trace(obs @ rotated).real for obs in _OBSERVABLES])
    if noise_sigma > 0:
        if rng is None:
            rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_sigma, size=values.shape)
    return MeasurementRecord(
        setting=setting,
        observed_values=tuple(float(v) for v in values),
        noise_sigma=float(noise_sigma),
    )


def tomography_records(
    rho: np.ndarray, noise_sigma: float = 0.0, seed: int = 0
) -> list[MeasurementRecord]:
    """One record per readout setting, with independent per-setting noise streams."""
    streams = np.random.SeedSequence(seed).spawn(len(ALL_SETTINGS))
    return [
        simulate_readout(rho, s, noise_sigma, rng=np.random.default_rng(ss))
        for s, ss in zip(ALL_SETTINGS, streams)
    ]


def _design_block(setting_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows mapping the 15 Pauli coefficients to this setting's values."""
    u = _SETTING_UNITARIES[setting_id]
    rows = np.empty((len(_OBSERVABLES), len(PARAM_LABELS)))
    offsets = np.empty(len(_OBSERVABLES))
    for k, obs in enumerate(_OBSERVABLES):
        back = u.conj().T @ obs @ u
        offsets[k] = np.trace(back).real / 4.0
        for m, pauli in enumerate(_PARAM_MATRICES):
            rows[k, m] = np.trace(back @ pauli).real / 4.0
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
def _checked_design(setting_ids: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Stacked design rows and offsets for these settings, in order.

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
    return _read_only(a), _read_only(np.concatenate(offsets))


def design_matrix_rank_check(settings=ALL_SETTINGS) -> int:
    """Rank of the readout design matrix; raises if any parameter direction
    is unconstrained, naming the offending Pauli components."""
    _checked_design(tuple(s.id for s in settings))
    return len(PARAM_LABELS)


def reconstruct(records) -> ReconstructionResult:
    """Least-squares density-matrix estimate from measurement records.

    Solves the normal equations over the 15 free real parameters (the unit
    trace is eliminated), reports the residual, and applies the physicality
    projection (clip negative eigenvalues, renormalize the trace) only when
    the raw minimizer leaves the physical cone.
    """
    records = list(records)
    if not records:
        raise ValueError("no measurement records supplied")
    a, offsets = _checked_design(tuple(r.setting.id for r in records))
    y = np.concatenate([r.observed_values for r in records]) - offsets
    m = a.T @ a
    c = np.linalg.solve(m, a.T @ y)
    residual = float(np.linalg.norm(a @ c - y))

    rho = np.eye(4, dtype=complex) / 4.0
    for coeff, pauli in zip(c, _PARAM_MATRICES):
        rho = rho + coeff / 4.0 * pauli
    raw = rho.copy()
    raw.setflags(write=False)

    eigvals = np.linalg.eigvalsh(rho)
    projected = bool(eigvals.min() < -EIGENVALUE_FLOOR)
    if projected:
        vals, vecs = np.linalg.eigh(rho)
        vals = np.clip(vals, 0.0, None)
        vals = vals / vals.sum()
        rho = (vecs * vals) @ vecs.conj().T
    return ReconstructionResult(
        rho_hat=density_matrix(rho),
        residual_norm=residual,
        projected=projected,
        rho_raw=raw,
    )


def payoff_from_density(
    rho: np.ndarray, table: PayoffTable = DEFAULT_TABLE
) -> tuple[float, float]:
    """Both payoffs from the diagonal outcome probabilities of rho."""
    return payoffs_from_probabilities(np.asarray(rho, dtype=complex).diagonal().real, table)


def records_to_text(records) -> str:
    """Columnar form (setting id, observable id, value), one value per line."""
    records = list(records)
    lines = [f"# noise_sigma {format_exact(records[0].noise_sigma if records else 0.0)}"]
    for r in records:
        for obs_id, value in zip(OBSERVABLE_IDS, r.observed_values):
            lines.append(f"{r.setting.id} {obs_id} {format_exact(value)}")
    return "\n".join(lines) + "\n"


def records_from_text(text: str) -> list[MeasurementRecord]:
    sigma = 0.0
    by_setting: dict[str, dict[str, float]] = {}
    order: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "noise_sigma":
                sigma = float(parts[1])
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"cannot parse record line {lineno}: {raw!r}")
        sid, obs_id, value = parts
        if obs_id not in OBSERVABLE_IDS:
            raise ValueError(f"unknown observable id {obs_id!r} on line {lineno}")
        if sid not in by_setting:
            by_setting[sid] = {}
            order.append(sid)
        by_setting[sid][obs_id] = float(value)

    records = []
    for sid in order:
        alice, bob = sid.split("-")
        values = by_setting[sid]
        if set(values) != set(OBSERVABLE_IDS):
            raise ValueError(f"setting {sid} is missing observables")
        records.append(
            MeasurementRecord(
                setting=ReadoutSetting(alice, bob),
                observed_values=tuple(values[o] for o in OBSERVABLE_IDS),
                noise_sigma=sigma,
            )
        )
    return records
