"""Two-qubit complex linear algebra: basis kets, Paulis, rotations, fidelities.

Basis ordering is fixed everywhere as (CC, CD, DC, DD) with Alice's qubit
the left (most significant) tensor factor.  C maps to |0> and D to |1>.
"""

from __future__ import annotations

import math

import numpy as np

# Slack allowed below zero for a density matrix's eigenvalues.
EIGENVALUE_FLOOR = 1e-10

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET_CC = np.array([1, 0, 0, 0], dtype=complex)

for _m in (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, KET_CC):
    _m.setflags(write=False)

_AXIS_OPERATOR = {"x": SIGMA_X, "-x": -SIGMA_X, "y": SIGMA_Y, "-y": -SIGMA_Y}


def _as_complex(a, shape, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2x2 factors: the same products, without kron's
    generic-shape set-up, which dominated a pulse's cost."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def rotation(angle_rad: float, axis: str) -> np.ndarray:
    """Single-spin rotation exp(-i angle sigma_axis / 2), axis in x, -x, y, -y."""
    op = _AXIS_OPERATOR[axis]
    return math.cos(angle_rad / 2) * I2 - 1j * math.sin(angle_rad / 2) * op


def fidelity_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """|tr(a^dag b)| / 4: equals 1 iff a and b agree up to a global phase."""
    a = _as_complex(a, (4, 4), "fidelity first unitary")
    b = _as_complex(b, (4, 4), "fidelity second unitary")
    return float(abs(np.trace(a.conj().T @ b)) / 4.0)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of (a - b) for Hermitian matrices."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
