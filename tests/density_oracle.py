"""Validating density-matrix constructor for the reconstruction oracles.

reconstruct certifies its own estimate from its one eigendecomposition; the
oracles in test_tomography.py and test_trial_oracle.py pass each estimate
through these independent checks as well.
"""

import numpy as np

from qdilemma.linalg import EIGENVALUE_FLOOR, _as_complex

# Slack for exact-arithmetic identities: Hermiticity and trace.
ATOL = 1e-12


def density_matrix(entries) -> np.ndarray:
    """Validate and freeze a 4x4 density matrix (Hermitian, trace 1, PSD)."""
    rho = _as_complex(entries, (4, 4), "density_matrix")
    if np.max(np.abs(rho - rho.conj().T)) > ATOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > ATOL:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -EIGENVALUE_FLOOR:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    rho.setflags(write=False)
    return rho
