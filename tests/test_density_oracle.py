import numpy as np
import pytest

from density_oracle import density_matrix


class TestDensityMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            density_matrix(np.diag([np.nan, 1.0, 0, 0]))

    def test_density_validation(self):
        density_matrix(np.diag([0.5, 0.5, 0, 0]))
        with pytest.raises(ValueError):
            density_matrix(np.diag([0.6, 0.5, 0, 0]))  # trace
        bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            density_matrix(bad)  # not Hermitian
        with pytest.raises(ValueError):
            density_matrix(np.diag([1.2, -0.2, 0, 0]))  # negative eigenvalue

    def test_constructors_freeze(self):
        rho = density_matrix(np.diag([1.0, 0, 0, 0]))
        with pytest.raises(ValueError):
            rho[0, 0] = 0
