import math

import numpy as np
import pytest

from qdilemma.linalg import (
    KET_CC,
    SIGMA_X,
    SIGMA_Y,
    fidelity_up_to_phase,
    kron2,
    rotation,
    trace_distance,
)

I2 = np.eye(2, dtype=complex)
DEFECT_2Q = np.array([[0, 1], [-1, 0]], dtype=complex)  # i sigma_y

# hand multiplication of (i sigma_y) x (i sigma_y): block form
# [[0*D, 1*D], [-1*D, 0*D]] gives an antidiagonal of (1, -1, -1, 1)
DEFECT_TENSOR_EXPECTED = np.array(
    [
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, -1, 0, 0],
        [1, 0, 0, 0],
    ],
    dtype=complex,
)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTensor:
    """kron2 is the tensor product, Alice's factor on the left."""

    def test_identity_case(self):
        np.testing.assert_allclose(kron2(I2, I2), np.eye(4), atol=1e-15)

    def test_defect_tensor_matches_hand_multiplication(self):
        np.testing.assert_allclose(
            kron2(DEFECT_2Q, DEFECT_2Q), DEFECT_TENSOR_EXPECTED, atol=1e-15
        )

    def test_defect_on_alice_flips_her_bit(self):
        out = kron2(DEFECT_2Q, I2) @ KET_CC
        np.testing.assert_allclose(out, [0, 0, -1, 0], atol=1e-15)


class TestFidelityUpToPhase:
    def test_identity_pair(self):
        assert fidelity_up_to_phase(np.eye(4), np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        assert fidelity_up_to_phase(
            np.eye(4), np.exp(1j * np.pi / 7) * np.eye(4)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gates(self):
        # trace of the antidiagonal product is zero
        assert fidelity_up_to_phase(np.eye(4), DEFECT_TENSOR_EXPECTED) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_self_fidelity_of_random_unitaries(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = random_unitary(rng, 4)
            assert fidelity_up_to_phase(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_finite(self):
        nan_entry = np.eye(4)
        nan_entry[1, 2] = np.nan
        with pytest.raises(ValueError, match="^fidelity first unitary contains non-finite"):
            fidelity_up_to_phase(nan_entry, np.eye(4))
        with pytest.raises(ValueError, match="^fidelity second unitary contains non-finite"):
            fidelity_up_to_phase(np.eye(4), nan_entry)

    def test_rejects_a_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^fidelity second unitary must have shape "
                                             r"\(4, 4\), got \(2, 2\)$"):
            fidelity_up_to_phase(np.eye(4), I2)


class TestKron2:
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_np_kron_exactly(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        for x, y in ((a, b), (a, I2), (I2, b), (a, a)):
            assert np.array_equal(kron2(x, y), np.kron(x, y))


class TestRotation:
    def test_half_turns(self):
        np.testing.assert_allclose(rotation(math.pi, "x"), -1j * SIGMA_X, atol=1e-15)
        np.testing.assert_allclose(rotation(math.pi, "-y"), 1j * SIGMA_Y, atol=1e-15)

    def test_quarter_turn_is_exact(self):
        # the readout tips were written out as cos(pi/4) I - i sin(pi/4) sigma
        for axis, sigma in (("x", SIGMA_X), ("y", SIGMA_Y)):
            expected = math.cos(math.pi / 4) * I2 - 1j * math.sin(math.pi / 4) * sigma
            assert np.array_equal(rotation(math.pi / 2, axis), expected)
            assert np.array_equal(rotation(math.radians(90), axis), expected)

    def test_negative_axis_reverses_the_turn(self):
        for axis in ("x", "y"):
            np.testing.assert_allclose(rotation(0.7, "-" + axis), rotation(-0.7, axis), atol=1e-15)


def test_trace_distance():
    a = np.diag([1.0, 0, 0, 0]).astype(complex)
    b = np.diag([0, 1.0, 0, 0]).astype(complex)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
