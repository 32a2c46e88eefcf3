import math

import numpy as np
import pytest

from qdilemma.linalg import (
    KET_CC,
    KET_DC,
    KET_DD,
    SIGMA_X,
    SIGMA_Y,
    apply,
    density_from_state,
    fidelity_up_to_phase,
    kron2,
    probabilities,
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


def random_state(rng):
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    return z / np.linalg.norm(z)


class TestTensor:
    """kron2 is the tensor product, Alice's factor on the left."""

    def test_identity_case(self):
        np.testing.assert_allclose(kron2(I2, I2), np.eye(4), atol=1e-15)

    def test_defect_tensor_matches_hand_multiplication(self):
        np.testing.assert_allclose(
            kron2(DEFECT_2Q, DEFECT_2Q), DEFECT_TENSOR_EXPECTED, atol=1e-15
        )

    def test_defect_on_alice_flips_her_bit(self):
        out = apply(kron2(DEFECT_2Q, I2), KET_CC)
        np.testing.assert_allclose(out, -KET_DC, atol=1e-15)


class TestApply:
    def test_identity(self):
        np.testing.assert_allclose(apply(np.eye(4), KET_CC), KET_CC, atol=1e-15)

    def test_half_entangler_on_cc(self):
        # cos(pi/4) I + i sin(pi/4) DxD sends |CC> to (|CC> + i|DD>)/sqrt(2)
        j = np.cos(np.pi / 4) * np.eye(4) + 1j * np.sin(np.pi / 4) * DEFECT_TENSOR_EXPECTED
        expected = (KET_CC + 1j * KET_DD) / np.sqrt(2)
        np.testing.assert_allclose(apply(j, KET_CC), expected, atol=1e-15)

    def test_preserves_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            out = apply(random_unitary(rng, 4), random_state(rng))
            assert abs(np.linalg.norm(out) - 1) < 1e-12


class TestProbabilities:
    def test_basis_state(self):
        assert probabilities(KET_CC) == (1, 0, 0, 0)

    def test_equal_superposition(self):
        p = probabilities((KET_CC + 1j * KET_DD) / np.sqrt(2))
        np.testing.assert_allclose(p, (0.5, 0, 0, 0.5), atol=1e-15)

    def test_third_pi_weights(self):
        # cos^2(pi/6) = 3/4 and sin^2(pi/6) = 1/4
        s = np.cos(np.pi / 6) * KET_CC + 1j * np.sin(np.pi / 6) * KET_DD
        np.testing.assert_allclose(probabilities(s), (0.75, 0, 0, 0.25), atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            assert abs(sum(probabilities(random_state(rng))) - 1) < 1e-12


class TestDensityFromState:
    def test_basis_state(self):
        np.testing.assert_allclose(
            density_from_state(KET_CC), np.diag([1, 0, 0, 0]), atol=1e-15
        )

    def test_entangled_state_coherences(self):
        rho = density_from_state((KET_CC + 1j * KET_DD) / np.sqrt(2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        expected[0, 3] = -0.5j
        expected[3, 0] = 0.5j
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_trace_and_rank(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = density_from_state(random_state(rng))
            assert abs(np.trace(rho).real - 1) < 1e-12
            eigs = np.sort(np.linalg.eigvalsh(rho))
            assert eigs[-2] <= 1e-10  # rank one


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


class TestConstructors:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            apply(np.eye(4), [np.nan, 0, 0, 0])


def test_trace_distance():
    a = np.diag([1.0, 0, 0, 0]).astype(complex)
    b = np.diag([0, 1.0, 0, 0]).astype(complex)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
