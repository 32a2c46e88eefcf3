"""The noisy-trial path against the code it replaced, byte for byte.

The pulse run, the readout, the reconstruction and the T2 damping were made
cheaper with every bit kept.  The oracle below is the earlier code: a
SeedSequence spawn and default_rng per child, one angle draw per pulse,
u.conj().T per read, a fresh rho + coeff / 4.0 * pauli per Pauli term, and
np.diag damping.  Results are compared through tobytes(): == and
np.array_equal treat -0.0 as 0.0, records_to_text does not."""

import math
import random

import numpy as np
import pytest

from density_oracle import density_matrix
from qdilemma import nmr, tomography
from qdilemma.linalg import EIGENVALUE_FLOOR, KET_CC
from qdilemma.tomography import ALL_SETTINGS, MeasurementRecord, records_to_text


def oracle_damp(rho, dt):
    lam = math.exp(-dt / nmr.T2_S)
    return lam * rho + (1 - lam) * np.diag(np.diag(rho))


def oracle_unitary(p, j_hz, scale):
    if isinstance(p, nmr.Delay):
        phi = math.pi * j_hz * p.duration_s / 2
        return np.diag(np.exp(-1j * phi * np.array([1.0, -1.0, -1.0, 1.0])))
    return nmr._primitive_unitary(p, j_hz, scale)  # the pulse branch is unchanged


def oracle_run(gamma, strategy_seq, noise, apply_t2):
    sequences = (nmr.compile_entangler(gamma), strategy_seq, nmr.compile_disentangler(gamma))
    j_hz, amp_factor = nmr.J_COUPLING_HZ, 1.0
    if noise.is_noiseless:
        rngs = [None, None, None]
    else:
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(noise.seed).spawn(3)]
        if noise.field_inhomogeneity > 0:
            j_hz *= 1.0 + rngs[0].normal(0.0, noise.field_inhomogeneity)
            amp_factor = 1.0 + rngs[0].normal(0.0, noise.field_inhomogeneity)
    rho = np.outer(KET_CC, KET_CC.conj())
    for seq, rng in zip(sequences, rngs):
        for p in seq.primitives:
            scale = amp_factor
            if isinstance(p, nmr.Pulse) and noise.rotation_angle_error > 0:
                scale *= 1.0 + rng.normal(0.0, noise.rotation_angle_error)
            u = oracle_unitary(p, j_hz, scale)
            rho = u @ rho @ u.conj().T
            if apply_t2:
                rho = oracle_damp(rho, p.duration_s)
    return rho


def oracle_records(rho, noise_sigma, seed):
    records = []
    streams = np.random.SeedSequence(seed).spawn(len(ALL_SETTINGS))
    for k, (setting, ss) in enumerate(zip(ALL_SETTINGS, streams)):
        rho = np.asarray(rho, dtype=complex)
        u = tomography._UNITARIES[k]
        rotated = u @ rho @ u.conj().T
        values = (tomography._READOUT_WEIGHTS * rotated.diagonal()).sum(axis=1).real
        if noise_sigma > 0:
            values = values + np.random.default_rng(ss).normal(0.0, noise_sigma,
                                                               size=values.shape)
        records.append(MeasurementRecord(setting, tuple(float(v) for v in values),
                                         float(noise_sigma)))
    return records


def oracle_reconstruct(records):
    positions = tuple(ALL_SETTINGS.index(r.setting) for r in records)
    a, offsets, normal = tomography._checked_design(positions)
    y = np.concatenate([r.observed_values for r in records]) - offsets
    c = np.linalg.solve(normal, a.T @ y)
    residual = float(np.linalg.norm(a @ c - y))
    rho = np.eye(4, dtype=complex) / 4.0
    for coeff, pauli in zip(c, tomography._PARAM_MATRICES):
        rho = rho + coeff / 4.0 * pauli
    raw = rho.copy()
    vals, vecs = np.linalg.eigh(rho)
    projected = bool(vals.min() < -EIGENVALUE_FLOOR)
    if projected:
        vals = np.clip(vals, 0.0, None)
        vals = vals / vals.sum()
        rho = (vecs * vals) @ vecs.conj().T
    return raw, density_matrix(rho), residual, projected


def record_bytes(records):
    return [(r.setting, np.array(r.observed_values).tobytes(), r.noise_sigma) for r in records]


def assert_readout_matches(rho, noise_sigma, seed):
    got = tomography.tomography_records(rho, noise_sigma, seed=seed)
    want = oracle_records(rho, noise_sigma, seed)
    assert record_bytes(got) == record_bytes(want)
    assert records_to_text(got) == records_to_text(want)
    result = tomography.reconstruct(got)
    raw, hat, residual, projected = oracle_reconstruct(want)
    assert result.rho_raw.tobytes() == raw.tobytes()
    assert result.rho_hat.tobytes() == hat.tobytes()
    assert np.float64(result.residual_norm).tobytes() == np.float64(residual).tobytes()
    assert result.projected == projected


def trials(seed, count):
    """Seeded trials like the benchmark's: every fifth noiseless, half with
    T2 damping, each noise source alone and together, some seeds past the
    4-word entropy pool."""
    rng = random.Random(seed)
    for i in range(count):
        gamma = rng.uniform(0.0, math.pi / 2)
        flip = rng.random() < 0.5
        big = 2**128 if i % 7 == 0 else 0
        if i % 5 == 0:
            noise, sigma = nmr.NOISELESS, 0.0
        else:
            angle, field = rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05)
            angle, field = [(angle, field), (angle, 0.0), (0.0, field)][i % 3]
            noise = nmr.NoiseModel(angle, field, seed=big + rng.getrandbits(32))
            sigma = rng.choice([0.0, rng.uniform(0.0, 0.05)])
        yield gamma, flip, noise, i % 2 == 0, sigma, big + rng.getrandbits(32)


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_trials_keep_every_byte(seed):
    for gamma, flip, noise, apply_t2, sigma, tomo_seed in trials(seed, 120):
        seq = nmr.compile_strategies(gamma, flip_intermediate=flip)
        rho = nmr.run_experiment(gamma, seq, noise=noise, apply_t2=apply_t2)
        assert rho.tobytes() == oracle_run(gamma, seq, noise, apply_t2).tobytes()
        assert_readout_matches(rho, sigma, tomo_seed)


# noiseless product states: most populations in most settings are exactly 0,
# and the signed zeros of the sums show in the records text
PRODUCT_STATES = [np.diag([1.0, 0, 0, 0]).astype(complex), np.diag([0, 0, 0, 1.0]).astype(complex)]
_PRODUCT_KETS = [np.kron(a, b).astype(complex) for a, b in [
    (np.array([1, 0]), np.array([1, 1]) / math.sqrt(2)),
    (np.array([1, 1j]) / math.sqrt(2), np.array([0, 1])),
    (np.array([1, -1]) / math.sqrt(2), np.array([1, -1j]) / math.sqrt(2)),
]]
PRODUCT_STATES += [np.outer(s, s.conj()) for s in _PRODUCT_KETS]


@pytest.mark.parametrize("k", range(len(PRODUCT_STATES)))
@pytest.mark.parametrize("noise_sigma", [0.0, 0.02])
def test_product_states_keep_every_byte(k, noise_sigma):
    assert_readout_matches(PRODUCT_STATES[k], noise_sigma, 2**128 + k)


def test_noiseless_run_of_a_product_state_keeps_every_byte():
    # D on both spins at gamma 0 ends in |DD><DD|, zeros everywhere else
    seq = nmr.compile_strategies(0.0)
    for apply_t2 in (False, True):
        rho = nmr.run_experiment(0.0, seq, apply_t2=apply_t2)
        assert rho.tobytes() == oracle_run(0.0, seq, nmr.NOISELESS, apply_t2).tobytes()
        assert_readout_matches(rho, 0.0, 0)


@pytest.mark.parametrize("dt", [0.0, 1e-3, 0.05, 3.0])
def test_t2_damping_keeps_every_byte(dt):
    states = [rho.copy() for rho in PRODUCT_STATES]
    states += [-rho for rho in PRODUCT_STATES]  # negative zeros off the diagonal
    rng = np.random.default_rng(4)
    states += [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(20)]
    for rho in states:
        assert nmr._damp_coherences(rho, dt).tobytes() == oracle_damp(rho, dt).tobytes()
