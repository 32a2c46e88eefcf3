"""Property tests of the readout and reconstruction (needs hypothesis)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qdilemma.linalg import EIGENVALUE_FLOOR
from qdilemma.tomography import (
    ALL_SETTINGS,
    MeasurementRecord,
    reconstruct,
    records_from_text,
    records_to_text,
    tomography_records,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=30)

unit_floats = st.floats(-1.0, 1.0, allow_nan=False)
noise_sigmas = st.sampled_from([0.0, 0.01, 0.03, 0.1])


@st.composite
def densities(draw):
    """A full-rank or near-pure density matrix from 32 drawn entries."""
    z = np.array(draw(st.lists(unit_floats, min_size=32, max_size=32))).reshape(2, 4, 4)
    z = z[0] + 1j * z[1]
    rho = z @ z.conj().T + 1e-9 * np.eye(4)
    return rho / np.trace(rho).real


@st.composite
def record_lists(draw):
    sigma = draw(noise_sigmas)
    chosen = draw(st.permutations(ALL_SETTINGS))[: draw(st.integers(1, len(ALL_SETTINGS)))]
    return [
        MeasurementRecord(s, tuple(draw(st.lists(unit_floats, min_size=6, max_size=6))), sigma)
        for s in chosen
    ]


@PROPERTY_SETTINGS
@given(record_lists())
def test_records_text_round_trip(records):
    assert records_from_text(records_to_text(records)) == records


@PROPERTY_SETTINGS
@given(densities(), noise_sigmas, st.integers(0, 2**32 - 1))
def test_estimate_is_physical(rho, sigma, seed):
    rho_hat = reconstruct(tomography_records(rho, sigma, seed=seed)).rho_hat
    assert np.linalg.eigvalsh(rho_hat).min() >= -EIGENVALUE_FLOOR
    assert abs(np.trace(rho_hat).real - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(densities())
def test_raw_estimate_rereads_its_records(rho):
    records = tomography_records(rho)
    reread = tomography_records(reconstruct(records).rho_raw)
    for before, after in zip(records, reread):
        np.testing.assert_allclose(after.observed_values, before.observed_values, rtol=0, atol=1e-12)
