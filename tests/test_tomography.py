import math

import numpy as np
import pytest

from qdilemma.game import PayoffTable
from qdilemma.linalg import (
    EIGENVALUE_FLOOR,
    KET_CC,
    KET_DD,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    I2,
    density_from_state,
    density_matrix,
    trace_distance,
)
from qdilemma.tomography import (
    ALL_SETTINGS,
    OBSERVABLE_IDS,
    PARAM_LABELS,
    MeasurementRecord,
    ReadoutSetting,
    design_matrix_rank_check,
    payoff_from_density,
    reconstruct,
    records_from_text,
    records_to_text,
    simulate_readout,
    tomography_records,
    _PARAM_MATRICES,
    _design_block,
)

BELL_LIKE = density_from_state((KET_CC + 1j * KET_DD) / np.sqrt(2))


def random_pure_density(rng):
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z = z / np.linalg.norm(z)
    return np.outer(z, z.conj())


def random_mixed_density(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


# Trace oracle for the readout, built locally from np.kron: the exact
# 90-degree tips, the four basis projectors and sigma_z on each spin.
_ORACLE_TIPS = {
    "none": I2,
    "x90": math.cos(math.pi / 4) * I2 - 1j * math.sin(math.pi / 4) * SIGMA_X,
    "y90": math.cos(math.pi / 4) * I2 - 1j * math.sin(math.pi / 4) * SIGMA_Y,
}
_ORACLE_OBSERVABLES = [np.diag(e).astype(complex) for e in np.eye(4)] + [
    np.kron(SIGMA_Z, I2), np.kron(I2, SIGMA_Z)
]
_ORACLE_PAULIS = {"I": I2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def _oracle_unitary(setting):
    return np.kron(_ORACLE_TIPS[setting.alice_rotation], _ORACLE_TIPS[setting.bob_rotation])


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _per_call_reconstruct(records):
    """reconstruct's arithmetic with the design and its normal matrix rebuilt
    on every call: (rho_raw, rho_hat, residual_norm)."""
    blocks, offsets = zip(*(_design_block(r.setting.id) for r in records))
    a = np.vstack(blocks)
    y = np.concatenate([r.observed_values for r in records]) - np.concatenate(offsets)
    c = np.linalg.solve(a.T @ a, a.T @ y)
    residual = float(np.linalg.norm(a @ c - y))
    rho = np.eye(4, dtype=complex) / 4.0
    for coeff, pauli in zip(c, _PARAM_MATRICES):
        rho = rho + coeff / 4.0 * pauli
    raw = rho.copy()
    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -EIGENVALUE_FLOOR:
        vals = np.clip(vals, 0.0, None)
        vals = vals / vals.sum()
        rho = (vecs * vals) @ vecs.conj().T
    return raw, density_matrix(rho), residual


class TestSettings:
    def test_nine_distinct_settings(self):
        assert len(ALL_SETTINGS) == 9
        assert len({s.id for s in ALL_SETTINGS}) == 9

    def test_rejects_unknown_rotation(self):
        with pytest.raises(ValueError):
            ReadoutSetting("z90", "none")


class TestSimulateReadout:
    def test_pure_cc_plain_setting(self):
        rec = simulate_readout(np.diag([1.0, 0, 0, 0]), ReadoutSetting(), 0.0)
        np.testing.assert_allclose(rec.observed_values[:4], [1, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(rec.observed_values[4:], [1, 1], atol=1e-12)

    def test_coherences_invisible_without_rotation(self):
        rec = simulate_readout(BELL_LIKE, ReadoutSetting(), 0.0)
        np.testing.assert_allclose(rec.observed_values[:4], [0.5, 0, 0, 0.5], atol=1e-12)

    def test_rotated_settings_expose_coherences(self):
        # rotate-then-read oracle built locally: conjugate rho by the exact
        # 90-degree pulses and read the diagonal
        rx = math.cos(math.pi / 4) * I2 - 1j * math.sin(math.pi / 4) * SIGMA_X
        ry = math.cos(math.pi / 4) * I2 - 1j * math.sin(math.pi / 4) * SIGMA_Y
        for name, u1 in (("x90", rx), ("y90", ry)):
            u = np.kron(u1, u1)
            expected = np.diag(u @ BELL_LIKE @ u.conj().T).real
            rec = simulate_readout(BELL_LIKE, ReadoutSetting(name, name), 0.0)
            np.testing.assert_allclose(rec.observed_values[:4], expected, atol=1e-12)
        # the i/2 coherence moves the populations away from (1/2, 0, 0, 1/2)
        rec = simulate_readout(BELL_LIKE, ReadoutSetting("x90", "x90"), 0.0)
        assert abs(rec.observed_values[0] - 0.5) > 0.1

    def test_bitwise_equal_to_trace_oracle(self):
        # the weight-table read must reproduce tr(obs rotated) to the last
        # bit, signed zeros included: the sweep datasets depend on it
        rng = np.random.default_rng(71)
        states = [random_mixed_density(rng) for _ in range(20)]
        states += [random_pure_density(rng) for _ in range(20)]
        states += [np.diag([1.0, 0, 0, 0]), BELL_LIKE]
        for rho in states:
            for setting in ALL_SETTINGS:
                u = _oracle_unitary(setting)
                rotated = u @ rho @ u.conj().T
                expected = [np.trace(obs @ rotated).real for obs in _ORACLE_OBSERVABLES]
                got = simulate_readout(rho, setting, 0.0).observed_values
                assert _hex(got) == _hex(expected), setting.id

    def test_seed_takes_a_seed_sequence(self):
        ss = np.random.SeedSequence(9)
        a = simulate_readout(BELL_LIKE, ReadoutSetting(), 0.05, seed=ss)
        b = simulate_readout(BELL_LIKE, ReadoutSetting(), 0.05, seed=np.random.SeedSequence(9))
        assert a == b
        assert simulate_readout(BELL_LIKE, ReadoutSetting(), 0.05, seed=None) != a

    def test_zero_noise_derives_no_stream(self, monkeypatch):
        expected = tomography_records(BELL_LIKE, 0.0, seed=5)

        def refuse(*args, **kwargs):
            raise AssertionError("a noise stream was derived at noise_sigma 0")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert tomography_records(BELL_LIKE, 0.0, seed=5) == expected
        assert simulate_readout(BELL_LIKE, ReadoutSetting(), 0.0) == expected[0]
        with pytest.raises(AssertionError, match="derived"):
            tomography_records(BELL_LIKE, 0.01, seed=5)

    def test_seeded_noise_reproducible(self):
        a = simulate_readout(BELL_LIKE, ReadoutSetting(), 0.05, seed=3)
        b = simulate_readout(BELL_LIKE, ReadoutSetting(), 0.05, seed=3)
        assert a == b
        c = simulate_readout(BELL_LIKE, ReadoutSetting(), 0.05, seed=4)
        assert a != c


class TestReconstruct:
    def test_rank_check_passes(self):
        assert design_matrix_rank_check() == 15

    def test_design_block_bitwise_equal_to_trace_oracle(self):
        paulis = [np.kron(_ORACLE_PAULIS[l[0]], _ORACLE_PAULIS[l[1]]) for l in PARAM_LABELS]
        for setting in ALL_SETTINGS:
            u = _oracle_unitary(setting)
            rows = np.empty((len(OBSERVABLE_IDS), len(PARAM_LABELS)))
            offsets = np.empty(len(OBSERVABLE_IDS))
            for k, obs in enumerate(_ORACLE_OBSERVABLES):
                back = u.conj().T @ obs @ u
                offsets[k] = np.trace(back).real / 4.0
                for m, pauli in enumerate(paulis):
                    rows[k, m] = np.trace(back @ pauli).real / 4.0
            got_rows, got_offsets = _design_block(setting.id)
            assert _hex(got_rows) == _hex(rows), setting.id
            assert _hex(got_offsets) == _hex(offsets), setting.id

    @pytest.mark.parametrize("seed", range(6))
    def test_cached_normal_matrix_is_bitwise_per_call_solve(self, seed):
        rng = np.random.default_rng(seed)
        for sigma in (0.0, 0.01, 0.05):
            records = tomography_records(random_pure_density(rng), sigma, seed=seed)
            if seed % 2:  # another setting order is another cached design
                records = records[::-1]
            raw, hat, residual = _per_call_reconstruct(records)
            result = reconstruct(records)
            assert result.rho_raw.tobytes() == raw.tobytes()
            assert result.rho_hat.tobytes() == hat.tobytes()
            assert result.residual_norm.hex() == residual.hex()

    def test_round_trip_pure_cc(self):
        result = reconstruct(tomography_records(np.diag([1.0, 0, 0, 0])))
        np.testing.assert_allclose(result.rho_hat, np.diag([1.0, 0, 0, 0]), atol=1e-9)
        assert not result.projected
        assert result.residual_norm < 1e-9

    def test_round_trip_recovers_coherences(self):
        result = reconstruct(tomography_records(BELL_LIKE))
        np.testing.assert_allclose(result.rho_hat, BELL_LIKE, atol=1e-9)
        assert result.rho_hat[0, 3] == pytest.approx(-0.5j, abs=1e-9)
        assert result.rho_hat[3, 0] == pytest.approx(0.5j, abs=1e-9)

    def test_round_trip_many_random_states(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            rho = random_pure_density(rng)
            result = reconstruct(tomography_records(rho))
            assert trace_distance(result.rho_hat, rho) <= 1e-8

    def test_raw_equals_projected_when_physical(self):
        result = reconstruct(tomography_records(BELL_LIKE))
        np.testing.assert_allclose(result.rho_raw, result.rho_hat, atol=1e-12)

    def test_projection_flag_and_closure(self):
        # noise pushes the estimate of a pure state off the physical cone
        result = reconstruct(tomography_records(np.diag([1.0, 0, 0, 0]), 0.05, seed=0))
        assert result.projected
        eigs = np.linalg.eigvalsh(result.rho_hat)
        assert eigs.min() >= -1e-12
        assert np.diag(result.rho_hat).real.sum() == pytest.approx(1.0, abs=1e-12)
        # the raw minimizer keeps unit trace but may dip negative
        assert np.trace(result.rho_raw).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(result.rho_raw).min() < -1e-10

    @pytest.mark.parametrize("sigma, projected", [(0.0, False), (0.05, True)])
    def test_one_spectrum_decides_and_certifies(self, monkeypatch, sigma, projected):
        records = tomography_records(np.diag([1.0, 0, 0, 0]), sigma, seed=0)

        def second_spectrum(*args, **kwargs):
            raise AssertionError("reconstruct computed a second spectrum")

        monkeypatch.setattr(np.linalg, "eigvalsh", second_spectrum)
        result = reconstruct(records)
        assert result.projected is projected
        assert (result.rho_hat is result.rho_raw) is not projected
        assert not result.rho_hat.flags.writeable
        assert not result.rho_raw.flags.writeable

    def test_rank_deficient_records_name_directions(self):
        records = [simulate_readout(BELL_LIKE, ReadoutSetting(), 0.0)]
        with pytest.raises(ValueError, match="unconstrained directions.*X"):
            reconstruct(records)

    def test_rank_deficient_subset_raises_on_every_call(self):
        records = tomography_records(BELL_LIKE, 0.0)
        subset = [r for r in records if r.setting.bob_rotation == "none"]
        for _ in range(2):
            with pytest.raises(ValueError, match="rank deficient"):
                reconstruct(subset)
        assert np.allclose(reconstruct(records).rho_hat, BELL_LIKE, atol=1e-9)

    def test_no_records_is_an_error(self):
        with pytest.raises(ValueError):
            reconstruct([])

    def test_noise_scaling(self):
        rng = np.random.default_rng(67)
        rho = random_pure_density(rng)
        def mean_distance(sigma):
            total = 0.0
            for seed in range(100):
                result = reconstruct(tomography_records(rho, sigma, seed=seed))
                total += trace_distance(result.rho_hat, rho)
            return total / 100
        d_big = mean_distance(0.02)
        d_small = mean_distance(0.01)
        assert math.isfinite(d_big) and math.isfinite(d_small)
        assert d_small < d_big


class TestPayoffFromDensity:
    def test_pure_outcomes(self):
        assert payoff_from_density(np.diag([1.0, 0, 0, 0])) == (3, 3)
        assert payoff_from_density(np.diag([0, 0, 0, 1.0])) == (1, 1)
        assert payoff_from_density(np.diag([0, 0, 1.0, 0])) == (5, 0)

    def test_respects_the_table(self):
        table = PayoffTable(4, 0, 6, 1)
        assert payoff_from_density(np.diag([0, 1.0, 0, 0]), table) == (0, 6)


class TestRecordSerialization:
    def test_round_trip(self):
        records = tomography_records(BELL_LIKE, 0.01, seed=5)
        again = records_from_text(records_to_text(records))
        assert again == records

    def test_columnar_layout(self):
        text = records_to_text(tomography_records(BELL_LIKE))
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(lines) == 9 * 6
        first = lines[0].split()
        assert first[0] == "none-none" and first[1] == "pop_cc"

    def test_replaying_recorded_data(self):
        records = tomography_records(BELL_LIKE)
        result = reconstruct(records_from_text(records_to_text(records)))
        np.testing.assert_allclose(result.rho_hat, BELL_LIKE, atol=1e-9)

    def test_mixed_noise_sigmas_are_refused(self):
        records = (tomography_records(BELL_LIKE)[:5]
                   + tomography_records(BELL_LIKE, 0.05, seed=1)[5:])
        with pytest.raises(ValueError, match=r"records disagree on noise_sigma \(0, 0\.05\)"):
            records_to_text(records)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            records_from_text("none-none pop_cc\n")
        with pytest.raises(ValueError):
            records_from_text("none-none pop_qq 0.5\n")

    def test_repeated_value_is_rejected(self):
        text = records_to_text(tomography_records(BELL_LIKE)) + "none-none pop_cc 0.5\n"
        with pytest.raises(ValueError, match="line 56 repeats none-none pop_cc"):
            records_from_text(text)

    @pytest.mark.parametrize("sid", ["nonenone", "none-none-none"])
    def test_malformed_setting_id_names_the_line(self, sid):
        text = records_to_text(tomography_records(BELL_LIKE)).replace("x90-y90", sid)
        lineno = 1 + 6 * [s.id for s in ALL_SETTINGS].index("x90-y90") + 1
        with pytest.raises(ValueError, match=f"setting id '{sid}' on line {lineno}"):
            records_from_text(text)

    @pytest.mark.parametrize("header", ["# noise_sigma", "# noise_sigma 0.05 x",
                                        "# noise_sigma abc", "# noise_sigma -0.05"])
    def test_malformed_noise_header_names_the_line(self, header):
        text = records_to_text(tomography_records(BELL_LIKE, 0.05, seed=1))
        with pytest.raises(ValueError, match="line 1: noise_sigma header needs one finite, "
                                             "non-negative number"):
            records_from_text(text.replace("# noise_sigma 0.05", header))

    def test_second_noise_header_names_the_line(self):
        # a later header would otherwise win and widen every value's slack
        text = records_to_text(tomography_records(BELL_LIKE, 0.01, seed=1))
        with pytest.raises(ValueError, match="line 56: a second noise_sigma header"):
            records_from_text(text + "# noise_sigma 0.5\n")

    @pytest.mark.parametrize("line, message", [
        ("x90-y90 pop_cd abc", "could not convert string to float: 'abc'"),
        ("z90-y90 pop_cd 0.25", "rotation must be one of .* got 'z90'"),
        ("x90-y90 pop_cd nan", "observed value must be finite, got nan"),
        ("x90-y90 pop_cd inf", "observed value must be finite, got inf"),
        ("x90-y90 pop_cd -inf", "observed value must be finite, got -inf"),
    ])
    def test_bad_value_or_rotation_names_the_line(self, line, message):
        lines = records_to_text(tomography_records(BELL_LIKE)).splitlines()
        lineno = next(k for k, l in enumerate(lines, 1) if l.startswith("x90-y90 pop_cd "))
        lines[lineno - 1] = line
        with pytest.raises(ValueError, match=f"line {lineno}: {message}"):
            records_from_text("\n".join(lines))


class TestMeasurementRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementRecord(ReadoutSetting(), (1.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            MeasurementRecord(ReadoutSetting(), (0.0,) * 6, -0.1)
        with pytest.raises(ValueError, match="observed values must be finite"):
            MeasurementRecord(ReadoutSetting(), (math.nan,) + (0.0,) * 5, 0.05)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_noise(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            MeasurementRecord(ReadoutSetting(), (0.0,) * 6, sigma)
        with pytest.raises(ValueError, match="noise_sigma"):
            simulate_readout(np.diag([1.0, 0, 0, 0]), ReadoutSetting(), sigma)
        text = records_to_text(tomography_records(BELL_LIKE))
        with pytest.raises(ValueError, match="noise_sigma"):
            records_from_text(text.replace("# noise_sigma 0", f"# noise_sigma {sigma}"))

    def test_value_range_slack_scales_with_noise(self):
        with pytest.raises(ValueError):
            MeasurementRecord(ReadoutSetting(), (1.2, 0, 0, 0, 0, 0), 0.0)
        MeasurementRecord(ReadoutSetting(), (1.2, 0, 0, 0, 0, 0), 0.05)
