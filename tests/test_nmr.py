import math

import numpy as np
import pytest

from qdilemma import nmr
from qdilemma.equilibrium import REGIME_LABELS, classify_regime, nash_payoff_curve, thresholds
from qdilemma.game import (
    DEFECT,
    QUANTUM,
    PayoffTable,
    disentangling_gate,
    entangling_gate,
    play,
    strategy_unitary,
    sweep_gammas,
)
from qdilemma.linalg import I2, KET_CC, fidelity_up_to_phase, rotation
from qdilemma.nmr import (
    J_COUPLING_HZ,
    NOISELESS,
    NOMINAL_PULSE_WIDTH_S,
    Delay,
    NoiseModel,
    Pulse,
    PulseSequence,
    T2_S,
    compile_disentangler,
    compile_entangler,
    compile_strategies,
    experiment_duration,
    run_experiment,
    sequence_from_text,
    sequence_unitary,
)

MOVES = {"D": DEFECT, "Q": QUANTUM}


def compiles_pair(seq, pair):
    """Whether seq compiles the equilibrium pair, e.g. "DQ": Alice's move on the first spin."""
    ideal = np.kron(strategy_unitary(MOVES[pair[0]]), strategy_unitary(MOVES[pair[1]]))
    return fidelity_up_to_phase(sequence_unitary(seq), ideal) >= 1 - 1e-9


def compiled_run(gamma, flip=False):
    """Entangler, equilibrium strategies and disentangler, in run order."""
    return (compile_entangler(gamma), compile_strategies(gamma, flip_intermediate=flip),
            compile_disentangler(gamma))


# experiment_duration(compiled_run(n pi / 36)).hex() for n = 0 .. 18: the duration_s bytes
# of every nmr report follow from these sums
_DD, _DD_LOW, _DQ, _QQ = ("0x1.22c12cb751fddp-2", "0x1.22c12cb751fdcp-2",
                          "0x1.25d39b4edf4dbp-2", "0x1.24cd7671b0331p-2")
DURATION_HEX = [_DD] * 5 + [_DD_LOW] + [_DQ] * 2 + [_QQ] * 11

# compile_strategies(...).to_text() per equilibrium, pulse by pulse
STRATEGY_LISTINGS = [
    (0.0, False, "PULSE both 180deg y\n"),  # DD
    (0.6, False, "PULSE alice 180deg y\nPULSE bob 90deg -y\nPULSE bob 180deg x\n"
                 "PULSE bob 90deg y\n"),  # DQ
    (0.6, True, "PULSE bob 180deg y\nPULSE alice 90deg -y\nPULSE alice 180deg x\n"
                "PULSE alice 90deg y\n"),  # QD
    (math.pi / 2, False, "PULSE both 90deg -y\nPULSE both 180deg x\nPULSE both 90deg y\n"),  # QQ
]


class TestTimings:
    def test_entangler_period(self):
        seq = compile_entangler(math.pi / 2)
        # (pi/2) / (pi * 7.17) = 1 / 14.34
        assert seq.free_evolution_time() == pytest.approx(1 / 14.34, abs=1e-15)

    def test_disentangler_period(self):
        seq = compile_disentangler(math.pi / 2)
        # (2 pi - pi/2) / (pi * 7.17) = 3 / 14.34
        assert seq.free_evolution_time() == pytest.approx(3 / 14.34, abs=1e-15)

    def test_zero_gamma_disentangler_still_costs_a_full_cycle(self):
        seq = compile_disentangler(0.0)
        assert seq.free_evolution_time() == pytest.approx(2 / J_COUPLING_HZ, abs=1e-15)
        u = sequence_unitary(seq)
        assert fidelity_up_to_phase(u, np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", sweep_gammas())
    def test_complementary_periods_sum_exactly(self, gamma):
        total = (
            compile_entangler(gamma).free_evolution_time()
            + compile_disentangler(gamma).free_evolution_time()
        )
        assert total == 2 / J_COUPLING_HZ


class TestCompiledGateFidelity:
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9, math.pi / 2])
    def test_entangler(self, gamma):
        u = sequence_unitary(compile_entangler(gamma))
        assert fidelity_up_to_phase(u, entangling_gate(gamma)) >= 1 - 1e-9

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9, math.pi / 2])
    def test_disentangler(self, gamma):
        u = sequence_unitary(compile_disentangler(gamma))
        assert fidelity_up_to_phase(u, disentangling_gate(gamma)) >= 1 - 1e-9

    def test_entangler_then_disentangler_is_identity_up_to_phase(self):
        g = 0.8
        u = sequence_unitary(compile_disentangler(g)) @ sequence_unitary(compile_entangler(g))
        assert fidelity_up_to_phase(u, np.eye(4)) >= 1 - 1e-9

    def test_zero_gamma_entangler_is_identity(self):
        u = sequence_unitary(compile_entangler(0.0))
        assert fidelity_up_to_phase(u, np.eye(4)) >= 1 - 1e-9


class TestStrategyCompilation:
    def test_classical_recipe_is_mutual_defection(self):
        seq = compile_strategies(0.0)
        assert seq.primitives == (Pulse("both", 180, "y"),)
        ideal = np.kron(strategy_unitary(DEFECT), strategy_unitary(DEFECT))
        assert fidelity_up_to_phase(sequence_unitary(seq), ideal) >= 1 - 1e-9

    def test_intermediate_recipe_defaults_to_alice_defecting(self):
        g = 7 * math.pi / 36
        seq = compile_strategies(g)
        ideal = np.kron(strategy_unitary(DEFECT), strategy_unitary(QUANTUM))
        assert fidelity_up_to_phase(sequence_unitary(seq), ideal) >= 1 - 1e-9

    def test_intermediate_recipe_flipped(self):
        g = 7 * math.pi / 36
        seq = compile_strategies(g, flip_intermediate=True)
        ideal = np.kron(strategy_unitary(QUANTUM), strategy_unitary(DEFECT))
        assert fidelity_up_to_phase(sequence_unitary(seq), ideal) >= 1 - 1e-9

    def test_quantum_recipe_is_mutual_quantum(self):
        seq = compile_strategies(math.pi / 2)
        ideal = np.kron(strategy_unitary(QUANTUM), strategy_unitary(QUANTUM))
        assert fidelity_up_to_phase(sequence_unitary(seq), ideal) >= 1 - 1e-9

    def test_regime_selection_respects_the_table(self):
        table = PayoffTable(3, 1, 5, 2)
        assert compiles_pair(compile_strategies(0.5, table), "DD")
        assert compiles_pair(compile_strategies(0.6, table), "DQ")

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("table", [PayoffTable(), PayoffTable(4, 0, 6, 2),
                                       PayoffTable(2.5, 0.5, 3.75, 1.25)],
                             ids=lambda t: str(t.as_tuple()))
    def test_label_is_the_payoff_curve_label(self, table, flip):
        # first curve label unflipped, last flipped: one label outside the intermediate regime
        th = thresholds(table)
        for gamma in [*sweep_gammas(), th.gamma_th1, th.gamma_th2]:
            labels = [label for _, label, _ in nash_payoff_curve(table, [gamma])]
            compiled = compile_strategies(gamma, table, flip_intermediate=flip)
            assert compiles_pair(compiled, labels[-1 if flip else 0])


class TestSequenceUnitary:
    def test_nonselective_180y_maps_cc_to_dd(self):
        seq = PulseSequence(primitives=(Pulse("both", 180, "y"),))
        out = sequence_unitary(seq) @ KET_CC
        assert abs(out[3]) == pytest.approx(1.0, abs=1e-12)

    def test_free_evolution_eighth_cycle(self):
        t = 1 / (2 * J_COUPLING_HZ)
        seq = PulseSequence(primitives=(Delay(t),))
        expected = np.diag(np.exp(-1j * math.pi / 4 * np.array([1, -1, -1, 1])))
        np.testing.assert_allclose(sequence_unitary(seq), expected, atol=1e-12)

    def test_zero_duration_delay_is_identity(self):
        seq = PulseSequence(primitives=(Delay(0.0),))
        np.testing.assert_allclose(sequence_unitary(seq), np.eye(4), atol=1e-15)

    def test_rejects_negative_duration(self):
        # rejected when the delay is built, before any sequence can hold it
        with pytest.raises(ValueError):
            Delay(-0.1)

    def test_selective_pulses_act_on_one_spin(self):
        seq = PulseSequence(primitives=(Pulse("alice", 180, "y"),))
        out = sequence_unitary(seq) @ KET_CC
        assert abs(out[2]) == pytest.approx(1.0, abs=1e-12)  # DC
        seq = PulseSequence(primitives=(Pulse("bob", 180, "y"),))
        out = sequence_unitary(seq) @ KET_CC
        assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)  # CD

    @pytest.mark.parametrize("target", ["alice", "bob", "both"])
    def test_two_spin_product_equals_kron_exactly(self, target):
        rot = rotation(math.radians(37.0), "-y")
        a, b = {"alice": (rot, I2), "bob": (I2, rot), "both": (rot, rot)}[target]
        seq = PulseSequence(primitives=(Pulse(target, 37.0, "-y"),))
        assert np.array_equal(sequence_unitary(seq), np.kron(a, b) @ np.eye(4, dtype=complex))


class TestPrimitiveValidation:
    def test_rotation_fields(self):
        with pytest.raises(ValueError):
            Pulse("alice", 90, "z")
        with pytest.raises(ValueError):
            Pulse("carol", 90, "x")
        with pytest.raises(ValueError):
            Pulse("alice", math.nan, "x")
        # a pulse's duration is the nominal width, not a field
        assert Pulse("alice", 90, "x").duration_s == NOMINAL_PULSE_WIDTH_S
        with pytest.raises(TypeError):
            Pulse("alice", 90, "x", duration_s=1.0)

    def test_free_evolution_fields(self):
        for bad in (math.inf, math.nan, -1e-9):
            with pytest.raises(ValueError):
                Delay(bad)
        with pytest.raises(TypeError):
            Delay(1.0, angle_deg=90)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            PulseSequence(primitives=())


class TestSerialization:
    def test_entangler_golden_listing(self):
        text = compile_entangler(math.pi / 2).to_text()
        lines = text.splitlines()
        assert lines[0] == "PULSE both 90deg x"
        assert lines[1].startswith("DELAY 0.069735006")
        assert lines[2] == "PULSE both 90deg -x"
        # at least 9 significant digits on the delay
        digits = lines[1].split()[1].replace(".", "").lstrip("0")
        assert len(digits) >= 9

    def test_round_trip(self):
        for seq in (
            compile_entangler(0.37),
            compile_disentangler(0.37),
            compile_strategies(0.55),
        ):
            assert sequence_from_text(seq.to_text()) == seq

    @pytest.mark.parametrize("gamma, flip, listing", STRATEGY_LISTINGS)
    def test_strategy_golden_listing(self, gamma, flip, listing):
        seq = compile_strategies(gamma, flip_intermediate=flip)
        assert seq.to_text() == listing
        assert sequence_from_text(listing) == seq
        labels = REGIME_LABELS[classify_regime(gamma)]
        assert compiles_pair(seq, labels[-1 if flip else 0])

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            sequence_from_text("WAIT 1.0\n")
        with pytest.raises(ValueError):
            sequence_from_text("DELAY -0.1\n")

    @pytest.mark.parametrize("bad", ["DELAY -1", "DELAY nan", "PULSE both abcdeg x",
                                     "PULSE both 90deg z", "PULSE carol 90deg x"])
    def test_bad_values_name_their_line(self, bad):
        with pytest.raises(ValueError, match=r"^line 2: "):
            sequence_from_text(f"PULSE both 90deg x\n{bad}\n")


class TestNoise:
    def test_zero_noise_is_exact(self):
        for g in (0.9, *sweep_gammas()):
            assert run_experiment(g).tobytes() == run_experiment(g, noise=NOISELESS).tobytes()

    def test_seeded_noise_is_reproducible(self):
        noise = NoiseModel(rotation_angle_error=0.05, field_inhomogeneity=0.02, seed=42)
        assert np.array_equal(run_experiment(0.9, noise=noise), run_experiment(0.9, noise=noise))

    def test_different_seeds_differ(self):
        rho1 = run_experiment(0.9, noise=NoiseModel(rotation_angle_error=0.05, seed=1))
        rho2 = run_experiment(0.9, noise=NoiseModel(rotation_angle_error=0.05, seed=2))
        assert np.max(np.abs(rho1 - rho2)) > 1e-6

    def test_inhomogeneity_is_drawn_once_per_run(self):
        # With one J factor the two delays always sum to 2/J, and with one
        # amplitude factor the bracketing pulses cancel, so an idle run ends
        # in the same state at every gamma.
        noise = NoiseModel(field_inhomogeneity=0.05, seed=3)
        idle = PulseSequence((Delay(0.0),))
        ref = run_experiment(0.0, idle, noise=noise)
        for gamma in np.linspace(0.0, math.pi / 2, 7)[1:]:
            np.testing.assert_allclose(run_experiment(gamma, idle, noise=noise), ref, atol=1e-12)

    def test_noisy_payoff_deviation_is_finite_and_reported(self):
        ideal = play(0.9, QUANTUM, QUANTUM).payoff_a
        noise = NoiseModel(rotation_angle_error=0.05, seed=7)
        rho = run_experiment(0.9, noise=noise)
        noisy = float(np.real(3 * rho[0, 0] + 5 * rho[2, 2] + rho[3, 3]))
        assert math.isfinite(noisy)
        assert abs(noisy - ideal) < 1.0  # bounded, not asserted monotone

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            NoiseModel(rotation_angle_error=0.25)
        with pytest.raises(ValueError):
            NoiseModel(field_inhomogeneity=-0.01)


class TestRunExperiment:
    def test_classical_limit(self):
        rho = run_experiment(0.0)
        np.testing.assert_allclose(np.diag(rho).real, [0, 0, 0, 1], atol=1e-9)

    def test_maximal_entanglement(self):
        rho = run_experiment(math.pi / 2)
        np.testing.assert_allclose(np.diag(rho).real, [1, 0, 0, 0], atol=1e-9)

    @pytest.mark.parametrize("n", range(19))
    def test_matches_ideal_pipeline(self, n):
        gamma = n * math.pi / 36
        seq = compile_strategies(gamma)
        pair = REGIME_LABELS[classify_regime(gamma)][0]
        assert compiles_pair(seq, pair)
        sa, sb = MOVES[pair[0]], MOVES[pair[1]]
        rho = run_experiment(gamma, seq)
        np.testing.assert_allclose(
            np.diag(rho).real, play(gamma, sa, sb).probabilities, atol=1e-9
        )

    def test_noiseless_run_stays_pure(self):
        for gamma in (0.0, 0.4, 1.1, math.pi / 2):
            rho = run_experiment(gamma)
            assert abs(np.trace(rho).real - 1) < 1e-12
            eigs = np.sort(np.linalg.eigvalsh(rho))
            assert eigs[-2] <= 1e-10  # rank one

    def test_t2_damping_reduces_and_preserves_physicality(self):
        rho = run_experiment(math.pi / 2, apply_t2=True)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        # coherences decayed mid-circuit at T2_S, so the ideal outcome degrades
        assert rho[0, 0].real < 1.0 - 1e-3
        assert rho[0, 0].real == pytest.approx(0.93219, abs=1e-5)
        assert run_experiment(math.pi / 2)[0, 0].real == pytest.approx(1.0, abs=1e-9)

    def test_options_are_keyword_only(self):
        seq = compile_strategies(0.6)
        with pytest.raises(TypeError):
            run_experiment(0.6, seq, NOISELESS)


class TestDuration:
    @pytest.mark.parametrize("gamma", [*sweep_gammas(), thresholds().gamma_th1,
                                       thresholds().gamma_th2])
    def test_under_the_300ms_budget(self, gamma):
        # 2/J of free evolution and at most eight pulses, 0.28694 s, so no run
        # nears the budget or T2 and the nmr report needs no duration warning
        for flip in (False, True):
            total = experiment_duration(compiled_run(gamma, flip))
            assert total <= 2 / J_COUPLING_HZ + 8 * NOMINAL_PULSE_WIDTH_S + 1e-15
            assert total < 0.300
            assert total < T2_S

    @pytest.mark.parametrize("gamma, golden", zip(sweep_gammas(), DURATION_HEX))
    def test_duration_is_bit_stable(self, gamma, golden):
        assert experiment_duration(compiled_run(gamma)).hex() == golden

    def test_widths_enter_the_budget(self):
        # four bracketing pulses plus the three of the quantum sandwich
        total = experiment_duration(compiled_run(math.pi / 2))
        assert total == pytest.approx(2 / J_COUPLING_HZ + 7 * NOMINAL_PULSE_WIDTH_S, abs=1e-15)

    def test_reads_the_compiled_run_and_compiles_nothing(self, monkeypatch):
        runs = [compiled_run(gamma) for gamma in sweep_gammas()]

        def refuse(*args, **kwargs):
            raise AssertionError("experiment_duration compiled a sequence")

        for name in ("compile_entangler", "compile_disentangler", "compile_strategies"):
            monkeypatch.setattr(nmr, name, refuse)
        assert [experiment_duration(run).hex() for run in runs] == DURATION_HEX

    def test_flipped_run_takes_as_long(self):
        dq, qd = compiled_run(0.6), compiled_run(0.6, flip=True)
        assert dq[1] != qd[1]
        assert experiment_duration(qd) == experiment_duration(dq)
