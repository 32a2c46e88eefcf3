import math

import numpy as np
import pytest

from kernel_rows import payoff_vs
from qdilemma.game import (
    COOPERATE,
    DEFAULT_TABLE,
    DEFECT,
    QUANTUM,
    DEFECT_TENSOR,
    GameOutcome,
    PayoffTable,
    Strategy,
    disentangling_gate,
    entangling_gate,
    payoffs_from_probabilities,
    play,
    strategy_unitary,
    sweep_gammas,
    validate_gamma,
)
from qdilemma.linalg import KET_CC


def series_expm(m, terms=20):
    """Truncated power series for exp(m); independent oracle for the gate."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


class TestStrategyUnitary:
    def test_cooperate_is_identity(self):
        np.testing.assert_allclose(strategy_unitary(COOPERATE), np.eye(2), atol=1e-15)

    def test_defect_is_i_sigma_y(self):
        np.testing.assert_allclose(
            strategy_unitary(DEFECT), [[0, 1], [-1, 0]], atol=1e-15
        )

    def test_quantum_move_is_diag_i(self):
        np.testing.assert_allclose(
            strategy_unitary(QUANTUM), np.diag([1j, -1j]), atol=1e-15
        )

    def test_generic_entries(self):
        th, ph = 1.1, 0.7
        u = strategy_unitary(Strategy(th, ph))
        assert u[0, 0] == pytest.approx(np.exp(1j * ph) * np.cos(th / 2))
        assert u[0, 1] == pytest.approx(np.sin(th / 2))
        assert u[1, 0] == pytest.approx(-np.sin(th / 2))
        assert u[1, 1] == pytest.approx(np.exp(-1j * ph) * np.cos(th / 2))

    def test_bounds_are_hard_errors(self):
        with pytest.raises(ValueError):
            Strategy(-0.1, 0)
        with pytest.raises(ValueError):
            Strategy(math.pi + 0.1, 0)
        with pytest.raises(ValueError):
            Strategy(0, math.pi / 2 + 0.1)


class TestEntangler:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(entangling_gate(0), np.eye(4), atol=1e-15)

    def test_maximal_on_cc(self):
        out = entangling_gate(math.pi / 2) @ KET_CC
        np.testing.assert_allclose(out, np.array([1, 0, 0, 1j]) / np.sqrt(2), atol=1e-15)

    def test_third_pi_on_cc(self):
        out = entangling_gate(math.pi / 3) @ KET_CC
        expected = np.array([np.sqrt(3) / 2, 0, 0, 0.5j])
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_closed_form_matches_series_exponential(self):
        rng = np.random.default_rng(23)
        for gamma in rng.uniform(0, math.pi / 2, size=100):
            oracle = series_expm(1j * gamma / 2 * DEFECT_TENSOR)
            np.testing.assert_allclose(entangling_gate(gamma), oracle, atol=1e-10)

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            entangling_gate(-0.01)
        with pytest.raises(ValueError):
            entangling_gate(math.pi / 2 + 0.01)

    @pytest.mark.parametrize("bad, shown", [("0.3", "'0.3'"), (True, "True"), (False, "False")])
    def test_gamma_must_be_a_number(self, bad, shown):
        # float() would take each of these
        with pytest.raises(ValueError, match=f"^entanglement parameter must be a number, "
                                             f"got {shown}$"):
            validate_gamma(bad)


class TestDisentangler:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(disentangling_gate(0), np.eye(4), atol=1e-15)

    def test_inverse_pair(self):
        g = math.pi / 5
        np.testing.assert_allclose(
            disentangling_gate(g) @ entangling_gate(g), np.eye(4), atol=1e-12
        )

    def test_unentangles_the_shared_state(self):
        shared = np.array([1, 0, 0, 1j]) / np.sqrt(2)
        np.testing.assert_allclose(
            disentangling_gate(math.pi / 2) @ shared, KET_CC, atol=1e-15
        )


class TestPlay:
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, math.pi / 2])
    def test_mutual_defection_pays_one(self, gamma):
        o = play(gamma, DEFECT, DEFECT)
        assert o.payoff_a == pytest.approx(1.0, abs=1e-12)
        assert o.payoff_b == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, math.pi / 2])
    def test_mutual_quantum_pays_three(self, gamma):
        o = play(gamma, QUANTUM, QUANTUM)
        assert o.payoff_a == pytest.approx(3.0, abs=1e-12)
        assert o.payoff_b == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.1, 0.55, 1.2])
    def test_quantum_vs_defect(self, gamma):
        assert play(gamma, QUANTUM, DEFECT).payoff_a == pytest.approx(
            5 * math.sin(gamma) ** 2, abs=1e-12
        )

    def test_symmetric_game(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            sa = Strategy(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
            sb = Strategy(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
            g = rng.uniform(0, math.pi / 2)
            assert play(g, sa, sb).payoff_a == pytest.approx(
                play(g, sb, sa).payoff_b, abs=1e-12
            )

    def test_classical_limit_recovers_the_table(self):
        moves = {"C": COOPERATE, "D": DEFECT}
        expected = {
            ("C", "C"): (3, 3),
            ("C", "D"): (0, 5),
            ("D", "C"): (5, 0),
            ("D", "D"): (1, 1),
        }
        for (na, nb), (pa, pb) in expected.items():
            o = play(0.0, moves[na], moves[nb])
            assert o.payoff_a == pytest.approx(pa, abs=1e-12)
            assert o.payoff_b == pytest.approx(pb, abs=1e-12)

    def test_outcome_payoffs_recomputable(self):
        o = play(0.8, Strategy(1.0, 0.4), Strategy(2.0, 0.2))
        pa, pb = payoffs_from_probabilities(o.probabilities)
        assert o.payoff_a == pytest.approx(pa, abs=1e-12)
        assert o.payoff_b == pytest.approx(pb, abs=1e-12)
        assert isinstance(o, GameOutcome)


class TestProbabilities:
    """play's outcome probabilities |<s|psi>|^2, in the order CC, CD, DC, DD."""

    def test_basis_state(self):
        assert play(0.0, COOPERATE, COOPERATE).probabilities == (1, 0, 0, 0)

    @pytest.mark.parametrize("gamma", [math.pi / 4, math.pi / 2])
    def test_mutual_cooperation_is_undone_by_the_disentangler(self, gamma):
        np.testing.assert_allclose(
            play(gamma, COOPERATE, COOPERATE).probabilities, (1, 0, 0, 0), atol=1e-15
        )

    def test_equal_superposition(self):
        # U(pi/2, 0)|C> = (|C> - |D>)/sqrt(2) on Alice's spin
        p = play(0.0, Strategy(math.pi / 2, 0.0), COOPERATE).probabilities
        np.testing.assert_allclose(p, (0.5, 0, 0.5, 0), atol=1e-15)

    def test_third_pi_weights(self):
        # cos^2(pi/6) = 3/4 and sin^2(pi/6) = 1/4
        p = play(0.0, Strategy(math.pi / 3, 0.0), COOPERATE).probabilities
        np.testing.assert_allclose(p, (0.75, 0, 0.25, 0), atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            sa = Strategy(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
            sb = Strategy(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
            p = play(rng.uniform(0, math.pi / 2), sa, sb).probabilities
            assert abs(sum(p) - 1) < 1e-12


# literal default-table expressions, written out independently of the
# generalized implementations they pin down
def literal_vs_defect(th, ph, g):
    return math.sin(th / 2) ** 2 + 5 * math.cos(th / 2) ** 2 * math.sin(ph) ** 2 * math.sin(g) ** 2


def literal_vs_q(th, ph, g):
    return 4 - math.cos(th) + (
        -3 + 2 * math.cos(th) - math.cos(th / 2) ** 2 * math.cos(2 * ph)
    ) * math.sin(g) ** 2


class TestClosedForms:
    def test_vs_defect_corners(self):
        for g in (0.0, 0.4, 1.1):
            assert payoff_vs(DEFECT, math.pi, 0, g) == pytest.approx(1.0, abs=1e-12)
            assert payoff_vs(DEFECT, 0, math.pi / 2, g) == pytest.approx(
                5 * math.sin(g) ** 2, abs=1e-12
            )

    def test_vs_defect_frozen_point(self):
        # sin^2(pi/4) + 5 cos^2(pi/4) sin^2(pi/4) sin^2(pi/3) = 1/2 + 15/16
        value = payoff_vs(DEFECT, math.pi / 2, math.pi / 4, math.pi / 3)
        assert value == pytest.approx(1.4375, abs=1e-12)
        assert value == pytest.approx(
            play(math.pi / 3, Strategy(math.pi / 2, math.pi / 4), DEFECT).payoff_a,
            abs=1e-9,
        )

    def test_vs_q_corners(self):
        for g in (0.0, 0.4, 1.1):
            assert payoff_vs(QUANTUM, math.pi, 0, g) == pytest.approx(
                5 * math.cos(g) ** 2, abs=1e-12
            )
            assert payoff_vs(QUANTUM, 0, math.pi / 2, g) == pytest.approx(3.0, abs=1e-12)

    def test_vs_q_frozen_point(self):
        value = payoff_vs(QUANTUM, math.pi / 3, math.pi / 8, 0.5)
        assert value == pytest.approx(2.9184065470619682, abs=1e-12)
        assert value == pytest.approx(
            play(0.5, Strategy(math.pi / 3, math.pi / 8), QUANTUM).payoff_a, abs=1e-9
        )

    def test_matches_literal_default_expressions(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            th = rng.uniform(0, math.pi)
            ph = rng.uniform(0, math.pi / 2)
            g = rng.uniform(0, math.pi / 2)
            assert payoff_vs(DEFECT, th, ph, g) == pytest.approx(
                literal_vs_defect(th, ph, g), abs=1e-12
            )
            assert payoff_vs(QUANTUM, th, ph, g) == pytest.approx(
                literal_vs_q(th, ph, g), abs=1e-12
            )

    def test_matches_full_pipeline(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            th = rng.uniform(0, math.pi)
            ph = rng.uniform(0, math.pi / 2)
            g = rng.uniform(0, math.pi / 2)
            assert payoff_vs(DEFECT, th, ph, g) == pytest.approx(
                play(g, Strategy(th, ph), DEFECT).payoff_a, abs=1e-9
            )
            assert payoff_vs(QUANTUM, th, ph, g) == pytest.approx(
                play(g, Strategy(th, ph), QUANTUM).payoff_a, abs=1e-9
            )

    def test_generalized_forms_respect_non_default_tables(self):
        table = PayoffTable(3, 1, 5, 2)
        rng = np.random.default_rng(47)
        for _ in range(50):
            th = rng.uniform(0, math.pi)
            ph = rng.uniform(0, math.pi / 2)
            g = rng.uniform(0, math.pi / 2)
            assert payoff_vs(DEFECT, th, ph, g, table) == pytest.approx(
                play(g, Strategy(th, ph), DEFECT, table).payoff_a, abs=1e-9
            )
            assert payoff_vs(QUANTUM, th, ph, g, table) == pytest.approx(
                play(g, Strategy(th, ph), QUANTUM, table).payoff_a, abs=1e-9
            )


class TestPayoffTable:
    def test_default_values(self):
        assert DEFAULT_TABLE.as_tuple() == (3, 0, 5, 1)

    def test_rejects_non_dilemma_orderings(self):
        with pytest.raises(ValueError):
            PayoffTable(reward=3, sucker=0, temptation=3, punishment=1)
        with pytest.raises(ValueError):
            PayoffTable(reward=3, sucker=2, temptation=5, punishment=1)
        with pytest.raises(ValueError):
            PayoffTable(reward=3, sucker=0, temptation=5, punishment=5)

    @pytest.mark.parametrize(
        "entries,name",
        [
            ((3, 0, math.inf, 1), "temptation"),
            ((3, -math.inf, 5, 1), "sucker"),
            ((math.nan, 0, 5, 1), "reward"),
            ((3, 0, 5, math.nan), "punishment"),
        ],
    )
    def test_rejects_non_finite_entries(self, entries, name):
        with pytest.raises(ValueError, match=f"entry {name} must be finite"):
            PayoffTable(*entries)


def test_sweep_gammas():
    gs = sweep_gammas()
    assert len(gs) == 19
    assert gs[0] == 0.0
    assert gs[18] == pytest.approx(math.pi / 2, abs=1e-15)
    assert gs[10] == pytest.approx(10 * math.pi / 36, abs=1e-15)
