import math
import tracemalloc

import numpy as np
import pytest

from kernel_rows import payoff_vs
from qdilemma.equilibrium import (
    DEFAULT_GRID,
    NASH_BLOCK_ROWS,
    REGIME_CLASSICAL,
    REGIME_INTERMEDIATE,
    REGIME_QUANTUM,
    StrategyGrid,
    _best_reply_keys,
    best_response,
    classify_regime,
    find_nash_grid,
    landscape,
    nash_payoff_curve,
    pairwise_payoff_matrix,
    strategy_from_t,
    thresholds,
)
from qdilemma.game import (
    COOPERATE,
    DEFECT,
    QUANTUM,
    PayoffTable,
    Strategy,
    payoff_form,
    play,
    strategy_features,
)

FAST_GRID = StrategyGrid(31, 16)

D_KEY = (math.pi, 0.0)
Q_KEY = (0.0, math.pi / 2)


def pair_keys(report):
    return {
        ((a.theta, a.phi), (b.theta, b.phi)) for a, b, _, _ in report.equilibria
    }


class TestStrategyGrid:
    def test_contains_named_moves_exactly(self):
        strategies = set(zip(*DEFAULT_GRID.angles()))
        assert (COOPERATE.theta, COOPERATE.phi) in strategies
        assert D_KEY in strategies
        assert Q_KEY in strategies

    def test_degenerate_theta_pi_row_collapses(self):
        # U(pi, phi) is the same matrix for every phi, so the grid keeps one
        grid = StrategyGrid(5, 4)
        tt, pp = grid.angles()
        assert len(tt) == 5 * 4 - 3
        assert sum(1 for t in tt if t == math.pi) == 1

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            StrategyGrid(1, 4)


class TestTParametrization:
    def test_corners(self):
        assert strategy_from_t(0.0) == COOPERATE
        assert strategy_from_t(1.0) == DEFECT
        assert strategy_from_t(-1.0) == QUANTUM

    def test_interior(self):
        assert strategy_from_t(0.5) == Strategy(math.pi / 2, 0.0)
        assert strategy_from_t(-0.5) == Strategy(0.0, math.pi / 4)

    def test_bounds(self):
        with pytest.raises(ValueError):
            strategy_from_t(1.01)


class TestPairwisePayoffs:
    def test_matches_play(self):
        rng = np.random.default_rng(17)
        thetas = rng.uniform(0, math.pi, 12)
        phis = rng.uniform(0, math.pi / 2, 12)
        for gamma in (0.0, 0.5, 1.3):
            p = pairwise_payoff_matrix(gamma, thetas, phis)
            for i in (0, 3, 7):
                for j in (1, 5, 11):
                    o = play(gamma, Strategy(thetas[i], phis[i]), Strategy(thetas[j], phis[j]))
                    assert p[i, j] == pytest.approx(o.payoff_a, abs=1e-12)
                    assert p[j, i] == pytest.approx(o.payoff_b, abs=1e-12)


class TestBestResponse:
    def test_defect_against_defect_classically(self):
        s, payoff = best_response(0.0, DEFECT, FAST_GRID)
        assert (s.theta, s.phi) == D_KEY
        assert payoff == pytest.approx(1.0, abs=1e-12)

    def test_quantum_beats_defect_in_the_middle(self):
        th = thresholds()
        g = (th.gamma_th1 + th.gamma_th2) / 2
        s, payoff = best_response(g, DEFECT, FAST_GRID)
        assert (s.theta, s.phi) == Q_KEY
        assert payoff == pytest.approx(5 * math.sin(g) ** 2, abs=1e-12)

    def test_defect_beats_quantum_in_the_middle(self):
        th = thresholds()
        g = (th.gamma_th1 + th.gamma_th2) / 2
        s, payoff = best_response(g, QUANTUM, FAST_GRID)
        assert (s.theta, s.phi) == D_KEY
        assert payoff == pytest.approx(5 * math.cos(g) ** 2, abs=1e-12)


class TestThresholds:
    def test_default_table_values(self):
        th = thresholds()
        assert th.gamma_th1 == pytest.approx(math.asin(math.sqrt(1 / 5)), abs=1e-15)
        assert th.gamma_th2 == pytest.approx(math.asin(math.sqrt(2 / 5)), abs=1e-15)
        assert th.gamma_th2 == pytest.approx(0.685, abs=5e-4)

    def test_zero_sucker_reduction(self):
        # with sucker = 0 the expressions reduce to arcsin(sqrt(p/t)) and
        # arccos(sqrt(r/t))
        for table in (PayoffTable(3, 0, 6, 1), PayoffTable(2, 0, 5, 1)):
            th = thresholds(table)
            r, s, t, p = table.as_tuple()
            assert th.gamma_th1 == pytest.approx(math.asin(math.sqrt(p / t)), abs=1e-15)
            assert th.gamma_th2 == pytest.approx(math.acos(math.sqrt(r / t)), abs=1e-12)

    def test_ordering_invariant(self):
        for table in (PayoffTable(3, 0, 6, 1), PayoffTable(3, 1, 5, 2), PayoffTable(10, 2, 20, 5)):
            th = thresholds(table)
            assert 0 < th.gamma_th1 < th.gamma_th2 < math.pi / 2

    def test_degenerate_tables_error(self):
        with pytest.raises(ValueError):
            PayoffTable(3, 0, 5, 5)  # punishment = temptation
        with pytest.raises(ValueError):
            thresholds(PayoffTable(3, 0, 5, 2.8))  # no two-threshold structure

    def test_coincident_thresholds_allowed(self):
        th = thresholds(PayoffTable(3, 0, 4, 1))
        assert th.gamma_th1 == pytest.approx(th.gamma_th2, abs=1e-15)
        assert th.gamma_th1 == pytest.approx(math.pi / 6, abs=1e-12)


# the generalized threshold formulas are shipped only because this scan
# passes: the grid equilibrium set must flip exactly where they predict
REGIME_SCAN_TABLES = [
    PayoffTable(),  # default (3, 0, 5, 1)
    PayoffTable(3, 0, 6, 1),
    PayoffTable(2, 0, 5, 1),
    PayoffTable(3, 1, 5, 2),
    PayoffTable(3, -1, 5, 0),
    PayoffTable(10, 2, 20, 5),
]


@pytest.mark.parametrize("table", REGIME_SCAN_TABLES, ids=lambda t: str(t.as_tuple()))
def test_brute_force_regime_scan_confirms_thresholds(table):
    th = thresholds(table)
    eps = 0.01
    below_1 = find_nash_grid(th.gamma_th1 - eps, FAST_GRID, table=table)
    above_1 = find_nash_grid(th.gamma_th1 + eps, FAST_GRID, table=table)
    below_2 = find_nash_grid(th.gamma_th2 - eps, FAST_GRID, table=table)
    above_2 = find_nash_grid(th.gamma_th2 + eps, FAST_GRID, table=table)
    assert pair_keys(below_1) == {(D_KEY, D_KEY)}
    assert pair_keys(above_1) == {(D_KEY, Q_KEY), (Q_KEY, D_KEY)}
    assert pair_keys(below_2) == {(D_KEY, Q_KEY), (Q_KEY, D_KEY)}
    assert pair_keys(above_2) == {(Q_KEY, Q_KEY)}


def test_regime_scan_with_coincident_thresholds():
    # (3, 0, 4, 1) has both thresholds at pi/6: the intermediate region is
    # empty and the grid flips straight from mutual defection to mutual
    # quantum play
    table = PayoffTable(3, 0, 4, 1)
    th = thresholds(table)
    below = find_nash_grid(th.gamma_th1 - 0.01, FAST_GRID, table=table)
    above = find_nash_grid(th.gamma_th2 + 0.01, FAST_GRID, table=table)
    assert pair_keys(below) == {(D_KEY, D_KEY)}
    assert pair_keys(above) == {(Q_KEY, Q_KEY)}


@pytest.mark.parametrize("table", REGIME_SCAN_TABLES, ids=lambda t: str(t.as_tuple()))
def test_bilinear_form_matches_play(table):
    rng = np.random.default_rng(19)
    thetas = rng.uniform(0, math.pi, 8)
    phis = rng.uniform(0, math.pi / 2, 8)
    features = strategy_features(thetas, phis)
    for gamma in (0.0, rng.uniform(0, math.pi / 2), math.pi / 2):
        form = payoff_form(gamma, table)
        for i in range(8):
            for j in range(8):
                o = play(gamma, Strategy(thetas[i], phis[i]), Strategy(thetas[j], phis[j]), table)
                assert features[i] @ form @ features[j] == pytest.approx(o.payoff_a, abs=1e-12)
                assert features[i] @ form.T @ features[j] == pytest.approx(o.payoff_b, abs=1e-12)


class TestFindNashGrid:
    def test_classical_regime(self):
        report = find_nash_grid(0.0, FAST_GRID)
        assert report.regime == REGIME_CLASSICAL
        assert pair_keys(report) == {(D_KEY, D_KEY)}
        _, _, pa, pb = report.equilibria[0]
        assert (pa, pb) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))

    def test_intermediate_regime(self):
        th = thresholds()
        report = find_nash_grid((th.gamma_th1 + th.gamma_th2) / 2, FAST_GRID)
        assert report.regime == REGIME_INTERMEDIATE
        assert pair_keys(report) == {(Q_KEY, D_KEY), (D_KEY, Q_KEY)}

    def test_quantum_regime(self):
        report = find_nash_grid(math.pi / 2, FAST_GRID)
        assert report.regime == REGIME_QUANTUM
        assert pair_keys(report) == {(Q_KEY, Q_KEY)}
        _, _, pa, pb = report.equilibria[0]
        assert (pa, pb) == (pytest.approx(3.0, abs=1e-12), pytest.approx(3.0, abs=1e-12))

    def test_boundary_coexistence_is_reported(self):
        th = thresholds()
        at_th1 = pair_keys(find_nash_grid(th.gamma_th1, FAST_GRID))
        assert {(D_KEY, D_KEY), (D_KEY, Q_KEY), (Q_KEY, D_KEY)} <= at_th1
        assert find_nash_grid(th.gamma_th1, FAST_GRID).regime == REGIME_INTERMEDIATE
        assert find_nash_grid(th.gamma_th2, FAST_GRID).regime == REGIME_QUANTUM

    def test_asymmetric_equilibria_favor_the_defector(self):
        th = thresholds()
        report = find_nash_grid((th.gamma_th1 + th.gamma_th2) / 2, FAST_GRID)
        for sa, sb, pa, pb in report.equilibria:
            defector_payoff = pa if (sa.theta, sa.phi) == D_KEY else pb
            quantum_payoff = pb if (sa.theta, sa.phi) == D_KEY else pa
            assert defector_payoff > quantum_payoff

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            find_nash_grid(0.0, FAST_GRID, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_tol_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            find_nash_grid(0.0, FAST_GRID, tol=tol)

    def test_deterministic_ordering(self):
        th = thresholds()
        g = (th.gamma_th1 + th.gamma_th2) / 2
        a = find_nash_grid(g, FAST_GRID)
        b = find_nash_grid(g, FAST_GRID)
        assert a == b

    @pytest.mark.parametrize("table", REGIME_SCAN_TABLES[:3], ids=lambda t: str(t.as_tuple()))
    def test_blocked_scan_matches_full_matrix_mask(self, table):
        tt, pp = FAST_GRID.angles()
        n = len(tt)
        assert n > 2 * NASH_BLOCK_ROWS and n % NASH_BLOCK_ROWS != 0
        th = thresholds(table)
        for gamma in (0.0, th.gamma_th1, (th.gamma_th1 + th.gamma_th2) / 2, th.gamma_th2, 1.2):
            payoff = pairwise_payoff_matrix(gamma, tt, pp, table)
            alice_ok = payoff >= payoff.max(axis=0) - 1e-9
            expected = [
                (tt[i], pp[i], tt[j], pp[j], payoff[i, j], payoff[j, i])
                for i, j in np.argwhere(alice_ok & alice_ok.T)
            ]
            report = find_nash_grid(gamma, FAST_GRID, 1e-9, table)
            assert len(report.equilibria) == len(expected)
            for (sa, sb, pa, pb), (ta, pha, tb, phb, ea, eb) in zip(report.equilibria, expected):
                assert (sa.theta, sa.phi, sb.theta, sb.phi) == (ta, pha, tb, phb)
                assert pa == pytest.approx(ea, abs=1e-12)
                assert pb == pytest.approx(eb, abs=1e-12)

    def test_memory_stays_linear_in_the_grid(self):
        # 7321 strategies: the dense float64 payoff matrix alone would be 429 MB
        grid = StrategyGrid(121, 61)
        assert len(grid.angles()[0]) == 7321
        report, peak = traced_scan(0.6, grid)
        assert pair_keys(report) == {(D_KEY, Q_KEY), (Q_KEY, D_KEY)}
        assert peak < two_blocks(grid)

    @pytest.mark.parametrize("gamma", ["0.2", "gamma_th1", "0.6", "gamma_th2", "1.2"])
    @pytest.mark.parametrize("steps", [(61, 31), (21, 11)], ids=["61x31", "21x11"])
    def test_peak_memory_stays_under_two_blocks(self, steps, gamma):
        grid = StrategyGrid(*steps)
        gamma = getattr(thresholds(), gamma) if gamma.startswith("gamma") else float(gamma)
        report, peak = traced_scan(gamma, grid)
        assert report.equilibria
        assert peak < two_blocks(grid)

    @pytest.mark.parametrize("table", REGIME_SCAN_TABLES[:3] + REGIME_SCAN_TABLES[5:],
                             ids=lambda t: str(t.as_tuple()))
    @pytest.mark.parametrize("steps", [(61, 31), (31, 16), (21, 11)],
                             ids=["61x31", "31x16", "21x11"])
    def test_payoffs_are_the_block_product_entries(self, steps, table):
        # bit for bit: (F M)[rows] F^T for Alice, (F M^T)[rows] F^T for Bob, where
        # rows is the block of NASH_BLOCK_ROWS moves holding Alice's move i
        grid = StrategyGrid(*steps)
        tt, pp = grid.angles()
        features = strategy_features(tt, pp)
        index = {move: k for k, move in enumerate(zip(tt.tolist(), pp.tolist()))}
        th = thresholds(table)
        blocks_read = set()
        for gamma in (0.0, 0.2, th.gamma_th1, (th.gamma_th1 + th.gamma_th2) / 2, th.gamma_th2,
                      1.2, math.pi / 2):
            form = payoff_form(gamma, table)
            for a, b, pa, pb in find_nash_grid(gamma, grid, table=table).equilibria:
                i, j = index[a.theta, a.phi], index[b.theta, b.phi]
                rows = slice(i - i % NASH_BLOCK_ROWS, i - i % NASH_BLOCK_ROWS + NASH_BLOCK_ROWS)
                alice = (features @ form)[rows] @ features.T
                bob = (features @ form.T)[rows] @ features.T
                k = i - rows.start
                assert (pa.hex(), pb.hex()) == (float(alice[k, j]).hex(), float(bob[k, j]).hex())
                blocks_read.add(rows.start)
        assert len(blocks_read) > 1


def traced_scan(gamma, grid):
    """One scan's report and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        report = find_nash_grid(gamma, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def two_blocks(grid):
    """Bytes of two NASH_BLOCK_ROWS x n float64 block products."""
    return 2 * NASH_BLOCK_ROWS * len(grid.angles()[0]) * 8


def dense_equilibria(gamma, grid, tol, table):
    """The Nash scan with the whole payoff matrix: each player within tol of
    the column maximum, pairs in lexicographic order."""
    tt, pp = grid.angles()
    payoff = pairwise_payoff_matrix(gamma, tt, pp, table)
    alice_ok = payoff >= payoff.max(axis=0) - tol
    return [
        (tt[i], pp[i], tt[j], pp[j], payoff[i, j], payoff[j, i])
        for i, j in np.argwhere(alice_ok & alice_ok.T)
    ]


def assert_scan_matches_dense(gamma, grid, tol=1e-9, table=PayoffTable()):
    report = find_nash_grid(gamma, grid, tol, table)
    expected = dense_equilibria(gamma, grid, tol, table)
    assert [(sa.theta, sa.phi, sb.theta, sb.phi) for sa, sb, _, _ in report.equilibria] == [
        e[:4] for e in expected
    ]
    for (_, _, pa, pb), (*_, ea, eb) in zip(report.equilibria, expected):
        assert pa == pytest.approx(ea, abs=1e-12)
        assert pb == pytest.approx(eb, abs=1e-12)
    return report


def dense_keys(replies, tol):
    """The relation as one full mask: flat indices of the entries within tol
    of their row's maximum."""
    return np.flatnonzero(replies >= replies.max(axis=1, keepdims=True) - tol).tolist()


class TestBestReplyRelation:
    @pytest.mark.parametrize(
        "replies,tol,expected",
        [
            ([[0.0, 3.0, 1.0], [2.0, 1.0, 0.0]], 0.5, [1, 3]),  # no row tied
            ([[1.0, 0.5, 0.25, -3.0],  # tied, runner-up exactly on the floor
              [0.0, 2.0, 1.0, 1.25],
              [4.0, 3.75, 3.5, 0.0],  # tied twice
              [-1.0, -1.625, -9.0, -2.0]], 0.5, [0, 1, 5, 8, 9, 10, 12]),
            # the only tie is a runner-up on its floor, 1.0 - 0.5
            ([[0.0, 2.0, 1.0], [1.0, 0.5, 0.25]], 0.5, [1, 3, 4]),
            # argmax picks the first 5.0; the second still counts as a hit
            ([[2.0, 5.0, 1.0, 5.0], [3.0, 0.0, 3.0, 3.0]], 1e-9, [1, 3, 4, 6, 7]),
        ],
        ids=["untied", "mixed", "runner-up-on-floor", "exact-tie-at-max"],
    )
    def test_block_keys_match_the_dense_mask(self, replies, tol, expected):
        replies = np.array(replies)
        assert dense_keys(replies, tol) == expected
        assert _best_reply_keys(replies.copy(), tol).tolist() == expected

    @pytest.mark.parametrize("gamma,tol", [(0.6, 1e-3), (math.pi / 2, 0.05)])
    def test_scan_with_blocks_mixing_tied_and_untied_rows(self, gamma, tol):
        tt, pp = FAST_GRID.angles()
        payoff = pairwise_payoff_matrix(gamma, tt, pp)
        tied = (payoff >= payoff.max(axis=0) - tol).sum(axis=0) > 1
        blocks = [tied[lo:lo + NASH_BLOCK_ROWS] for lo in range(0, len(tt), NASH_BLOCK_ROWS)]
        assert any(b.any() and not b.all() for b in blocks)
        assert_scan_matches_dense(gamma, FAST_GRID, tol=tol)

    @pytest.mark.parametrize("gamma", [0.0, 0.6, math.pi / 2])
    @pytest.mark.parametrize("steps", [(5, 3), (9, 5)])  # 13 and 41 strategies
    def test_dense_relation_reports_every_pair(self, gamma, steps):
        grid = StrategyGrid(*steps)
        n = len(grid.angles()[0])
        report = assert_scan_matches_dense(gamma, grid, tol=1e6)
        assert len(report.equilibria) == n * n

    @pytest.mark.parametrize("steps", [(2, 2), (3, 2)])
    @pytest.mark.parametrize("table", REGIME_SCAN_TABLES[:3], ids=lambda t: str(t.as_tuple()))
    def test_grids_smaller_than_one_block(self, steps, table):
        grid = StrategyGrid(*steps)
        assert len(grid.angles()[0]) < NASH_BLOCK_ROWS
        th = thresholds(table)
        for gamma in (0.0, th.gamma_th1, (th.gamma_th1 + th.gamma_th2) / 2, th.gamma_th2,
                      math.pi / 2):
            assert_scan_matches_dense(gamma, grid, table=table)

    def test_both_thresholds_of_a_non_default_table(self):
        table = PayoffTable(10, 2, 20, 5)
        th = thresholds(table)
        at_th1 = assert_scan_matches_dense(th.gamma_th1, FAST_GRID, table=table)
        assert {(D_KEY, D_KEY), (D_KEY, Q_KEY), (Q_KEY, D_KEY)} <= pair_keys(at_th1)
        at_th2 = assert_scan_matches_dense(th.gamma_th2, FAST_GRID, table=table)
        assert {(D_KEY, Q_KEY), (Q_KEY, D_KEY), (Q_KEY, Q_KEY)} <= pair_keys(at_th2)


class TestRegimeClassification:
    def test_boundaries(self):
        th = thresholds()
        assert classify_regime(th.gamma_th1 - 1e-9) == REGIME_CLASSICAL
        assert classify_regime(th.gamma_th1) == REGIME_INTERMEDIATE
        assert classify_regime(th.gamma_th2 - 1e-9) == REGIME_INTERMEDIATE
        assert classify_regime(th.gamma_th2) == REGIME_QUANTUM
        assert classify_regime(math.pi / 2) == REGIME_QUANTUM


class TestNashPayoffCurve:
    def test_branch_structure(self):
        th = thresholds()
        rows = nash_payoff_curve()
        by_gamma = {}
        for g, label, value in rows:
            by_gamma.setdefault(g, []).append((label, value))
        for n in range(19):
            g = n * math.pi / 36
            branches = by_gamma[g]
            if g < th.gamma_th1:
                assert branches == [("DD", 1.0)]
            elif g < th.gamma_th2:
                assert [b[0] for b in branches] == ["DQ", "QD"]
                assert branches[0][1] == pytest.approx(5 * math.cos(g) ** 2, abs=1e-12)
                assert branches[1][1] == pytest.approx(5 * math.sin(g) ** 2, abs=1e-12)
            else:
                assert branches == [("QQ", 3.0)]

    def test_endpoints_and_sweep_point_ten(self):
        rows = nash_payoff_curve(gammas=[0.0, 10 * math.pi / 36, math.pi / 2])
        assert rows[0] == (0.0, "DD", 1.0)
        assert rows[1][1] == "QQ"  # n=10 sits above the second threshold
        assert rows[2] == (pytest.approx(math.pi / 2), "QQ", 3.0)


class TestLandscape:
    def test_corner_payoffs(self):
        ts, payoff = landscape(0.0, 5)
        assert ts[0] == -1.0 and ts[-1] == 1.0
        corner = {(-1): 0, 0: 2, 1: 4}
        assert payoff[corner[0], corner[0]] == pytest.approx(3.0, abs=1e-12)
        assert payoff[corner[1], corner[1]] == pytest.approx(1.0, abs=1e-12)
        assert payoff[corner[-1], corner[-1]] == pytest.approx(3.0, abs=1e-12)

    def test_cross_corners_track_the_closed_forms(self):
        g = 0.6
        ts, payoff = landscape(g, 3)
        assert payoff[0, 2] == pytest.approx(5 * math.sin(g) ** 2, abs=1e-12)  # Q vs D
        assert payoff[2, 0] == pytest.approx(5 * math.cos(g) ** 2, abs=1e-12)  # D vs Q

    def test_two_step_corner_dataset(self):
        ts, payoff = landscape(0.3, 2)
        assert payoff.shape == (2, 2)
        assert list(ts) == [-1.0, 1.0]

    def test_classical_landscape_symmetry(self):
        # swapping the players' t values while swapping payoff roles is a
        # no-op for the symmetric game: Alice at (t_i, t_j) earns what Bob
        # earns at (t_j, t_i)
        ts, payoff = landscape(0.0, 9)
        for i, ta in enumerate(ts):
            for j, tb in enumerate(ts):
                o = play(0.0, strategy_from_t(tb), strategy_from_t(ta))
                assert payoff[i, j] == pytest.approx(o.payoff_b, abs=1e-12)

    def test_steps_bound(self):
        with pytest.raises(ValueError):
            landscape(0.3, 1)


class TestRegimeInequalities:
    def test_intermediate_bounds_hold_on_the_grid(self):
        th = thresholds()
        g = (th.gamma_th1 + th.gamma_th2) / 2
        cap_d = 5 * math.sin(g) ** 2
        cap_q = 5 * math.cos(g) ** 2
        for th, ph in zip(*FAST_GRID.angles()):
            assert payoff_vs(DEFECT, th, ph, g) <= cap_d + 1e-9
            assert payoff_vs(QUANTUM, th, ph, g) <= cap_q + 1e-9

    def test_quantum_regime_dominance(self):
        for g in (0.7, 1.0, math.pi / 2):
            for th, ph in zip(*FAST_GRID.angles()):
                assert payoff_vs(QUANTUM, th, ph, g) <= 3 + 1e-9
