"""Nash equilibria, entanglement thresholds and payoff landscapes.

Equilibrium search is an exhaustive scan over a discretized strategy grid:
the equilibria of interest sit at corners of the strategy manifold, so grid
search doubles as an oracle for the closed-form threshold expressions.

Payoffs are the rank-6 bilinear form of game.py: Alice's payoff matrix is
P = F M F^T for the grid's feature rows F and the 6x6 payoff form M.  The
game is symmetric (Bob's payoff at (i, j) is P[j, i]), so the Nash scan needs
one best-reply relation R = {(i, j) : P[i, j] >= max_k P[k, j] - tol}: the
equilibria are R intersected with its transpose.  One pass over blocks of
opponent moves keeps R as sorted integer keys.  Each reply row's argmax is
in R, and it is the only member when the row's runner-up falls below the
floor max - tol, as it nearly always does; only the rows from the first such
tie to the last compare every entry.  The payoffs are then read from the
block products of the reported moves, one alive at a time, so the peak
stays under two NASH_BLOCK_ROWS x n float64 blocks.

REGIME_LABELS maps each regime to its equilibrium move pairs, written as
Alice's move then Bob's: DD (classical), DQ and QD (intermediate) and QQ
(quantum).  The payoff curve and the pulse compiler both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import (
    DEFAULT_TABLE,
    PayoffTable,
    Strategy,
    payoff_form,
    strategy_features,
    sweep_gammas,
    validate_gamma,
)

REGIME_CLASSICAL = "classical"
REGIME_INTERMEDIATE = "intermediate"
REGIME_QUANTUM = "quantum"

REGIME_LABELS = {
    REGIME_CLASSICAL: ("DD",),
    REGIME_INTERMEDIATE: ("DQ", "QD"),
    REGIME_QUANTUM: ("QQ",),
}

DEFAULT_TOL = 1e-9

# Strategy-grid rows per block of the Nash scan: it holds one
# NASH_BLOCK_ROWS x n block of replies at a time, never the n x n payoff
# matrix, finds each row's best reply and runner-up in it, and reports
# payoffs from blocks of this many Alice moves.  On the 61x31 grid 32, 48
# and 64 rows time alike; 16 and 128 are slower.
NASH_BLOCK_ROWS = 32


@dataclass(frozen=True)
class StrategyGrid:
    """Uniform inclusive grid over theta in [0, pi] and phi in [0, pi/2].

    Endpoints are always included, so the named moves COOPERATE, DEFECT and
    QUANTUM are exact grid points.  The theta = pi row is degenerate (the
    move matrix there is independent of phi), so it is enumerated once.
    """

    theta_steps: int = 61
    phi_steps: int = 31

    def __post_init__(self):
        if self.theta_steps < 2 or self.phi_steps < 2:
            raise ValueError("grid needs at least 2 steps per axis")

    def angles(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, phi) coordinate arrays of the deduplicated grid, lex ordered."""
        thetas = np.linspace(0.0, math.pi, self.theta_steps)
        phis = np.linspace(0.0, math.pi / 2, self.phi_steps)
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        tt, pp = tt.ravel(), pp.ravel()
        keep = (tt != math.pi) | (pp == 0.0)
        return tt[keep], pp[keep]


DEFAULT_GRID = StrategyGrid()


def strategy_from_t(t: float) -> Strategy:
    """Map t in [-1, 1] onto the strategy manifold: t >= 0 walks theta from
    cooperation (t=0) to defection (t=1); t < 0 walks phi to the quantum
    move (t=-1)."""
    t = float(t)
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [-1, 1], got {t}")
    if t >= 0.0:
        return Strategy(t * math.pi, 0.0)
    return Strategy(0.0, -t * math.pi / 2)


@dataclass(frozen=True)
class ThresholdPair:
    gamma_th1: float
    gamma_th2: float


@dataclass(frozen=True)
class EquilibriumReport:
    gamma: float
    equilibria: tuple[tuple[Strategy, Strategy, float, float], ...]
    regime: str


def pairwise_payoff_matrix(
    gamma: float,
    thetas: np.ndarray,
    phis: np.ndarray,
    table: PayoffTable = DEFAULT_TABLE,
) -> np.ndarray:
    """Alice's payoff for every ordered strategy pair, P[i, j] = payoff(i vs j).

    The rank-6 product F M F^T of the strategies' feature rows F and the
    payoff form M.  Bob's payoff for pair (i, j) is P[j, i] by symmetry.
    """
    features = strategy_features(thetas, phis)
    return features @ payoff_form(gamma, table) @ features.T


def best_response(
    gamma: float,
    opponent: Strategy,
    grid: StrategyGrid = DEFAULT_GRID,
    table: PayoffTable = DEFAULT_TABLE,
) -> tuple[Strategy, float]:
    """Grid point maximizing Alice's payoff against a fixed opponent.

    Exact ties break toward the lexicographically smallest (theta, phi).
    """
    tt, pp = grid.angles()
    column = payoff_form(gamma, table) @ strategy_features(opponent.theta, opponent.phi)
    payoff = strategy_features(tt, pp) @ column
    idx = int(np.argmax(payoff))  # first occurrence = lex smallest on this grid
    return Strategy(float(tt[idx]), float(pp[idx])), float(payoff[idx])


def thresholds(table: PayoffTable = DEFAULT_TABLE) -> ThresholdPair:
    """Entanglement values where the equilibrium structure changes.

    Defection stops being a best reply to itself once
    sin^2(gamma) > (punishment - sucker) / (temptation - sucker), and the
    quantum move becomes a best reply to itself once
    sin^2(gamma) >= (temptation - reward) / (temptation - sucker).  For the
    default table these are arcsin(sqrt(1/5)) and arcsin(sqrt(2/5)); both
    expressions are pinned by a brute-force regime scan in the test suite.
    """
    r, s, t, p = table.as_tuple()
    x1 = (p - s) / (t - s)
    x2 = (t - r) / (t - s)
    if x1 > x2:
        raise ValueError(
            "payoff table has no two-threshold structure: defection survives past "
            "the point where the quantum move becomes self-supporting "
            f"((punishment - sucker) = {p - s} > (temptation - reward) = {t - r})"
        )
    return ThresholdPair(math.asin(math.sqrt(x1)), math.asin(math.sqrt(x2)))


def classify_regime(gamma: float, table: PayoffTable = DEFAULT_TABLE) -> str:
    """Classical below the first threshold, quantum from the second up.

    Boundary values belong to the regime whose equilibrium set has already
    switched: gamma_th1 counts as intermediate, gamma_th2 as quantum.
    """
    gamma = validate_gamma(gamma)
    th = thresholds(table)
    if gamma >= th.gamma_th2:
        return REGIME_QUANTUM
    if gamma >= th.gamma_th1:
        return REGIME_INTERMEDIATE
    return REGIME_CLASSICAL


def _best_reply_keys(replies: np.ndarray, tol: float) -> np.ndarray:
    """Sorted flat indices of the entries within tol of their row's maximum.

    A row's argmax is always a hit, and it is the only one when the row's
    runner-up falls below the floor max - tol, as it nearly always does.
    Only the rows from the first tied row to the last take the full compare,
    which numpy buffers in up to 64 KB.  Overwrites each row's maximum with -inf.
    """
    rows = np.arange(len(replies))
    best = replies.argmax(axis=1)
    floor = replies[rows, best] - tol
    replies[rows, best] = -np.inf
    tied = np.flatnonzero(replies.max(axis=1) >= floor)
    if not len(tied):
        return rows * replies.shape[1] + best
    span = slice(tied[0], tied[-1] + 1)
    hits = np.zeros(replies.shape, dtype=bool)
    np.greater_equal(replies[span], floor[span, None], out=hits[span])
    hits[rows, best] = True
    return np.flatnonzero(hits)


def find_nash_grid(
    gamma: float,
    grid: StrategyGrid = DEFAULT_GRID,
    tol: float = DEFAULT_TOL,
    table: PayoffTable = DEFAULT_TABLE,
) -> EquilibriumReport:
    """All grid pairs where neither player gains more than tol by deviating.

    An empty equilibria tuple is a valid result.  Degenerate coexistence at
    exact threshold boundaries is reported, not suppressed.  The report is
    assembled in lexicographic pair order regardless of evaluation order.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    tt, pp = grid.angles()
    features = strategy_features(tt, pp)
    form = payoff_form(gamma, table)
    n = len(features)
    # Key j*n + i: move i is within tol of the best reply to move j.  A C-ordered
    # copy of (F M)^T makes each block product about 40% cheaper than the
    # transposed view, but can change its last bit, so no reported payoff is
    # read from these products.
    alice_cols = np.ascontiguousarray((features @ form).T)
    keys = np.concatenate([  # replies[k, i] = P[i, j] for j = lo + k
        _best_reply_keys(features[lo:lo + NASH_BLOCK_ROWS] @ alice_cols, tol) + lo * n
        for lo in range(0, n, NASH_BLOCK_ROWS)
    ])
    del alice_cols  # freed before the report's block products
    # (i, j) is an equilibrium when both j*n + i and its swap i*n + j are keys
    swapped = keys % n * n + keys // n
    found = keys[swapped == keys[np.minimum(np.searchsorted(keys, swapped), len(keys) - 1)]]
    i, j = np.divmod(found, n)
    # Payoffs from the blocks of NASH_BLOCK_ROWS moves holding a reported i (sorted),
    # one block product alive at a time: Alice's (F M)[rows] F^T in one pass, Bob's
    # (F M^T)[rows] F^T in the next; read back as (F M) f, his can differ in the last bit.
    edges = np.flatnonzero(np.diff(i // NASH_BLOCK_ROWS, prepend=-1)).tolist() + [len(i)]
    payoffs = ([], [])
    for rows, entries in zip((features @ m for m in (form, form.T)), payoffs):
        for a, b in zip(edges, edges[1:]):
            lo = i[a] - i[a] % NASH_BLOCK_ROWS
            entries += (rows[lo:lo + NASH_BLOCK_ROWS] @ features.T)[i[a:b] - lo, j[a:b]].tolist()
    equilibria = tuple((Strategy(float(tt[a]), float(pp[a])), Strategy(float(tt[b]), float(pp[b])),
                        pa, pb) for a, b, pa, pb in zip(i, j, *payoffs))
    return EquilibriumReport(
        gamma=float(gamma), equilibria=equilibria, regime=classify_regime(gamma, table)
    )


def nash_payoff_curve(
    table: PayoffTable = DEFAULT_TABLE, gammas=None
) -> list[tuple[float, str, float]]:
    """Alice's equilibrium payoff per gamma: (gamma, equilibrium label, payoff).

    One row per label of REGIME_LABELS[regime]: mutual defection, the two
    asymmetric branches (defector's and quantum player's payoff), or mutual
    quantum play.
    """
    if gammas is None:
        gammas = sweep_gammas()
    r, s, t, p = table.as_tuple()
    rows: list[tuple[float, str, float]] = []
    for gamma in gammas:
        gamma = validate_gamma(gamma)
        sg2 = math.sin(gamma) ** 2
        payoff = {"DD": float(p), "DQ": t * (1 - sg2) + s * sg2,
                  "QD": s * (1 - sg2) + t * sg2, "QQ": float(r)}
        rows.extend((gamma, label, payoff[label])
                    for label in REGIME_LABELS[classify_regime(gamma, table)])
    return rows


def landscape(
    gamma: float, steps: int, table: PayoffTable = DEFAULT_TABLE
) -> tuple[np.ndarray, np.ndarray]:
    """Alice's payoff over the t-parametrized strategy square.

    Returns (t values, payoff matrix) with payoff[i, j] for Alice playing
    strategy_from_t(t[i]) against strategy_from_t(t[j]).  Corners:
    (0,0) mutual cooperation, (1,1) mutual defection, (-1,-1) mutual quantum.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    ts = np.linspace(-1.0, 1.0, steps)
    moves = [strategy_from_t(t) for t in ts]
    thetas = np.array([m.theta for m in moves])
    phis = np.array([m.phi for m in moves])
    return ts, pairwise_payoff_matrix(gamma, thetas, phis, table)
