"""Kernel rows for the tests that pin the closed forms.

Alice's payoff of U(theta, phi) against a fixed move is one row of the
bilinear kernel f(A) . payoff_form(gamma, table) . f(B).  The tests compare
these rows with the unitary pipeline in play() and with the paper's closed
forms against D and Q.
"""

from qdilemma.game import DEFAULT_TABLE, Strategy, payoff_form, strategy_features


def payoff_vs(opponent, theta, phi, gamma, table=DEFAULT_TABLE) -> float:
    s = Strategy(theta, phi)  # bounds check
    row = strategy_features(s.theta, s.phi) @ payoff_form(gamma, table)
    return float(row @ strategy_features(opponent.theta, opponent.phi))
