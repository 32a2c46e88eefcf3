"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (failures surface as ordinary pytest failures).
"""

import math
import time

import numpy as np
import pytest

from kernel_rows import payoff_vs
from qdilemma.cli import main as cli_main
from qdilemma.equilibrium import (
    StrategyGrid,
    find_nash_grid,
    landscape,
    nash_payoff_curve,
    thresholds,
)
from qdilemma.game import (
    DEFAULT_TABLE,
    DEFECT,
    QUANTUM,
    Strategy,
    play,
    sweep_gammas,
)
from qdilemma.linalg import fidelity_up_to_phase, trace_distance
from qdilemma.nmr import (
    NoiseModel,
    compile_disentangler,
    compile_entangler,
    compile_strategies,
    run_experiment,
    sequence_unitary,
)
from qdilemma.game import disentangling_gate, entangling_gate, strategy_unitary
from qdilemma.tomography import (
    design_matrix_rank_check,
    payoff_from_density,
    reconstruct,
    tomography_records,
)

ACCEPTANCE_GRID = StrategyGrid(61, 31)
ACCEPTANCE_TOL = 1e-9
SWEEP = sweep_gammas()

D_KEY = (math.pi, 0.0)
Q_KEY = (0.0, math.pi / 2)


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def nash_reports():
    """Shared full-resolution Nash scan over all 19 sweep points (criteria 2, 3)."""
    start = time.monotonic()
    reports = [find_nash_grid(g, ACCEPTANCE_GRID, ACCEPTANCE_TOL) for g in SWEEP]
    return reports, time.monotonic() - start


def test_criterion_1_thresholds():
    start = time.monotonic()
    th = thresholds(DEFAULT_TABLE)
    elapsed = time.monotonic() - start
    assert th.gamma_th1 == pytest.approx(math.asin(math.sqrt(1 / 5)), abs=1e-9)
    assert th.gamma_th2 == pytest.approx(math.asin(math.sqrt(2 / 5)), abs=1e-9)
    assert round(th.gamma_th2, 3) == 0.685
    assert elapsed < 1.0
    report(1, f"thresholds ({th.gamma_th1:.9f}, {th.gamma_th2:.9f}) in {elapsed:.3f}s")


def test_criterion_2_regime_trichotomy(nash_reports):
    reports, elapsed = nash_reports
    for n, rep in enumerate(reports):
        keys = {((a.theta, a.phi), (b.theta, b.phi)) for a, b, _, _ in rep.equilibria}
        if n <= 5:
            assert keys == {(D_KEY, D_KEY)}, f"n={n}"
        elif n in (6, 7):
            assert keys == {(D_KEY, Q_KEY), (Q_KEY, D_KEY)}, f"n={n}"
        else:
            assert keys == {(Q_KEY, Q_KEY)}, f"n={n}"
    assert elapsed < 60.0
    report(2, f"19-point trichotomy on 61x31 grid in {elapsed:.1f}s")


def test_criterion_3_nash_payoff_curve(nash_reports):
    reports, _ = nash_reports
    th = thresholds(DEFAULT_TABLE)
    for n, gamma in enumerate(SWEEP):
        rows = nash_payoff_curve(DEFAULT_TABLE, [gamma])
        if gamma < th.gamma_th1:
            assert rows == [(gamma, "DD", 1.0)]
            assert abs(rows[0][2] - 1.0) <= 1e-12
        elif gamma < th.gamma_th2:
            (g1, l1, v1), (g2, l2, v2) = rows
            assert (l1, l2) == ("DQ", "QD")
            assert abs(v1 - 5 * math.cos(gamma) ** 2) <= 1e-12
            assert abs(v2 - 5 * math.sin(gamma) ** 2) <= 1e-12
        else:
            assert rows[0][1] == "QQ"
            assert abs(rows[0][2] - 3.0) <= 1e-12
        analytic = {label: value for _, label, value in rows}
        for sa, sb, pa, _ in reports[n].equilibria:
            label = ("D" if (sa.theta, sa.phi) == D_KEY else "Q") + (
                "D" if (sb.theta, sb.phi) == D_KEY else "Q"
            )
            assert abs(pa - analytic[label]) <= 1e-9, f"n={n} {label}"
    report(3, "analytic branches exact to 1e-12, grid payoffs within 1e-9")


def test_criterion_4_closed_form_equivalence():
    rng = np.random.default_rng(2026)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        th = rng.uniform(0, math.pi)
        ph = rng.uniform(0, math.pi / 2)
        g = rng.uniform(0, math.pi / 2)
        s = Strategy(th, ph)
        worst = max(
            worst,
            abs(payoff_vs(DEFECT, th, ph, g) - play(g, s, DEFECT).payoff_a),
            abs(payoff_vs(QUANTUM, th, ph, g) - play(g, s, QUANTUM).payoff_a),
        )
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    report(4, f"1000 random triples, worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_landscape_corners():
    th = thresholds(DEFAULT_TABLE)
    presets = {
        "fig2": th.gamma_th1 / 2,
        "fig3": (th.gamma_th1 + th.gamma_th2) / 2,
        "fig4": (th.gamma_th2 + math.pi / 2) / 2,
    }
    for name, gamma in presets.items():
        ts, payoff = landscape(gamma, 5)
        c = {-1: 0, 0: 2, 1: 4}  # t value -> index
        assert abs(payoff[c[0], c[0]] - DEFAULT_TABLE.reward) <= 1e-9, name
        assert abs(payoff[c[1], c[1]] - 1.0) <= 1e-9, name
        assert abs(payoff[c[-1], c[-1]] - 3.0) <= 1e-9, name
        assert abs(payoff[c[-1], c[1]] - 5 * math.sin(gamma) ** 2) <= 1e-9, name
        assert abs(payoff[c[1], c[-1]] - 5 * math.cos(gamma) ** 2) <= 1e-9, name
    report(5, "all five corner identities hold at the three preset gammas")


def test_criterion_6_pulse_compilation():
    ideal_strategy = {
        "DD": np.kron(strategy_unitary(DEFECT), strategy_unitary(DEFECT)),
        "DQ": np.kron(strategy_unitary(DEFECT), strategy_unitary(QUANTUM)),
        "QQ": np.kron(strategy_unitary(QUANTUM), strategy_unitary(QUANTUM)),
    }
    worst = 1.0
    for gamma in SWEEP:
        ent = compile_entangler(gamma)
        dis = compile_disentangler(gamma)
        strat = compile_strategies(gamma)
        pair = nash_payoff_curve(DEFAULT_TABLE, [gamma])[0][1]
        worst = min(
            worst,
            fidelity_up_to_phase(sequence_unitary(ent), entangling_gate(gamma)),
            fidelity_up_to_phase(sequence_unitary(dis), disentangling_gate(gamma)),
            fidelity_up_to_phase(sequence_unitary(strat), ideal_strategy[pair]),
        )
        assert ent.free_evolution_time() + dis.free_evolution_time() == 2 / 7.17
    assert worst >= 1 - 1e-9
    report(6, f"all compiled fidelities >= 1-1e-9 (worst {worst:.12f}); timing exact")


def test_criterion_7_end_to_end_experiment():
    start = time.monotonic()
    worst = 0.0
    for gamma in SWEEP:
        rows = nash_payoff_curve(DEFAULT_TABLE, [gamma])
        analytic = next(v for _, label, v in rows if label in ("DD", "DQ", "QQ"))
        rho = run_experiment(gamma)
        result = reconstruct(tomography_records(rho, 0.0))
        pa, _ = payoff_from_density(result.rho_hat)
        worst = max(worst, abs(pa - analytic))
    elapsed = time.monotonic() - start
    assert worst <= 1e-6
    assert elapsed < 30.0
    report(7, f"19 zero-noise tomography round trips, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_hardware_error_plausibility():
    # calibration sanity check at the stated defaults (3% readout sigma,
    # 5% pulse angle): each seeded end-to-end run covers one sweep point,
    # payoffs are read from the raw least-squares estimate
    analytic = {}
    for n, gamma in enumerate(SWEEP):
        rows = nash_payoff_curve(DEFAULT_TABLE, [gamma])
        analytic[n] = next(v for _, label, v in rows if label in ("DD", "DQ", "QQ"))
    passes = 0
    for seed in range(100):
        n = seed % 19
        gamma = SWEEP[n]
        s1, s2 = np.random.SeedSequence([seed, n]).generate_state(2)
        noise = NoiseModel(rotation_angle_error=0.05, seed=int(s1))
        rho = run_experiment(gamma, noise=noise)
        records = tomography_records(rho, 0.03, seed=int(s2))
        pa, _ = payoff_from_density(reconstruct(records).rho_raw)
        if abs(pa - analytic[n]) / analytic[n] < 0.08:
            passes += 1
    assert passes >= 90
    report(8, f"{passes}/100 noisy runs within 8% relative error")


def test_criterion_9_tomography_identifiability():
    assert design_matrix_rank_check() == 15
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z = z / np.linalg.norm(z)
        rho = np.outer(z, z.conj())
        result = reconstruct(tomography_records(rho))
        worst = max(worst, trace_distance(result.rho_hat, rho))
    assert worst <= 1e-8
    report(9, f"100 noiseless round trips, worst trace distance {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    args = ["sweep", "--gamma", "0.1", "--gamma", "0.6", "--gamma", str(math.pi / 2),
            "--noise-angle", "0.05", "--noise-readout", "0.03", "--seed", "1234"]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli_main(args + ["--out", a]) == 0
    assert cli_main(args + ["--out", b]) == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        bytes_a, bytes_b = fa.read(), fb.read()
    assert bytes_a == bytes_b
    report(10, f"repeated sweep is byte-identical ({len(bytes_a)} bytes)")
