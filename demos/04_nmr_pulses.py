"""Compile the game to two-spin pulse sequences and execute them.

Every gate becomes hard pulses plus z-z free evolution at the sample's
coupling J_COUPLING_HZ.
The compiled sequences are checked against the ideal gates, then the whole
experiment runs pulse by pulse, with and without pulse-angle noise.
"""

import math

from qdilemma import (
    NoiseModel,
    classify_regime,
    compile_disentangler,
    compile_entangler,
    compile_strategies,
    entangling_gate,
    experiment_duration,
    fidelity_up_to_phase,
    payoff_from_density,
    run_experiment,
    sequence_unitary,
    sweep_gammas,
)
from qdilemma.equilibrium import REGIME_LABELS
from qdilemma.nmr import J_COUPLING_HZ

gamma = 10 * math.pi / 36  # sweep point n=10, inside the quantum regime

print(f"=== compiled sequences at gamma = {gamma:.4f} ===")
run = {
    "entangler": compile_entangler(gamma),
    "strategies": compile_strategies(gamma),
    "disentangler": compile_disentangler(gamma),
}
for name, seq in run.items():
    print(f"[{name}]")
    print(seq.to_text())

fid = fidelity_up_to_phase(sequence_unitary(run["entangler"]), entangling_gate(gamma))
print(f"entangler fidelity against the ideal gate: {fid:.12f}")
print(f"modeled run duration: {experiment_duration(run.values()) * 1e3:.1f} ms "
      f"(free evolution always totals 2/J = {2 / J_COUPLING_HZ * 1e3:.1f} ms)\n")

print("=== ideal execution across the 19-point sweep ===")
print("  n  gamma   recipe  payoff_a")
for n, g in enumerate(sweep_gammas()):
    rho = run_experiment(g, compile_strategies(g))
    pa, _ = payoff_from_density(rho)
    print(f" {n:2d}  {g:.3f}  {REGIME_LABELS[classify_regime(g)][0]:>6}  {pa:8.4f}")

print("\n=== the same run with 5% pulse-angle noise (three seeds) ===")
for seed in (0, 1, 2):
    noise = NoiseModel(rotation_angle_error=0.05, seed=seed)
    rho = run_experiment(gamma, noise=noise)
    pa, pb = payoff_from_density(rho)
    print(f"  seed={seed}: payoffs ({pa:.4f}, {pb:.4f})  [ideal (3, 3)]")
