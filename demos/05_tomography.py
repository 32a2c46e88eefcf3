"""Read the payoffs back out: nine-setting tomography and least squares.

Simulates the readout of the final state under all nine pre-measurement
rotations, reconstructs the density matrix, and shows how readout noise
propagates into the recovered payoff.
"""

import math

import numpy as np

from qdilemma import (
    NoiseModel,
    design_matrix_rank_check,
    payoff_from_density,
    reconstruct,
    records_to_text,
    run_experiment,
    tomography_records,
    trace_distance,
)

print(f"design matrix rank over the 9 settings: {design_matrix_rank_check()} / 15 parameters\n")

gamma = math.pi / 2
rho = run_experiment(gamma)

print("=== noiseless readout of the final state (gamma = pi/2) ===")
for rec in tomography_records(rho)[:3]:
    pops = ", ".join(f"{v:.3f}" for v in rec.observed_values[:4])
    print(f"  setting {rec.setting.id:12s} populations [{pops}]")
print("  ... (9 settings total)\n")

result = reconstruct(tomography_records(rho))
print(f"noiseless reconstruction: trace distance to truth = "
      f"{trace_distance(result.rho_hat, rho):.2e}, "
      f"payoffs {payoff_from_density(result.rho_hat)}\n")

print("=== first lines of the recorded-data serialization ===")
print("\n".join(records_to_text(tomography_records(rho)).splitlines()[:4]))
print("  ...\n")

print("=== noise propagation: readout sigma vs recovered payoff ===")
ideal_pa, _ = payoff_from_density(rho)
for sigma in (0.01, 0.03, 0.06):
    errors = []
    for seed in range(40):
        res = reconstruct(tomography_records(rho, sigma, seed=seed))
        pa, _ = payoff_from_density(res.rho_raw)  # raw estimate: unbiased
        errors.append(abs(pa - ideal_pa))
    print(f"  sigma={sigma:.2f}: mean |payoff error| = {np.mean(errors):.4f}")

print("\n=== full noisy pipeline at one intermediate sweep point ===")
gamma = 6 * math.pi / 36
noisy = run_experiment(gamma, noise=NoiseModel(rotation_angle_error=0.05, seed=1))
res = reconstruct(tomography_records(noisy, 0.03, seed=1))
pa, pb = payoff_from_density(res.rho_raw)
print(f"  gamma={gamma:.3f}: reconstructed payoffs ({pa:.3f}, {pb:.3f}) "
      f"vs ideal ({5 * math.cos(gamma) ** 2:.3f}, {5 * math.sin(gamma) ** 2:.3f}); "
      f"projected={res.projected}")
