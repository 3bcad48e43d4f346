"""Three independent routes to the same heralded state.

1. The closed form (weighted products of transfer-matrix entries).
2. Generating-series extraction.
3. Brute-force Fock-space simulation (the oracle).

All three must agree on amplitudes, probabilities, and operator moments; the
script prints the worst deviations, then runs all three on a herald pattern
outside the paper's table (two photons in one ancilla).
"""
import numpy as np

from sixport import (
    HeraldSpec,
    compose,
    default_cutoff,
    expectation,
    general_heralded,
    herald_state,
    moment,
    state_fock_vector,
    table1_coeffs,
    way1_moment_table,
)

spec = HeraldSpec(1, 1, 1, 1, alpha_mag=2.0, phi=2.0)
U = compose(spec.phi)

closed = table1_coeffs(spec, U)
series = general_heralded(spec, U)
cutoff = default_cutoff(spec)
oracle_vec, oracle_prob = herald_state(spec, cutoff)
closed_vec = state_fock_vector(closed, cutoff)

print("Herald (1,1,1,1) at |alpha| = 2, phi = 2:")
print(f"  table coefficients:   c0 = {closed.c0:.6f}, c1 = {closed.c1:.6f}, "
      f"c2 = {closed.c2:.6f}")
print(f"  series coefficients:  c0 = {series.coeffs[0]:.6f}, "
      f"c1 = {series.coeffs[1]:.6f}, c2 = {series.coeffs[2]:.6f}")
print(f"  probability: table {closed.probability:.12f} | series "
      f"{series.probability:.12f} | oracle {oracle_prob:.12f}")
print(f"  state amplitudes, table vs oracle: max dev = "
      f"{np.max(np.abs(closed_vec.amplitudes - oracle_vec.amplitudes)):.2e}")

print("\nMoments <a^dag^k a^l> by all routes (k = 2, l = 1):")
w2 = moment(closed, 2, 1)
w1 = way1_moment_table(spec, U, 2, 1)[2, 1]
ora = expectation(oracle_vec, 2, 1)
print(f"  projector decomposition: {w2:.12f}")
print(f"  direct extraction:       {w1:.12f}")
print(f"  Fock-space sum:          {ora:.12f}")

print("\nBeyond the table: two photons into port 2, herald (1, 0):")
spec2 = HeraldSpec(2, 0, 1, 0, alpha_mag=1.5, phi=1.0)
U2 = compose(spec2.phi)
closed2 = table1_coeffs(spec2, U2)
series2 = general_heralded(spec2, U2)
_, prob2 = herald_state(spec2)
print("  closed coefficients:  " + ", ".join(f"{c:.5f}" for c in closed2.coeffs))
print("  series coefficients:  " + ", ".join(f"{c:.5f}" for c in series2.coeffs))
print(f"  probability: closed {closed2.probability:.12f} | series "
      f"{series2.probability:.12f} | oracle {prob2:.12f}")
