"""Walk through the six-port interferometer's transfer matrix.

The device is tritter -> single-arm phase shifter -> tritter.  Its composed
3x3 matrix has one value on the diagonal and one value everywhere else, both
simple functions of the shift phase phi.
"""
import numpy as np

from sixport import (HeraldSpec, compose, pattern_for_label, phase_matrix, table1_coeffs,
                     tritter1_matrix, tritter2_matrix)


def show(name, M):
    print(f"{name} =")
    for row in M:
        print("   ", "  ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in row))


show("tritter 1", tritter1_matrix())
show("tritter 2", tritter2_matrix())
show("phase shifter (phi = pi/2)", phase_matrix(np.pi / 2))

print("\nComposed matrix at a few phases:")
for phi in (0.0, np.pi / 2, np.pi):
    U = compose(phi)
    print(f"  phi = {phi:.4f}: diagonal = {U[0, 0]:.4f}, off-diagonal = {U[0, 1]:.4f}")
    unitarity = np.max(np.abs(U @ U.conj().T - np.eye(3)))
    print(f"              unitarity residual = {unitarity:.2e}")

print("\nAt phi = 0 the device is transparent (identity matrix).")
print("At phi = pi the transmission drops to 1/3 and cross-coupling peaks at -2/3.")

# A coefficient sums one product of entries per partial matching of the
# occupied input ports to the counted output ports; at |alpha| = 1 the sums
# with two or more terms show up bare in these coefficients.
U = compose(2.0)
print("\nEntry combinations in the heralded-state coefficients (phi = 2):")
for name, family, level in (("tau1", "psi12", "c0"), ("tau2", "psi13", "c0"),
                            ("tau3", "psi14", "c1"), ("tau4", "psi15", "c1"),
                            ("tau5", "psi16", "c0"), ("kappa", "psi16", "c1")):
    state = table1_coeffs(HeraldSpec(*pattern_for_label(family), alpha_mag=1.0, phi=2.0), U)
    print(f"  {name} = {getattr(state, level):.6f}")
