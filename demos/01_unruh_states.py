"""How acceleration scrambles the receiver's mode structure.

Builds the vacuum, particle, and antiparticle states seen by a uniformly
accelerated observer and shows how their weight migrates between the two
Rindler wedges as the acceleration angle gamma grows from 0 (inertial)
to pi/4 (infinite acceleration).
"""

import numpy as np

from unruh_lab import (
    AccelerationParams,
    RINDLER_LAYOUT,
    gamma_from_acceleration,
    outer_product,
    partial_trace,
    unruh_antiparticle,
    unruh_particle,
    unruh_vacuum,
    von_neumann_entropy,
)
from unruh_lab.states import REGION_II_FACTORS

# The mixing angle comes from the mode frequency and the proper acceleration.
# Crank the acceleration and watch gamma approach its pi/4 ceiling.
print("gamma as acceleration grows (omega = 1, c = 1):")
for a in (1.0, 5.0, 20.0, 1e3, 1e9):
    print(f"  a = {a:>10.0e}  ->  gamma = {gamma_from_acceleration(1.0, a, 1.0):.6f}")
print(f"  (pi/4 = {np.pi / 4:.6f})\n")

# The vacuum is not empty for the accelerated observer: it carries
# correlated particle pairs across the two wedges.
print("entanglement of the vacuum across the wedges, in bits:")
for gamma in np.linspace(0.0, np.pi / 4, 6):
    vac = unruh_vacuum(AccelerationParams(float(gamma)))
    wedge_one = partial_trace(outer_product(vac), REGION_II_FACTORS)
    print(f"  gamma = {gamma:.3f}  ->  S = {von_neumann_entropy(wedge_one):.6f}")
print()

# Beyond the single-mode approximation the one-particle state is shared
# between the wedges with weights q_r and q_l.
accel = AccelerationParams(np.pi / 8, q_r=0.8)
print(f"one-particle amplitudes at gamma = pi/8, q_r = 0.8 (q_l = {accel.q_l:.3f}):")
labels = [f.name for f in RINDLER_LAYOUT.factors]
print("  basis order:", " * ".join(labels))
for ket, name in ((unruh_particle(accel), "particle"),
                  (unruh_antiparticle(accel), "antiparticle")):
    support = {f"|{i:04b}>": round(float(a), 4)
               for i, a in enumerate(ket.amplitudes) if abs(a) > 1e-12}
    print(f"  {name:>12}: {support}")

# The three states stay orthonormal for any parameters.
kets = [unruh_vacuum(accel), unruh_particle(accel), unruh_antiparticle(accel)]
gram = np.array([[np.vdot(a.amplitudes, b.amplitudes) for b in kets] for a in kets])
print(f"\nmax deviation of the Gram matrix from identity: {np.abs(gram - np.eye(3)).max():.2e}")
