"""Why the single-mode approximation is not enough: the Werner crossing.

For a noisy Werner channel the strong-additivity combination
S(AB) - S(B) + S(AC) - S(C) stays non-negative, but its dependence on the
wedge weight q_r is not monotone: at low fidelity the q_r = 1 curve (the
single-mode approximation) dips BELOW the q_r = 0.75 curve over a range
of accelerations.  Restricting to q_r = 1 would misrank the channels.
"""

import numpy as np

from unruh_lab import BobRegion, ChannelFamily, evaluate_point

FIDELITY = 0.33


def ssa(gamma: float, q_r: float) -> float:
    # the value is of the joint state, so either wedge's record carries it
    record = evaluate_point(
        ChannelFamily.WERNER, BobRegion.I, gamma, q_r, f=FIDELITY, with_ssa=True
    )
    return record.ssa_value


grid = np.linspace(0.0, np.pi / 4, 41)
curve_full = np.array([ssa(float(g), 1.0) for g in grid])
curve_mixed = np.array([ssa(float(g), 0.75) for g in grid])

print(f"Werner channel, F = {FIDELITY}:")
print(f"{'gamma':>8} {'q_r=1':>10} {'q_r=0.75':>10} {'difference':>11}")
for g, a, b in list(zip(grid, curve_full, curve_mixed))[::5]:
    print(f"{g:>8.4f} {a:>10.6f} {b:>10.6f} {a - b:>+11.6f}")

below = grid[curve_full < curve_mixed - 1e-9]
print(f"\nq_r=1 sits below q_r=0.75 at {below.size} of {grid.size} grid points")
if below.size:
    print(f"the crossing region spans gamma in [{below.min():.4f}, {below.max():.4f}]")
print(f"everything stays non-negative: min value = {min(curve_full.min(), curve_mixed.min()):.6f}")
