"""Let the optimiser pick the local operators.

Every condition is evaluated with a free choice of one local operator per
subsystem, and the hand-picked lowering operators are rarely optimal for an
arbitrary state.  The search takes each operator as |u><v| with unit vectors
u, v and updates one vector at a time to its closed-form best value for the
ratio of the lhs to the root-sum-square of the rhs terms, keeping the best
max-form margin it meets.  Restart 0 always starts from the lowering-operator
point, so the result is never worse than the standard choice.

The last lines run the search on the maximally mixed state only, where no
operator choice gives a positive margin.  That is not a general soundness
check: on other biseparable mixtures the max form can report a violation.
"""

import numpy as np

from gmekit import (
    optimize,
    sigma_minus,
    superposition,
    tripartite_dagger,
    white_noise_mix,
)

SM = sigma_minus()
INV_SQRT2 = 1 / np.sqrt(2)

# A noisy, unbalanced flip-pair state: harder than the textbook case.
psi = superposition((2, 2, 2), [(0.9, (0, 1, 1)), (np.sqrt(1 - 0.81), (1, 0, 0))])
rho = white_noise_mix(psi, 0.7)

hand = tripartite_dagger(rho, SM, SM, SM)
print(f"hand-picked lowering operators: margin = {hand.margin:+.6f}, "
      f"violated = {hand.violated}")

result = optimize(rho, "tri-dagger", restarts=6, budget=500, seed=0)
print(f"searched rank-one operators:    margin = {result.best_report.margin:+.6f}, "
      f"violated = {result.best_report.violated} "
      f"({result.evaluations} condition evaluations)")

print()
print("Best operators found (entries rounded):")
for k, op in enumerate(result.best_params.operators()):
    print(f"  subsystem {'abc'[k]}:")
    for row in np.round(op, 3):
        print(f"    [{row[0]:+.3f} {row[1]:+.3f}]")

print()
print("On the maximally mixed state no operator choice gives a violation:")
from gmekit import DensityMatrix

mixed = DensityMatrix((2, 2, 2), np.eye(8) / 8)
sound = optimize(mixed, "tri-dagger", restarts=4, budget=300, seed=1)
print(f"  maximally mixed state: best margin = {sound.best_report.margin:+.6f} (<= 0)")
