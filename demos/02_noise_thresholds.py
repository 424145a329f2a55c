"""How much white noise can the detection survive?

Mix a detected pure state with the maximally mixed state,

    rho(s) = s |psi><psi| + (1-s)/D * I,

and find the smallest s at which the condition still fires.  Every
expectation on rho(s) is affine in s, so one evaluation on psi gives the
whole margin curve and the threshold exactly.  For the three-qubit flip-pair
state the threshold is 1/2; for its four-qubit analogue it drops to
(sqrt(17)-1)/8 ~ 0.39, so the quadripartite condition tolerates more noise.
"""

import numpy as np

from gmekit import noise_margin_curve, noise_threshold, sigma_minus, superposition

SM = sigma_minus()
INV_SQRT2 = 1 / np.sqrt(2)

tri = superposition((2, 2, 2), [(INV_SQRT2, (0, 1, 1)), (INV_SQRT2, (1, 0, 0))])
quad = superposition(
    (2, 2, 2, 2), [(INV_SQRT2, (0, 1, 1, 1)), (INV_SQRT2, (1, 0, 0, 0))]
)

for label, psi, condition, ops, closed_form in [
    ("three qubits", tri, "tri-dagger", [SM] * 3, 0.5),
    ("four qubits", quad, "quad-dagger", [SM] * 4, (np.sqrt(17) - 1) / 8),
]:
    print(f"{label}: margin of the dagger-form condition along the noise axis")
    s_grid = np.linspace(0, 1, 11)
    for s, report in zip(s_grid, noise_margin_curve(psi, ops, condition, s_grid)):
        marker = "VIOLATED" if report.violated else ""
        print(f"  s={s:4.2f}  margin={report.margin:+.4f}  {marker}")
    threshold = noise_threshold(psi, ops, condition)
    print(f"  threshold s* = {threshold:.9f}   (closed form {closed_form:.9f})")
    print()

print("The same scan is available from the shell:")
print("  gme scan-noise --state psi.json --ops sigma_minus sigma_minus sigma_minus \\")
print("      --condition tri-dagger --out margins.csv")
