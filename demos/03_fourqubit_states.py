"""Tour of the generic four-qubit machinery.

States are ``g1 (x) g2 (x) g3 (x) g4`` applied to a seed vector; each party
contributes a Bloch-like vector gamma^i of norm < 1/2.  Only states where at
most one party deviates from a common Pauli axis admit nontrivial LOCC
transformations; the demo classifies states, decides conversions, evaluates
the case volumes and builds an explicit measurement protocol.
"""

import math

import numpy as np

from entvol import (
    FourQubitForm,
    can_convert,
    classify,
    entanglement_4q,
    povm_witness,
    random_seed_params,
)
from entvol.oracle import McConfig

rng = np.random.default_rng(1)
seed = random_seed_params(rng)
Z = [0, 0, 0]


def F(rows):
    return FourQubitForm(seed, np.array(rows, dtype=float))


print("=== Structure classification ===")
examples = {
    "seed state": F([Z, Z, Z, Z]),
    "one general party": F([[0.23, 0.13, 0.15], Z, Z, Z]),
    "one axis party": F([[0.2, 0, 0], Z, Z, Z]),
    "aligned family": F([[0.2, 0, 0], [0.1, 0, 0], [0.05, 0, 0], Z]),
    "general + axes": F([[0.15, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z]),
    "two different axes": F([[0, 0.25, 0], [0.1, 0, 0], Z, Z]),
    "axis + transverse": F([[0.3, 0, 0], [0, 0.1, 0.15], Z, Z]),
    "outside the family": F([[0.2, 0.1, 0], [0, 0.1, 0.15], Z, Z]),
}
for name, form in examples.items():
    print(f"  {name:20s} -> {classify(form).tag}")

print("\n=== Measures per structure ===")
cfg = McConfig(samples=400_000, seed=7)
for name in ("seed state", "one general party", "one axis party",
             "general + axes", "two different axes"):
    cls = classify(examples[name])
    s_rep, a_rep = entanglement_4q(cls, cfg)
    print(f"  {name:20s} E_s = {s_rep.entanglement:.5f} (V_s dim {s_rep.dimension}), "
          f"E_a = {a_rep.entanglement:.5f} (V_a dim {a_rep.dimension})")

print("\n=== Conversions along the scaling line ===")
a = F([[0.15, 0.2, 0.1], [0.3, 0, 0], [0.1, 0, 0], Z])
b = F([[0.15, 0.3, 0.15], [0.3, 0, 0], [0.1, 0, 0], Z])
print("  forward: ", can_convert(a, b).row)
print("  backward:", can_convert(b, a).convertible)

print("\n=== An explicit protocol: completeness enforced, two residuals reported ===")
initial = F([[0, 0.3, 0], [0.1, 0, 0], Z, Z])
final = F([[0, 0.42, 0], [0.33, 0, 0], Z, Z])
wit = povm_witness(initial, final)
print(f"  row: {wit.row}, outcomes: {len(wit.outcomes)}")
print(f"  outcome probabilities: {[round(p, 6) for p in wit.probabilities]}")
print(f"  completeness residual: {wit.completeness_residual:.2e}")
print(f"  twirl-character residual: {wit.eta_residual:.2e}")
print(f"  target-overlap defect: {wit.outcome_mismatch:.2e}")

print("\n=== The one numeric region ===")
cls = classify(F([[0.23, 0.13, 0.15], Z, Z, Z]))
s_rep, a_rep = entanglement_4q(cls, McConfig(samples=2_000_000, seed=3))
print(f"  one general party, all components active:")
print(f"  V_s = {s_rep.volume:.6f} = 2/3 * product = {2 / 3 * 0.23 * 0.13 * 0.15:.6f}")
print(f"  V_a = {a_rep.volume:.6f} (sampled; upper bound pi/12 = {math.pi / 12:.6f})")
