"""Soft-covering guarantees for a layered code, in closed form and by experiment.

Build a wiretap channel whose legitimate output mixes the input and the
state, pick rates a fixed margin above both covering thresholds, and then

  1. compute the exponent gamma and the finite-n failure bound, and
  2. measure the exact output divergence of sampled codebooks at small n.
"""
import numpy as np

from sdwtc import (
    Channel,
    CodeLaw,
    JointPmf,
    Pmf,
    SdWtcModel,
    SoftCoverSpec,
    assemble_joint,
    bernoulli,
    best_gamma,
    channel_from_joint,
    exact_output_divergence,
    failure_probability_bound,
    marginalize,
    mutual_information,
    sample_codebook,
)

MARGIN = 0.25
NOISE = 0.1
X_BIAS = 0.8  # P(X = 0); a uniform input would hide the state from Y entirely

# 1. the model: Y = X xor S xor noise, Z = BSC(0.25) tap on X
kern = np.zeros((2, 2, 2, 2))
for x in range(2):
    for s in range(2):
        for y in range(2):
            py = 1.0 - NOISE if y == x ^ s else NOISE
            for z in range(2):
                kern[x, s, y, z] = py * (0.75 if z == x else 0.25)
model = SdWtcModel(bernoulli(0.5), Channel((("X", (0, 1)), ("S", (0, 1))), (("Y", (0, 1)), ("Z", (0, 1))), kern))

# 2. the policy: U = S exactly, V = X biased
from sdwtc import gp_policy

pol = np.zeros((2, 2, 2, 2))
for s in range(2):
    for v in range(2):
        pol[s, s, v, v] = X_BIAS if v == 0 else 1.0 - X_BIAS
policy = gp_policy((0, 1), (0, 1), (0, 1), (0, 1), pol)

joint = assemble_joint(model, policy)
sub = marginalize(joint, ("U", "V", "Y"))  # cover the legitimate output
cover = JointPmf((sub.axes[0], sub.axes[1], ("W", sub.axes[2][1])), sub.mass)

i_uw = mutual_information(cover, ("U",), ("W",))
i_vw_u = mutual_information(cover, ("V",), ("W",), given=("U",))
r1 = i_uw + MARGIN
r2 = i_vw_u + MARGIN
print(f"thresholds: I(U;W) = {i_uw:.4f}, I(V;W|U) = {i_vw_u:.4f}")
print(f"rates:      R1 = {r1:.4f}, R2 = {r2:.4f}  (margin {MARGIN})")

# 3. the exponent and the finite-n tail bound
bg = best_gamma(cover, r1, r2)
print(f"\nbest gamma = {bg.gamma:.6f} at (d1, d2) = ({bg.d1:.4f}, {bg.d2:.4f})")

# the gamma search pins d2 against d1, which zeroes the confidence split the
# finite-n bound needs as n grows; the bound wants a wide (d1, d2) window
# instead.  both margins equal MARGIN and 2*MARGIN here by the chain rule.
d1 = 0.95 * MARGIN
spec = SoftCoverSpec(cover, r1, r2, d1, 1.98 * d1)
print(f"failure bound window: (d1, d2) = ({spec.d1:.4f}, {spec.d2:.4f})")
print(f"\n{'n':>6} {'log2 P(fail)':>14} {'P(fail) <=':>12}")
for n in (50, 100, 200, 400, 800):
    b = failure_probability_bound(spec, n)
    print(f"{n:6d} {b.log2_bound:14.4g} {b.probability:12.3e}")
print("the tail bound only bites past n ~ 100 at this window, then collapses fast")

# 4. exact divergence of sampled codebooks at desk-scale n
law = CodeLaw.of(joint)
q_w_given_uv = channel_from_joint(cover, ("U", "V"), ("W",))
q_w = Pmf(cover.alphabet("W"), cover.mass.sum(axis=(0, 1)))

print(f"\n{'n':>6} {'median D(P_W^B || Q_W^n)':>26}")
for n in (4, 7, 10):
    vals = [
        exact_output_divergence(sample_codebook(law.q_u, law.q_v_given_u, n, r1, r2, 0.0, 300 + t), q_w_given_uv, q_w)
        for t in range(15)
    ]
    print(f"{n:6d} {np.median(vals):26.4f}")
print("\nthe divergence medians shrink with n once both rates clear their thresholds")
