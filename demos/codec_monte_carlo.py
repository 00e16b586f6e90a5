"""Monte Carlo decoding error of the layered likelihood-encoder scheme.

A binary symmetric main channel supports 1 - h(0.11) = 0.50 bits per use;
longer blocks help below that rate and do nothing above it.  The last
section prints the exact induced-vs-idealized index distribution gap for a
state-tracking codebook.
"""
import numpy as np

from sdwtc import (
    Channel,
    CodeLaw,
    SdWtcModel,
    approximation_gap,
    assemble_joint,
    bernoulli,
    binary_entropy,
    gp_policy,
    index_count,
    run_reliability_experiment,
    sample_codebook,
)

EPS = 1.0
TRIALS = 200


def bsc_model(q):
    # BSC(q) to the receiver, constant output to the eavesdropper
    kern = np.zeros((2, 2, 2, 1))
    for x in range(2):
        kern[x, :, x, 0] = 1.0 - q
        kern[x, :, 1 - x, 0] = q
    return SdWtcModel(
        bernoulli(0.5),
        Channel((("X", (0, 1)), ("S", (0, 1))), (("Y", (0, 1)), ("Z", (0,))), kern),
    )


def uniform_policy():
    # U degenerate, V = X uniform
    pol = np.zeros((2, 1, 2, 2))
    pol[:, 0, 0, 0] = 0.5
    pol[:, 0, 1, 1] = 0.5
    return gp_policy((0, 1), (0,), (0, 1), (0, 1), pol)


# 1. message rate 0.3 under a 0.50-bit channel: errors fall with n
model = bsc_model(0.11)
policy = uniform_policy()
print(f"BSC(0.11): I(V;Y|U) = {1.0 - binary_entropy(0.11):.4f} bits, message rate 0.3")
for n in (6, 12):
    res = run_reliability_experiment(model, policy, n, (0.0, 0.0, 0.3), eps=EPS, trials=TRIALS, seed=42)
    lo, hi = res.average_interval
    print(
        f"  n = {n:2d}: {index_count(n, 0.3):3d} messages, error rate {res.average_error_rate:.3f} "
        f"(95% CI {lo:.3f} - {hi:.3f}), {res.erasures} erasures"
    )

# 2. message rate 0.2 above a 0.19-bit channel: errors stay high
model_bad = bsc_model(0.25)
rate = (1.0 - binary_entropy(0.25)) + 0.2
print(f"\nBSC(0.25): capacity {1.0 - binary_entropy(0.25):.4f} bits, message rate {rate:.4f}")
for n in (6, 12):
    res = run_reliability_experiment(model_bad, policy, n, (0.0, 0.0, rate), eps=0.9, trials=TRIALS, seed=42)
    lo, hi = res.average_interval
    print(
        f"  n = {n:2d}: {index_count(n, rate):3d} messages, error rate {res.average_error_rate:.3f} "
        f"(95% CI {lo:.3f} - {hi:.3f}), {res.erasures} erasures"
    )

# 3. induced vs idealized encoder law for a state-tracking code.  Y depends
# on X xor S, the outer layer carries U = S, so the likelihood encoder's
# index choice genuinely tilts with the realized state sequence.
kern = np.zeros((2, 2, 2, 1))
for x in range(2):
    for s in range(2):
        kern[x, s, x ^ s, 0] = 0.9
        kern[x, s, 1 - (x ^ s), 0] = 0.1
xor_model = SdWtcModel(
    bernoulli(0.5),
    Channel((("X", (0, 1)), ("S", (0, 1))), (("Y", (0, 1)), ("Z", (0,))), kern),
)
pol = np.zeros((2, 2, 2, 2))
for s in range(2):
    pol[s, s, 0, 0] = 0.8
    pol[s, s, 1, 1] = 0.2
tracking = gp_policy((0, 1), (0, 1), (0, 1), (0, 1), pol)

law = CodeLaw.of(assemble_joint(xor_model, tracking))
print("\nstate-tracking code at n = 6, induced vs idealized index law:")
for r1 in (0.4, 1.2):
    cb = sample_codebook(law.q_u, law.q_v_given_u, 6, r1, 0.3, 0.2, seed=5)
    gap = approximation_gap(xor_model, tracking, cb)
    print(f"  R1 = {r1}: {cb.num_u:3d} outer words, TV = {gap.total_variation:.4f}")
print("a thin outer layer cannot cover the state law, and the diagnostic sees it")
