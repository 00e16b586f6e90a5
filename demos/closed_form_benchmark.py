"""Sweep the binary erasure benchmark and check its closed-form rate.

For each (alpha, sigma) the policy A = S, B = const, X uniform should hit
(1 - sigma) * (1 - h(alpha)) exactly.
"""
from sdwtc import binary_entropy, build_rln_example, rate_report
from sdwtc.models import achieving_rln_policy

ALPHAS = (0.05, 0.1, 0.25, 0.4)
SIGMAS = (0.2, 0.5, 0.8)

print(f"{'alpha':>6} {'sigma':>6} {'closed form':>12} {'evaluated':>12} {'gap':>10}")
for alpha in ALPHAS:
    for sigma in SIGMAS:
        ex = build_rln_example(alpha, sigma)
        rep = rate_report("RLN", ex, achieving_rln_policy(ex))
        want = (1.0 - sigma) * (1.0 - binary_entropy(alpha))
        print(f"{alpha:6.2f} {sigma:6.2f} {want:12.9f} {rep.value:12.9f} {abs(rep.value - want):10.2e}")

# the active minimand tells which constraint binds at the optimum
ex = build_rln_example(0.25, 0.5)
rep = rate_report("RLN", ex, achieving_rln_policy(ex))
print()
print(f"at (0.25, 0.50) the binding term is {rep.active_term!r}")
for name, value in rep.terms:
    print(f"  {name:28s} = {value:.9f}")
