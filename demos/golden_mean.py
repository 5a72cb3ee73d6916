"""Golden mean truncations: counts, entropy estimates and the even shift.

Run:  python3 demos/golden_mean.py
"""

from finshift.zline import (
    LOG_GOLDEN,
    even_cover_factor_counts,
    golden_mean_cyclic_count,
    golden_mean_entropy_estimate,
    sft_gap_witness,
)

print("cyclic golden-mean counts (no two adjacent 1s, wrap-around):")
for n in range(3, 21):
    est = golden_mean_entropy_estimate(n)
    print(f"  n={n:2d}  count={golden_mean_cyclic_count(n):6d}  "
          f"log(count)/n={est:.6f}  error={abs(est - LOG_GOLDEN):.2e}")
print(f"reference: log of the golden ratio = {LOG_GOLDEN:.6f}")

print()
print("even shift: two-state cover vs. the block-parity word check")
even_cover_factor_counts(40)
print("  they accept the same words at every length up to 40")

print()
print("why the even shift is not finite-type at any window size k:")
for k in (2, 5, 10):
    word = "".join(str(s) for s in sft_gap_witness(k))
    print(f"  k={k:2d}: {word} is locally fine in every length-{k} window "
          "but globally inadmissible")
