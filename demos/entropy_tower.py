"""The truncated entropy spectrum of a 2-group tower, plus maximal measures.

Run:  python3 demos/entropy_tower.py
"""

from finshift.dynprops import entropy, entropy_set, mme, measure_entropy, mme_unique_check
from finshift.fixtures import golden_mean_like_spec
from finshift.groups import cyclic, z2_power_tower
from finshift.shiftspace import enumerate_sft

tower = z2_power_tower(3)
values = entropy_set(tower, max_level=3, max_n=4)
print("entropy values realizable over the tower (levels of order 2, 4, 8):")
for v in sorted(values, key=float):
    print(f"  {str(v):10s} = {float(v):.6f}")

print()
y = enumerate_sft(golden_mean_like_spec(cyclic(5)))
mu = mme(y)
print(f"golden mean on a cycle of 5: entropy {entropy(y)}")
print(f"uniform measure entropy: {measure_entropy(y, mu):.6f}")
verdict = mme_unique_check(y, grid=60)
print(f"exact verdict by Gibbs' inequality: unique maximizer at "
      f"uniform = {verdict.unique and verdict.uniform_is_max}")
