"""The truncated entropy spectrum of a 2-group tower, plus maximal measures.

Run:  python3 demos/entropy_tower.py
"""

from fractions import Fraction

from finshift.dynprops import (
    entropy_set,
    measure_entropy,
    measure_from_orbit_masses,
    mme,
    spec_entropy,
)
from finshift.fixtures import golden_mean_like_spec
from finshift.groups import cyclic, z2_power_tower
from finshift.shiftspace import enumerate_sft

tower = z2_power_tower(3)
values = entropy_set(tower, max_level=3, max_n=4)
print("entropy values realizable over the tower (levels of order 2, 4, 8):")
for v in sorted(values, key=float):
    print(f"  {str(v):10s} = {float(v):.6f}")

print()
spec = golden_mean_like_spec(cyclic(5))
y = enumerate_sft(spec)
print(f"golden mean on a cycle of 5: entropy {spec_entropy(spec)}")
print(f"uniform measure entropy: {measure_entropy(y, mme(y)):.6f}")
third, one, zero = Fraction(1, 3), Fraction(1), Fraction(0)
for masses in ((third, third, third), (one, zero, zero)):
    mu = measure_from_orbit_masses(y, masses)
    print(f"orbit masses {' '.join(map(str, masses))}: entropy {measure_entropy(y, mu):.6f}")
print("by Gibbs' inequality the uniform measure is the only one of maximal entropy")
