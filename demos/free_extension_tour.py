"""Free extensions in action: extend, measure, and recover the base.

Run:  python3 demos/free_extension_tour.py
"""

from finshift.dynprops import entropy
from finshift.fixtures import golden_mean_like_spec
from finshift.freext import base_extract, free_extension, free_extension_spec, tower_context
from finshift.groups import cyclic, z2_power_tower
from finshift.shiftspace import enumerate_sft

tower = z2_power_tower(3)
base_spec = golden_mean_like_spec(cyclic(2))
base = enumerate_sft(base_spec)
print(f"base shift on a group of order 2: {len(base.configs)} configurations, "
      f"entropy {entropy(base)}")

for level in (1, 2):
    ctx = tower_context(tower, 0, level)
    ext = free_extension(base, ctx)
    print(f"extended to level {level} (order {ctx.ambient.order}): "
          f"{len(ext.configs)} = {len(base.configs)}^{ctx.cosets} configurations, "
          f"entropy {entropy(ext)}")

ctx = tower_context(tower, 0, 1)
result = base_extract(free_extension_spec(base_spec, ctx), ctx)
print(f"base extraction round trip: ok={result.ok}, recovered "
      f"{len(result.spec.forbidden)} forbidden pattern(s) on shape "
      f"{result.spec.forbidden_shape}")
