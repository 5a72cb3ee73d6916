"""Named verification suites: the one place where the paper's claims are
checked.

Each check is a function of the seed, registered under one or more
``suite/check`` names.  :func:`run_suite` runs a suite's checks over the
built-in fixtures and returns a :class:`SuiteReport`; the CLI exposes the
suites via ``verify`` and the acceptance tests cite their checks.  Checks
are ordered by name in the report regardless of execution order.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from . import dynprops, zline
from .errors import ConfigurationError
from .fixtures import (
    cyclic_doubling_tower,
    golden_mean_like_spec,
    random_sft_spec,
    standard_specs,
    symmetric3,
    two_point_spec,
)
from .freext import (
    all_families,
    assemble,
    base_extract,
    disassemble,
    extension_context,
    family_action,
    free_extension,
    free_extension_spec,
    tower_context,
    tower_extend,
)
from .groups import cyclic, z2_power_tower
from .patterns import BINARY, Pattern, shift_config
from .shiftspace import (
    BlockMap,
    SftSpec,
    ShiftSpace,
    apply_block_code,
    enumerate_sft,
    full_shift,
    is_shift_invariant,
    orbits,
    shift_permutations,
    spec_from_space,
)


class CheckResult:
    """One check's name, verdict, failure text and run time."""

    def __init__(self, name: str, passed: bool, witness: str, seconds: float):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.seconds = seconds


class SuiteReport:
    """A suite's name and the results of its checks, in the order they ran."""

    def __init__(self, suite: str, checks: list[CheckResult] | None = None):
        self.suite = suite
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"suite {self.suite}"]
        for c in sorted(self.checks, key=lambda c: c.name):
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"CHECK {c.name} {status} ({c.seconds:.3f}s)")
            if not c.passed and c.witness:
                for wl in c.witness.splitlines():
                    lines.append(f"    {wl}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"suite {self.suite} {verdict}")
        return "\n".join(lines)


# suite -> check name -> check; a check takes the seed and raises
# AssertionError on failure
_SUITES: dict[str, dict] = {
    "free-extension": {},
    "theorem-1": {},
    "theorem-2": {},
    "zline": {},
}


def _check(*names):
    """Register the decorated check under each ``suite/check`` name."""

    def register(fn):
        for name in names:
            suite, check = name.split("/")
            _SUITES[suite][check] = fn
        return fn

    return register


def _klein_context():
    tower = z2_power_tower(2)
    return extension_context(tower.levels[1], tower.levels[0], tower.embeddings[0])


def _z4_context():
    return extension_context(cyclic(4), cyclic(2), (0, 2))


def _klein_families():
    ctx = _klein_context()
    fams = all_families(ctx, [(a, b) for a in (0, 1) for b in (0, 1)])
    assert len(fams) == 16, f"{len(fams)} families"
    return ctx, fams


def _z2_specs():
    return [(name, spec) for name, spec in standard_specs() if spec.group.order == 2]


@_check("free-extension/conjugacy-identity")
def _conjugacy(seed):
    ctx, fams = _klein_families()
    for fam in fams:
        for g in ctx.ambient.elements():
            lhs = assemble(ctx, family_action(ctx, g, fam))
            rhs = shift_config(ctx.ambient, g, assemble(ctx, fam))
            assert lhs == rhs, f"mismatch at g={g} fam={fam}"


@_check("free-extension/action-composition-law")
def _action_law(seed):
    ctx, fams = _klein_families()
    mul = ctx.ambient.mul
    for fam in fams[:8]:
        for g in ctx.ambient.elements():
            for h in ctx.ambient.elements():
                two = family_action(ctx, g, family_action(ctx, h, fam))
                one = family_action(ctx, mul[g][h], fam)
                assert two == one, f"g={g} h={h}"


@_check("free-extension/assemble-round-trip")
def _assemble_round_trip(seed):
    ctx, fams = _klein_families()
    for fam in fams:
        back = disassemble(ctx, assemble(ctx, fam))
        assert back == fam


@_check("free-extension/assemble-bijection-count")
def _assemble_bijection(seed):
    ctx, fams = _klein_families()
    images = {assemble(ctx, fam) for fam in fams}
    assert len(images) == 2 ** ctx.ambient.order, f"{len(images)} images"


@_check("free-extension/cardinality-law")
def _cardinality(seed):
    ctx = _klein_context()
    for name, spec in _z2_specs():
        y = enumerate_sft(spec)
        ext = free_extension(y, ctx)
        assert len(ext.configs) == len(y.configs) ** ctx.cosets, name


@_check("free-extension/forbidden-lift-equivalence")
def _forbidden_lift(seed):
    contexts = (
        _klein_context(),
        _z4_context(),
        tower_context(cyclic_doubling_tower(3), 1, 2),  # Z/4 inside Z/8
    )
    checked = 0
    for ctx in contexts:
        for name, spec in standard_specs():
            if spec.group != ctx.base_group:
                continue
            if spec.alphabet.size ** ctx.ambient.order > 1 << 16:
                continue
            via_spec = enumerate_sft(free_extension_spec(spec, ctx))
            via_space = free_extension(enumerate_sft(spec), ctx)
            assert via_spec.configs == via_space.configs, name
            checked += 1
    assert checked >= 8, f"only {checked} spec/space extension pairs"


@_check("free-extension/choice-independence")
def _choice_independence(seed):
    rng = random.Random(seed)
    z2, z4 = cyclic(2), cyclic(4)
    canonical = _z4_context()
    bases = [enumerate_sft(random_sft_spec(z2, rng)) for _ in range(5)]
    reference = [free_extension(y, canonical).configs for y in bases]
    for _ in range(50):
        reps = tuple(rng.choice([k for k, j in enumerate(canonical.coset_of) if j == i])
                     for i in range(canonical.cosets))
        ctx2 = extension_context(z4, z2, (0, 2), reps=reps)
        for y, ref in zip(bases, reference):
            assert free_extension(y, ctx2).configs == ref, f"reps={reps}"


@_check("free-extension/intersection-commutes")
def _intersection(seed):
    ctx = _klein_context()
    y1 = enumerate_sft(golden_mean_like_spec(cyclic(2)))
    y2 = enumerate_sft(two_point_spec(cyclic(2)))
    meet = ShiftSpace(y1.group, y1.alphabet, y1.configs & y2.configs)
    lhs = free_extension(meet, ctx).configs
    rhs = free_extension(y1, ctx).configs & free_extension(y2, ctx).configs
    assert lhs == rhs


@_check("free-extension/entropy-preserved")
def _entropy_preserved(seed):
    ctx = _klein_context()
    for name, spec in _z2_specs():
        y = enumerate_sft(spec)
        ext = free_extension(y, ctx)
        assert dynprops.entropy(ext) == dynprops.entropy(y), name


@_check("free-extension/tower-stepwise-equals-direct")
def _stepwise_equals_direct(seed):
    tower = z2_power_tower(3)
    y = enumerate_sft(two_point_spec(tower.levels[0]))
    stepped = tower_extend(y, tower, 0, 2)
    direct = free_extension(y, tower_context(tower, 0, 2))
    assert stepped.configs == direct.configs
    assert len(stepped.configs) == 2 ** 4


@_check("free-extension/si-transfer")
def _si_transfer(seed):
    # random specs keep the all-zero point, so every base is nonempty
    for ctx, rng in (
        (_klein_context(), random.Random(seed + 1)),
        (_z4_context(), random.Random(seed)),
    ):
        for trial in range(10):
            y = enumerate_sft(random_sft_spec(cyclic(2), rng))
            ext = free_extension(y, ctx)
            # one table per space answers every K0, and every image
            k0s = [(0,), (1,), (0, 1)]
            images = [tuple(ctx.base_embed[a] for a in k0) for k0 in k0s]
            for k0, base_v, ext_v in zip(k0s, dynprops.si_verdicts(y, k0s),
                                         dynprops.si_verdicts(ext, images)):
                assert base_v.ok == ext_v.ok, f"|G|={ctx.ambient.order} trial {trial} K0={k0}"


@_check("free-extension/factor-commutes-with-extension")
def _factor_commutes(seed):
    ctx = _klein_context()
    y = enumerate_sft(golden_mean_like_spec(cyclic(2)))
    window = (0,)
    flip = {(0,): 1, (1,): 0}
    code = BlockMap(y, window, flip, BINARY)
    image_then_extend = free_extension(apply_block_code(y, code), ctx)
    ext = free_extension(y, ctx)
    lifted_window = tuple(ctx.base_embed[f] for f in window)
    lifted = BlockMap(ext, lifted_window, flip, BINARY)
    extend_then_image = apply_block_code(ext, lifted)
    assert image_then_extend.configs == extend_then_image.configs


@_check(
    "free-extension/base-extract-round-trip",
    "theorem-1/sft-is-extension-of-finite-base",
)
def _base_extract_round_trip(seed):
    # every fixture SFT lifted to an ambient group is recovered as the free
    # extension of the base it came from
    checked = 0
    for ctx in (_klein_context(), _z4_context()):
        for name, spec in _z2_specs():
            result = base_extract(free_extension_spec(spec, ctx), ctx)
            assert result.ok, f"{name}: witness {result.witness}"
            recovered = enumerate_sft(result.spec)
            assert recovered.configs == enumerate_sft(spec).configs, name
            checked += 1
    assert checked >= 6, f"only {checked} round trips"


@_check("theorem-1/extensions-strongly-irreducible")
def _extensions_si(seed):
    # a base shift on the whole base group is vacuously SI with K = H; its
    # extension is SI with the image witness set.  The full shift on Z/4
    # extends the full shift on the trivial subgroup, so K = {e} works.
    ctx = _klein_context()
    for name, spec in _z2_specs():
        y = enumerate_sft(spec)
        assert dynprops.si_verdicts(y, [range(y.group.order)])[0].ok, name
        ext = free_extension(y, ctx)
        assert dynprops.si_verdicts(ext, [ctx.base_embed])[0].ok, name
    full = full_shift(cyclic(4), BINARY)
    assert dynprops.si_verdicts(full, [(0,)])[0].ok


@_check("theorem-1/two-point-space-not-si")
def _two_point_not_si(seed):
    # supersets of a witness work, so every proper K fails iff only G is minimal
    y = enumerate_sft(two_point_spec(cyclic(4)))
    minimal = dynprops.minimal_si_witnesses(y)
    assert minimal == [(0, 1, 2, 3)], f"minimal witness sets {minimal}"


@_check("theorem-1/sofic-image-re-presents-as-sft")
def _sofic_image_is_sft(seed):
    # images of block codes on finite groups re-present as SFTs
    y = enumerate_sft(golden_mean_like_spec(cyclic(4)))
    xor = {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}
    code = BlockMap(y, (0, 1), xor, BINARY)
    image = apply_block_code(y, code)
    assert is_shift_invariant(image)
    represented = enumerate_sft(spec_from_space(image, (0, 1, 2, 3)))
    assert represented.configs == image.configs


@_check("theorem-1/automorphism-group-orders")
def _automorphism_orders(seed):
    full = full_shift(cyclic(2), BINARY)
    two = enumerate_sft(two_point_spec(cyclic(4)))
    for y, order in ((full, 4), (two, 2)):
        aut = dynprops.automorphism_group(y)
        assert aut.order == order, f"order {aut.order}, want {order}"
        for p in aut.elements:
            for s in shift_permutations(y):
                assert all(p[s[i]] == s[p[i]] for i in range(len(p))), (
                    f"{p} does not commute with shift {s}"
                )


@_check("theorem-1/shift-maps-are-automorphisms")
def _shifts_inside_aut(seed):
    y = enumerate_sft(golden_mean_like_spec(cyclic(4)))
    aut = set(dynprops.automorphism_group(y).elements)
    for g, perm in enumerate(shift_permutations(y)):
        assert perm in aut, f"shift by {g} missing"


@_check("theorem-2/entropy-set-truncation")
def _entropy_set_truncation(seed):
    tower = z2_power_tower(3)
    got = dynprops.entropy_set(tower, max_level=3, max_n=4)
    want = {
        dynprops.EntropyValue(n, 2 ** k)
        for n in range(1, 5)
        for k in range(4)
    }
    assert got == want, f"got {sorted((v.count, v.denom) for v in got)}"


@_check("theorem-2/zero-entropy-classification")
def _zero_entropy(seed):
    s3 = symmetric3()
    point = SftSpec(s3, BINARY, (0,), frozenset({Pattern(s3, (0,), (1,))}))
    for name, spec in [*standard_specs(), ("point_s3", point)]:
        y = enumerate_sft(spec)
        zero = dynprops.spec_entropy(spec).is_zero()
        assert zero == (len(y.configs) == 1), name
        if zero:
            (x,) = y.configs
            assert all(shift_config(y.group, g, x) == x for g in y.group.elements()), name


@_check("theorem-2/entropy-minimality")
def _entropy_minimal(seed):
    for name, spec in standard_specs():
        y = enumerate_sft(spec)
        h = dynprops.entropy(y)
        for orb in orbits(y):
            if rest := y.configs - orb:
                assert dynprops.entropy(ShiftSpace(y.group, y.alphabet, rest)) < h, name


@_check("theorem-2/mme-attains-topological-entropy")
def _mme_attains(seed):
    for name, spec in standard_specs():
        y = enumerate_sft(spec)
        mu = dynprops.mme(y)
        for orb in orbits(y):
            assert len({mu.weights[c] for c in orb}) == 1, name
        h = float(dynprops.entropy(y))
        assert abs(dynprops.measure_entropy(y, mu) - h) < 1e-12, name


def _compositions(total, bins):
    """Every tuple of ``bins`` non-negative integers summing to ``total``."""
    for bars in combinations(range(total + bins - 1), bins - 1):
        edges = (-1, *bars, total + bins - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


@_check("theorem-2/mme-unique-on-golden-mean")
def _mme_unique(seed):
    # at orbit masses c_o/N a measure has entropy
    # log(Π(|o|·N)^{c_o} / Π c_o^{c_o}) / (N·|G|), with 0^0 = 1, so against
    # h = log(b)/d it scores less exactly when
    # Π(|o|·N)^{c_o} < b^{N·|G|/d} · Π c_o^{c_o}: cross powers in integers
    spec = golden_mean_like_spec(cyclic(5))
    y, h = enumerate_sft(spec), dynprops.spec_entropy(spec)
    mu, parts, n = dynprops.mme(y), orbits(y), len(y.configs)
    assert abs(dynprops.measure_entropy(y, mu) - float(h)) < 1e-12
    sizes = tuple(len(orb) for orb in parts)  # the uniform masses, times n
    assert all(sum(mu.weights[c] for c in orb) * n == len(orb) for orb in parts)
    bound, points = h.count ** (n * y.group.order // h.denom), 0
    for masses in _compositions(n, len(parts)):
        left = math.prod((size * n) ** c for size, c in zip(sizes, masses))
        right = bound * math.prod(c ** c for c in masses)
        assert left == right if masses == sizes else left < right, masses
        points += 1
    assert points == 78, points


@_check("theorem-2/two-fixed-point-mme")
def _two_fixed_points(seed):
    # with two fixed points the uniform measure still uniquely maximizes,
    # at h = log(2)/4: both Dirac measures are invariant but carry zero
    # measure entropy
    y = enumerate_sft(two_point_spec(cyclic(4)))
    h = float(dynprops.entropy(y))
    assert abs(h - math.log(2) / 4) < 1e-12
    assert abs(dynprops.measure_entropy(y, dynprops.mme(y)) - h) < 1e-12
    for masses in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
        dirac = dynprops.measure_from_orbit_masses(y, masses)
        assert dynprops.measure_entropy(y, dirac) == 0.0


@_check("theorem-2/entropy-constant-along-tower")
def _entropy_along_tower(seed):
    tower = cyclic_doubling_tower(4)  # Z/2 -> Z/4 -> Z/8 -> Z/16
    # (rng, trials, base levels taken in turn, levels extended up)
    draws = (
        (random.Random(seed + 2), 10, (0,), (2,)),
        (random.Random(seed), 25, (0, 1), (1, 2)),
    )
    for rng, trials, levels, ups in draws:
        for trial in range(trials):
            level = levels[trial % len(levels)]
            y = enumerate_sft(random_sft_spec(tower.levels[level], rng))
            h = dynprops.entropy(y)
            for up in ups:
                ext_h = dynprops.entropy(tower_extend(y, tower, level, level + up))
                assert ext_h == h, (trial, level, up)


@_check("zline/golden-mean-small-counts")
def _small_counts(seed):
    assert zline.golden_mean_cyclic_count(3) == 4
    assert zline.golden_mean_cyclic_count(4) == 7
    assert zline.golden_mean_cyclic_count(5) == 11


@_check("zline/golden-mean-recurrence")
def _recurrence(seed):
    counts = {n: zline.golden_mean_cyclic_count(n) for n in range(1, 31)}
    for n in range(4, 31):
        assert counts[n] == counts[n - 1] + counts[n - 2], n


@_check("zline/enumeration-vs-transfer-matrix")
def _enumeration_oracle(seed):
    for n in range(1, 17):
        enumerated = len(enumerate_sft(zline.golden_mean_spec(n)).configs)
        assert enumerated == zline.golden_mean_cyclic_count(n), n


@_check("zline/golden-mean-entropy-tolerance")
def _tolerance(seed):
    assert zline.golden_mean_cyclic_count(20) == 15127
    err = abs(zline.golden_mean_entropy_estimate(20) - zline.LOG_GOLDEN)
    assert err < 1e-3, err
    errs = [
        abs(zline.golden_mean_entropy_estimate(n) - zline.LOG_GOLDEN)
        for n in (10, 20, 30)
    ]
    assert errs[0] > errs[1] > errs[2]


@_check("zline/even-shift-cover-agreement")
def _even_cover(seed):
    assert all(zline.even_cover_factor_counts(12))


@_check("zline/sft-gap-witnesses")
def _gap_witnesses(seed):
    for k in range(2, 11):
        word = zline.sft_gap_witness(k)
        assert len(word) == 2 * k + 3
        assert not zline.even_cover_accepts(word), k


@_check("zline/rational-log-exclusion-shadow")
def _exclusion_shadow(seed):
    members = dynprops.entropy_set(z2_power_tower(3), max_level=3, max_n=4)
    # the 4x4 grid of (n, 2^k) pairs collapses to 10 canonical values
    assert len(members) == 10, len(members)
    for n in (10, 20):
        approx = dynprops.EntropyValue(zline.golden_mean_cyclic_count(n), n)
        for member in members:
            assert approx != member, (n, str(member))


def _suite(name: str) -> dict:
    if name not in _SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; available: {', '.join(suite_names())}"
        )
    return _SUITES[name]


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    """Run one named verification suite over the built-in fixtures."""
    report = SuiteReport(name)
    for check, fn in _suite(name).items():
        start = time.perf_counter()
        try:
            fn(seed)
            passed, text = True, ""
        except AssertionError as exc:
            passed, text = False, str(exc)
        except Exception as exc:  # checks must not abort the whole suite
            passed, text = False, f"{type(exc).__name__}: {exc}"
        report.checks.append(
            CheckResult(check, passed, text, time.perf_counter() - start)
        )
    return report


def suite_names() -> list[str]:
    return sorted(_SUITES)


def check_names(suite: str) -> list[str]:
    """The check names of one suite, in report order."""
    return sorted(_suite(suite))
