"""Acceptance battery: one test per criterion, one printed verdict line each.

Criteria 1-13 are the paper's claims.  Their assertions live in the named
checks of :mod:`finshift.suites`, the same ones ``finshift verify`` runs;
each criterion cites its checks, requires every one to pass, and keeps its
wall-clock bound over their summed time.  Criterion 14 tests the pruned
enumerator against its naive oracle, which is not a paper claim, so it
keeps its own body.  The claim ledger (``LEDGER``) maps each claim of the
abstract to the checks that cover it, or to the open item that would.
"""

import random
import re
import time

import pytest

from finshift.fixtures import random_sft_spec, standard_specs
from finshift.groups import cyclic
from finshift.shiftspace import enumerate_sft, enumerate_sft_naive
from finshift.suites import check_names, run_suite, suite_names

# criterion -> (verdict text, bound in seconds or None, cited suite/check)
CRITERIA = {
    1: ("entropy set of (Z/2)^3 to n=4 is the 2-power truncation", 1.0, [
        "theorem-2/entropy-set-truncation",
    ]),
    2: ("free extensions keep |Y|^[G:H] configurations and exact entropy",
        30.0, [
            "free-extension/cardinality-law",
            "free-extension/entropy-preserved",
            "free-extension/tower-stepwise-equals-direct",
            "theorem-2/entropy-constant-along-tower",
        ]),
    3: ("lifting the forbidden patterns equals extending the space", None, [
        "free-extension/forbidden-lift-equivalence",
        "free-extension/intersection-commutes",
        "free-extension/factor-commutes-with-extension",
    ]),
    4: ("extensions extract back to their base", None, [
        "free-extension/base-extract-round-trip",
        "theorem-1/sft-is-extension-of-finite-base",
    ]),
    5: ("assembly is an equivariant bijection of coset families", None, [
        "free-extension/conjugacy-identity",
        "free-extension/action-composition-law",
        "free-extension/assemble-round-trip",
        "free-extension/assemble-bijection-count",
    ]),
    6: ("extensions do not depend on the coset representatives", None, [
        "free-extension/choice-independence",
    ]),
    7: ("golden mean counts and entropy, enumeration as oracle", 1.0, [
        "zline/golden-mean-small-counts",
        "zline/golden-mean-recurrence",
        "zline/enumeration-vs-transfer-matrix",
        "zline/golden-mean-entropy-tolerance",
    ]),
    8: ("log(count(n))/n avoids the rational-log truncation", None, [
        "zline/rational-log-exclusion-shadow",
    ]),
    9: ("even shift: cover agrees, gap witnesses, sofic images", 10.0, [
        "zline/even-shift-cover-agreement",
        "zline/sft-gap-witnesses",
        "theorem-1/sofic-image-re-presents-as-sft",
    ]),
    10: ("strong irreducibility and its transfer along extensions", None, [
        "free-extension/si-transfer",
        "theorem-1/extensions-strongly-irreducible",
        "theorem-1/two-point-space-not-si",
    ]),
    11: ("automorphism orders; automorphisms commute with shifts", None, [
        "theorem-1/automorphism-group-orders",
        "theorem-1/shift-maps-are-automorphisms",
    ]),
    12: ("entropy zero iff singleton; every fixture entropy minimal", None, [
        "theorem-2/zero-entropy-classification",
        "theorem-2/entropy-minimality",
    ]),
    13: ("the uniform measure is the unique measure of maximal entropy",
         1.0, [
             "theorem-2/mme-attains-topological-entropy",
             "theorem-2/mme-unique-on-golden-mean",
             "theorem-2/two-fixed-point-mme",
         ]),
}


# The claim ledger: each claim of the abstract, and in two more rows what
# the abstract presents besides them, against where the suites check it.
# Columns: levels of an abelian tower ((Z/2)^k, Z/2^k) or of single abelian
# groups; a nonabelian tower with non-normal inclusions (S1 ⊂ S2 ⊂ ...);
# the limit group, by checks that carry the claim from a level to every
# level above; and a converse exhibit on a group that is not locally
# finite, Z.  A cell names suite checks, or the open ROADMAP item that
# would fill it; item 25, the ledger's own, marks a cell no item plans.
LEDGER_COLUMNS = ("abelian tower", "nonabelian non-normal tower", "limit group",
                  "converse exhibit")
LEDGER = {
    "every sofic shift is an SFT": (
        ["theorem-1/sofic-image-re-presents-as-sft",
         "free-extension/factor-commutes-with-extension"],
        "open: item 17",
        "open: item 17",
        ["zline/even-shift-cover-agreement", "zline/sft-gap-witnesses"],
    ),
    "every SFT is strongly irreducible": (
        ["theorem-1/extensions-strongly-irreducible", "theorem-1/two-point-space-not-si"],
        "open: item 9",
        ["free-extension/si-transfer"],
        "open: item 14",
    ),
    "every strongly irreducible shift is an SFT": (
        "open: item 16",
        "open: item 16",
        "open: item 16",
        "open: item 21",
    ),
    "every SFT is entropy minimal": (
        ["theorem-2/entropy-minimality", "theorem-2/zero-entropy-classification"],
        "open: item 9",
        "open: item 24",
        "open: item 14",
    ),
    "every SFT has a unique measure of maximal entropy": (
        ["theorem-2/mme-attains-topological-entropy", "theorem-2/mme-unique-on-golden-mean",
         "theorem-2/two-fixed-point-mme"],
        "open: item 9",
        "open: item 24",
        "open: item 14",
    ),
    "each property forces local finiteness (the converse)": (
        ["theorem-2/entropy-set-truncation"],
        "open: item 9",
        "open: item 22",
        ["zline/rational-log-exclusion-shadow", "zline/golden-mean-small-counts",
         "zline/golden-mean-recurrence", "zline/enumeration-vs-transfer-matrix",
         "zline/golden-mean-entropy-tolerance"],
    ),
    "the free extension of a shift on H to G (the construction)": (
        ["free-extension/conjugacy-identity", "free-extension/action-composition-law",
         "free-extension/assemble-round-trip", "free-extension/assemble-bijection-count",
         "free-extension/cardinality-law", "free-extension/forbidden-lift-equivalence",
         "free-extension/intersection-commutes", "free-extension/entropy-preserved",
         "free-extension/base-extract-round-trip", "theorem-1/sft-is-extension-of-finite-base"],
        "open: item 9",
        ["free-extension/tower-stepwise-equals-direct", "free-extension/choice-independence",
         "theorem-2/entropy-constant-along-tower"],
        "open: item 22",
    ),
    "among others: automorphisms": (
        ["theorem-1/automorphism-group-orders", "theorem-1/shift-maps-are-automorphisms"],
        "open: item 20",
        "open: item 20",
        "open: item 25",
    ),
}


def test_the_ledger_places_every_cited_check_and_names_only_registered_ones():
    registered = {f"{s}/{c}" for s in suite_names() for c in check_names(s)}
    placed, open_cells = set(), 0
    for claim, cells in LEDGER.items():
        assert len(cells) == len(LEDGER_COLUMNS), claim
        for column, cell in zip(LEDGER_COLUMNS, cells):
            if isinstance(cell, str):
                assert re.fullmatch(r"open: item [1-9]\d*", cell), (claim, column, cell)
                open_cells += 1
            else:
                assert cell and not set(cell) - registered, (claim, column, cell)
                placed |= set(cell)
    cited = {name for _, _, names in CRITERIA.values() for name in names}
    assert not cited - placed, "checks the battery cites that no ledger cell names"
    print(f"LEDGER: {open_cells} of {len(LEDGER) * len(LEDGER_COLUMNS)} cells open")


def _verdict(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {n:2d} {status}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def suite_check():
    """Look up a ``suite/check`` result; each suite runs once, on demand."""
    reports = {}

    def lookup(cited):
        suite, check = cited.split("/")
        if suite not in reports:
            reports[suite] = {c.name: c for c in run_suite(suite).checks}
        return reports[suite][check]

    return lookup


def _cited_checks(suite_check, n):
    text, bound, cited = CRITERIA[n]
    results = [suite_check(name) for name in cited]
    failed = [
        f"{name}: {r.witness}" for name, r in zip(cited, results) if not r.passed
    ]
    elapsed = sum(r.seconds for r in results)
    detail = f"{text} ({len(cited)} checks, {elapsed:.3f}s)"
    if bound is not None and elapsed >= bound:
        failed.append(f"over the {bound}s bound")
    _verdict(n, not failed, "; ".join([detail] + failed))


def test_criteria_cite_exactly_the_registered_checks():
    registered = {f"{s}/{c}" for s in suite_names() for c in check_names(s)}
    cited = {name for _, _, names in CRITERIA.values() for name in names}
    assert not cited - registered, "cited checks that no suite registers"
    assert not registered - cited, "suite checks that no criterion cites"


def test_criterion_01_entropy_set_truncation(suite_check):
    _cited_checks(suite_check, 1)


def test_criterion_02_entropy_preserved_under_extension(suite_check):
    _cited_checks(suite_check, 2)


def test_criterion_03_forbidden_lift_equals_extension(suite_check):
    _cited_checks(suite_check, 3)


def test_criterion_04_base_extract_round_trip(suite_check):
    _cited_checks(suite_check, 4)


def test_criterion_05_conjugacy_identity(suite_check):
    _cited_checks(suite_check, 5)


def test_criterion_06_choice_independence(suite_check):
    _cited_checks(suite_check, 6)


def test_criterion_07_golden_mean_entropy(suite_check):
    _cited_checks(suite_check, 7)


def test_criterion_08_rational_log_exclusion(suite_check):
    _cited_checks(suite_check, 8)


def test_criterion_09_even_shift_soficity_shadow(suite_check):
    _cited_checks(suite_check, 9)


def test_criterion_10_strong_irreducibility(suite_check):
    _cited_checks(suite_check, 10)


def test_criterion_11_automorphisms(suite_check):
    _cited_checks(suite_check, 11)


def test_criterion_12_zero_entropy_and_minimality(suite_check):
    _cited_checks(suite_check, 12)


def test_criterion_13_measures_of_maximal_entropy(suite_check):
    _cited_checks(suite_check, 13)


def test_criterion_14_enumeration_oracle():
    start = time.perf_counter()
    checked = 0
    rng = random.Random(1)
    specs = [s for _, s in standard_specs()]
    for n in (2, 3, 4, 5, 6):
        specs.extend(random_sft_spec(cyclic(n), rng) for _ in range(10))
    for spec in specs:
        if spec.alphabet.size ** spec.group.order > 1 << 16:
            continue
        assert (
            enumerate_sft(spec).configs == enumerate_sft_naive(spec).configs
        )
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        14,
        checked == len(specs) and elapsed < 60.0,
        f"{checked} specs: pruned search equals naive filter ({elapsed:.1f}s)",
    )
