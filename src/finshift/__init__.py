"""Symbolic dynamics on finite groups and subgroup towers.

Finite groups and towers, patterns, shifts of finite type by forbidden
patterns, free extensions along subgroup inclusions and their inverse,
exact entropy arithmetic, strong irreducibility, automorphisms, measures
of maximal entropy, and integer-line truncation demos — all cross-checked
against brute-force oracles at desk scale.

The public names below load their module on first use, so importing the
package, or one of its modules, loads only the modules that are used.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it provides
_PUBLIC = {
    "errors": "ConfigurationError DomainError FinshiftError FormatError InputError "
              "ResourceError ValidationError",
    "groups": "FiniteGroup GroupTower Subgroup build_tower cyclic from_table "
              "generated_subgroup product subgroups_and_closures z2_power_tower",
    "patterns": "BINARY Alphabet Pattern shift_config",
    "shiftspace": "BlockMap SftSpec ShiftSpace apply_block_code count_sft "
                  "enumerate_hypergraph enumerate_sft enumerate_sft_naive frontier_count "
                  "full_shift is_shift_invariant orbits project shape_base "
                  "shift_permutations spec_from_space",
    "freext": "BaseExtractResult ExtensionContext all_families assemble base_extract "
              "disassemble extension_context family_action free_extension "
              "free_extension_spec tower_context tower_extend tower_extension_count",
    "dynprops": "AutomorphismGroup EntropyValue InvariantMeasure SiVerdict automorphism_group "
                "count_entropy entropy entropy_set measure_entropy measure_from_orbit_masses "
                "minimal_si_witnesses mme si_verdicts spec_entropy spec_minimal_si_witnesses "
                "spec_si_verdicts",
    "zline": "EvenCoverMismatch even_cover_accepts even_cover_factor_counts "
             "even_shift_word_check golden_mean_cyclic_count "
             "golden_mean_cyclic_counts golden_mean_entropy_estimate golden_mean_spec "
             "sft_gap_witness",
    "suites": "SuiteReport run_suite suite_names",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads do not come back here
    return value


def __dir__():
    return sorted({*globals(), *__all__})
