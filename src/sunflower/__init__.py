"""Desk-scale lab for sunflower (Delta-system) combinatorics.

Set families over small universes as bit vectors, exact spreadness
verdicts in rational arithmetic, split search with a counting oracle,
complete k-sunflower detection with certificates, the (k-1)^m extremal
construction, and a rank-descending base-set extraction engine with a
recursive driver and audit reports.

Importing the package loads none of its modules: each public name (and
each submodule, ``sunflower.gamma`` and so on) is imported on first
access (PEP 562), and each CLI subcommand imports only the modules it
runs.
"""

__version__ = "0.1.0"

# The public names of each submodule, re-exported here.
_MODULE_EXPORTS = {
    "basesets": ("BaseSetsOutput", "ComponentCollection", "Constants",
                 "ElementaryPart", "ProcessRResult", "ProcessStep",
                 "Threshold", "audit_terminal_bases", "base_sets",
                 "constants_from_dict", "canonical_constants", "process_r"),
    "errors": ("BudgetExceededError", "ContractViolationError",
               "GammaPreconditionError", "TrialsExhaustedError",
               "UniverseMismatchError"),
    "extremal": ("build_extremal",),
    "families": ("GroundSet", "SetFamily", "Split", "Subsplit", "Universe",
                 "family_from_json_obj", "family_from_text", "pad_universe"),
    "gamma": ("GammaReport", "check_gamma", "check_gamma_on_subsplit"),
    "harness": ("generate_random_family",),
    "rng": ("CounterRng",),
    "splits": ("SplitSearchResult", "count_splits", "enumerate_splits",
               "find_good_split", "retention_bound",
               "transversal_count_brute", "transversal_formula"),
    "sunflowers": ("SunflowerCertificate", "extract_disjoint_via_gamma",
                   "find_sunflower_exact", "verify_certificate"),
}

# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items()
            for name in names}

_SUBMODULES = frozenset(_MODULE_EXPORTS) | {"cli", "schemas"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule named ``name``, or the one defining the public
    name ``name``, and keep the result as a package attribute."""
    if name in _EXPORTS:
        module = _EXPORTS[name]
    elif name in _SUBMODULES:
        module = name
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value
