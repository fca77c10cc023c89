"""Desk-scale lab for sunflower (Delta-system) combinatorics.

Set families over small universes as bit vectors, exact spreadness
verdicts in rational arithmetic, split search with a counting oracle,
complete k-sunflower detection with certificates, the (k-1)^m extremal
construction, and a rank-descending base-set extraction engine with a
recursive driver and audit reports.
"""

from .basesets import (BaseSetsOutput, ComponentCollection, Constants,
                       ElementaryPart, ProcessRResult, ProcessStep,
                       Threshold, audit_terminal_bases, base_sets,
                       constants_from_dict, canonical_constants,
                       process_r)
from .errors import (BudgetExceededError, ContractViolationError,
                     GammaPreconditionError, TrialsExhaustedError,
                     UniverseMismatchError)
from .extremal import ExtremalFamily, build_extremal
from .families import (GroundSet, SetFamily, Split, Subsplit, Universe,
                       family_from_json_obj, family_from_text,
                       family_to_json_obj, family_to_text, pad_universe,
                       subset_buckets)
from .gamma import GammaReport, check_gamma, check_gamma_on_subsplit
from .harness import generate_random_family, verify_bound_experiment
from .rng import CounterRng
from .splits import (SplitSearchResult, count_splits, enumerate_splits,
                     find_good_split, retained_on, retention_bound,
                     transversal_count_brute, transversal_formula)
from .sunflowers import (SunflowerCertificate, extract_disjoint_via_gamma,
                         find_sunflower_exact, verify_certificate)

__version__ = "0.1.0"
