"""Completion reasoning for abstract and structured argumentation under
qualitative uncertainty.

The package enumerates completions of incomplete frameworks (abstract ones,
with or without dependencies, and structured ones with uncertain rules or
premises), runs the constructive translations between the formalisms, and
decides completion-set equivalence with explicit certifying witnesses.
"""

from .config import DEFAULT_LIMITS, Limits, load_limits
from .core import (
    AbstractAF,
    af_equal,
    extensions,
    is_admissible,
    is_conflict_free,
    parse_af,
    restrict,
    serialize_af,
)
from .incomplete import (
    ArgIAF,
    CompletionSet,
    DepArgIAF,
    Dependency,
    ImplyDisj,
    Nand,
    Or,
    completions_arg_iaf,
    completions_dep,
    is_implicative,
    parse_iaf,
    serialize_iaf,
    synthesize_dependencies,
)
from .aspic import (
    DEFEASIBLE,
    STRICT,
    SAF,
    ArgumentationTheory,
    AttackInstance,
    Rule,
    StructuredArgument,
    associated_af,
    attacks,
    defeats,
    generate_arguments,
    inference_argument,
    make_theory,
    premise_argument,
)
from .isaf import (
    PremISAF,
    RulISAF,
    completion_set_of,
    completions_prem,
    completions_rul,
    defeat_coherence_check,
    is_tidy,
    premise_completions,
    rule_completions,
    saf_fixed,
    saf_max,
    uncertain_premises_of,
    uncertain_rules_of,
)
from .translate import (
    Witness,
    arg_iaf_to_prem_isaf,
    arg_iaf_to_rul_isaf,
    prem_isaf_to_imp_arg_iaf,
    prem_isaf_to_rul_isaf,
    rul_isaf_to_imp_arg_iaf,
    tidy,
)
from .equivalence import (
    EquivalenceResult,
    check_witness,
    equivalence_properties_check,
    equivalent,
    no_equivalent_arg_iaf,
)

__version__ = "0.1.0"
