"""Sequential abstract state machine toolkit.

States are finite first-order structures over a fixed vocabulary; algorithms
are canonical state families with a one-step transformation given either by
a small rule language or by explicit successor tables.  The package computes
update sets, checks the sequential-time, abstract-state and both
bounded-exploration postulates over a bounded universe, and verifies at desk
scale that the two bounded-exploration formulations agree.
"""
from .errors import (
    AsmError,
    CaseHypothesisError,
    ClashError,
    DomainError,
    GuardError,
    HeadroomError,
    InvalidRenamingError,
    NotSimilarError,
    PreconditionError,
    SpecParseError,
    UnknownStateError,
    ValidationError,
    VocabularyMismatchError,
)
from .kernel import (
    FALSE,
    FALSE_TERM,
    LOGICAL_IDS,
    LOGICAL_SYMBOLS,
    TRUE,
    TRUE_TERM,
    UNDEF,
    UNDEF_TERM,
    Renaming,
    State,
    Symbol,
    Term,
    TermProgram,
    Vocabulary,
    apply_renaming,
    coincides_over,
    evaluate_term,
    evaluate_terms,
    interpret,
    is_subterm_closed,
    isomorphisms_between,
    sorted_terms,
    subterm_closure,
)
from .transition import (
    Algorithm,
    Assign,
    CompiledRule,
    Cond,
    Par,
    Rule,
    Update,
    apply_rule,
    apply_updates,
    canonical_step,
    lift_update,
    lift_update_set,
    locate,
    rule_terms,
    step,
    table_diff,
    update_set,
)
from .similarity import (
    check_lemma_identity,
    check_partial_isomorphism,
    similarity_function,
    t_similar,
)
from .report import CheckReport, ScenarioReport
from .postulates import (
    check_abstract_state,
    check_new_be,
    check_old_be,
    check_sequential_time,
    closure,
    required_headroom,
)
from .generate import (
    GeneratorConfig,
    SuiteInstance,
    flip_algorithm,
    generate_algorithm_suite,
    ground_terms_up_to,
)
from .harness import (
    construct_case1_state,
    construct_disjoint_copy,
    run_suite,
    verify_equivalence,
)
from .specfmt import SpecDocument, parse_spec, render_rule, render_term, unparse_spec
from .scenarios import (
    example_witness_candidates,
    remark_states,
    run_scenario_example,
    run_scenario_remark,
)

__version__ = "0.1.0"
