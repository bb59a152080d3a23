"""Workbench for call-by-value and call-by-name lambda-calculi with
explicit substitutions: stratified reduction, normal-form grammars,
meaningful approximants, quantitative type systems, genericity checks,
and sound judges for three equational theories."""

from .terms import (
    Abs,
    App,
    BOT,
    Bot,
    CBN,
    CBV,
    Es,
    HOLE,
    Hole,
    OMEGA,
    Term,
    Var,
    alpha_eq,
    canonical,
    free_vars,
    parse,
    parse_context,
    partial_leq,
    plug,
    show,
    subst,
)
from .reduce import Step, Trace, apply_step, find_redexes, normalize, reduce_once
from .nf import classify_nf, is_bno, is_normal, strat_eq
from .approx import (
    Oracle,
    Undetermined,
    approximate_step,
    lift_step,
    lift_trace,
    meaningful_approximant,
)
from .types_core import Arrow, Derivation, Mult, TyVar, parse_ty, show_ty
from .typecheck import check_derivation, synth_nf_derivation
from .deriv_transform import (
    expand_derivation,
    reduce_derivation,
    typable,
    typed_genericity,
)
from .genericity import (
    DEFAULT_PROBES,
    GenericityReport,
    axiom_suite,
    reproduce_violation,
    stratified_genericity_check,
)
from .theories import (
    H,
    HSTAR,
    LAMBDA,
    THEORIES,
    Judgment,
    Verdict,
    falsify_observational,
    judge,
    reverify,
)
