"""dspkit: exact solvability decisions and a numerical realization oracle for
tuples of matrices in prescribed conjugacy classes (zero sum or identity
product)."""

from .classify import (
    RigidFamily,
    SpecialCaseTag,
    SpecialDiagonalWitness,
    SpecialKind,
    almost_special_tuple,
    decide_unipotent_nilpotent,
    is_good,
    is_special_diagonal,
    match_rigid_family,
    match_special,
    rigid_family_tuple,
    special_case_tuple,
    weak_verdict_kappa0,
    weak_verdict_kappa2,
)
from .decide import (
    ConditionCheck,
    DecisionReport,
    PsiStep,
    PsiTrace,
    TerminationReason,
    Verdict,
    check_conditions,
    decide_generic,
    decide_weak_distinct,
    psi_defined,
    psi_step,
)
from .genericity import (
    ClassSpec,
    GcdReduction,
    RelationWitness,
    check_evs,
    check_generalized_beta,
    exp_map,
    find_relation,
    gcd_reduction,
    sample_generic,
    specs_tuple,
)
from .jnf import (
    InvariantSummary,
    Jnf,
    JnfTuple,
    Partition,
    Subordination,
    corresponding_diagonal,
    d_of,
    invariant_summary,
    is_subordinate,
    kappa_of,
    r_of,
    z_of,
)
from .scalars import AdditiveScalar, MultiplicativeScalar, format_scalar, parse_scalar

__version__ = "0.1.0"


def __getattr__(name):
    """The numeric oracle's names, imported on first use: only they need numpy."""
    if name in ("RealizationResult", "SearchBudget", "realize"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
