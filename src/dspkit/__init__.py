"""dspkit: exact solvability decisions and a numerical realization oracle for
tuples of matrices in prescribed conjugacy classes (zero sum or identity
product)."""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  `import dspkit` loads
# no submodule; a name loads its module on first use (PEP 562), and only the
# oracle's names load numpy.
_MODULE_OF = {
    name: module
    for module, names in {
        "classify": (
            "RigidFamily",
            "SpecialCaseTag",
            "SpecialDiagonalWitness",
            "SpecialKind",
            "almost_special_tuple",
            "decide_unipotent_nilpotent",
            "is_good",
            "is_special_diagonal",
            "match_rigid_family",
            "match_special",
            "rigid_family_tuple",
            "special_case_tuple",
            "weak_verdict_kappa0",
            "weak_verdict_kappa2",
        ),
        "decide": (
            "ConditionCheck",
            "DecisionReport",
            "PsiStep",
            "PsiTrace",
            "TerminationReason",
            "Verdict",
            "check_conditions",
            "decide_generic",
            "decide_weak_distinct",
            "psi_defined",
            "psi_step",
        ),
        "genericity": (
            "Assignment",
            "ClassSpec",
            "GcdReduction",
            "RelationWitness",
            "check_evs",
            "check_generalized_beta",
            "exp_map",
            "find_relation",
            "gcd_reduction",
            "sample_generic",
            "specs_tuple",
        ),
        "jnf": (
            "InvariantSummary",
            "Jnf",
            "JnfTuple",
            "Partition",
            "Subordination",
            "corresponding_diagonal",
            "d_of",
            "invariant_summary",
            "is_subordinate",
            "kappa_of",
            "r_of",
            "z_of",
        ),
        "scalars": ("AdditiveScalar", "MultiplicativeScalar", "format_scalar", "parse_scalar"),
        "oracle": ("RealizationResult", "SearchBudget", "realize"),
    }.items()
    for name in names
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """A public name, imported from its submodule on first use.  Any other
    name raises AttributeError, so `from dspkit import enumerate` still
    imports the submodule."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
