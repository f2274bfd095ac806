"""Exception types shared across the package."""


class DspkitError(Exception):
    """Base class for all package errors."""


class InvalidInputError(DspkitError):
    """Malformed or inconsistent input (bad partition, mixed modes, ...)."""


class PsiUndefinedError(DspkitError):
    """The block-reduction step was requested where it is not defined."""


class InvalidChoiceError(DspkitError):
    """A supplied eigenvalue-slot choice is not a block-count maximizer."""


class ChoiceDependenceError(DspkitError):
    """Two maximizer choice paths of the reduction reached different verdicts."""


class NotApplicableError(DspkitError):
    """The requested decision does not apply to this input."""

    def __init__(self, message, requirement=None):
        super().__init__(message)
        self.requirement = requirement


class KappaNotTwoError(DspkitError):
    """An operation requiring rigidity index 2 was called with a different value."""


class ResourceExceededError(DspkitError):
    """An exact enumeration exceeded its configured budget; no answer is claimed."""


class SamplingExhaustedError(DspkitError):
    """The eigenvalue sampler returned no assignment: the multiplicities force a
    relation (additive, with a common factor), or every draw within the retry
    budget was badly scaled."""


class UnsupportedScalarError(DspkitError):
    """A scalar falls outside the exactly representable families."""


class SlotCollisionError(DspkitError):
    """Two eigenvalue slots were mapped to the same value."""


class IllConditionedError(DspkitError):
    """Every numerical restart produced conjugators beyond the condition cap."""
