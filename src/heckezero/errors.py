"""Exception hierarchy shared by all heckezero modules."""


class HeckeZeroError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(HeckeZeroError):
    """Bad user input (CLI exit code 2)."""


class InternalInvariantError(HeckeZeroError):
    """An internal contract was violated; always a bug (CLI exit code 3)."""


class NotSquarefree(ValidationError):
    """Not a radicand: n <= 1 (prime None) or divisible by prime^2."""

    def __init__(self, n, prime=None):
        super().__init__(f"{n} is divisible by {prime}^2" if prime
                         else f"d = {n} must be > 1")


class RationalInput(ValidationError):
    """Continued-fraction expansion of a rational value was requested."""


class DegenerateWord(ValidationError):
    """A periodic word whose fixed-point equation has rational roots."""


class UnitMismatch(HeckeZeroError):
    """Product of the cone ratios does not equal the totally positive unit."""


class IncompatiblePair(ValidationError):
    """[1, delta] is not an ideal of the maximal order O, so no ideal b
    satisfies b*[1, delta] = O (or a given b does not)."""


class BoundExceeded(ValidationError):
    """A desk-scale computation bound was exceeded."""


class DeltaOutOfRange(ValidationError):
    """delta must satisfy delta > 2 and 0 < delta' < 1."""


class HypothesisFailed(HeckeZeroError):
    """The mod-q norm residues vary with k, so no closed form applies."""


class NoAdmissibleN(ValidationError):
    """No member of the family with the requested residue is admissible."""


class InsufficientSamples(ValidationError):
    """Too few admissible sample points for a verdict."""


class NarrowClassNotOne(ValidationError):
    """The factorization oracle needs narrow class number one."""


class ParseError(ValidationError):
    """Malformed configuration file or identifier string."""


class SpecInconsistent(ValidationError):
    """A family whose declared plus digits disagree with the expansion of a
    member's delta(n) - 1."""
