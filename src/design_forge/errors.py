"""Exception taxonomy shared across the package.

Every error below means the *request* was bad or a construction could not
deliver a verified object.  A verifier finding a defect in user data is not
an exception: verifiers return fail reports with counterexamples instead.
"""


class DesignForgeError(Exception):
    """Base class for all package-specific errors."""


class NotPrimePower(DesignForgeError):
    """A field or array order is not a prime power."""


class StrengthExceedsColumns(DesignForgeError):
    """An orthogonal-array strength check was asked for more columns than exist."""


class AlphabetMismatch(DesignForgeError):
    """A codeword does not fit the alphabet it is used with."""


class Infeasible(DesignForgeError):
    """The requested parameters fail a necessary arithmetic condition."""


class ConstructionFailed(DesignForgeError):
    """A construction's output failed its own verification.

    Carries the failing VerificationReport as ``report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ROutOfRange(DesignForgeError):
    """The binary-group count r is outside 1..k-1."""


class CoverInvariantViolated(DesignForgeError):
    """A partitioned cover breaks one of its structural invariants."""


class NotResolvable(DesignForgeError):
    """A design/resolution pair is not a resolvable Steiner system."""


class LargeSetInvalid(DesignForgeError):
    """A large set failed verification.  Carries the report as ``report``."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CopyCountMismatch(DesignForgeError):
    """A large set has the wrong number of copies for its parameters."""


class TypeMismatch(DesignForgeError):
    """A design's group type or shape does not match the requested transform."""


class NonBinaryAlphabet(DesignForgeError):
    """A check that only applies to binary alphabets was given a mixed one."""


class NotAPartition(DesignForgeError):
    """Resolution classes do not partition the design's block indices."""


class FormatError(DesignForgeError):
    """An interchange file is malformed."""


class VerificationLimitExceeded(DesignForgeError):
    """The word enumeration, or the block pairs of a distance pass, would
    exceed the configured ceiling.

    Raise the ceiling with the DESIGN_FORGE_MAX_WORDS environment variable or
    the verifier's max_words argument.
    """
