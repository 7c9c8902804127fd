"""Exception types shared across the package."""


class ScensplitError(Exception):
    """Base class for every error raised by this package."""


# --- scenario tree construction ---

class EmptyTree(ScensplitError):
    pass


class DuplicateScenario(ScensplitError):
    pass


class NonPositiveProbability(ScensplitError):
    pass


class BadProbabilityMass(ScensplitError):
    pass


class StageOutOfRange(ScensplitError):
    pass


# --- shapes and parameters ---

class ShapeMismatch(ScensplitError):
    pass


class DimensionMismatch(ScensplitError):
    pass


class NonPositiveGamma(ScensplitError):
    pass


class BadAlpha(ScensplitError):
    pass


class ConfigError(ScensplitError):
    pass


class ValidationError(ScensplitError):
    pass


# --- solver capabilities ---

class UnsupportedComposite(ScensplitError):
    pass


class NonTrivialConstraint(ScensplitError):
    pass


class NonConstantThreshold(ScensplitError):
    pass


# --- reference oracles ---

class BadGrid(ScensplitError):
    pass


class UnsupportedInstance(ScensplitError):
    pass


class TooManyFreeCoordinates(ScensplitError):
    pass


# --- problem files ---

class ParseError(ScensplitError):
    pass
