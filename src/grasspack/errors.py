"""Exception types shared across the package."""


class GrasspackError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(GrasspackError, ValueError):
    """An argument value or shape a function rejects; also a ValueError for callers that catch one."""


# linear algebra layer
class NotSkewHermitian(GrasspackError):
    pass


# Grassmann geometry
class DimensionMismatch(GrasspackError):
    pass


class NotStiefel(GrasspackError):
    pass


class TooFewCodewords(GrasspackError):
    pass


# sparsity patterns
class InvalidRange(GrasspackError):
    pass


class SizeLimit(GrasspackError):
    pass


class InvalidM(GrasspackError):
    pass


class ShapeMismatch(GrasspackError):
    pass


# codebook construction
class InvalidConfig(GrasspackError):
    pass


class AlphabetExhausted(GrasspackError):
    pass


class ParseError(GrasspackError):
    pass


# link simulation
class InvalidK(GrasspackError):
    pass


# waveform simulation
class InvalidEll(GrasspackError):
    pass


# complexity audit
class InvalidForMethod(GrasspackError):
    pass


class InstrumentationDisabled(GrasspackError):
    pass
