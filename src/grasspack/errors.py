"""Exception types shared across the package: one class per kind of fault.

- ``GrasspackError``: the base of every error the package raises.
- ``InvalidArgument``: a value, count, range, setting or method name a
  function rejects; also a ``ValueError``.
- ``DimensionMismatch``: shapes or sizes that must agree and do not.
- ``NotStiefel``: a codeword whose columns are not orthonormal.
- ``SizeLimit``: a request beyond a fixed capacity.
- ``ParseError``: file or command-line text that does not parse.
"""


class GrasspackError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(GrasspackError, ValueError):
    """A value, count, range, setting or method name a function rejects."""


class DimensionMismatch(InvalidArgument):
    """Shapes or sizes that must agree and do not."""


class NotStiefel(InvalidArgument):
    """A codeword whose columns are not orthonormal."""


class SizeLimit(GrasspackError):
    """A request beyond a fixed capacity."""


class ParseError(GrasspackError):
    """File or command-line text that does not parse."""
