"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: I/O problems exit 2, file
format problems exit 3, configuration contradictions exit 4.
"""


class EigenlinkError(Exception):
    """Base class for all package-specific errors."""


class FormatError(EigenlinkError):
    """A file does not conform to its documented format."""


class IntegrityError(EigenlinkError):
    """Input data violates a structural invariant (e.g. duplicate qid)."""


class ConfigError(EigenlinkError):
    """A configuration value is invalid or contradictory."""


class DataError(EigenlinkError):
    """Numerical input is unusable (non-finite entries, negative weights)."""


class DimensionError(EigenlinkError):
    """Operands have incompatible shapes."""


class NumericalError(EigenlinkError):
    """A LAPACK decomposition (the Gram matrix's eigendecomposition) failed."""


class EmptyDocumentError(EigenlinkError):
    """A document yields no usable candidate rows."""
