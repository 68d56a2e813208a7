"""Exception hierarchy shared by every qmod module.

Three failure flavors are kept apart on purpose: bad inputs (DomainError),
bad run configuration such as a composite or too-small prime
(ConfigurationError), and seeded draws that proved degenerate, reported
for the seed that drew them (GenericityError).  InternalCheckError marks
conditions that can only arise from a bug in qmod itself; callers should
never catch it.
"""

from __future__ import annotations


class QmodError(Exception):
    """Base class for all qmod errors."""


class DomainError(QmodError, ValueError):
    """Input outside an operation's documented domain."""


class FieldMismatchError(DomainError):
    """Scalars from different fields mixed in one container."""


class ZeroPolynomialError(DomainError):
    """Identically-zero polynomial where a nonzero one is required.

    Callers that can tolerate the degenerate case catch this and treat
    the input as degenerate instead of propagating.
    """


class ConfigurationError(QmodError):
    """Unusable run configuration (composite prime, prime below a bound)."""


class GenericityError(QmodError):
    """A seeded draw failed a genericity check.

    Carries the seeds whose draws failed and optional diagnostic data so
    reports can list them verbatim.
    """

    def __init__(self, message: str, seeds_tried: list[int] | None = None, data: dict | None = None):
        super().__init__(message)
        self.seeds_tried = list(seeds_tried or [])
        self.data = dict(data or {})


class InternalCheckError(QmodError):
    """An internal consistency assertion failed; indicates a qmod bug."""
