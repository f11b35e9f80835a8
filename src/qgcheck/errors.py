"""Error types shared across the workbench."""

from __future__ import annotations


class QGError(Exception):
    """Base class for all workbench errors."""


class LegMismatch(QGError):
    """Tensor-leg signatures do not line up for the attempted operation."""

    def __init__(self, message: str, left=None, right=None):
        super().__init__(message)
        self.left = left
        self.right = right


class SingularMap(QGError):
    """An exact map expected to be invertible has a nontrivial kernel."""

    def __init__(self, message: str, kernel=None):
        super().__init__(message)
        self.kernel = kernel or []


class ModelError(QGError):
    """A model violates a structural requirement (not a numeric check)."""


class CheckFailure(QGError):
    """A verification law failed; carries the worst witness found."""

    def __init__(self, message: str, residual: float | None = None, witness: str | None = None):
        super().__init__(message)
        self.residual = residual
        self.witness = witness


class TierRefusal(QGError):
    """The analytic layer refused to run (non-positive integral, mu != 1, ...)."""


class ParseError(QGError):
    """A model, table or morphism file could not be read."""


# Exceptions that mean the input cannot be used; the CLI exits 2 on them,
# and a check lets them through instead of recording them.
INPUT_ERRORS = (ParseError, ModelError, SingularMap, TierRefusal, OSError)


def internal_error_text(exc: BaseException) -> str:
    """One-line description of an exception no other rule covers."""
    detail = " ".join(str(exc).split())
    return f"internal error: {type(exc).__name__}: {detail}"
