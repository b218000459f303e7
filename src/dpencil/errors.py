"""Exception types shared across the package.

The errors of a parameter without a Frenet frame carry ``reason``, the name
under which samples and grid vertices report them."""

from __future__ import annotations


class ExpressionError(Exception):
    """Base class for expression parsing and evaluation failures."""


class ParseError(ExpressionError):
    """Source text does not match the expression grammar.

    ``position`` is the 0-based byte offset of the offending token.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (offset {position})"
        super().__init__(message)


class UnknownVariableError(ParseError):
    def __init__(self, name: str, position: int | None = None):
        self.name = name
        super().__init__(f"unknown variable {name!r}", position)


class UnknownFunctionError(ParseError):
    def __init__(self, name: str, position: int | None = None):
        self.name = name
        super().__init__(f"unknown function {name!r}", position)


class DomainError(ExpressionError):
    """Numeric domain violation (sqrt of a negative, division by zero, ...).

    ``where`` names the offending subexpression once known; the evaluator
    attaches it at the innermost enclosing node.
    """

    reason = "domain"

    def __init__(self, message: str, where: str | None = None):
        self.message = message
        self.where = where
        super().__init__(message)

    def __str__(self) -> str:
        if self.where:
            return f"{self.message} in {self.where!r}"
        return self.message


class NonFiniteCurveError(DomainError):
    """Curve derivatives, or the speed, curvature or torsion built from them,
    overflowed or are NaN at a parameter: no Frenet apparatus exists there."""

    reason = "non_finite"

    def __init__(self, param: float):
        self.param = param
        super().__init__(f"non-finite curve derivatives or curvature at parameter {param!r}")


class GeometryError(Exception):
    """Base class for geometric failures along a curve or surface."""


class IrregularCurveError(GeometryError):
    """Curve speed fell below the regularity threshold."""

    reason = "irregular"

    def __init__(self, param: float, speed: float):
        self.param = param
        self.speed = speed
        super().__init__(f"curve irregular at parameter {param!r}: speed {speed:.3e}")


class InflectionPointError(GeometryError):
    """Curvature too small for the Frenet frame to be defined."""

    reason = "inflection"

    def __init__(self, param: float, kappa: float):
        self.param = param
        self.kappa = kappa
        super().__init__(
            f"Frenet frame undefined at parameter {param!r}: curvature {kappa:.3e}"
        )


class InfeasibleConstantError(GeometryError):
    """Target constant violates c^2 (kappa^2 + tau^2) <= kappa^2 on the domain."""

    def __init__(self, c: float, param: float | None = None, radicand: float | None = None):
        self.c = c
        self.param = param
        self.radicand = radicand
        msg = f"target constant {c!r} infeasible"
        if param is not None:
            msg += f" at parameter {param!r} (radicand {radicand:.3e})"
        super().__init__(msg)


class NotEnoughSamplesError(GeometryError):
    """Too few usable samples to produce a result."""


class InvalidCurveError(GeometryError):
    """Curve specification violates its own declared invariants."""


class InvalidMarchingScaleError(GeometryError):
    """Marching-scale functions do not vanish on the t = t0 parameter line."""


class SceneValidationError(Exception):
    """Scene configuration is malformed or incomplete."""
