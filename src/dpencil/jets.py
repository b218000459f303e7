"""Third-order jets: a value together with its first three derivatives.

A :class:`Jet3` is truncated Taylor arithmetic (Griewank & Walther,
*Evaluating Derivatives*, ch. 13): arithmetic and the supported analytic
functions propagate derivatives exactly (Leibniz / Faa di Bruno rules
truncated at order 3), which is as far as the curvature and torsion
formulas need.  A constant jet carries a plain real value, so the same
arithmetic also serves real-valued evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(slots=True)
class Jet3:
    v0: float
    v1: float = 0.0
    v2: float = 0.0
    v3: float = 0.0

    @staticmethod
    def constant(value: float) -> "Jet3":
        return Jet3(float(value))

    @staticmethod
    def variable(point: float) -> "Jet3":
        """Jet of the identity function at ``point``."""
        return Jet3(float(point), 1.0)

    def is_constant(self) -> bool:
        return self.v1 == 0.0 and self.v2 == 0.0 and self.v3 == 0.0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Jet3(self.v0 + o.v0, self.v1 + o.v1, self.v2 + o.v2, self.v3 + o.v3)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Jet3(self.v0 - o.v0, self.v1 - o.v1, self.v2 - o.v2, self.v3 - o.v3)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Jet3(-self.v0, -self.v1, -self.v2, -self.v3)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self.v0, self.v1, self.v2, self.v3
        b0, b1, b2, b3 = o.v0, o.v1, o.v2, o.v3
        return Jet3(
            a0 * b0,
            a1 * b0 + a0 * b1,
            a2 * b0 + 2.0 * a1 * b1 + a0 * b2,
            a3 * b0 + 3.0 * a2 * b1 + 3.0 * a1 * b2 + a0 * b3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if o.v0 == 0.0:
            raise DomainError("division by zero")
        a0, a1, a2, a3 = self.v0, self.v1, self.v2, self.v3
        b0, b1, b2, b3 = o.v0, o.v1, o.v2, o.v3
        h0 = a0 / b0
        h1 = (a1 - h0 * b1) / b0
        h2 = (a2 - h0 * b2 - 2.0 * h1 * b1) / b0
        h3 = (a3 - h0 * b3 - 3.0 * h1 * b2 - 3.0 * h2 * b1) / b0
        return Jet3(h0, h1, h2, h3)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return jet_pow(self, o)


def _coerce(x) -> Jet3 | None:
    if isinstance(x, Jet3):
        return x
    if isinstance(x, (int, float)):
        return Jet3(float(x))
    return None


def _compose(f0: float, f1: float, f2: float, f3: float, u: Jet3) -> Jet3:
    """Chain rule for an outer univariate function with derivatives f0..f3 at u.v0."""
    u1, u2, u3 = u.v1, u.v2, u.v3
    return Jet3(
        f0,
        f1 * u1,
        f2 * u1 * u1 + f1 * u2,
        f3 * u1 * u1 * u1 + 3.0 * f2 * u1 * u2 + f1 * u3,
    )



def _real_pow(x: float, y: float) -> float:
    """x^y for real x and y, with the domain checks of the real power."""
    if x == 0.0 and y < 0.0:
        raise DomainError("zero base with negative exponent")
    if x < 0.0 and not float(y).is_integer():
        raise DomainError("negative base with non-integer exponent")
    return math.pow(x, y)


def jet_pow(base: Jet3, expo: Jet3) -> Jet3:
    if expo.is_constant():
        p = expo.v0
        if base.is_constant():
            return Jet3(_real_pow(base.v0, p))
        if float(p).is_integer() and abs(p) <= 512:
            n = int(p)
            if n >= 0:
                return _powi(base, n)
            if base.v0 == 0.0:
                raise DomainError("zero base with negative exponent")
            return Jet3(1.0) / _powi(base, -n)
        if base.v0 < 0.0:
            raise DomainError("negative base with non-integer exponent")
        if base.v0 == 0.0:
            raise DomainError("derivative of 0^p undefined")
        x = base.v0
        return _compose(
            x**p,
            p * x ** (p - 1.0),
            p * (p - 1.0) * x ** (p - 2.0),
            p * (p - 1.0) * (p - 2.0) * x ** (p - 3.0),
            base,
        )
    if base.v0 <= 0.0:
        raise DomainError("variable exponent requires a positive base")
    return apply_function("exp", expo * apply_function("ln", base))


def _powi(b: Jet3, n: int) -> Jet3:
    result = Jet3(1.0)
    acc = b
    while n:
        if n & 1:
            result = result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return result


# -- supported functions ----------------------------------------------------
#
# FUNCTIONS maps each name to (value, derivatives).  value(x) is f(x) and
# raises DomainError outside the domain of f; derivatives(x, fx) returns the
# first three derivatives of f at x and raises where f is defined but not
# differentiable.


def _asin(x: float) -> float:
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"asin argument {x!r} outside [-1, 1]")
    return math.asin(x)


def _d_asin(x: float, fx: float):
    if x * x >= 1.0:
        raise DomainError("asin derivative undefined at +/-1")
    r = 1.0 - x * x
    return r**-0.5, x * r**-1.5, (1.0 + 2.0 * x * x) * r**-2.5


def _acos(x: float) -> float:
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"acos argument {x!r} outside [-1, 1]")
    return math.acos(x)


def _d_acos(x: float, fx: float):
    if x * x >= 1.0:
        raise DomainError("acos derivative undefined at +/-1")
    r = 1.0 - x * x
    return -(r**-0.5), -x * r**-1.5, -(1.0 + 2.0 * x * x) * r**-2.5


def _ln(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"ln of non-positive value {x!r}")
    return math.log(x)


def _d_ln(x: float, fx: float):
    return 1.0 / x, -1.0 / (x * x), 2.0 / (x * x * x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def _d_sqrt(x: float, r: float):
    if x == 0.0:
        raise DomainError("derivative of sqrt undefined at 0")
    return 0.5 / r, -0.25 / (x * r), 0.375 / (x * x * r)


def _d_abs(x: float, fx: float):
    if x == 0.0:
        # A subgradient convention here would silently corrupt curvature and
        # torsion, so it is an error instead.
        raise DomainError("derivative of abs undefined at 0")
    return (1.0 if x > 0.0 else -1.0), 0.0, 0.0


def _d_sin(x: float, s: float):
    c = math.cos(x)
    return c, -s, -c


def _d_cos(x: float, c: float):
    s = math.sin(x)
    return -s, -c, s


def _d_tan(x: float, t: float):
    d = 1.0 + t * t
    return d, 2.0 * t * d, d * (2.0 + 6.0 * t * t)


def _d_atan(x: float, fx: float):
    d = 1.0 + x * x
    return 1.0 / d, -2.0 * x / (d * d), (6.0 * x * x - 2.0) / (d * d * d)


def _d_sinh(x: float, s: float):
    c = math.cosh(x)
    return c, s, c


def _d_cosh(x: float, c: float):
    s = math.sinh(x)
    return s, c, s


def _d_tanh(x: float, t: float):
    d = 1.0 - t * t
    return d, -2.0 * t * d, d * (6.0 * t * t - 2.0)


def _d_exp(x: float, e: float):
    return e, e, e


FUNCTIONS = {
    "sin": (math.sin, _d_sin),
    "cos": (math.cos, _d_cos),
    "tan": (math.tan, _d_tan),
    "asin": (_asin, _d_asin),
    "acos": (_acos, _d_acos),
    "atan": (math.atan, _d_atan),
    "sinh": (math.sinh, _d_sinh),
    "cosh": (math.cosh, _d_cosh),
    "tanh": (math.tanh, _d_tanh),
    "exp": (math.exp, _d_exp),
    "ln": (_ln, _d_ln),
    "sqrt": (_sqrt, _d_sqrt),
    "abs": (abs, _d_abs),
}


def apply_function(name: str, u: Jet3) -> Jet3:
    """Jet of ``name`` composed with ``u``; a constant ``u`` needs only the value."""
    value, derivatives = FUNCTIONS[name]
    x = u.v0
    fx = value(x)
    if u.v1 == 0.0 and u.v2 == 0.0 and u.v3 == 0.0:
        return Jet3(fx)
    f1, f2, f3 = derivatives(x, fx)
    return _compose(fx, f1, f2, f3, u)
