"""Third-order jets: a value together with its first three derivatives.

A :class:`Jet3` is truncated Taylor arithmetic (Griewank & Walther,
*Evaluating Derivatives*, ch. 13): arithmetic and the supported analytic
functions propagate derivatives exactly (Leibniz / Faa di Bruno rules
truncated at order 3), which is as far as the curvature and torsion
formulas need.  A constant jet carries a plain real value, so the same
arithmetic also serves real-valued evaluation.

The fields may also be NumPy arrays over a vector of parameters: the
operators are elementwise, and :class:`ArrayRules` supplies the division,
power and function rules that would raise per point.  Instead of raising
they record the point in a mask, and every other point gets the bits the
scalar rule gives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Raised by float arithmetic and the math module on overflow, out-of-domain
# arguments (sin(inf)) or division by an underflowed zero.
MATH_ERRORS = (OverflowError, ValueError, ZeroDivisionError)
_FAILURES = (DomainError,) + MATH_ERRORS


@dataclass(slots=True)
class Jet3:
    v0: float
    v1: float = 0.0
    v2: float = 0.0
    v3: float = 0.0

    @staticmethod
    def variable(point: float) -> "Jet3":
        """Jet of the identity function at ``point``."""
        return Jet3(float(point), 1.0)

    def is_constant(self) -> bool:
        return self.v1 == 0.0 and self.v2 == 0.0 and self.v3 == 0.0

    # -- arithmetic: both operands are jets ---------------------------------

    def __add__(self, o: "Jet3") -> "Jet3":
        return Jet3(self.v0 + o.v0, self.v1 + o.v1, self.v2 + o.v2, self.v3 + o.v3)

    def __sub__(self, o: "Jet3") -> "Jet3":
        return Jet3(self.v0 - o.v0, self.v1 - o.v1, self.v2 - o.v2, self.v3 - o.v3)

    def __neg__(self):
        return Jet3(-self.v0, -self.v1, -self.v2, -self.v3)

    def __mul__(self, o: "Jet3") -> "Jet3":
        a0, a1, a2, a3 = self.v0, self.v1, self.v2, self.v3
        b0, b1, b2, b3 = o.v0, o.v1, o.v2, o.v3
        return Jet3(
            a0 * b0,
            a1 * b0 + a0 * b1,
            a2 * b0 + 2.0 * a1 * b1 + a0 * b2,
            a3 * b0 + 3.0 * a2 * b1 + 3.0 * a1 * b2 + a0 * b3,
        )

    def __truediv__(self, o: "Jet3") -> "Jet3":
        if o.v0 == 0.0:
            raise DomainError("division by zero")
        return _quotient(self, o)


def _quotient(a: Jet3, b: Jet3) -> Jet3:
    b0, b1, b2 = b.v0, b.v1, b.v2
    h0 = a.v0 / b0
    h1 = (a.v1 - h0 * b1) / b0
    h2 = (a.v2 - h0 * b2 - 2.0 * h1 * b1) / b0
    h3 = (a.v3 - h0 * b.v3 - 3.0 * h1 * b2 - 3.0 * h2 * b1) / b0
    return Jet3(h0, h1, h2, h3)


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
    """``base ^ expo``: repeated multiplication for an integer exponent
    (|p| <= 512), which overflows to ``inf`` like a product; otherwise the
    real power, which raises."""
    if expo.is_constant():
        p = expo.v0
        if float(p).is_integer() and abs(p) <= 512:
            n = int(p)
            if n < 0 and base.v0 == 0.0:
                raise DomainError("zero base with negative exponent")
            power = _powi(base, abs(n))
            if n < 0:
                power = Jet3(1.0) / power
            # A constant stays constant where its power overflows and the
            # products give NaN derivatives (inf * 0).
            return Jet3(power.v0) if base.is_constant() else power
        if base.is_constant():
            return Jet3(_real_pow(base.v0, p))
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
    # exp(expo * ln(base)), with the value of the constant rule above so that
    # real evaluation agrees bit for bit; every derivative of exp is its value.
    v = jet_pow(Jet3(base.v0), Jet3(expo.v0)).v0
    return _compose(v, v, v, v, expo * apply_function("ln", base))


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


class ScalarRules:
    """Variable, division, power and function rules of the scalar walk;
    they raise."""

    variable = staticmethod(Jet3.variable)
    div = staticmethod(operator.truediv)
    pow = staticmethod(jet_pow)
    call = staticmethod(apply_function)


# NumPy kernels for the functions whose ufuncs round like ``math``:
# (value, points where the math function raises, derivatives plus the points
# where they are undefined).  Every other function is applied per point.

def _d_sin_array(x, s):
    c = np.cos(x)
    return c, -s, -c, False


def _d_cos_array(x, c):
    s = np.sin(x)
    return -s, -c, s, False


def _d_sqrt_array(x, r):
    # Python raises on the division once x * x * r underflows to zero.
    return 0.5 / r, -0.25 / (x * r), 0.375 / (x * x * r), x * x * r == 0.0


_ARRAY_FUNCTIONS = {
    "sin": (np.sin, np.isinf, _d_sin_array),
    "cos": (np.cos, np.isinf, _d_cos_array),
    "sqrt": (np.sqrt, lambda x: x < 0.0, _d_sqrt_array),
}


def _is_array(j: Jet3) -> bool:
    return isinstance(j.v0, np.ndarray)


def _constant(j: Jet3) -> np.ndarray:
    return (j.v1 == 0.0) & (j.v2 == 0.0) & (j.v3 == 0.0)


class ArrayRules:
    """The rules of :class:`ScalarRules` over ``n`` points at once.

    A jet is either scalar (float fields, constant in the points) or has
    arrays of shape ``(n,)`` in every field.  Where the scalar rule would
    raise, the point is set in ``bad`` and its entries are unspecified.
    Integer powers (|p| <= 512) and the functions in ``_ARRAY_FUNCTIONS``
    are computed on the arrays, with zero derivatives where the base or
    argument is constant, as in the scalar rule.  Every other power or
    function goes through the scalar rule point by point.
    """

    def __init__(self, n: int):
        self.bad = np.zeros(n, dtype=bool)

    @staticmethod
    def variable(points: np.ndarray) -> Jet3:
        return Jet3(points, np.ones_like(points), np.zeros_like(points), np.zeros_like(points))

    def div(self, a: Jet3, b: Jet3) -> Jet3:
        if not (_is_array(a) or _is_array(b)):
            return self._scalar(operator.truediv, a, b)
        self.bad |= b.v0 == 0.0
        return _quotient(a, b)

    def pow(self, base: Jet3, expo: Jet3) -> Jet3:
        if not (_is_array(base) or _is_array(expo)):
            return self._scalar(jet_pow, base, expo)
        p = expo.v0
        if _is_array(expo) or not expo.is_constant() or not (
                float(p).is_integer() and abs(p) <= 512):
            return self._each(Jet3(0.0), np.ones_like(self.bad), jet_pow, base, expo)
        n = int(p)
        j = _powi(base, abs(n))
        if n < 0:
            # jet_pow's division raises where the power is zero: at a zero
            # base, or where the power underflows.
            self.bad |= j.v0 == 0.0
            j = _quotient(Jet3(1.0), j)
        if not _is_array(j):  # base^0 is the scalar jet 1
            return j
        return Jet3(j.v0, *(np.where(_constant(base), 0.0, v) for v in (j.v1, j.v2, j.v3)))

    def call(self, name: str, u: Jet3) -> Jet3:
        if not _is_array(u):
            return self._scalar(apply_function, name, u)
        kernel = _ARRAY_FUNCTIONS.get(name)
        if kernel is None:
            return self._each(Jet3(0.0), np.ones_like(self.bad), apply_function, name, u)
        value, undefined, derivatives = kernel
        x = u.v0
        fx = value(x)
        f1, f2, f3, no_derivative = derivatives(x, fx)
        constant = _constant(u)
        self.bad |= undefined(x) | (no_derivative & ~constant)
        j = _compose(fx, f1, f2, f3, u)
        return Jet3(fx, *(np.where(constant, 0.0, v) for v in (j.v1, j.v2, j.v3)))

    def _scalar(self, rule, *args) -> Jet3:
        try:
            return rule(*args)
        except _FAILURES:
            self.bad[:] = True
            return Jet3(math.nan)

    def _fields(self, j: Jet3) -> list[np.ndarray]:
        """Writable copies of the fields of ``j``, each of shape ``(n,)``."""
        return [np.array(np.broadcast_to(v, self.bad.size)) for v in (j.v0, j.v1, j.v2, j.v3)]

    def _each(self, result: Jet3, points: np.ndarray, rule, *args) -> Jet3:
        """``result`` with the entries at ``points`` from the scalar ``rule``."""
        index = np.flatnonzero(points)
        if index.size == 0:
            return result
        out = self._fields(result)
        for i in index.tolist():
            at = [Jet3(*(float(v[i]) for v in (a.v0, a.v1, a.v2, a.v3)))
                  if isinstance(a, Jet3) and _is_array(a) else a for a in args]
            try:
                j = rule(*at)
            except _FAILURES:
                self.bad[i] = True
                continue
            for field, v in zip(out, (j.v0, j.v1, j.v2, j.v3)):
                field[i] = v
        return Jet3(*out)
