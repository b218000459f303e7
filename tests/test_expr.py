import math

import numpy as np
import pytest

from dpencil.errors import (
    DomainError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)
from dpencil.expr import (
    BinOp,
    Call,
    Var,
    evaluate,
    evaluate_jet3,
    format_expression,
    parse_expression,
)
from dpencil.jets import Jet3
from dpencil.presets import load_preset, preset_names

from oracles import expression_fn, fd_derivatives, random_function_samples


class TestParsing:
    def test_sin_ast_shape(self):
        expr = parse_expression("sin(q)", ["q"])
        assert expr.root == Call("sin", Var("q"))
        assert expr.free_vars == frozenset({"q"})
        assert evaluate(expr, {"q": 0.0}) == 0.0

    def test_eight_curve_denominator(self):
        expr = parse_expression("4*cos(q)^4 - 3*cos(q)^2 + 1", ["q"])
        assert evaluate(expr, {"q": 0.0}) == pytest.approx(2.0, abs=1e-15)

    def test_unbalanced_paren_position(self):
        with pytest.raises(ParseError) as info:
            parse_expression("sin(", ["q"])
        assert info.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError) as info:
            parse_expression("sin(x)", ["q"])
        assert info.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse_expression("foo(q)", ["q"])

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 )", [])

    @pytest.mark.parametrize(
        "source,value",
        [
            ("2^2^3", 256.0),  # right-associative
            ("-2^2", -4.0),  # unary minus binds looser than ^
            ("2*-3", -6.0),
            ("1e-2 + .5 + 2.5e+1", 25.51),
            ("pi", math.pi),
            ("6/3/2", 1.0),  # left-associative
            ("1 - 2 - 3", -4.0),
        ],
    )
    def test_precedence_and_literals(self, source, value):
        assert evaluate(parse_expression(source, [])) == pytest.approx(value, rel=1e-15)


class TestEvaluate:
    def test_cube(self):
        assert evaluate(parse_expression("q^3", ["q"]), {"q": 2.0}) == 8.0

    def test_sqrt3_over_2(self):
        expr = parse_expression("sqrt(3)/2", [])
        assert evaluate(expr) == pytest.approx(0.8660254037844386, abs=1e-16)

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            evaluate(parse_expression("sqrt(q)", ["q"]), {"q": -1.0})

    def test_division_by_zero_names_subexpression(self):
        expr = parse_expression("1/(q - 1)", ["q"])
        with pytest.raises(DomainError) as info:
            evaluate(expr, {"q": 1.0})
        assert "q-1" in str(info.value)

    def test_ln_nonpositive(self):
        with pytest.raises(DomainError):
            evaluate(parse_expression("ln(q)", ["q"]), {"q": 0.0})

    def test_unbound_variable(self):
        with pytest.raises(UnknownVariableError):
            evaluate(parse_expression("q + 1", ["q"]), {})

    def test_overflow_is_domain_error_on_both_paths(self):
        expr = parse_expression("exp(t)", ["t"])
        with pytest.raises(DomainError) as real:
            evaluate(expr, {"t": 800.0})
        with pytest.raises(DomainError) as jet:
            evaluate_jet3(expr, "t", 800.0)
        assert real.value.where == jet.value.where == "exp(t)"

    @pytest.mark.parametrize("source, point", [
        ("q^2.5", 1e300),       # float ** overflows
        ("sin(q)", math.inf),   # math.sin raises ValueError
        ("ln(q)", 1e-120),      # 2/q^3 divides by an underflowed zero
    ])
    def test_math_errors_in_jets_are_domain_errors(self, source, point):
        with pytest.raises(DomainError):
            evaluate_jet3(parse_expression(source, ["q"]), "q", point)


class TestJets:
    def test_sine_taylor(self):
        jet = evaluate_jet3(parse_expression("sin(q)", ["q"]), "q", 0.0)
        assert jet == Jet3(0.0, 1.0, 0.0, -1.0)

    def test_monomial(self):
        jet = evaluate_jet3(parse_expression("q^3", ["q"]), "q", 2.0)
        assert jet == Jet3(8.0, 12.0, 12.0, 6.0)

    def test_exponential_fixed_point(self):
        jet = evaluate_jet3(parse_expression("exp(q)", ["q"]), "q", 1.0)
        for component in (jet.v0, jet.v1, jet.v2, jet.v3):
            assert component == pytest.approx(math.e, rel=1e-15)

    def test_constant_jet(self):
        jet = evaluate_jet3(parse_expression("sqrt(3)/2", []), "q", 5.0)
        assert jet.v1 == jet.v2 == jet.v3 == 0.0

    def test_inactive_fixed_variable(self):
        expr = parse_expression("s*t^2", ["s", "t"])
        jet = evaluate_jet3(expr, "t", 3.0, fixed={"s": 2.0})
        assert jet == Jet3(18.0, 12.0, 4.0, 0.0)

    def test_sqrt_derivative_at_zero(self):
        with pytest.raises(DomainError):
            evaluate_jet3(parse_expression("sqrt(q)", ["q"]), "q", 0.0)

    def test_abs_derivative_at_zero(self):
        with pytest.raises(DomainError):
            evaluate_jet3(parse_expression("abs(q)", ["q"]), "q", 0.0)

    def test_abs_away_from_zero(self):
        jet = evaluate_jet3(parse_expression("abs(q)", ["q"]), "q", -2.0)
        assert jet == Jet3(2.0, -1.0, 0.0, 0.0)

    def test_variable_exponent(self):
        # q^q = exp(q ln q); derivative at 1 is 1.
        jet = evaluate_jet3(parse_expression("q^q", ["q"]), "q", 1.0)
        assert jet.v0 == pytest.approx(1.0, rel=1e-14)
        assert jet.v1 == pytest.approx(1.0, rel=1e-14)

    def test_negative_base_integer_power(self):
        jet = evaluate_jet3(parse_expression("q^4", ["q"]), "q", -1.5)
        assert jet.v0 == pytest.approx((-1.5) ** 4, rel=1e-15)
        assert jet.v1 == pytest.approx(4 * (-1.5) ** 3, rel=1e-15)


class TestJetProperties:
    def test_against_finite_differences(self, rng):
        # 13 functions x 77 = 1001 random (expression, point) pairs.
        samples = random_function_samples(rng, 77)
        assert len(samples) >= 1000
        for source, x in samples:
            expr = parse_expression(source, ["x"])
            jet = evaluate_jet3(expr, "x", x)
            fd1, fd2, fd3 = fd_derivatives(expression_fn(source), x)
            for got, want in ((jet.v1, fd1), (jet.v2, fd2), (jet.v3, fd3)):
                assert abs(got - want) <= 1e-6 * max(1.0, abs(got), abs(want)), source

    def test_exact_on_cubics(self, rng):
        for _ in range(200):
            a0, a1, a2, a3 = (float(v) for v in rng.uniform(-5.0, 5.0, size=4))
            x = float(rng.uniform(-3.0, 3.0))
            source = f"{a0!r} + {a1!r}*x + {a2!r}*x^2 + {a3!r}*x^3"
            jet = evaluate_jet3(parse_expression(source, ["x"]), "x", x)
            expected = (
                a1 + 2 * a2 * x + 3 * a3 * x * x,
                2 * a2 + 6 * a3 * x,
                6 * a3,
            )
            for got, want in zip((jet.v1, jet.v2, jet.v3), expected):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_jet_division_consistency(self, rng):
        # (f/g)*g == f componentwise for random jets with g0 != 0.
        for _ in range(100):
            f = Jet3(*(float(v) for v in rng.uniform(-2, 2, size=4)))
            g = Jet3(*(float(v) for v in rng.uniform(-2, 2, size=4)))
            if abs(g.v0) < 0.1:
                continue
            h = (f / g) * g
            for got, want in zip(
                (h.v0, h.v1, h.v2, h.v3), (f.v0, f.v1, f.v2, f.v3)
            ):
                assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def _corpus():
    sources = []
    for name in preset_names():
        cfg = load_preset(name)
        curve = cfg["curve"]
        sources += [curve["x"], curve["y"], curve["z"]]
        sources += list(cfg["marching"]["explicit"].values())
    sources += [
        "-(q+1)^2*sin(q)/(3-q)",
        "q^2^3",
        "2*-3",
        "1e-3*q",
        ".5*q",
        "pi",
        "pi*q - 1/2",
        "abs(q-1) + tanh(q)",
        "exp(-q^2/2)",
        "atan(q)^3",
        "acos(q/4) + asin(q/4)",
        "sinh(q)*cosh(q)",
        "sqrt(abs(q) + 1)",
        "q/2/3",
        "q - 1 - 2",
        "-q^2",
        "(-q)^2",
        "2^(q+1)",
        "1/(1+q^2)",
        "t^2*(t - 1)",
        "s + t*s - t^2",
    ]
    return sources


class TestPrinting:
    def test_round_trip_corpus(self):
        sources = _corpus()
        assert len(sources) >= 50
        allowed = ["q", "s", "t", "x"]
        for source in sources:
            first = parse_expression(source, allowed)
            printed = format_expression(first)
            second = parse_expression(printed, allowed)
            assert first == second, f"{source!r} -> {printed!r}"

    def test_structural_nesting_parens(self):
        # Right-nested subtraction must keep its grouping through printing.
        tree = BinOp("-", Var("q"), BinOp("-", Var("q"), Var("q")))
        printed = format_expression(tree)
        assert printed == "q-(q-q)"

    def test_canonical_number_formatting(self):
        expr = parse_expression("2.0*q + 0.5", ["q"])
        assert format_expression(expr) == "2*q+0.5"
