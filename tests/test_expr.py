import copy
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpencil.errors import (
    DomainError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)
from dpencil.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Expression,
    Folded,
    Neg,
    Num,
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

    @pytest.mark.parametrize("source, position", [("sin(q", 5), ("(q+1", 4)])
    def test_expected_closing_paren(self, source, position):
        with pytest.raises(ParseError) as info:
            parse_expression(source, ["q"])
        assert str(info.value) == f"expected ')' (offset {position})"

    @pytest.mark.parametrize("source, position", [
        ("sqrt(-1e400)", 6), ("s - 1e309", 4), ("2*" + "9" * 400, 2),
    ], ids=["1e400", "1e309", "400_digits"])
    def test_overflowing_number_is_a_parse_error(self, source, position):
        with pytest.raises(ParseError, match="overflows") as info:
            parse_expression(source, ["s"])
        assert info.value.position == position

    def test_underflowing_number_is_zero(self):
        assert evaluate(parse_expression("1e-400 + s", ["s"]), {"s": 2.0}) == 2.0

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

    @pytest.mark.parametrize("source", ["q^(-1)", "q^(-0.5)"])
    def test_zero_base_with_negative_exponent(self, source):
        with pytest.raises(DomainError, match="zero base with negative exponent"):
            evaluate(parse_expression(source, ["q"]), {"q": 0.0})

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
        ("acos(q)", 1.0),       # the derivative is undefined at +/-1
        ("acos(q)", -1.0),
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


# -- constant folding ------------------------------------------------------


def unfolded(expr):
    """``expr`` with evaluation walking ``root`` as it is."""
    twin = copy.copy(expr)
    object.__setattr__(twin, "folded", expr.root)
    return twin


def outcome(f, *args):
    """What ``f(*args)`` gives: the bytes of each float, or the error."""
    try:
        result = f(*args)
    except DomainError as e:
        return type(e), str(e), e.where
    if isinstance(result, tuple):  # the array form: (jet, ok)
        jet, ok = result
        return [v.tobytes() for v in (jet.v0, jet.v1, jet.v2, jet.v3)], ok.tobytes()
    if isinstance(result, Jet3):
        return [struct.pack("d", v) for v in (result.v0, result.v1, result.v2, result.v3)]
    return struct.pack("d", result)


def assert_folding_invisible(source, points):
    expr = parse_expression(source, ["q"])
    plain = unfolded(expr)
    qs = np.array(points, dtype=float)
    assert outcome(evaluate_jet3, expr, "q", qs) == outcome(evaluate_jet3, plain, "q", qs)
    for q in points:
        assert outcome(evaluate_jet3, expr, "q", q) == outcome(evaluate_jet3, plain, "q", q)
        assert outcome(evaluate, expr, {"q": q}) == outcome(evaluate, plain, {"q": q})


def folded_leaves(node):
    if isinstance(node, Folded):
        return [node]
    return [leaf for child in vars(node).values() if isinstance(child, (BinOp, Call, Folded, Neg))
            for leaf in folded_leaves(child)]


FOLD_FUNCTIONS = ("sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh", "tanh",
                  "exp", "ln", "sqrt", "abs")


def _trees(leaves, max_leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(lambda f, a: f"{f}({a})", st.sampled_from(FOLD_FUNCTIONS), inner),
            st.builds(lambda a, op, b: f"({a}){op}({b})", inner, st.sampled_from("+-*/^"), inner),
            st.builds(lambda a: f"-({a})", inner),
        ),
        max_leaves=max_leaves,
    )


# Variable-free subtrees (some of which raise or overflow) mixed with q.
constant_trees = _trees(st.sampled_from(["0", "1", "2", "0.5", "3", "1000", "1e308", "pi"]), 4)
mixed_trees = _trees(st.one_of(st.just("q"), constant_trees), 4)


class TestFolding:
    @settings(max_examples=80, deadline=None)
    @given(source=mixed_trees, points=st.lists(st.floats(-4.0, 4.0), max_size=5))
    def test_folded_walk_matches_unfolded(self, source, points):
        assert_folding_invisible(source, points + [0.0, 1.0, -1.0, 2.5])

    @pytest.mark.parametrize("source, where", [
        ("sqrt(-1)*q", "sqrt(-1)"),
        ("q/(1-1)", "q/(1-1)"),
        ("exp(1000)+q", "exp(1000)"),
        ("ln(0)*q", "ln(0)"),
        ("1e308*10*q", None),
        ("-(2)*q", None),
        ("pi*q", None),
    ])
    def test_named_cases(self, source, where):
        assert_folding_invisible(source, [0.0, 1.0, -1.0, 2.5])
        expr = parse_expression(source, ["q"])
        if where is None:
            evaluate_jet3(expr, "q", 1.0)
        else:
            with pytest.raises(DomainError) as info:
                evaluate_jet3(expr, "q", 1.0)
            assert info.value.where == where

    def test_fold_keeps_signed_zero_derivatives(self):
        expr = parse_expression("-(2)*q", ["q"])
        assert isinstance(expr.folded.left, Folded)
        assert math.copysign(1.0, evaluate_jet3(expr, "q", 1.0).v2) == -1.0

    def test_raising_subtree_is_not_folded(self):
        # Its argument -1 is folded; sqrt(-1) itself raises at each call.
        expr = parse_expression("sqrt(-1)*q", ["q"])
        assert isinstance(expr.folded.left, Call)
        assert isinstance(expr.folded.left.arg, Folded)
        for _ in range(2):
            with pytest.raises(DomainError, match="sqrt of negative value"):
                evaluate(expr, {"q": 1.0})

    def test_largest_subtrees_only(self):
        expr = parse_expression("5/sqrt(26)*sin((1 + sqrt(26)/13)*q) + pi*q - 2", ["q"])
        assert [format_expression(f.node) for f in folded_leaves(expr.folded)] == [
            "5/sqrt(26)", "1+sqrt(26)/13"]

    def test_each_call_gets_a_fresh_jet(self):
        expr = parse_expression("2*3", [])
        first = evaluate_jet3(expr, "q", 1.0)
        first.v0 = 0.0
        assert evaluate_jet3(expr, "q", 1.0).v0 == 6.0

    @pytest.mark.parametrize("source", ["t", "t^1", "2*3", "q"])
    def test_array_fields_are_the_callers_own(self, source):
        # No point is bad, so no field is masked; still, no field is the
        # caller's array (or a shared folded jet), and each has shape (n,).
        expr = parse_expression(source, ["q", "t"])
        points, zero = np.array([0.5, 1.0, 2.0]), np.zeros(3)
        t_fixed = Jet3(np.array([3.0, 4.0, 5.0]), zero, zero, zero)
        jet, ok = evaluate_jet3(expr, "q", points, fixed={"t": t_fixed})
        assert ok.all()
        fields = (jet.v0, jet.v1, jet.v2, jet.v3)
        assert all(isinstance(v, np.ndarray) and v.shape == (3,) for v in fields)
        for v in fields:
            v[:] = -7.0
        assert t_fixed.v0.tolist() == [3.0, 4.0, 5.0]
        assert zero.tolist() == [0.0] * 3 and points.tolist() == [0.5, 1.0, 2.0]
        again, _ = evaluate_jet3(expr, "q", points, fixed={"t": t_fixed})
        assert -7.0 not in again.v0

    def test_printing_and_equality_ignore_folding(self):
        source = "5/sqrt(26)*sin((1 + sqrt(26)/13)*q)"
        expr = parse_expression(source, ["q"])
        assert expr.folded != expr.root
        assert format_expression(expr) == format_expression(expr.root)
        built = Expression(root=expr.root, free_vars=expr.free_vars)
        assert built == expr and hash(built) == hash(expr)
        assert "Folded" not in repr(expr)
        assert parse_expression(format_expression(expr), ["q"]) == expr

    def test_built_expressions_are_folded(self):
        expr = Expression(root=BinOp("*", BinOp("/", Num(1.0), Num(4.0)), Var("t")),
                          free_vars=frozenset({"t"}))
        assert isinstance(expr.folded.left, Folded)
        assert evaluate(expr, {"t": 2.0}) == 0.5


def assert_one_rule(source, points):
    """Wherever the jet of ``source`` is defined, ``evaluate`` gives its
    value, and the array forms (the jet, and the constant jet that grid
    curve points use) give the scalar forms' bytes."""
    expr = parse_expression(source, ["q"])
    qs = np.array(points, dtype=float)
    jets, jets_ok = evaluate_jet3(expr, "q", qs)
    zero = np.zeros(qs.size)
    values, values_ok = evaluate_jet3(expr, None, qs, {"q": Jet3(qs, zero, zero, zero)})
    for i, q in enumerate(points):
        jet = outcome(evaluate_jet3, expr, "q", q)
        value = outcome(evaluate, expr, {"q": q})
        assert jets_ok[i] == isinstance(jet, list)
        assert values_ok[i] == isinstance(value, bytes)
        if jets_ok[i]:
            assert [v[i].tobytes() for v in (jets.v0, jets.v1, jets.v2, jets.v3)] == jet
            assert value == jet[0]
        if values_ok[i]:
            assert values.v0[i].tobytes() == value


class TestOneRule:
    @settings(max_examples=150, deadline=None)
    @given(source=mixed_trees, points=st.lists(st.floats(-4.0, 4.0), max_size=5))
    def test_evaluators_agree(self, source, points):
        assert_one_rule(source, points + [0.0, 0.125, 1.0, -1.0, 2.5, 3.0])

    @pytest.mark.parametrize("source, q", [
        ("q^3", 0.09457299760205373),  # math.pow rounds this one ulp apart
        ("q^q", 0.125),  # so does exp(q*ln(q))
        ("(q+0.1)^q", 4.0),  # a varying exponent at an integer multiplies
        ("q^((-q)^q)", -256.0),  # 256^-256 underflows to a constant 0
        ("sin(q^0)", 2.0),  # the array base^0 is the scalar jet 1
        ("tan(q)", math.pi / 2),  # tan maps math.tan over the points
        ("tan(q*q)", 1e200),
        ("tan(q)", -math.inf),  # math.tan raises: a bad point
        ("tan(q)", math.nan),
    ])
    def test_named_cases(self, source, q):
        assert_one_rule(source, [q])

    @pytest.mark.parametrize("source", ["sqrt(1/(q*1e308*10))", "sqrt(1/(q*1e308/0.1))"])
    def test_overflowed_constants_stay_constant(self, source):
        # A product or quotient of constant jets stays constant: inf * 0
        # would give its derivatives NaN and the sqrt rule would raise.
        assert evaluate(parse_expression(source, ["q"]), {"q": 2.0}) == 0.0
        assert_one_rule(source, [2.0, -2.0, 1e-300])

    def test_integer_power_overflows_like_a_product(self):
        assert_one_rule("exp(q)^2", [360.0])
        expr = parse_expression("exp(q)^2", ["q"])
        at, zero = np.array([360.0]), np.zeros(1)
        assert evaluate(expr, {"q": 360.0}) == math.inf
        assert evaluate_jet3(expr, "q", 360.0).v0 == math.inf
        assert evaluate_jet3(expr, None, at, {"q": Jet3(at, zero, zero, zero)})[0].v0[0] == math.inf


def tree_depth(node):
    if isinstance(node, BinOp):
        return 1 + max(tree_depth(node.left), tree_depth(node.right))
    if isinstance(node, Call):
        return 1 + tree_depth(node.arg)
    if isinstance(node, Neg):
        return 1 + tree_depth(node.operand)
    return 1


class TestDepthLimit:
    # (source at the limit, one level deeper): operators and calls.
    CHAINS = {
        "power": (lambda n: "^".join(["q"] * n), MAX_DEPTH),
        "sum": (lambda n: "+".join(["cos(q)"] * n), MAX_DEPTH - 1),
        "product": (lambda n: "*".join(["2"] * n) + "*q", MAX_DEPTH - 1),
        "negation": (lambda n: "-(" * n + "q" + ")" * n, MAX_DEPTH - 1),
        "calls": (lambda n: "sin(" * n + "q" + ")" * n, MAX_DEPTH - 1),
    }

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_limit_is_exact(self, name):
        make, n = self.CHAINS[name]
        expr = parse_expression(make(n), ["q"])
        assert tree_depth(expr.root) == MAX_DEPTH
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}"):
            parse_expression(make(n + 1), ["q"])

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_at_the_limit_evaluates_and_prints(self, name):
        make, n = self.CHAINS[name]
        expr = parse_expression(make(n), ["q"])
        assert parse_expression(format_expression(expr), ["q"]) == expr
        assert_folding_invisible(make(n), [0.5, 0.75])

    def test_parentheses(self):
        source = "(" * MAX_DEPTH + "q" + ")" * MAX_DEPTH
        assert parse_expression(source, ["q"]).root == Var("q")
        with pytest.raises(ParseError, match="parentheses nested deeper") as info:
            parse_expression("(" + source + ")", ["q"])
        assert info.value.position == MAX_DEPTH

    @pytest.mark.parametrize("source", ["é", "q²", "2*q³"])
    def test_non_ascii_is_a_parse_error(self, source):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_expression(source, ["q"])
