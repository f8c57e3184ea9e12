"""DSL parser and ring-generic evaluator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.errors import ConfigError, EvalError, ParseError
from finslerlab.expr import Binary, Hoisted, Literal, Unary, evaluate, hoist, parse

from jet_oracle import mixed_partial


def test_sum_of_squares():
    tree = parse("y1^2 + y2^2", 2)
    assert evaluate(tree, [0.0, 0.0], [3.0, 4.0]) == 25.0


def test_randers_style_line():
    tree = parse("sqrt(y1^2 + y2^2) + b*y1", 2, parameter_names={"b"})
    got = evaluate(tree, [0.0, 0.0], [1.0, 0.0], {"b": 0.5})
    assert got == 1.5


def test_unbalanced_parenthesis_position():
    src = "y1 + (y2"
    with pytest.raises(ParseError) as err:
        parse(src, 2)
    assert err.value.position == len(src)
    assert ")" in err.value.expected


def test_literal_evaluates_in_any_ring():
    tree = parse("7", 1)
    assert evaluate(tree, [0.0], [0.0]) == 7.0
    d = mixed_partial(lambda x, y: evaluate(tree, x, y) + 0.0 * y[0], [0.0], [1.0], [("y", 0)])
    assert d == 0.0


def test_jet_mixed_partial_through_tree():
    tree = parse("x1*y2", 2)
    f = lambda x, y: evaluate(tree, x, y)
    d = mixed_partial(f, [0.2, 0.4], [1.0, 2.0], [("x", 0), ("y", 1)])
    assert d == 1.0


def test_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("y1 + bogus", 2)
    assert err.value.position == 5


def test_variable_index_out_of_range():
    with pytest.raises(ParseError):
        parse("y3", 2)


def test_zero_index_is_not_a_variable():
    with pytest.raises(ParseError):
        parse("y0", 2)


def test_empty_source():
    with pytest.raises(ParseError):
        parse("   ", 2)


def test_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse("y1 y2", 2)
    assert err.value.position == 3


def test_unrecognized_character():
    with pytest.raises(ParseError) as err:
        parse("y1 + #", 2)
    assert err.value.position == 5


def test_exponent_must_be_literal_rational():
    with pytest.raises(ParseError) as err:
        parse("y1^y2", 2)
    assert "literal rational" in str(err.value)


@pytest.mark.parametrize(
    "src, position",
    [("y1^1e400", 3), ("(y1^2 + y2^2)^(1e400)", 15), ("y1^(-1e400)", 4),
     ("y1^(1e300/1e-300)", 9)],
)
def test_exponent_must_be_finite(src, position):
    # 1e400 reads as inf: a ParseError at the exponent (its folded node),
    # not an OverflowError when the power is evaluated
    with pytest.raises(ParseError, match="not finite") as err:
        parse(src, 2)
    assert err.value.position == position


def test_exponent_forms():
    assert parse("y1^2", 1).right == Literal(2.0)
    assert parse("y1^-2", 1).right == Literal(-2.0)
    assert parse("y1^(1/2)", 1).right == Literal(0.5)
    assert parse("y1^(-(3/4))", 1).right == Literal(-0.75)


def test_unary_minus_binds_below_pow():
    tree = parse("-y1^2", 1)
    assert isinstance(tree, Unary) and tree.op == "neg"
    assert evaluate(tree, [0.0], [3.0]) == -9.0


def test_precedence_mul_over_add():
    tree = parse("1 + 2*3", 1)
    assert evaluate(tree, [0.0], [0.0]) == 7.0


def test_subtraction_left_associative():
    assert evaluate(parse("10 - 4 - 3", 1), [0.0], [0.0]) == 3.0


def test_parameter_cannot_shadow_variable_or_function():
    with pytest.raises(ConfigError, match="collides"):
        parse("x1", 2, parameter_names={"x1"})
    with pytest.raises(ConfigError, match="collides"):
        parse("exp", 2, parameter_names={"exp"})


def test_unbound_parameter_reports_position():
    tree = parse("2*lam", 1, parameter_names={"lam"})
    with pytest.raises(EvalError) as err:
        evaluate(tree, [0.0], [0.0], {})
    assert err.value.position == 2


def test_domain_error_carries_position():
    tree = parse("y1 + ln(x1)", 1)
    with pytest.raises(EvalError) as err:
        evaluate(tree, [-1.0], [1.0])
    assert err.value.position == 5


def test_division_by_zero_carries_position():
    tree = parse("1/x1", 1)
    with pytest.raises(EvalError):
        evaluate(tree, [0.0], [1.0])


def test_fractional_power():
    tree = parse("(y1^4 + y2^4)^0.25", 2)
    got = evaluate(tree, [0.0, 0.0], [2.0, 0.0])
    assert got == pytest.approx(2.0, rel=1e-14)


def test_function_requires_parentheses():
    with pytest.raises(ParseError):
        parse("sqrt y1", 1)


@given(
    a=st.floats(min_value=-2.0, max_value=2.0),
    b=st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_float_and_jet_values_bit_identical(a, b):
    tree = parse("sqrt(x1^2 + y1^2 + 1) * exp(0.25*y1) + (x1 + 3)^(-(1/2))", 1)
    plain = evaluate(tree, [a], [b])
    f = lambda x, y: evaluate(tree, x, y)
    # evaluate through a level-2 tower and compare value parts
    from jet_oracle import seed_direction

    xj = seed_direction([a], 0, 0)
    yj = seed_direction([b], None, 0)
    xj = seed_direction(xj, None, 1)
    yj = seed_direction(yj, 0, 1)
    assert f(xj, yj).value() == plain


def test_evaluate_matches_math_by_hand():
    tree = parse("exp(x1)*y1 + ln(y2)/2", 2)
    got = evaluate(tree, [0.5], [2.0, 3.0])
    want = math.exp(0.5) * 2.0 + math.log(3.0) / 2.0
    assert got == pytest.approx(want, rel=1e-15)


def test_structural_equality_ignores_positions():
    assert parse("y1  +  y2", 2) == parse("y1+y2", 2)
    assert parse("y1*y2", 2) != parse("y2*y1", 2)


def test_hoist_marks_maximal_one_kind_subtrees():
    # the sqrt reads y alone and the exp x alone; the quotient by a field
    # of x becomes a product by its reciprocal, hoisted with it; a
    # constant multiple of a variable (2*x1) runs no ring product and
    # stays where it is
    tree = hoist(parse("sqrt(y1^2 + y2^2) * exp(x1) / (1 + x2^2) + 2*x1*y2", 2))
    assert tree == Binary(
        "add",
        Binary(
            "mul",
            Binary(
                "mul",
                Hoisted("y", parse("sqrt(y1^2 + y2^2)", 2)),
                Hoisted("x", parse("exp(x1)", 2)),
            ),
            Hoisted("x", parse("1 / (1 + x2^2)", 2)),
        ),
        parse("2*x1*y2", 2),
    )
    one_kind = parse("(y1^4 + y2^4)^(1/2)", 2)
    assert hoist(one_kind) == Hoisted("y", one_kind)
    assert hoist(parse("y1", 2)) == parse("y1", 2)


def test_hoisted_subtrees_run_in_the_smaller_rings(monkeypatch):
    # in the (2, 8) ring the exp and the reciprocal of a field of x run in
    # the (2, 0) stage ring, the sqrt of a form in y in the (0, 8) one,
    # and the result lands in the (2, 8) ring, as the plain tree's does
    from finslerlab.series import Series, SeriesRing

    ring = SeriesRing.get(3)
    xs, ys = ring.state((0.1, -0.2, 0.15), (0.7, -0.4, 0.5))
    source = "sqrt(y1^2 + y2^2 + y3^2) * exp(x1) / (1 + x2^2) + 0.1*x3*y1"
    tree = parse(source, 3)
    ran = []
    for op in ("sqrt", "exp", "reciprocal"):
        def record(self, op=op, plain=getattr(Series, op)):
            ran.append((op, self.ring))
            return plain(self)

        monkeypatch.setattr(Series, op, record)
    got = evaluate(hoist(tree), xs, ys)
    assert ran == [
        ("sqrt", ring.stage(0, 8)),
        ("exp", ring.stage(2, 0)),
        ("reciprocal", ring.stage(2, 0)),
    ]
    want = evaluate(tree, xs, ys)
    assert got.ring is want.ring is ring
    assert abs(got.c - want.c).max() <= 1e-14 * abs(want.c).max()
    floats = ([0.1, -0.2, 0.15], [0.7, -0.4, 0.5])
    assert evaluate(hoist(tree), *floats) == pytest.approx(
        evaluate(tree, *floats), rel=1e-15
    )
