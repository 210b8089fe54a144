"""Expression language tests: grammar, errors with offsets, round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings

from causalsde import ExprSyntaxError, parse_expression
from strategies import expression_trees


def ev(source, *values):
    return float(parse_expression(source)(np.array(values, dtype=float)))


class TestEvaluation:
    def test_linear_combination(self):
        assert ev("x1 + 2*x2", 1.0, 3.0) == 7.0

    def test_norm(self):
        assert ev("sqrt(x1^2 + x2^2)", 3.0, 4.0) == 5.0

    def test_power_right_associative(self):
        assert ev("2^3^2", 0.0) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-x1^2", 2.0) == -4.0

    def test_unary_minus_in_exponent(self):
        assert ev("2^-1", 0.0) == 0.5

    def test_precedence_mul_over_add(self):
        assert ev("2 + 3 * 4", 0.0) == 14.0

    def test_left_associative_subtraction(self):
        assert ev("10 - 4 - 3", 0.0) == 3.0

    def test_two_argument_functions(self):
        assert ev("min(x1, 2) + max(x1, 2) + pow(x1, 2)", 3.0) == 2.0 + 3.0 + 9.0

    def test_division(self):
        assert ev("x1 / 4", 10.0) == 2.5

    def test_scientific_literals(self):
        assert ev("1.5e2 + .5", 0.0) == 150.5

    def test_vectorized_evaluation(self):
        e = parse_expression("x1 * x2")
        xs = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(e(xs), np.array([2.0, 12.0, 30.0]))

    def test_constant_broadcasts_over_batch(self):
        e = parse_expression("2.5")
        assert e(np.zeros((4, 3))).shape == (4,)

    def test_domain_errors_yield_nonfinite(self):
        assert not np.isfinite(ev("1 / x1", 0.0))
        assert not np.isfinite(ev("log(x1)", -1.0))
        assert not np.isfinite(ev("sqrt(x1)", -4.0))


class TestErrors:
    def test_dangling_operator_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("x1 +")
        assert exc.value.offset == 4
        assert exc.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'foo'"):
            parse_expression("foo + 1")

    def test_unknown_identifier_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("1 + bar")
        assert exc.value.offset == 4

    def test_arity_mismatch(self):
        with pytest.raises(ExprSyntaxError, match="argument"):
            parse_expression("min(x1)")
        with pytest.raises(ExprSyntaxError, match="argument"):
            parse_expression("sqrt(x1, x2)")

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError, match=r"'\)'"):
            parse_expression("(x1 + 2")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("x1 @ 2")

    def test_zero_index_rejected(self):
        with pytest.raises(ExprSyntaxError, match="x1"):
            parse_expression("x0")

    def test_out_of_range_coordinate(self):
        e = parse_expression("x3")
        with pytest.raises(IndexError):
            e(np.zeros(2))


# --- structural round trip -------------------------------------------------

_TREES = expression_trees()


@given(_TREES)
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(tree):
    from causalsde.expr import Expression

    printed = Expression(tree).to_string()
    assert parse_expression(printed).tree == tree


@pytest.mark.parametrize(
    "source",
    [
        "x1 + 2*x2",
        "sqrt(x1^2 + x2^2)",
        "-x1^2 - -x2",
        "min(x1, max(x2, 0.5)) / (1 + x1*x1)",
        "2^-3 * x1",
        "1 - (2 - 3)",
    ],
)
def test_source_round_trip(source):
    tree = parse_expression(source).tree
    assert parse_expression(parse_expression(source).to_string()).tree == tree
