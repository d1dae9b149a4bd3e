import numpy as np
import pytest

from mosr.sexpr import ParseError, format_constant, parse_sexpr, to_sexpr
from mosr.trees import constant, random_tree, variable


class TestFormatting:
    def test_integral_constants_print_shortest(self):
        assert to_sexpr(constant(1.0)) == "1"
        assert to_sexpr(constant(-3.0)) == "-3"
        assert to_sexpr(constant(0.0)) == "0"

    def test_fractional_constants_roundtrip_exactly(self):
        for v in (0.1, -2.5, 3.141592653589793, 1e-7, 12345.6789, 1e20, -1e300):
            assert float(format_constant(v)) == v

    def test_nonfinite_constant_rejected(self):
        with pytest.raises(ValueError):
            format_constant(float("inf"))

    def test_symbol_spelling(self):
        assert to_sexpr(parse_sexpr("(+ 1 2)")) == "(+ 1 2)"
        assert to_sexpr(parse_sexpr("(- 1 2)")) == "(- 1 2)"
        assert to_sexpr(parse_sexpr("(* 1 2)")) == "(* 1 2)"
        assert to_sexpr(parse_sexpr("(div 1 2)")) == "(div 1 2)"
        assert to_sexpr(parse_sexpr("(sqrt x3)")) == "(sqrt x3)"


class TestParsing:
    def test_simple_roundtrip(self):
        tree = parse_sexpr("(+ x0 1)")
        assert to_sexpr(tree) == "(+ x0 1)"

    def test_bare_leaves(self):
        assert parse_sexpr("x2") == variable(2)
        assert parse_sexpr("5") == constant(5.0)
        assert parse_sexpr("  -1.5e3 ") == constant(-1500.0)

    def test_nary_add_accepted(self):
        tree = parse_sexpr("(+ 1 2 3 4)")
        assert len(tree.children) == 4

    def test_whitespace_flexible(self):
        assert parse_sexpr("( +\n  x0\t1 )") == parse_sexpr("(+ x0 1)")

    def test_unary_arity_error(self):
        with pytest.raises(ParseError, match="exactly 1"):
            parse_sexpr("(sin x0 x1)")

    def test_binary_arity_error(self):
        with pytest.raises(ParseError, match="at least 2"):
            parse_sexpr("(+ x0)")

    def test_unknown_symbol_error(self):
        with pytest.raises(ParseError, match="foo"):
            parse_sexpr("(foo 1)")
        with pytest.raises(ParseError, match="unknown symbol"):
            parse_sexpr("(+ bar 1)")

    def test_malformed_parens(self):
        with pytest.raises(ParseError, match="missing"):
            parse_sexpr("(+ 1 2")
        with pytest.raises(ParseError, match="unexpected"):
            parse_sexpr(") 1 2")
        with pytest.raises(ParseError, match="parentheses"):
            parse_sexpr("+ 1 2)")
        with pytest.raises(ParseError, match="empty"):
            parse_sexpr("()")
        with pytest.raises(ParseError, match="empty"):
            parse_sexpr("   ")

    def test_trailing_content_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_sexpr("(+ 1 2) 3")
        with pytest.raises(ParseError, match="trailing"):
            parse_sexpr("1 (+ 1 2)")

    def test_bare_function_symbol_rejected(self):
        with pytest.raises(ParseError, match="parentheses"):
            parse_sexpr("sin")

    def test_error_positions_are_reported(self):
        with pytest.raises(ParseError) as err:
            parse_sexpr("(+ x0 oops)")
        assert err.value.position == 7
        assert "position 7" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_sexpr("(+ 1 2))")
        assert err.value.position == 8

    def test_overflowing_constant_rejected(self):
        with pytest.raises(ParseError, match="overflows"):
            parse_sexpr("1e999")


def test_random_roundtrip_structural_identity():
    rng = np.random.default_rng(99)
    for _ in range(500):
        tree = random_tree(rng, n_variables=6, max_length=60)
        text = to_sexpr(tree)
        again = parse_sexpr(text)
        assert again == tree
        assert to_sexpr(again) == text


def test_deep_model_is_written():
    # deeper than the interpreter's recursion limit
    depth = 3000
    for text in (
        "(sin " * depth + "x0" + ")" * depth,
        "(+ 1.5 " * depth + "x2" + ")" * depth,
    ):
        assert to_sexpr(parse_sexpr(text)) == text
