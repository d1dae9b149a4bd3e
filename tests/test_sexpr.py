import numpy as np
import pytest

from mosr.sexpr import ParseError, format_constant, parse_sexpr, to_sexpr
from mosr.trees import constant, evaluate_matrix, random_tree, variable


class TestFormatting:
    def test_integral_constants_print_shortest(self):
        assert to_sexpr(constant(1.0)) == "1"
        assert to_sexpr(constant(-3.0)) == "-3"
        assert to_sexpr(constant(0.0)) == "0"

    def test_negative_zero_keeps_its_sign(self):
        assert format_constant(-0.0) == "-0"
        tree = parse_sexpr("(div 1 -0.0)")
        assert to_sexpr(tree) == "(div 1 -0)"
        assert parse_sexpr(to_sexpr(tree)) == tree
        assert tree != parse_sexpr("(div 1 0)")
        assert constant(-0.0) != constant(0.0)
        assert evaluate_matrix(parse_sexpr(to_sexpr(tree)), np.zeros((1, 1)))[0] == -np.inf

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

    @pytest.mark.parametrize(
        "space",
        [" ", "\t", "\n", "\r", "\v", "\f", "\x1c", "\xa0", "\u2003"],
        ids=lambda space: f"U+{ord(space):04X}",
    )
    def test_any_unicode_whitespace_separates_tokens(self, space):
        text = space.join(["", "(", "+", "x0", "(", "sin", "1.5", ")", "-2", ")", ""])
        assert parse_sexpr(text) == parse_sexpr("(+ x0 (sin 1.5) -2)")
        assert parse_sexpr(f"(+{space}x0{space}1)") == parse_sexpr("(+ x0 1)")

    def test_a_non_space_character_joins_an_atom(self):
        # U+200B (zero width space) is not whitespace to str.isspace
        with pytest.raises(ParseError, match="unknown symbol 'x0\u200b1'"):
            parse_sexpr("(+ x0\u200b1 2)")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "empty input", 1),
            (" \xa0\n", "empty input", 1),
            ("(+ 1 2", "missing ')'", 1),
            ("(+ 1 (sin 2)", "missing ')'", 1),
            ("(+ 1 (sin 2", "missing ')'", 6),
            (")", "unexpected ')'", 1),
            ("  ) 1", "unexpected ')'", 3),
            ("(+ 1 2) 3", "unexpected trailing content", 9),
            ("1\u2003(+ 1 2)", "unexpected trailing content", 3),
            ("x0 )", "unexpected trailing content", 4),
            ("( )", "empty '()' expression", 3),
            ("(foo 1)", "unknown function symbol 'foo'", 2),
            ("(+ 1 (3 4))", "unknown function symbol '3'", 7),
            ("(sin x0 x1)", "'sin' expects exactly 1 argument, got 2", 2),
            ("(+ (exp) 1)", "'exp' expects exactly 1 argument, got 0", 5),
            ("(div x0)", "'div' expects at least 2 arguments, got 1", 2),
            ("(+ 1 bar)", "unknown symbol 'bar'", 6),
            ("x-1", "unknown symbol 'x-1'", 1),
            ("(+ 1 sin)", "function symbol 'sin' must be applied in parentheses", 6),
            ("(* 2 1e999)", "constant '1e999' overflows the float range", 6),
            ("((+ 1 2))", "unknown function symbol '('", 2),
            ("((sin x0) x1 x2)", "unknown function symbol '('", 2),
            ("(()", "unknown function symbol '('", 2),
        ],
    )
    def test_every_error_names_its_position(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_sexpr(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


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
