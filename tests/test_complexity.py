import math

import numpy as np
import pytest

from mosr.complexity import (
    ComplexityRuleTable,
    Rule,
    RuleTableError,
    default_rule_table,
    figure_consistent_rule_table,
    make_measure,
    recursive_complexity,
    rule_from_string,
)
from mosr.sexpr import parse_sexpr
from mosr.trees import constant, random_tree, replace_subtree, subtree_at, variable

F1 = "(exp (sin (sqrt x0)))"
F2 = "(+ (* 7 (square x0)) (* 3 x0) 5)"


variable_count = make_measure("variables")
visitation_length = make_measure("visitation_length")


class TestCounts:
    def test_variable_count_occurrences(self):
        assert variable_count(parse_sexpr(F1)) == 1
        assert variable_count(parse_sexpr(F2)) == 2
        assert variable_count(constant(4.0)) == 0
        assert parse_sexpr(F2).n_var == 2

    def test_variable_count_distinct_option(self):
        # a repeated variable counts once per occurrence
        tree = parse_sexpr("(+ x0 x0 x1)")
        assert variable_count(tree) == 3
        assert tree.n_var == 3

    def test_tree_length_measure(self):
        tree_length = make_measure("tree_length")
        assert tree_length(parse_sexpr(F1)) == 4
        assert tree_length(parse_sexpr(F2)) == 9
        assert tree_length(constant(0.0)) == 1

    def test_visitation_length(self):
        assert visitation_length(constant(1.0)) == 1
        assert visitation_length(parse_sexpr(F1)) == 10  # 4 + 3 + 2 + 1
        assert visitation_length(parse_sexpr(F2)) == 23  # 9+4+1+2+1+3+1+1+1

    def test_visitation_length_brute_force_oracle(self):
        # independent route: sum of subtree sizes computed by re-walking
        def brute(node):
            def size(n):
                return 1 + sum(size(c) for c in n.children)

            return size(node) + sum(brute(c) for c in node.children)

        rng = np.random.default_rng(17)
        for _ in range(100):
            tree = random_tree(rng, n_variables=3, max_length=30)
            assert visitation_length(tree) == brute(tree)


class TestRecursiveComplexity:
    def test_leaves(self):
        table = default_rule_table()
        assert recursive_complexity(constant(5.0), table) == 1.0
        assert recursive_complexity(variable(0), table) == 2.0

    def test_sum_rule(self):
        assert recursive_complexity(parse_sexpr("(+ x0 x0)"), default_rule_table()) == 4.0

    def test_chain_under_default_table(self):
        # var 2 -> sqrt 2^3 = 8 -> sin 2^8 = 256 -> exp 2^256
        assert recursive_complexity(parse_sexpr(F1), default_rule_table()) == 2.0**256

    def test_chain_under_figure_table(self):
        # var 2 -> sqrt 2^2 = 4 -> sin 2^4 = 16 -> exp 2^16 = 65536
        assert recursive_complexity(parse_sexpr(F1), figure_consistent_rule_table()) == 65536.0

    def test_polynomial_under_default_table(self):
        # (1*4)+1 = 5, (1*2)+1 = 3, 5+3+1 = 9
        assert recursive_complexity(parse_sexpr(F2), default_rule_table()) == 9.0

    def test_polynomial_under_figure_table(self):
        # (1+1)(4+1) = 10, (1+1)(2+1) = 6, 10+6+1 = 17
        assert recursive_complexity(parse_sexpr(F2), figure_consistent_rule_table()) == 17.0

    def test_saturates_to_inf(self):
        tree = parse_sexpr("(exp (exp (exp (exp x0))))")
        value = recursive_complexity(tree, default_rule_table())
        assert value == math.inf
        assert value > 1e308  # still ordered above every finite value

    def test_missing_rule_is_config_error(self):
        table = ComplexityRuleTable(rules={"add": Rule("sum")})
        with pytest.raises(RuleTableError, match="sin"):
            recursive_complexity(parse_sexpr("(sin x0)"), table)

    def test_leaf_values_must_be_at_least_one(self):
        with pytest.raises(RuleTableError):
            ComplexityRuleTable(rules={}, constant_value=0.5)

    def test_one_child_rules_only_on_unary_symbols(self):
        for kind in ("power", "exponential"):
            with pytest.raises(RuleTableError, match="'add' takes two or more"):
                ComplexityRuleTable(rules={"add": Rule(kind, 2.0)})
            with pytest.raises(RuleTableError, match="'mul' takes two or more"):
                default_rule_table().with_overrides({"mul": Rule(kind, 2.0)})
        with pytest.raises(RuleTableError, match="unknown function symbol 'foo'"):
            ComplexityRuleTable(rules={"foo": Rule("sum")})
        assert ComplexityRuleTable(rules={"sin": Rule("power", 2.0)}).rule_for("sin").kind == "power"

    def test_monotone_in_children(self):
        # every non-leaf node's value >= max of its children's values
        for table in (default_rule_table(), figure_consistent_rule_table()):
            rng = np.random.default_rng(23)
            for _ in range(150):
                tree = random_tree(rng, n_variables=2, max_length=25)
                def check(node):
                    v = recursive_complexity(node, table)
                    for child in node.children:
                        assert v >= recursive_complexity(child, table)
                        check(child)
                check(tree)

    def test_matches_recursive_fold_bit_for_bit(self):
        def reference(node, table):
            if node.symbol == "const":
                return table.constant_value
            if node.symbol == "var":
                return table.variable_value
            values = [reference(c, table) for c in node.children]
            return table.rule_for(node.symbol).apply(values)

        literal = default_rule_table()
        odd = literal.with_overrides(
            rules={"add": Rule("product_of_incremented"), "exp": Rule("exponential", 1.1)},
            constant_value=1.3,
            variable_value=2.7,
        )
        rng = np.random.default_rng(8)
        trees = [random_tree(rng, n_variables=3, max_length=60) for _ in range(300)]
        trees.append(parse_sexpr("(- (* x0 1.5 x1) (div x2 x0 3) (+ 1 2 3 4))"))
        for table in (literal, figure_consistent_rule_table(), odd):
            for tree in trees:
                assert recursive_complexity(tree, table).hex() == reference(tree, table).hex()

    def test_deep_models_are_measured(self):
        # deeper than the interpreter's recursion limit
        depth = 3000
        chain = parse_sexpr("(sin " * depth + "x0" + ")" * depth)
        assert recursive_complexity(chain, default_rule_table()) == math.inf
        assert make_measure("complexity")(chain) == math.inf
        sums = parse_sexpr("(+ 1 " * depth + "x0" + ")" * depth)
        assert recursive_complexity(sums, default_rule_table()) == depth + 2.0

    def test_constant_to_variable_never_decreases(self):
        table = default_rule_table()
        rng = np.random.default_rng(31)
        for _ in range(150):
            tree = random_tree(rng, n_variables=2, max_length=25)
            const_positions = [
                i for i in range(tree.size) if subtree_at(tree, i)[0].symbol == "const"
            ]
            base = recursive_complexity(tree, table)
            for pos in const_positions:
                grown = replace_subtree(tree, pos, variable(0))
                assert recursive_complexity(grown, table) >= base


class TestInvariantRelations:
    def test_visitation_at_least_length(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            tree = random_tree(rng, n_variables=2, max_length=30)
            v, n = visitation_length(tree), tree.size
            assert v >= n
            assert (v == n) == (n == 1)

    def test_variable_count_at_most_length(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            tree = random_tree(rng, n_variables=2, max_length=30)
            assert variable_count(tree) <= tree.size


class TestRuleConfig:
    def test_rule_from_string(self):
        assert rule_from_string("sum") == Rule("sum")
        assert rule_from_string("power:2") == Rule("power", 2.0)
        assert rule_from_string("exponential:2") == Rule("exponential", 2.0)
        assert rule_from_string("product_of_incremented") == Rule("product_of_incremented")

    def test_rule_from_string_errors(self):
        with pytest.raises(RuleTableError):
            rule_from_string("power")  # needs a parameter
        with pytest.raises(RuleTableError):
            rule_from_string("sum:3")  # takes none
        with pytest.raises(RuleTableError):
            rule_from_string("power:abc")
        with pytest.raises(RuleTableError):
            rule_from_string("wibble")

    def test_rule_spec_roundtrip(self):
        for text in ("sum", "product_plus_one", "power:2", "power:3", "exponential:2"):
            assert rule_from_string(text).spec() == text

    def test_overrides_reproduce_figure_table(self):
        table = default_rule_table().with_overrides(
            rules={
                "sqrt": rule_from_string("power:2"),
                "mul": rule_from_string("product_of_incremented"),
                "div": rule_from_string("product_of_incremented"),
            }
        )
        f1, f2 = parse_sexpr(F1), parse_sexpr(F2)
        assert recursive_complexity(f1, table) == 65536.0
        assert recursive_complexity(f2, table) == 17.0


class TestMeasureFactory:
    def test_all_measures_callable(self):
        tree = parse_sexpr(F2)
        assert make_measure("variables")(tree) == 2.0
        assert make_measure("tree_length")(tree) == 9.0
        assert make_measure("visitation_length")(tree) == 23.0
        assert make_measure("complexity")(tree) == 9.0
        assert make_measure("complexity", figure_consistent_rule_table())(tree) == 17.0

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="unknown complexity measure"):
            make_measure("entropy")
