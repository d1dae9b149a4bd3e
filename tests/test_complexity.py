import math
from functools import partial

import numpy as np
import pytest

from mosr.complexity import (
    _NARY_KINDS,
    MEASURES,
    ComplexityRuleTable,
    Rule,
    RuleTableError,
    _saturating_pow,
    default_rule_table,
    figure_consistent_rule_table,
    make_measure,
    rule_from_string,
)
from mosr.harness import ExperimentConfig
from mosr.sexpr import parse_sexpr
from mosr.trees import (
    constant,
    function,
    random_tree,
    replace_subtree,
    structure_key,
    subtree_at,
    variable,
)

F1 = "(exp (sin (sqrt x0)))"
F2 = "(+ (* 7 (square x0)) (* 3 x0) 5)"


variable_count = make_measure("variables")
visitation_length = make_measure("visitation_length")


def complexity(tree, table):
    return make_measure("complexity", table)(tree)


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


def _reference_apply(rule, child_values):
    """One rule applied to a node's child values, as a left-to-right fold
    (the per-node dispatch the measure used before it chose each symbol's
    function once per rule table)."""
    if rule.kind == "sum":
        total = 0.0
        for v in child_values:
            total += v
        return total
    if rule.kind == "product_plus_one":
        product = 1.0
        for v in child_values:
            product *= v
        return product + 1.0
    if rule.kind == "product_of_incremented":
        product = 1.0
        for v in child_values:
            product *= v + 1.0
        return product
    try:
        if rule.kind == "power":
            return child_values[0] ** rule.parameter
        return rule.parameter ** child_values[0]
    except OverflowError:
        return math.inf


class TestRecursiveComplexity:
    def test_leaves(self):
        table = default_rule_table()
        assert complexity(constant(5.0), table) == 1.0
        assert complexity(variable(0), table) == 2.0

    def test_sum_rule(self):
        assert complexity(parse_sexpr("(+ x0 x0)"), default_rule_table()) == 4.0

    def test_chain_under_default_table(self):
        # var 2 -> sqrt 2^3 = 8 -> sin 2^8 = 256 -> exp 2^256
        assert complexity(parse_sexpr(F1), default_rule_table()) == 2.0**256

    def test_chain_under_figure_table(self):
        # var 2 -> sqrt 2^2 = 4 -> sin 2^4 = 16 -> exp 2^16 = 65536
        assert complexity(parse_sexpr(F1), figure_consistent_rule_table()) == 65536.0

    def test_polynomial_under_default_table(self):
        # (1*4)+1 = 5, (1*2)+1 = 3, 5+3+1 = 9
        assert complexity(parse_sexpr(F2), default_rule_table()) == 9.0

    def test_polynomial_under_figure_table(self):
        # (1+1)(4+1) = 10, (1+1)(2+1) = 6, 10+6+1 = 17
        assert complexity(parse_sexpr(F2), figure_consistent_rule_table()) == 17.0

    def test_saturates_to_inf(self):
        tree = parse_sexpr("(exp (exp (exp (exp x0))))")
        value = complexity(tree, default_rule_table())
        assert value == math.inf
        assert value > 1e308  # still ordered above every finite value

    def test_missing_rule_is_config_error(self):
        rules = dict(default_rule_table().rules)
        del rules["sin"]
        message = "no complexity rule configured for symbol 'sin'"
        with pytest.raises(RuleTableError, match=message):
            make_measure("complexity", ComplexityRuleTable(rules=rules))
        with pytest.raises(RuleTableError, match="symbol 'sub'"):
            make_measure("complexity", ComplexityRuleTable(rules={"add": Rule("sum")}))

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
            measure = make_measure("complexity", table)
            rng = np.random.default_rng(23)
            for _ in range(150):
                tree = random_tree(rng, n_variables=2, max_length=25)
                def check(node):
                    v = measure(node)
                    for child in node.children:
                        assert v >= measure(child)
                        check(child)
                check(tree)

    def test_matches_recursive_fold_bit_for_bit(self):
        def reference(node, table):
            if node.symbol == "const":
                return table.constant_value
            if node.symbol == "var":
                return table.variable_value
            values = [reference(c, table) for c in node.children]
            return _reference_apply(table.rule_for(node.symbol), values)

        literal = default_rule_table()
        odd = literal.with_overrides(
            rules={"add": Rule("product_of_incremented"), "exp": Rule("exponential", 1.1)},
            constant_value=1.3,
            variable_value=2.7,
        )
        # the many-children kinds on one-child symbols, and sub/div swapped
        crossed = literal.with_overrides(
            rules={
                "sin": Rule("sum"),
                "cos": Rule("product_plus_one"),
                "log": Rule("product_of_incremented"),
                "sub": Rule("product_plus_one"),
                "div": Rule("sum"),
            },
            variable_value=1.0,
        )
        rng = np.random.default_rng(8)
        trees = [random_tree(rng, n_variables=3, max_length=60) for _ in range(300)]
        trees.append(parse_sexpr("(- (* x0 1.5 x1) (div x2 x0 3) (+ 1 2 3 4))"))
        trees.append(parse_sexpr("(+ (sin (cos (log x0))) (- x1 (div 1 x2 x0)) (* x0 x1 x2 3))"))
        for table in (literal, figure_consistent_rule_table(), odd, crossed):
            measure = make_measure("complexity", table)
            for tree in trees:
                assert measure(tree).hex() == reference(tree, table).hex()

    def test_deep_models_are_measured(self):
        # deeper than the interpreter's recursion limit
        depth = 3000
        chain = parse_sexpr("(sin " * depth + "x0" + ")" * depth)
        assert make_measure("complexity")(chain) == math.inf
        sums = parse_sexpr("(+ 1 " * depth + "x0" + ")" * depth)
        assert make_measure("complexity")(sums) == depth + 2.0

    def test_constant_to_variable_never_decreases(self):
        measure = make_measure("complexity", default_rule_table())
        rng = np.random.default_rng(31)
        for _ in range(150):
            tree = random_tree(rng, n_variables=2, max_length=25)
            const_positions = [
                i for i in range(tree.size) if subtree_at(tree, i)[0].symbol == "const"
            ]
            base = measure(tree)
            for pos in const_positions:
                grown = replace_subtree(tree, pos, variable(0))
                assert measure(grown) >= base


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
        assert complexity(f1, table) == 65536.0
        assert complexity(f2, table) == 17.0


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


def _postorder(tree):
    order, todo = [], [tree]
    while todo:
        node = todo.pop()
        order.append(node)
        todo += node.children
    order.reverse()
    return order


def _listing_measures(table):
    """The four measures as folds of a post-order node listing, as they were
    before they read the structure key."""
    one, two, many = {}, {}, {}
    for symbol, rule in table.rules.items():
        if rule.kind == "power":
            one[symbol] = partial(_saturating_pow, exponent=rule.parameter)
        elif rule.kind == "exponential":
            one[symbol] = partial(_saturating_pow, rule.parameter)
        else:
            one[symbol], two[symbol], many[symbol] = _NARY_KINDS[rule.kind]

    def recursive(order):
        stack = []
        for node in order:
            kids = node.children
            if not kids:
                stack.append(
                    float(table.constant_value if node.symbol == "const" else table.variable_value)
                )
            elif len(kids) == 1:
                stack[-1] = one[node.symbol](stack[-1])
            elif len(kids) == 2:
                right = stack.pop()
                stack[-1] = two[node.symbol](stack[-1], right)
            else:
                values = stack[-len(kids):]
                del stack[-len(kids):]
                stack.append(many[node.symbol](values))
        return stack[0]

    return {
        "variables": lambda order: float(order[-1].n_var),
        "tree_length": lambda order: float(order[-1].size),
        "visitation_length": lambda order: float(sum(n.size for n in order)),
        "complexity": recursive,
    }


RULE_VARIANTS = {
    "eq1": ExperimentConfig(problem="keijzer5", rules="eq1"),
    "figure": ExperimentConfig(problem="keijzer5", rules="figure"),
    "rule.*": ExperimentConfig(
        problem="keijzer5",
        rules="eq1",
        rule_overrides={"sin": "sum", "add": "product_of_incremented", "sqrt": "exponential:3",
                        "variable": "1.5"},
    ),
}


@pytest.mark.parametrize("rules", sorted(RULE_VARIANTS))
def test_each_measure_reads_the_listing_s_value_from_the_key(rules):
    table = RULE_VARIANTS[rules].rule_table()
    listed = _listing_measures(table)
    rng = np.random.default_rng(37)
    pool = [random_tree(rng, n_variables=3, max_length=60) for _ in range(400)]
    pool += [parse_sexpr(t) for t in (F1, F2, "(+ x0 -0 0 x1)", "x1", "-0.0")]
    pool += [parse_sexpr("(- x0 (div 1 x1 x2 3) (sin x0) 4)"), parse_sexpr("(* (+ 1 2 3 4) x2)")]
    pool += [constant(math.nan), function("mul", [constant(-math.inf), variable(1)])]
    pool.append(parse_sexpr("(exp " * 1200 + "(+ x0 2.5 x0)" + ")" * 1200))  # saturates
    for name in MEASURES:
        measure = make_measure(name, table)
        for tree in pool:
            want = listed[name](_postorder(tree))
            assert measure.fold(structure_key(tree)).hex() == want.hex(), (name, tree)
            assert measure(tree).hex() == want.hex(), (name, tree)
