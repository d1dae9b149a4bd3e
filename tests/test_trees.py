import math

import numpy as np
import pytest

from mosr import trees
from mosr.sexpr import parse_sexpr, to_sexpr
from mosr.trees import (
    DEFAULT_FUNCTION_SET,
    StructuralError,
    constant,
    crossover,
    evaluate_matrix,
    function,
    mutate,
    random_tree,
    variable,
)


def _columns(values):
    return np.asarray(values, dtype=float).reshape(len(values), -1)


class TestEvaluate:
    def test_doubling(self):
        tree = parse_sexpr("(+ x0 x0)")
        out = evaluate_matrix(tree, _columns([3.0]))
        assert out.tolist() == [6.0]

    def test_division_by_zero_is_nonfinite(self):
        tree = parse_sexpr("(div 1 x0)")
        out = evaluate_matrix(tree, _columns([0.0]))
        assert not np.isfinite(out[0])

    def test_polynomial_by_hand(self):
        # 7*2^2 + 3*2 + 5 = 39
        tree = parse_sexpr("(+ (* 7 (square x0)) (* 3 x0) 5)")
        out = evaluate_matrix(tree, _columns([2.0]))
        assert out.tolist() == [39.0]

    def test_nary_fold_is_left_to_right(self):
        assert evaluate_matrix(parse_sexpr("(- 10 1 2)"), _columns([0.0]))[0] == 7.0
        assert evaluate_matrix(parse_sexpr("(div 24 2 3)"), _columns([0.0]))[0] == 4.0

    def test_log_of_nonpositive_is_nan(self):
        tree = parse_sexpr("(log x0)")
        out = evaluate_matrix(tree, _columns([-1.0, 0.0, math.e]))
        assert math.isnan(out[0])
        assert math.isnan(out[1])
        assert out[2] == pytest.approx(1.0)

    def test_sqrt_of_negative_is_nan(self):
        out = evaluate_matrix(parse_sexpr("(sqrt x0)"), _columns([-4.0, 4.0]))
        assert math.isnan(out[0])
        assert out[1] == 2.0

    def test_nonfinite_propagates(self):
        tree = parse_sexpr("(+ (div 1 x0) 1)")
        out = evaluate_matrix(tree, _columns([0.0]))
        assert not np.isfinite(out[0])

    def test_variable_out_of_range_is_structural_error(self):
        with pytest.raises(StructuralError):
            evaluate_matrix(parse_sexpr("(+ x0 x5)"), _columns([1.0]))

    def test_rows_selection(self):
        tree = parse_sexpr("(* x0 2)")
        X = _columns([1.0, 2.0, 3.0])
        out = evaluate_matrix(tree, X[np.array([2, 0])])
        assert out.tolist() == [6.0, 2.0]

    def test_purity_bit_for_bit(self):
        rng = np.random.default_rng(7)
        X = _columns(rng.normal(size=50))
        tree = random_tree(np.random.default_rng(3), n_variables=1)
        a = evaluate_matrix(tree, X)
        b = evaluate_matrix(tree, X)
        assert a.tobytes() == b.tobytes()

    def test_semantic_sanity_polynomial(self):
        tree = parse_sexpr("(+ (* 7 (square x0)) (* 3 x0) 5)")
        rng = np.random.default_rng(0)
        v = rng.uniform(-50, 50, 100)
        out = evaluate_matrix(tree, v[:, None])
        expected = 7.0 * v**2 + 3.0 * v + 5.0
        np.testing.assert_allclose(out, expected, rtol=1e-15)


class TestShape:
    def test_length_examples(self):
        assert parse_sexpr("(exp (sin (sqrt x0)))").size == 4
        assert parse_sexpr("(+ (* 7 (square x0)) (* 3 x0) 5)").size == 9
        assert constant(3.0).size == 1

    def test_depth_examples(self):
        assert constant(1.0).height == 1
        assert parse_sexpr("(sin x0)").height == 2
        assert parse_sexpr("(exp (sin (sqrt x0)))").height == 4

    def test_structural_equality(self):
        a = parse_sexpr("(+ x0 1)")
        b = parse_sexpr("(+ x0 1)")
        c = parse_sexpr("(+ x0 2)")
        assert a == b
        assert a != c

    def test_function_arity_validation(self):
        with pytest.raises(StructuralError):
            function("sin", [constant(1.0), constant(2.0)])
        with pytest.raises(StructuralError):
            function("add", [constant(1.0)])
        with pytest.raises(StructuralError):
            function("frobnicate", [constant(1.0)])

    def test_subtree_navigation(self):
        tree = parse_sexpr("(+ (* 7 (square x0)) (* 3 x0) 5)")
        assert to_sexpr(trees.subtree_at(tree, 0)[0]) == to_sexpr(tree)
        assert to_sexpr(trees.subtree_at(tree, 1)[0]) == "(* 7 (square x0))"
        assert to_sexpr(trees.subtree_at(tree, 8)[0]) == "5"
        assert trees.subtree_at(tree, 0)[1] == 1
        assert trees.subtree_at(tree, 4)[1] == 4  # the x0 inside square

    def test_replace_subtree_shares_structure(self):
        tree = parse_sexpr("(+ (sin x0) (cos x1))")
        new = trees.replace_subtree(tree, 1, constant(0.0))
        assert to_sexpr(new) == "(+ 0 (cos x1))"
        # the untouched branch is the same object, not a copy
        assert new.children[1] is tree.children[1]
        assert to_sexpr(tree) == "(+ (sin x0) (cos x1))"


class TestRandomTree:
    def test_forced_single_leaf(self):
        tree = random_tree(np.random.default_rng(0), max_length=1, n_variables=2)
        assert tree.size == 1

    def test_caps_hold_over_many_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            tree = random_tree(rng, n_variables=3, max_length=30, max_depth=6)
            assert 1 <= tree.size <= 30
            assert tree.height <= 6

    def test_deterministic_per_seed(self):
        a = random_tree(np.random.default_rng(123), n_variables=4)
        b = random_tree(np.random.default_rng(123), n_variables=4)
        assert a == b

    def test_constants_within_range(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            tree = random_tree(rng, n_variables=1, max_length=20)
            for node in trees.iter_nodes(tree):
                if node.symbol == "const":
                    assert -20.0 <= node.value <= 20.0

    def test_lengths_spread_across_range(self):
        rng = np.random.default_rng(11)
        sizes = {random_tree(rng, n_variables=2, max_length=25).size for _ in range(500)}
        assert len(sizes) > 15  # targets are drawn uniformly, not collapsed

    def test_no_variables_means_constant_leaves(self):
        rng = np.random.default_rng(1)
        tree = random_tree(rng, n_variables=0, max_length=15)
        for node in trees.iter_nodes(tree):
            assert node.symbol != "var"


class TestCrossover:
    def test_leaf_parents_yield_leaf(self):
        child = crossover(constant(1.0), constant(2.0), np.random.default_rng(0))
        assert child.size == 1

    def test_cap_holds_over_many_ops(self):
        rng = np.random.default_rng(99)
        parents = [random_tree(rng, n_variables=2, max_length=100) for _ in range(40)]
        for _ in range(3000):
            i, j = rng.integers(len(parents), size=2)
            child = crossover(parents[i], parents[j], rng, max_length=100)
            assert child.size <= 100

    def test_deterministic_per_seed(self):
        p1 = random_tree(np.random.default_rng(1), n_variables=2)
        p2 = random_tree(np.random.default_rng(2), n_variables=2)
        a = crossover(p1, p2, np.random.default_rng(50))
        b = crossover(p1, p2, np.random.default_rng(50))
        assert a == b

    def test_parents_not_mutated(self):
        p1 = random_tree(np.random.default_rng(1), n_variables=2)
        p2 = random_tree(np.random.default_rng(2), n_variables=2)
        before1, before2 = to_sexpr(p1), to_sexpr(p2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            crossover(p1, p2, rng)
        assert to_sexpr(p1) == before1
        assert to_sexpr(p2) == before2

    def test_tight_cap_falls_back_to_parent1(self):
        p1 = parse_sexpr("(+ x0 (* x1 (sin x0)))")  # length 6
        p2 = random_tree(np.random.default_rng(3), n_variables=2, max_length=50)
        child = crossover(p1, p2, np.random.default_rng(4), max_length=2)
        # no replacement can fit in a cap below the parent's own length
        # unless the donor shrinks the tree; either way the cap holds
        assert child.size <= max(p1.size, 2)


class TestMutate:
    def test_symbol_mode_enumerates_unary_alternatives(self):
        tree = parse_sexpr("(sin x0)")
        seen = set()
        rng = np.random.default_rng(0)
        for _ in range(200):
            out = trees.mutate_symbol(tree, rng)
            assert out.size == 2
            assert out.children[0].symbol == "var"
            seen.add(out.symbol)
        assert seen == {"cos", "tan", "exp", "log", "square", "sqrt"}

    def test_jitter_changes_only_the_constant(self):
        tree = parse_sexpr("(+ 1 x0)")
        rng = np.random.default_rng(8)
        out = trees.mutate_constant(tree, rng)
        assert out.symbol == "add"
        assert out.children[0].symbol == "const"
        assert out.children[0].value != 1.0
        assert abs(out.children[0].value - 1.0) < 6.0  # sigma = 1 jitter
        assert out.children[1] == variable(0)

    def test_variable_swap_moves_to_other_index(self):
        tree = parse_sexpr("(sin x0)")
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = trees.mutate_variable(tree, rng, n_variables=3)
            assert out.children[0].symbol == "var"
            assert out.children[0].value in (1, 2)

    def test_variable_swap_single_variable_is_identity_index(self):
        tree = parse_sexpr("(sin x0)")
        out = trees.mutate_variable(tree, np.random.default_rng(0), n_variables=1)
        assert out.children[0].value == 0

    def test_caps_hold_over_many_ops(self):
        rng = np.random.default_rng(77)
        tree = random_tree(rng, n_variables=3, max_length=100)
        for _ in range(3000):
            tree = mutate(tree, rng, n_variables=3, max_length=100, max_depth=17)
            assert tree.size <= 100
            assert tree.height <= 17

    def test_deterministic_per_seed(self):
        tree = random_tree(np.random.default_rng(6), n_variables=2)
        a = mutate(tree, np.random.default_rng(9), n_variables=2)
        b = mutate(tree, np.random.default_rng(9), n_variables=2)
        assert a == b


def test_generated_trees_roundtrip_through_sexpr():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        tree = random_tree(rng, n_variables=4, max_length=40)
        assert parse_sexpr(to_sexpr(tree)) == tree
