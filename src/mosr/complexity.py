"""Model-complexity objectives.

Four measures are provided, all minimized:

* ``variables``: number of variable-node occurrences,
* ``tree_length``: total node count,
* ``visitation_length``: sum over all nodes of the size of the subtree
  rooted there (a.k.a. expressional complexity),
* ``complexity``: a recursive semantic measure folding per-symbol rules
  bottom-up over the tree.

The recursive measure is driven by a :class:`ComplexityRuleTable`, which is
data, not code: leaves have fixed values (constant 1, variable 2) and each
function symbol maps to one rule.  Two built-in tables are shipped because
the two natural readings of the rule set disagree; see
:func:`default_rule_table` and :func:`figure_consistent_rule_table`.  The
table is a run parameter so results always state which variant they used.

Values are computed in double precision and saturate to ``+inf`` on
overflow; they are used only for dominance ordering, where ``+inf``
compares greater than every finite value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

from .sexpr import format_constant
from .trees import BINARY_SYMBOLS, UNARY_SYMBOLS, Node, structure_key

_INF = float("inf")

RULE_KINDS = ("sum", "product_plus_one", "product_of_incremented", "power", "exponential")
_UNARY_KINDS = ("power", "exponential")  # one child, one parameter


class RuleTableError(ValueError):
    """Malformed rule or rule table, or a table that does not cover the
    tree being measured."""


@dataclass(frozen=True)
class Rule:
    """One per-symbol complexity rule.

    kind:
      sum                     -> sum of child values
      product_plus_one        -> (product of child values) + 1
      product_of_incremented  -> product of (child value + 1)
      power                   -> child value ** parameter      (unary only)
      exponential             -> parameter ** child value      (unary only)

    ``power`` needs a finite exponent >= 0 and ``exponential`` a finite
    base >= 1, so child values >= 1 give a value >= 1.
    """

    kind: str
    parameter: float = 0.0

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise RuleTableError(f"unknown rule kind '{self.kind}'")
        p = self.parameter
        if self.kind == "power" and not 0.0 <= p < _INF:
            raise RuleTableError(f"rule 'power' needs a finite exponent >= 0, got {p}")
        if self.kind == "exponential" and not 1.0 <= p < _INF:
            raise RuleTableError(f"rule 'exponential' needs a finite base >= 1, got {p}")

    def spec(self) -> str:
        """Config-file form, e.g. ``power:2``; parses back to this rule."""
        if self.kind in _UNARY_KINDS:
            return f"{self.kind}:{format_constant(self.parameter)}"
        return self.kind


def _saturating_pow(base: float, exponent: float) -> float:
    try:
        return base**exponent
    except OverflowError:
        return _INF


def rule_from_string(text: str) -> Rule:
    """Parse ``kind`` or ``kind:parameter`` (e.g. ``power:3``)."""
    kind, sep, param = text.partition(":")
    kind = kind.strip()
    if kind in _UNARY_KINDS:
        if not sep:
            raise RuleTableError(f"rule '{kind}' needs a parameter, e.g. '{kind}:2'")
        try:
            parameter = float(param)
        except ValueError as exc:
            raise RuleTableError(f"bad parameter in rule '{text}'") from exc
        return Rule(kind, parameter)
    if sep:
        raise RuleTableError(f"rule '{kind}' takes no parameter")
    return Rule(kind)


@dataclass(frozen=True)
class ComplexityRuleTable:
    """Leaf values plus one rule per function symbol.

    Construction rejects leaf values that are not finite and >= 1, rules
    for unknown symbols and the one-child kinds (``power``,
    ``exponential``) on n-ary symbols, so a table that builds gives every
    tree its rules cover a value >= 1.
    """

    rules: Mapping[str, Rule]
    constant_value: float = 1.0
    variable_value: float = 2.0

    def __post_init__(self):
        for v in (self.constant_value, self.variable_value):
            if not 1.0 <= v < _INF:  # NaN fails too
                raise RuleTableError(f"leaf complexity values must be >= 1 and finite, got {v}")
        for symbol, rule in self.rules.items():
            if symbol in BINARY_SYMBOLS:
                if rule.kind in _UNARY_KINDS:
                    raise RuleTableError(
                        f"rule '{rule.kind}' takes one child; '{symbol}' takes two or more"
                    )
            elif symbol not in UNARY_SYMBOLS:
                raise RuleTableError(f"unknown function symbol '{symbol}'")

    def rule_for(self, symbol: str) -> Rule:
        rule = self.rules.get(symbol)
        if rule is None:
            raise RuleTableError(f"no complexity rule configured for symbol '{symbol}'")
        return rule

    def with_overrides(
        self,
        rules: Mapping[str, Rule] | None = None,
        constant_value: float | None = None,
        variable_value: float | None = None,
    ) -> "ComplexityRuleTable":
        merged = dict(self.rules)
        merged.update(rules or {})
        return ComplexityRuleTable(
            rules=merged,
            constant_value=self.constant_value if constant_value is None else constant_value,
            variable_value=self.variable_value if variable_value is None else variable_value,
        )


def default_rule_table() -> ComplexityRuleTable:
    """The literal rule set: add/sub sum, mul/div product-plus-one,
    square power 2, sqrt power 3, sin/cos/tan/exp/log base-2 exponential."""
    rules = {"add": Rule("sum"), "sub": Rule("sum")}
    for s in ("mul", "div"):
        rules[s] = Rule("product_plus_one")
    rules["square"] = Rule("power", 2.0)
    rules["sqrt"] = Rule("power", 3.0)
    for s in ("sin", "cos", "tan", "exp", "log"):
        rules[s] = Rule("exponential", 2.0)
    return ComplexityRuleTable(rules=rules)


def figure_consistent_rule_table() -> ComplexityRuleTable:
    """Variant table: sqrt gets exponent 2 and mul/div multiply the
    incremented child values.  This is the unique variant under which the
    worked values 65536 (for exp(sin(sqrt(x)))) and 17 (for 7x^2+3x+5)
    both hold."""
    base = default_rule_table()
    return base.with_overrides(
        rules={
            "sqrt": Rule("power", 2.0),
            "mul": Rule("product_of_incremented"),
            "div": Rule("product_of_incremented"),
        }
    )


RULE_TABLES: dict[str, Callable[[], ComplexityRuleTable]] = {
    "eq1": default_rule_table,
    "figure": figure_consistent_rule_table,
}


def _sum(values: list[float]) -> float:
    # a loop, not ``sum``: from Python 3.12 on, ``sum`` of floats is
    # compensated and would move the last bits away from a left fold
    total = 0.0
    for v in values:
        total += v
    return total


# Each kind that takes any number of children, as functions of one child
# value, of two and of a list of any length; the list form folds left to
# right.  Child values are >= 1, so the one- and two-value forms can drop
# the fold's leading ``0.0 +`` and ``1.0 *`` and stay bit-equal to it.
_NARY_KINDS: dict[str, tuple[Callable, Callable, Callable]] = {
    "sum": (float, lambda a, b: a + b, _sum),
    "product_plus_one": (
        lambda v: v + 1.0, lambda a, b: a * b + 1.0, lambda values: math.prod(values) + 1.0
    ),
    "product_of_incremented": (
        lambda v: v + 1.0,
        lambda a, b: (a + 1.0) * (b + 1.0),
        lambda values: math.prod([v + 1.0 for v in values]),
    ),
}


def _complexity_fold(rules: ComplexityRuleTable) -> Callable[[tuple], float]:
    """The measure of ``rules`` as a fold of a value stack over a tree's
    :func:`~mosr.trees.structure_key`, so trees of any depth can be
    measured.  Each rule's function is chosen here, once.  ``rules`` must
    cover every function symbol; :func:`make_measure` checks that."""
    one, two, many = {}, {}, {}  # unary symbols' rules; binary ones' of 2 and of n children
    for symbol, rule in rules.rules.items():
        if rule.kind == "power":
            one[symbol] = partial(_saturating_pow, exponent=rule.parameter)
        elif rule.kind == "exponential":
            one[symbol] = partial(_saturating_pow, rule.parameter)
        elif symbol in UNARY_SYMBOLS:
            one[symbol] = _NARY_KINDS[rule.kind][0]
        else:
            _, two[symbol], many[symbol] = _NARY_KINDS[rule.kind]
    constant_value, variable_value = float(rules.constant_value), float(rules.variable_value)

    def fold(key: tuple) -> float:
        stack: list[float] = []
        items = iter(key)
        next(items)  # the variable count
        for item in items:
            kind = type(item)
            if kind is str:
                f = one.get(item)
                if f is not None:
                    stack[-1] = f(stack[-1])
                else:
                    f = two.get(item)
                    if f is None:  # a constant's float.hex
                        stack.append(constant_value)
                    else:
                        right = stack.pop()
                        stack[-1] = f(stack[-1], right)
            elif kind is int:
                stack.append(variable_value)
            elif kind is float:
                stack.append(constant_value)
            else:  # a node's child values are the top n, first child deepest
                symbol, n = item
                values = stack[-n:]
                del stack[-n:]
                stack.append(many[symbol](values))
        return stack[0]

    return fold


_UNARY, _BINARY = frozenset(UNARY_SYMBOLS), frozenset(BINARY_SYMBOLS)


def _visitation_length(key: tuple) -> float:
    sizes: list[int] = []  # the subtree size of each node whose parent is to come
    total = 0
    items = iter(key)
    next(items)  # the variable count
    for item in items:
        if item in _BINARY:
            size = sizes.pop() + sizes.pop() + 1
        elif item in _UNARY:
            size = sizes.pop() + 1
        elif type(item) is tuple:
            n = item[1]
            size = sum(sizes[-n:]) + 1
            del sizes[-n:]
        else:
            size = 1
        sizes.append(size)
        total += size
    return float(total)


MEASURES = ("variables", "tree_length", "visitation_length", "complexity")

# The measures without rules, each a function of a tree's structure key,
# whose first item is the tree's variable count and each later one a node.
_RULELESS_FOLDS: dict[str, Callable[[tuple], float]] = {
    "variables": lambda key: float(key[0]),
    "tree_length": lambda key: float(len(key) - 1),
    "visitation_length": _visitation_length,
}


def make_measure(
    name: str, rule_table: ComplexityRuleTable | None = None
) -> Callable[[Node], float]:
    """Objective function for one measure name (see :data:`MEASURES`).

    The returned function of a tree has a ``fold`` attribute: the same
    measure as a function of the tree's :func:`~mosr.trees.structure_key`,
    for a caller that has keyed the tree already.
    """
    if name == "complexity":
        table = rule_table if rule_table is not None else default_rule_table()
        for symbol in BINARY_SYMBOLS + UNARY_SYMBOLS:
            table.rule_for(symbol)  # fail fast on incomplete tables
        fold = _complexity_fold(table)
    elif name in _RULELESS_FOLDS:
        fold = _RULELESS_FOLDS[name]
    else:
        raise ValueError(f"unknown complexity measure '{name}' (choose from {MEASURES})")

    def measure(tree: Node) -> float:
        return fold(structure_key(tree))

    measure.fold = fold
    return measure
