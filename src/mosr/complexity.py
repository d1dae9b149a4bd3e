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

from dataclasses import dataclass
from typing import Callable, Mapping

from .sexpr import format_constant
from .trees import BINARY_SYMBOLS, UNARY_SYMBOLS, Node, postorder

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

    def apply(self, child_values: list[float]) -> float:
        if self.kind == "sum":
            total = 0.0
            for v in child_values:
                total += v
            return total
        if self.kind == "product_plus_one":
            product = 1.0
            for v in child_values:
                product *= v
            return product + 1.0
        if self.kind == "product_of_incremented":
            product = 1.0
            for v in child_values:
                product *= v + 1.0
            return product
        if self.kind == "power":
            return _saturating_pow(child_values[0], self.parameter)
        return _saturating_pow(self.parameter, child_values[0])

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


def recursive_complexity(tree: Node, rules: ComplexityRuleTable) -> float:
    """Fold the rule table bottom-up over the tree; saturates to +inf.

    Walks an explicit value stack, not the recursion the name describes, so
    trees of any depth can be measured.
    """
    constant_value, variable_value, rule_for = (
        rules.constant_value, rules.variable_value, rules.rule_for
    )
    stack: list[float] = []
    for node in postorder(tree):
        kids = node.children
        if not kids:
            stack.append(constant_value if node.symbol == "const" else variable_value)
        elif len(kids) == 1:  # the common case, kept off the slicing path
            stack[-1] = rule_for(node.symbol).apply([stack[-1]])
        else:  # a node's child values are the top len(kids), first child deepest
            values = stack[-len(kids):]
            del stack[-len(kids):]
            stack.append(rule_for(node.symbol).apply(values))
    return stack[0]


MEASURES = ("variables", "tree_length", "visitation_length", "complexity")


def make_measure(
    name: str, rule_table: ComplexityRuleTable | None = None
) -> Callable[[Node], float]:
    """Objective function for one measure name (see :data:`MEASURES`)."""
    if name == "variables":
        return lambda tree: float(tree.n_var)
    if name == "tree_length":
        return lambda tree: float(tree.size)
    if name == "visitation_length":
        return lambda tree: float(sum(n.size for n in postorder(tree)))
    if name == "complexity":
        table = rule_table if rule_table is not None else default_rule_table()
        for symbol in BINARY_SYMBOLS + UNARY_SYMBOLS:
            table.rule_for(symbol)  # fail fast on incomplete tables
        return lambda tree: recursive_complexity(tree, table)
    raise ValueError(f"unknown complexity measure '{name}' (choose from {MEASURES})")
