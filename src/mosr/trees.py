"""Expression-tree genotype: representation, evaluation and variation operators.

A tree is represented by its root :class:`Node`.  Nodes are immutable after
construction, so subtrees are shared freely between trees; crossover and
mutation rebuild only the path from the root to the replaced subtree.

Node positions are pre-order indices (root = 0).  :func:`iter_nodes` walks
every node in that order; :func:`subtree_at` descends to one position
through the cached subtree sizes and also reports its depth.
:func:`postorder` lists every node after its children, the order in which
the evaluator, the complexity measure and the writer fold a value stack
without recursion.  Length and depth are the cached ``Node.size`` and
``Node.height``.

There is one evaluator: :func:`make_matrix_evaluator` prepares the columns
of a matrix once and returns a callable that scores trees on them;
:func:`evaluate_matrix` is that callable applied to a single tree.

Function symbols:

* ``add sub mul div`` take two or more children; evaluation folds the
  children left to right (relevant for ``sub`` and ``div``).  Random
  generation only ever emits the binary form; the n-ary form exists so that
  parsed trees such as ``(+ a b c)`` are first-class values.
* ``sin cos tan exp log square sqrt`` take exactly one child.

Division is unprotected true division, ``log`` is the natural logarithm and
returns NaN for non-positive arguments, ``sqrt`` of a negative is NaN.
Non-finite values propagate through evaluation; invalid models are expected
to be penalised by the fitness function, not masked here.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

UNARY_SYMBOLS: tuple[str, ...] = ("sin", "cos", "tan", "exp", "log", "square", "sqrt")
BINARY_SYMBOLS: tuple[str, ...] = ("add", "sub", "mul", "div")

CONSTANT_LOW = -20.0
CONSTANT_HIGH = 20.0
DEFAULT_MAX_LENGTH = 100
DEFAULT_MAX_DEPTH = 17


class StructuralError(ValueError):
    """A tree is malformed for the requested operation (e.g. a variable
    index that the dataset does not have).  Distinct from numeric
    non-finiteness, which is a value, not an error."""


class Node:
    """One tree node; the root node stands for the whole tree.

    ``symbol`` is ``"const"``, ``"var"`` or a function symbol.  ``value``
    holds the constant value or the 0-based variable index.  ``size``,
    ``height`` and ``max_var`` are cached at construction so length checks,
    depth checks and evaluation preconditions are O(1).
    """

    __slots__ = ("symbol", "value", "children", "size", "height", "max_var")

    def __init__(self, symbol: str, value, children: tuple["Node", ...]):
        self.symbol = symbol
        self.value = value
        self.children = children
        if children:
            self.size = 1 + sum(c.size for c in children)
            self.height = 1 + max(c.height for c in children)
            self.max_var = max(c.max_var for c in children)
        else:
            self.size = 1
            self.height = 1
            self.max_var = value if symbol == "var" else -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        pairs = [(self, other)]  # an explicit stack, so depth is free
        while pairs:
            a, b = pairs.pop()
            if a.symbol != b.symbol or a.size != b.size:
                return False
            if not a.children:
                if a.value != b.value:
                    return False
            else:
                pairs += zip(a.children, b.children)
        return True

    __hash__ = None  # structural equality, not hashable

    def __repr__(self) -> str:
        if self.symbol == "const":
            return f"Node(const {self.value!r})"
        if self.symbol == "var":
            return f"Node(x{self.value})"
        return f"Node({self.symbol}, size={self.size})"


def constant(value: float) -> Node:
    return Node("const", float(value), ())


def variable(index: int) -> Node:
    if index < 0:
        raise StructuralError(f"variable index must be non-negative, got {index}")
    return Node("var", int(index), ())


def function(symbol: str, children: Sequence[Node]) -> Node:
    kids = tuple(children)
    if symbol in UNARY_SYMBOLS:
        if len(kids) != 1:
            raise StructuralError(f"'{symbol}' takes exactly 1 child, got {len(kids)}")
    elif symbol in BINARY_SYMBOLS:
        if len(kids) < 2:
            raise StructuralError(f"'{symbol}' takes at least 2 children, got {len(kids)}")
    else:
        raise StructuralError(f"unknown function symbol '{symbol}'")
    return Node(symbol, None, kids)


def iter_nodes(tree: Node) -> Iterator[Node]:
    """Pre-order traversal of all nodes."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def postorder(tree: Node) -> list[Node]:
    """All nodes, each after its children and children left to right.

    Folding a value stack over this list finds a node's child values on top
    of the stack, first child deepest.  No recursion, so depth is free.
    """
    # visiting the last child first and reversing gives exactly this order
    order: list[Node] = []
    todo = [tree]
    while todo:
        node = todo.pop()
        order.append(node)
        todo += node.children
    order.reverse()
    return order


def _descend(tree: Node, index: int) -> tuple[Node, list[tuple[Node, int]]]:
    """Subtree at pre-order position ``index`` and the path to it: each
    ancestor, root first, with the position of the child taken."""
    if not 0 <= index < tree.size:
        raise IndexError(f"node index {index} out of range for tree of size {tree.size}")
    node = tree
    path: list[tuple[Node, int]] = []
    while index > 0:
        index -= 1
        for k, child in enumerate(node.children):
            if index < child.size:
                path.append((node, k))
                node = child
                break
            index -= child.size
    return node, path


def subtree_at(tree: Node, index: int) -> tuple[Node, int]:
    """Subtree rooted at pre-order position ``index`` (root = 0) and its
    depth (root = 1)."""
    node, path = _descend(tree, index)
    return node, len(path) + 1


def replace_subtree(tree: Node, index: int, replacement: Node) -> Node:
    """New tree with the subtree at pre-order position ``index`` replaced.

    Only the path from the root is rebuilt; untouched subtrees are shared
    with the input tree.
    """
    _, path = _descend(tree, index)
    for parent, k in reversed(path):
        kids = parent.children
        replacement = Node(parent.symbol, parent.value, kids[:k] + (replacement,) + kids[k + 1:])
    return replacement


# --- evaluation ---------------------------------------------------------

def _log_nonpositive_nan(x):
    arr = np.asarray(x, dtype=float)
    positive = arr > 0.0
    return np.where(positive, np.log(np.where(positive, arr, 1.0)), np.nan)


_UNARY_IMPL: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": _log_nonpositive_nan,
    "square": np.square,
    "sqrt": np.sqrt,
}

_BINARY_IMPL: dict[str, Callable] = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.true_divide,
}

# Unary functions whose value on a bare column is stored by the prepared
# evaluator: with this numpy they are scalar libm loops, many times dearer
# than the other operators, which cost less to recompute than to keep.
_CACHED_UNARY = frozenset(("sin", "cos", "log"))

# The domain of each unary function that can turn a non-NaN argument into
# NaN: the argument passes when the test holds in every row.  NaN fails
# both tests, so an argument that already holds a NaN fails too.
_DOMAIN_TEST: dict[str, Callable] = {"log": np.greater, "sqrt": np.greater_equal}


def make_matrix_evaluator(
    X: np.ndarray, *, nan_exit: bool = False
) -> Callable[[Node], np.ndarray]:
    """Prepared evaluator over the rows of matrix ``X`` (rows x variables).

    Splits the columns of ``X`` once; the returned callable scores one tree
    per call, one output per row.  It raises :class:`StructuralError` if
    the tree references a variable index ``X`` does not have; numeric
    trouble (division by zero, log of a non-positive, overflow) yields
    non-finite values instead.

    The first time a tree applies ``sin``, ``cos`` or ``log`` to a bare
    variable, the evaluator stores the result, read-only, and later trees
    reuse it: the same function of the same column, so outputs are
    bit-identical.  The store holds at most three times ``X``'s size.

    With ``nan_exit``, a tree whose ``log`` argument is not positive, or
    whose ``sqrt`` argument is negative, in some row (or NaN there) is not
    evaluated further: the callable returns all-NaN rows.  Every operator
    maps a NaN operand to NaN, so such a tree's exact value holds a NaN in
    that row too, and a score that takes any non-finite prediction as the
    worst case, like Pearson R^2, is the same either way.  Inf does not
    exit: ``1/inf`` and ``exp(-inf)`` are finite.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-d (rows x variables)")
    n_rows, n_cols = X.shape
    cols = [np.ascontiguousarray(X[:, j]) for j in range(n_cols)]
    for col in cols:
        col.flags.writeable = False
    # symbol -> that function of each column, filled in on first use
    column_values: dict[str, list] = {s: [None] * n_cols for s in _CACHED_UNARY}
    domain_test = _DOMAIN_TEST if nan_exit else {}
    # symbol -> whether each column passes its domain test
    column_in_domain = {
        s: [bool(test(col, 0.0).all()) for col in cols] for s, test in domain_test.items()
    }

    def evaluate_tree(tree: Node) -> np.ndarray:
        if tree.max_var >= n_cols:
            raise StructuralError(
                f"tree uses variable x{tree.max_var} but data has {n_cols} columns"
            )
        unary, binary = _UNARY_IMPL, _BINARY_IMPL
        stack: list = []
        push, pop = stack.append, stack.pop
        with np.errstate(all="ignore"):
            for node in postorder(tree):
                kids = node.children
                if not kids:
                    push(cols[node.value] if node.symbol == "var" else node.value)
                elif len(kids) == 1:
                    symbol = node.symbol
                    arg = pop()
                    test = domain_test.get(symbol)
                    if kids[0].symbol == "var":
                        j = kids[0].value
                        if test is not None and not column_in_domain[symbol][j]:
                            return np.full(n_rows, np.nan)
                        stored = column_values.get(symbol)
                        if stored is not None:
                            if stored[j] is None:
                                stored[j] = unary[symbol](arg)
                                stored[j].flags.writeable = False
                            push(stored[j])
                            continue
                    elif test is not None and not test(arg, 0.0).all():
                        return np.full(n_rows, np.nan)
                    push(unary[symbol](arg))
                elif len(kids) == 2:  # the common case, kept off the slicing path
                    right = pop()
                    push(binary[node.symbol](pop(), right))
                else:  # n-ary: fold left to right
                    fold = binary[node.symbol]
                    args = stack[-len(kids):]
                    del stack[-len(kids):]
                    acc = args[0]
                    for value in args[1:]:
                        acc = fold(acc, value)
                    push(acc)
        out = pop()
        if np.ndim(out) == 0:
            return np.full(n_rows, float(out))
        if not out.flags.writeable:
            out = out.copy()  # never hand back a column or a stored value
        return out

    return evaluate_tree


def evaluate_matrix(tree: Node, X: np.ndarray) -> np.ndarray:
    """Evaluate one tree over the rows of ``X``; see :func:`make_matrix_evaluator`."""
    return make_matrix_evaluator(X)(tree)


# --- random generation --------------------------------------------------

def _random_leaf(rng: np.random.Generator, n_variables: int) -> Node:
    if n_variables > 0 and rng.random() < 0.5:
        return variable(int(rng.integers(n_variables)))
    return constant(float(rng.uniform(CONSTANT_LOW, CONSTANT_HIGH)))


def random_tree(
    rng: np.random.Generator,
    n_variables: int = 1,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Node:
    """Grow a random tree obeying both the length and the depth cap.

    PTC2-style: a target length is drawn uniformly from [1, max_length],
    then open slots are expanded breadth-first until the committed size
    reaches the target; remaining slots become leaves.  Expansion near the
    target is restricted to arities that cannot overshoot it, so the cap
    holds exactly.  Leaves are a variable (uniform index) or a constant
    (uniform in [-20, 20]) with equal probability.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    target = int(rng.integers(1, max_length + 1))
    if target == 1 or max_depth == 1:
        return _random_leaf(rng, n_variables)

    # Slots are numbered in breadth-first order, which is also the order
    # they are expanded in; an expansion's children are the next free slots.
    nodes: list[Node | None] = [None]
    depths = [1]
    expansions: list[tuple[int, str, int, int]] = []  # (slot, symbol, children's slots)
    committed = 1
    slot = 0
    while slot < len(nodes) and committed < target:
        d = depths[slot]
        choices: list[str] = []
        if d < max_depth:
            if committed + 1 <= target:
                choices.extend(UNARY_SYMBOLS)
            if committed + 2 <= target:
                choices.extend(BINARY_SYMBOLS)
        if choices:
            symbol = choices[int(rng.integers(len(choices)))]
            arity = 1 if symbol in UNARY_SYMBOLS else 2
            expansions.append((slot, symbol, len(nodes), len(nodes) + arity))
            committed += arity
            nodes.extend([None] * arity)
            depths.extend([d + 1] * arity)
        else:
            nodes[slot] = _random_leaf(rng, n_variables)
        slot += 1
    for leaf_slot in range(slot, len(nodes)):
        nodes[leaf_slot] = _random_leaf(rng, n_variables)
    # children sit in later slots, so building in reverse meets them first
    for parent, symbol, start, stop in reversed(expansions):
        nodes[parent] = Node(symbol, None, tuple(nodes[start:stop]))
    return nodes[0]


# --- variation operators ------------------------------------------------

def crossover(
    parent1: Node,
    parent2: Node,
    rng: np.random.Generator,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Node:
    """Subtree crossover.

    Replaces a cut point of ``parent1`` (90% bias toward internal nodes
    when any exist) with a uniformly chosen subtree of ``parent2``.  Cut
    points are re-drawn up to 9 times if the child would exceed
    ``max_length`` or ``max_depth``; after that the unmodified ``parent1``
    is returned (nodes are immutable, so sharing is safe).
    """
    nodes = list(iter_nodes(parent1))
    internal: list[int] = []
    leaves: list[int] = []
    for i, node in enumerate(nodes):
        (internal if node.children else leaves).append(i)
    for _ in range(10):
        if internal and rng.random() < 0.9:
            cut = internal[int(rng.integers(len(internal)))]
        else:  # rng.integers(1) consumes no random bits: a leaf parent costs no draw
            cut = leaves[int(rng.integers(len(leaves)))]
        donor, _ = subtree_at(parent2, int(rng.integers(parent2.size)))
        if (
            parent1.size - nodes[cut].size + donor.size <= max_length
            and subtree_at(parent1, cut)[1] - 1 + donor.height <= max_depth
        ):
            return replace_subtree(parent1, cut, donor)
    return parent1


Site = tuple[int, Node]  # a node and its pre-order index


def _sites(tree: Node) -> dict[str, list[Site]]:
    """Function, constant and variable nodes of ``tree``, keyed ``"function"``,
    ``"const"`` and ``"var"``, each in pre-order; one walk."""
    sites: dict[str, list[Site]] = {"function": [], "const": [], "var": []}
    for i, node in enumerate(iter_nodes(tree)):
        sites["function" if node.children else node.symbol].append((i, node))
    return sites


def _swap_symbol(tree: Node, rng: np.random.Generator, sites: list[Site]) -> Node:
    if not sites:
        return tree
    idx, node = sites[int(rng.integers(len(sites)))]
    pool = UNARY_SYMBOLS if node.symbol in UNARY_SYMBOLS else BINARY_SYMBOLS
    options = [s for s in pool if s != node.symbol]
    symbol = options[int(rng.integers(len(options)))]
    return replace_subtree(tree, idx, Node(symbol, None, node.children))


def _jitter_constant(tree: Node, rng: np.random.Generator, sites: list[Site]) -> Node:
    if not sites:
        return tree
    idx, node = sites[int(rng.integers(len(sites)))]
    return replace_subtree(tree, idx, constant(node.value + rng.normal(0.0, 1.0)))


def _swap_variable(
    tree: Node, rng: np.random.Generator, sites: list[Site], n_variables: int
) -> Node:
    if not sites:
        return tree
    idx, node = sites[int(rng.integers(len(sites)))]
    if n_variables > 1:
        new_index = int(rng.integers(n_variables - 1))
        if new_index >= node.value:
            new_index += 1
    else:
        new_index = node.value
    return replace_subtree(tree, idx, variable(new_index))


def mutate_symbol(tree: Node, rng: np.random.Generator) -> Node:
    """Swap one function node's symbol for a different same-arity symbol."""
    return _swap_symbol(tree, rng, _sites(tree)["function"])


def mutate_constant(tree: Node, rng: np.random.Generator) -> Node:
    """Additive N(0, 1) jitter on one uniformly chosen constant."""
    return _jitter_constant(tree, rng, _sites(tree)["const"])


def mutate_variable(tree: Node, rng: np.random.Generator, n_variables: int) -> Node:
    """Reassign one uniformly chosen variable node to a different index."""
    return _swap_variable(tree, rng, _sites(tree)["var"], n_variables)


def mutate_subtree(
    tree: Node,
    rng: np.random.Generator,
    n_variables: int,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Node:
    """Replace one uniformly chosen subtree with a fresh random tree whose
    length and depth budgets keep the whole tree inside both caps."""
    idx = int(rng.integers(tree.size))
    old, at_depth = subtree_at(tree, idx)
    budget_length = max(1, max_length - tree.size + old.size)
    budget_depth = max(1, max_depth - at_depth + 1)
    fresh = random_tree(rng, n_variables, budget_length, budget_depth)
    return replace_subtree(tree, idx, fresh)


def mutate(
    tree: Node,
    rng: np.random.Generator,
    n_variables: int,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Node:
    """Apply one uniformly chosen mutation mode.

    Modes: (a) arity-preserving symbol change, (b) additive Gaussian
    jitter (sigma = 1) on one constant, (c) variable-index swap, (d)
    replacement of a random subtree by a fresh random tree sized to keep
    both caps.  Modes whose node kind is absent from the tree are excluded
    from the draw; (d) always applies.
    """
    sites = _sites(tree)
    modes = ["subtree"] + [kind for kind in ("function", "const", "var") if sites[kind]]
    mode = modes[int(rng.integers(len(modes)))]
    if mode == "function":
        return _swap_symbol(tree, rng, sites[mode])
    if mode == "const":
        return _jitter_constant(tree, rng, sites[mode])
    if mode == "var":
        return _swap_variable(tree, rng, sites[mode], n_variables)
    return mutate_subtree(tree, rng, n_variables, max_length, max_depth)
