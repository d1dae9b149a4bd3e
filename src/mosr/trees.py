"""Expression-tree genotype: representation, evaluation and variation operators.

A tree is represented by its root :class:`Node`.  Nodes are immutable after
construction, so subtrees are shared freely between trees; crossover and
mutation rebuild only the path from the root to the replaced subtree.

Node positions are pre-order indices (root = 0).  Each node caches its
subtree's size, height and variable and constant counts, so the ``k``-th
node of a kind (any node, a function, a leaf, a constant or a variable) is
found by one descent from the root that skips each child subtree holding
``k`` or fewer such nodes (``k`` counts from 0); no walk lists the tree.  Crossover and
mutation draw ``k`` uniformly from the count of the kind they vary and
rebuild only the path the descent took.  :func:`postorder` lists every
node after its children, the order in which the evaluator, the complexity
measure and the writer fold a value stack without recursion.  Length and
depth are the cached ``Node.size`` and ``Node.height``.

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

from typing import Callable, Sequence

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
    ``height``, ``max_var`` and the variable and constant counts ``n_var``
    and ``n_const`` are cached at construction, so length and depth checks,
    evaluation preconditions and node counts are O(1): the subtree holds
    ``size - n_var - n_const`` function nodes and ``n_var + n_const`` leaves.
    """

    __slots__ = ("symbol", "value", "children", "size", "height", "max_var", "n_var", "n_const")

    def __init__(self, symbol: str, value, children: tuple["Node", ...]):
        self.symbol = symbol
        self.value = value
        self.children = children
        if children:
            size, height, max_var, n_var, n_const = 1, 0, -1, 0, 0
            for c in children:
                size += c.size
                if c.height > height:
                    height = c.height
                if c.max_var > max_var:
                    max_var = c.max_var
                n_var += c.n_var
                n_const += c.n_const
            self.size, self.height, self.max_var = size, height + 1, max_var
            self.n_var, self.n_const = n_var, n_const
        elif symbol == "var":
            self.size = self.height = self.n_var = 1
            self.n_const, self.max_var = 0, value
        else:
            self.size = self.height = self.n_const = 1
            self.n_var, self.max_var = 0, -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        pairs = [(self, other)]  # an explicit stack, so depth is free
        while pairs:
            a, b = pairs.pop()
            if a.symbol != b.symbol or a.size != b.size:
                return False
            if not a.children:
                # a constant by its bits, so 0.0 and -0.0 differ
                if a.value != b.value if a.symbol == "var" else a.value.hex() != b.value.hex():
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


Path = list[tuple[Node, int]]  # each ancestor, root first, and the position of the child taken

# Nodes of each kind in a subtree, read from its cached counts.
_COUNT: dict[str | None, Callable[[Node], int]] = {
    None: lambda n: n.size,
    "function": lambda n: n.size - n.n_var - n.n_const,
    "leaf": lambda n: n.n_var + n.n_const,
    "const": lambda n: n.n_const,
    "var": lambda n: n.n_var,
}


def _descend(tree: Node, index: int, kind: str | None = None) -> tuple[Node, Path]:
    """The ``index``-th node of ``kind`` in pre-order (``None``: any node)
    and the path to it.  One descent: a child subtree holding no more than
    ``index`` nodes of the kind is skipped by its cached count."""
    count = _COUNT[kind]
    if not 0 <= index < count(tree):
        raise IndexError(f"{kind or 'node'} index {index} out of range, tree has {count(tree)}")
    counts_functions = kind is None or kind == "function"
    node = tree
    path: Path = []
    # a leaf reached here is the one node of the kind left, so index is 0
    while node.children:
        if counts_functions:
            if index == 0:
                break
            index -= 1
        for k, child in enumerate(node.children):
            n = count(child)
            if index < n:
                path.append((node, k))
                node = child
                break
            index -= n
    return node, path


def _rebuild(path: Path, replacement: Node) -> Node:
    """The tree with the end of ``path`` (from :func:`_descend`) replaced.

    Only the path from the root is rebuilt; untouched subtrees are shared
    with the input tree.
    """
    for parent, k in reversed(path):
        kids = parent.children
        replacement = Node(parent.symbol, parent.value, kids[:k] + (replacement,) + kids[k + 1:])
    return replacement


def subtree_at(tree: Node, index: int) -> tuple[Node, int]:
    """Subtree rooted at pre-order position ``index`` (root = 0) and its
    depth (root = 1)."""
    node, path = _descend(tree, index)
    return node, len(path) + 1


def replace_subtree(tree: Node, index: int, replacement: Node) -> Node:
    """New tree with the subtree at pre-order position ``index`` replaced."""
    return _rebuild(_descend(tree, index)[1], replacement)


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

# The NaN probe: rows it holds, and the fewest rows of X at which it saved
# more than it cost in a replay of the trees of a keijzer5 run.
_PROBE_ROWS = 32
_PROBE_MIN_ROWS = 2048


def _read_only_columns(X: np.ndarray) -> list[np.ndarray]:
    cols = [np.ascontiguousarray(X[:, j]) for j in range(X.shape[1])]
    for col in cols:
        col.flags.writeable = False
    return cols


def _probe_rows(n_rows: int) -> np.ndarray:
    """Spread evenly from the first row to the last, so a sorted ``X`` is
    covered end to end."""
    return np.linspace(0, n_rows - 1, _PROBE_ROWS).astype(np.intp)


def _make_fold(cols: list[np.ndarray], unary: dict, domain_test: dict) -> Callable:
    """Value-stack fold of a :func:`postorder` node list over the columns
    ``cols``.  The fold returns the tree's value (a scalar, a column or a
    stored array included), or None at the first failed domain test."""
    n_cols = len(cols)
    binary = _BINARY_IMPL
    # symbol -> that function of each column, filled in on first use
    column_values: dict[str, list] = {s: [None] * n_cols for s in _CACHED_UNARY}
    # symbol -> whether each column passes its domain test
    column_in_domain = {
        s: [bool(test(col, 0.0).all()) for col in cols] for s, test in domain_test.items()
    }

    def fold(order: list[Node]):
        stack: list = []
        push, pop = stack.append, stack.pop
        for node in order:
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
                        return None
                    stored = column_values.get(symbol)
                    if stored is not None:
                        if stored[j] is None:
                            stored[j] = unary[symbol](arg)
                            stored[j].flags.writeable = False
                        push(stored[j])
                        continue
                elif test is not None and not test(arg, 0.0).all():
                    return None
                push(unary[symbol](arg))
            elif len(kids) == 2:  # the common case, kept off the slicing path
                right = pop()
                push(binary[node.symbol](pop(), right))
            else:  # n-ary: fold left to right
                fold_op = binary[node.symbol]
                args = stack[-len(kids):]
                del stack[-len(kids):]
                acc = args[0]
                for value in args[1:]:
                    acc = fold_op(acc, value)
                push(acc)
        return pop()

    return fold


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

    With ``nan_exit``, the callable returns all-NaN rows for some trees
    whose exact value holds a NaN in some row, without evaluating them in
    full.  A score that takes any non-finite prediction as the worst case,
    like Pearson R^2, is the same either way.  Such a tree is one whose
    ``log`` argument is not positive, or whose ``sqrt`` argument is
    negative, in some row (or NaN there): every operator maps a NaN operand
    to NaN.  Inf does not exit: ``1/inf`` and ``exp(-inf)`` are finite.
    From ``_PROBE_MIN_ROWS`` rows on, a tree holding a ``log`` or ``sqrt``
    is first evaluated on ``_PROBE_ROWS`` rows spread evenly over ``X``;
    a failed domain test or a NaN there ends it as well.  Every operator
    is elementwise, so a probe row is bit-equal to that row of the full
    evaluation.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-d (rows x variables)")
    n_rows, n_cols = X.shape
    domain_test = _DOMAIN_TEST if nan_exit else {}
    # a log argument that passed its domain test needs no masking: np.log
    # of it is bit-equal to _log_nonpositive_nan
    unary = dict(_UNARY_IMPL, log=np.log) if nan_exit else _UNARY_IMPL
    fold = _make_fold(_read_only_columns(X), unary, domain_test)
    probe = None
    if nan_exit and n_rows >= _PROBE_MIN_ROWS:
        probe = _make_fold(_read_only_columns(X[_probe_rows(n_rows)]), unary, domain_test)

    def evaluate_tree(tree: Node) -> np.ndarray:
        if tree.max_var >= n_cols:
            raise StructuralError(
                f"tree uses variable x{tree.max_var} but data has {n_cols} columns"
            )
        order = postorder(tree)
        with np.errstate(all="ignore"):
            if probe is not None and not domain_test.keys().isdisjoint(
                node.symbol for node in order
            ):
                out = probe(order)
                if out is None or np.isnan(out).any():
                    return np.full(n_rows, np.nan)
            out = fold(order)
        if out is None:
            return np.full(n_rows, np.nan)
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
    for _ in range(10):  # a tree has internal nodes exactly when its root is one
        kind = "function" if parent1.children and rng.random() < 0.9 else "leaf"
        # rng.integers(1) consumes no random bits: a leaf parent costs no draw
        cut, path = _descend(parent1, int(rng.integers(_COUNT[kind](parent1))), kind)
        donor, _ = _descend(parent2, int(rng.integers(parent2.size)))
        if (
            parent1.size - cut.size + donor.size <= max_length
            and len(path) + donor.height <= max_depth
        ):
            return _rebuild(path, donor)
    return parent1


_POINT_KINDS = ("function", "const", "var")


def mutate_point(tree: Node, rng: np.random.Generator, kind: str, n_variables: int) -> Node:
    """Change one uniformly chosen node of ``kind``, keeping the tree's shape.

    ``"function"``: swap its symbol for a different one of the same arity.
    ``"const"``: add N(0, 1) jitter to its value.  ``"var"``: reassign it to
    a different index below ``n_variables`` (kept when there is only one).
    A tree without such a node is returned unchanged, with no draw.
    """
    if kind not in _POINT_KINDS:
        raise ValueError(f"unknown point mutation kind {kind!r} (choose from {_POINT_KINDS})")
    n = _COUNT[kind](tree)
    if not n:
        return tree
    node, path = _descend(tree, int(rng.integers(n)), kind)
    if kind == "function":
        pool = UNARY_SYMBOLS if node.symbol in UNARY_SYMBOLS else BINARY_SYMBOLS
        options = [s for s in pool if s != node.symbol]
        new = Node(options[int(rng.integers(len(options)))], None, node.children)
    elif kind == "const":
        new = constant(node.value + rng.normal(0.0, 1.0))
    else:
        index = node.value
        if n_variables > 1:
            index = int(rng.integers(n_variables - 1))
            if index >= node.value:
                index += 1
        new = variable(index)
    return _rebuild(path, new)


def mutate_subtree(
    tree: Node,
    rng: np.random.Generator,
    n_variables: int,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Node:
    """Replace one uniformly chosen subtree with a fresh random tree whose
    length and depth budgets keep the whole tree inside both caps."""
    old, path = _descend(tree, int(rng.integers(tree.size)))
    budget_length = max(1, max_length - tree.size + old.size)
    budget_depth = max(1, max_depth - len(path))
    fresh = random_tree(rng, n_variables, budget_length, budget_depth)
    return _rebuild(path, fresh)


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
    from the draw; (d) always applies.  (a)-(c) are :func:`mutate_point`.
    """
    modes = ["subtree"] + [kind for kind in _POINT_KINDS if _COUNT[kind](tree)]
    mode = modes[int(rng.integers(len(modes)))]
    if mode == "subtree":
        return mutate_subtree(tree, rng, n_variables, max_length, max_depth)
    return mutate_point(tree, rng, mode, n_variables)
