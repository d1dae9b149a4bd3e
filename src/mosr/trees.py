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
rebuild only the path the descent took.  :func:`structure_key` encodes a
tree in one walk: its variable count, then one item per node, each node
after its children.  Equal trees have equal keys and only they do, and the
evaluator, the complexity measures and the writer fold a value stack over
the items without recursion.  Length and depth are the cached ``Node.size``
and ``Node.height``.

There is one evaluator: :func:`make_matrix_evaluator` prepares the columns
of a matrix once and returns a callable that evaluates trees on them;
:func:`evaluate_matrix` is that callable applied to a single tree.  Given
a score function (the search objective's 1 - R^2), the callable returns the
score of the values instead.  Its ``prepare`` is then the one scorer: it
keys each tree of a batch and scores the distinct keys, with the help of
forked worker processes that score chunks of keys while the batch is still
being drawn, and keeps the scores of the distinct trees it saw last, by
key; a call for a tree outside the last batch is a batch of one.

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

import os
import signal
import threading
import weakref
from collections import OrderedDict, deque
from typing import Callable, Iterable, Sequence

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


def structure_key(tree: Node) -> tuple:
    """The tree's variable count, then one item per node, each node after
    its children and children left to right; one walk, no recursion.

    A variable is its index (an int).  A constant is its value (a float),
    or the value's ``float.hex`` (a str) when the value is integral or NaN,
    so that no constant equals a variable's index, ``0.0`` is not ``-0.0``
    and every NaN is the same constant.  A function is its symbol, with its
    child count when it has more than two.  Read with those arities, the
    items spell exactly one tree, so keys are equal iff the trees are
    (``Node.__eq__``); a value stack folded over them finds a node's child
    values on top, first child deepest.
    """
    # visiting the last child first and reversing gives exactly this order
    items: list = []
    append = items.append
    todo = [tree]
    pop = todo.pop
    while todo:
        node = pop()
        kids = node.children
        if kids:
            append(node.symbol if len(kids) < 3 else (node.symbol, len(kids)))
            todo += kids
        elif node.symbol == "var":
            append(node.value)
        else:
            value = node.value
            append(value.hex() if value.is_integer() or value != value else value)
    append(tree.n_var)
    items.reverse()
    return tuple(items)


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

# Distinct trees whose score a scoring evaluator keeps.  In a poly10 run of
# 50k evaluations, 62.3 % repeated an earlier tree and 59.4 % one of the
# last 2048 distinct trees; in a keijzer5 run of 5000 on 15k rows, 34.5 %
# and 34.4 %.
_MEMO_SIZE = 2048

# Scoring workers (see :class:`_Workers`): the trees sent in one message and
# the messages a worker may hold unanswered.  Sending a chunk of 8 distinct
# trees of a keijzer5 or a noisy4 run costs this process 80-140 us, a third
# to a twelfth of scoring it here, from 2 rows of X to 15,000, so no row
# count is too few for a worker.
_CHUNK_TREES = 8
_CHUNKS_IN_FLIGHT = 2


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
    """Value-stack fold of a :func:`structure_key` over the columns
    ``cols``.  The fold returns the tree's value (a scalar, a column or a
    stored array included), or None at the first failed domain test."""
    n_cols = len(cols)
    binary = _BINARY_IMPL
    fromhex = float.fromhex
    # symbol -> whether each column passes its domain test
    column_in_domain = {
        s: [bool(test(col, 0.0).all()) for col in cols] for s, test in domain_test.items()
    }
    # symbol -> the function, its domain test or None, and its value of each
    # column, filled in on first use, or None when it is not stored
    unary_ops = {
        s: (op, domain_test.get(s), [None] * n_cols if s in _CACHED_UNARY else None)
        for s, op in unary.items()
    }

    def fold(key: tuple):
        stack: list = []
        push, pop = stack.append, stack.pop
        items = iter(key)
        next(items)  # the variable count
        prev = None  # the item before, a unary function's child when it is a leaf
        for item in items:
            kind = type(item)
            if kind is str:
                entry = unary_ops.get(item)
                if entry is not None:
                    op, test, stored = entry
                    if type(prev) is int:  # of a bare column
                        if test is not None and not column_in_domain[item][prev]:
                            return None
                        if stored is None:
                            stack[-1] = op(stack[-1])
                        else:
                            if stored[prev] is None:
                                stored[prev] = op(stack[-1])
                                stored[prev].flags.writeable = False
                            stack[-1] = stored[prev]
                    elif test is not None and not test(stack[-1], 0.0).all():
                        return None
                    else:
                        stack[-1] = op(stack[-1])
                elif item in binary:
                    right = pop()
                    stack[-1] = binary[item](stack[-1], right)
                else:  # a constant's float.hex
                    push(fromhex(item))
            elif kind is int:
                push(cols[item])
            elif kind is float:
                push(item)
            else:  # an n-ary function: fold its children left to right
                symbol, n = item
                op = binary[symbol]
                args = stack[-n:]
                del stack[-n:]
                acc = args[0]
                for value in args[1:]:
                    acc = op(acc, value)
                push(acc)
            prev = item
        return pop()

    return fold


def _holds_no_nan(out) -> bool:
    """Whether a fold passed every domain test and its value has no NaN."""
    return out is not None and not np.isnan(out).any()


def make_matrix_evaluator(
    X: np.ndarray,
    *,
    score: Callable[[np.ndarray], object] | None = None,
    measure: Callable[[tuple], object] | None = None,
    shares: int = 1,
) -> Callable[[Node], object]:
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

    With ``score``, a function of one prediction vector that returns the
    same value for every vector holding a NaN (Pearson R^2 is one), the
    callable returns ``score`` of the tree's values instead of the values.
    ``score`` must not write to its argument, which may be a column of
    ``X`` or a stored value.  With ``measure`` as well, a function of a
    tree's :func:`structure_key` (``make_measure(...).fold``), the callable
    returns the pair ``(score, measure)``, and the measure is folded over
    the key the evaluator made.  The value of each of the last
    ``_MEMO_SIZE`` distinct trees scored is kept by key, and a tree equal
    to one of them gets its kept value without being evaluated.

    Given ``score``, the callable also returns the score of an all-NaN
    vector, computed once, for some trees whose exact value holds a NaN in
    some row, without evaluating them in full: trees whose ``log``
    argument is not positive, or whose ``sqrt`` argument is negative, in
    some row (or NaN there), since every operator maps a NaN operand to
    NaN.  Inf does not exit: ``1/inf`` and ``exp(-inf)`` are finite.  From
    ``_PROBE_MIN_ROWS`` rows on, a tree holding a ``log`` or ``sqrt`` is
    first evaluated on ``_PROBE_ROWS`` rows spread evenly over ``X``; a
    failed domain test or a NaN there ends it as well.  Every operator is
    elementwise, so a probe row is bit-equal to that row of the full
    evaluation.

    The scoring callable has a ``prepare(trees)`` method, the only code
    that scores a tree.  It takes any iterable, an iterator that draws the
    trees lazily included, keys each tree once as it comes, scores the
    distinct keys that are not kept, and leaves every kept value, and the
    order in which they were last used, as the calls one by one in batch
    order would; each later call for one of these tree objects returns its
    value at once, until the next ``prepare``.  A call for any other tree
    checks its variables and is ``prepare`` of that tree alone.  A tree
    using a variable ``X`` lacks is left to its call, which raises.

    Every batch is scored by one loop, in chunks of ``_CHUNK_TREES`` keys
    (see :class:`_Workers`).  With ``shares`` above 1, up to ``shares - 1``
    worker processes take whole chunks while the iterator draws the next
    trees; this process scores the chunks no worker took, all of them when
    ``shares`` is 1, ``os.fork`` does not exist or other threads run.  A
    tree's value depends on its key alone, so where it is computed changes
    no value.  The callable's ``close()`` ends the workers; it is
    idempotent, and runs when the callable is collected.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-d (rows x variables)")
    n_rows, n_cols = X.shape

    def check_columns(tree: Node) -> None:
        if tree.max_var >= n_cols:
            raise StructuralError(
                f"tree uses variable x{tree.max_var} but data has {n_cols} columns"
            )

    if score is None:
        fold = _make_fold(_read_only_columns(X), _UNARY_IMPL, {})

        def evaluate_tree(tree: Node) -> np.ndarray:
            check_columns(tree)
            with np.errstate(all="ignore"):
                out = fold(structure_key(tree))
            if np.ndim(out) == 0:
                return np.full(n_rows, float(out))
            if not out.flags.writeable:
                out = out.copy()  # never hand back a column or a stored value
            return out

        return evaluate_tree

    # a log argument that passed its domain test needs no masking: np.log
    # of it is bit-equal to _log_nonpositive_nan
    unary = dict(_UNARY_IMPL, log=np.log)
    fold = _make_fold(_read_only_columns(X), unary, _DOMAIN_TEST)
    probe = None
    if n_rows >= _PROBE_MIN_ROWS:
        probe = _make_fold(_read_only_columns(X[_probe_rows(n_rows)]), unary, _DOMAIN_TEST)
    nan_score = score(np.full(n_rows, np.nan))
    memo: OrderedDict[tuple, object] = OrderedDict()  # least recently used first
    # id of each tree of the last prepared batch -> (the tree, its value)
    prepared: dict[int, tuple[Node, object]] = {}

    def score_key(key: tuple):
        out = None
        with np.errstate(all="ignore"):
            if (
                probe is None
                or _DOMAIN_TEST.keys().isdisjoint(key)
                or _holds_no_nan(probe(key))
            ):
                out = fold(key)
        if out is None:
            value = nan_score
        else:
            value = score(np.full(n_rows, float(out)) if np.ndim(out) == 0 else out)
        return value if measure is None else (value, measure(key))

    workers = _Workers(score_key, shares - 1 if hasattr(os, "fork") else 0)

    def score_tree(tree: Node):
        entry = prepared.get(id(tree))
        if entry is None or entry[0] is not tree:
            check_columns(tree)  # a bad tree raises on every call
            prepare([tree])
            entry = prepared[id(tree)]
        return entry[1]

    def prepare(trees: Iterable[Node]) -> None:
        prepared.clear()
        batch: list[Node] = []
        keys: list[tuple | None] = []  # None: a tree the call rejects
        values: dict[tuple, object] = {}  # key -> value, for the kept trees
        misses: set[tuple] = set()  # the keys of the rest
        try:
            for tree in trees:
                batch.append(tree)
                if tree.max_var >= n_cols:
                    keys.append(None)
                    continue
                key = structure_key(tree)
                keys.append(key)
                if key in memo:
                    values[key] = memo[key]
                elif key not in misses:
                    misses.add(key)
                    workers.deal(key)
            values.update(workers.finish())
        except BaseException:
            workers.abandon()
            raise
        # the kept values and their order of use, as the calls would leave them
        for tree, key in zip(batch, keys):
            if key is not None:
                if key in memo:
                    memo.move_to_end(key)
                else:
                    memo[key] = values[key]
                    if len(memo) > _MEMO_SIZE:
                        memo.popitem(last=False)
                prepared[id(tree)] = (tree, values[key])

    score_tree.prepare = prepare
    score_tree.close = workers.close
    weakref.finalize(score_tree, workers.close)
    return score_tree


def _serve(score_key: Callable, conn) -> None:
    """A worker's life: receive chunks of structure keys on ``conn`` and
    send back their values, until the run's process kills it or closes its
    end of ``conn`` (an ``EOFError``).  Never returns."""
    try:
        while True:
            keys = conn.recv()
            conn.send([score_key(key) for key in keys])
    finally:
        os._exit(0)


class _Worker:
    __slots__ = ("pid", "conn", "in_flight")

    def __init__(self, pid: int, conn):
        self.pid = pid
        self.conn = conn  # this process's end of its duplex connection
        self.in_flight: deque[list] = deque()  # chunks sent and not answered, oldest first


class _Workers:
    """The scorer of one evaluator's batches, dealt in chunks: this process
    scores every chunk that none of up to ``limit`` workers, processes
    forked lazily and once each (never while other threads run), takes.

    A worker inherits ``score_key`` at the fork and talks to this process
    through one duplex ``multiprocessing.connection`` pipe.  It is sent a
    chunk as the structure keys of its trees, scores each key as it is,
    and answers with the chunk's values in order; each worker holds at
    most ``_CHUNKS_IN_FLIGHT`` chunks unanswered.  A worker that dies, or
    whose connection fails, is reaped and its unanswered chunks go back to
    the queue; when a pipe or a fork fails, no worker is forked again.  A
    worker is ended by a signal, whatever other processes hold its
    connection.
    """

    def __init__(self, score_key: Callable, limit: int):
        self.score_key = score_key
        self.forks_left = limit
        self.live: dict = {}  # connection -> _Worker, by this process's end
        self.queue: deque[list] = deque()  # whole chunks no worker has taken yet
        self.chunk: list = []  # the keys of the chunk being filled
        self.values: dict = {}  # key -> value, of the answered chunks

    def deal(self, key: tuple) -> None:
        self.chunk.append(key)
        if len(self.chunk) == _CHUNK_TREES:
            self.queue.append(self.chunk)
            self.chunk = []
            self._top_up()

    def finish(self) -> dict:
        """The value of every key dealt since the last ``finish``: this
        process scores the last, partial chunk and the whole ones no worker
        takes, then waits for the rest."""
        rest, self.chunk = self.chunk, []
        while True:
            self._top_up()
            if rest or self.queue:
                for key in rest or self.queue.pop():
                    self.values[key] = self.score_key(key)
                rest = []
            elif any(worker.in_flight for worker in self.live.values()):
                self._collect(None)
            else:
                break
        values, self.values = self.values, {}
        return values

    def abandon(self) -> None:
        """Drop the batch being dealt: a worker that owes replies is
        retired, so that no later batch reads them."""
        for worker in [worker for worker in self.live.values() if worker.in_flight]:
            self._retire(worker)
        self.queue.clear()
        self.chunk, self.values = [], {}

    def close(self) -> None:
        """End and reap every worker; no worker is forked after this."""
        self.forks_left = 0
        for worker in list(self.live.values()):
            self._retire(worker)

    def _top_up(self) -> None:
        """Read the replies that are ready, then send queued chunks to the
        workers with room, forking one when none has room."""
        self._collect(0)
        while self.queue:
            worker = min(self.live.values(), key=lambda w: len(w.in_flight), default=None)
            if worker is None or len(worker.in_flight) >= _CHUNKS_IN_FLIGHT:
                worker = self._fork()
                if worker is None:
                    return
            chunk = self.queue.popleft()
            worker.in_flight.append(chunk)
            try:
                worker.conn.send(chunk)
            except OSError:  # it died: its chunks are queued again
                self.queue.extend(self._retire(worker))

    def _collect(self, timeout: float | None) -> None:
        """Read every reply that is ready, waiting up to ``timeout`` seconds
        (None: until one is)."""
        if not self.live:
            return
        from multiprocessing.connection import wait  # imported by the first fork

        for conn in wait(list(self.live), timeout):
            worker = self.live[conn]
            try:
                # every reply it has sent, so that it has room for as many chunks
                while True:
                    values = conn.recv()
                    self.values.update(zip(worker.in_flight.popleft(), values))
                    if not (worker.in_flight and conn.poll()):
                        break
            except (EOFError, OSError):  # it died: its chunks are queued again
                self.queue.extend(self._retire(worker))

    def _fork(self) -> _Worker | None:
        # a fork copies only the calling thread: another's locks stay held
        if self.forks_left <= 0 or threading.active_count() > 1:
            return None
        self.forks_left -= 1
        # here, so that importing the package or a run with no worker skips it
        from multiprocessing.connection import Pipe

        ends = ()
        try:
            ends = Pipe()
            pid = os.fork()
        except OSError:  # no pipe or no process: score here from now on
            for end in ends:
                end.close()
            self.forks_left = 0
            return None
        conn, child = ends
        if pid == 0:
            conn.close()  # so that the run's process, should it die, ends the input
            _serve(self.score_key, child)
        child.close()
        worker = _Worker(pid, conn)
        self.live[conn] = worker
        return worker

    def _retire(self, worker: _Worker) -> deque[list]:
        """End ``worker`` by SIGKILL, even mid-chunk, reap it, close this
        process's end of its connection, and return its unanswered chunks."""
        del self.live[worker.conn]
        os.kill(worker.pid, signal.SIGKILL)
        os.waitpid(worker.pid, 0)
        worker.conn.close()
        return worker.in_flight


def evaluate_matrix(tree: Node, X: np.ndarray) -> np.ndarray:
    """Evaluate one tree over the rows of ``X``; see :func:`make_matrix_evaluator`."""
    return make_matrix_evaluator(X)(tree)


# --- random generation --------------------------------------------------

# The symbols a slot may take when the tree has room for both arities; with
# room for one more node only, the unary ones, which come first.
_ANY_ARITY = UNARY_SYMBOLS + BINARY_SYMBOLS
_N_UNARY = len(UNARY_SYMBOLS)


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
    integers, random, uniform = rng.integers, rng.random, rng.uniform
    target = 1 + int(integers(max_length))

    # Slots are numbered in breadth-first order, which is also the order
    # they are filled in; an expansion's children are the next free slots.
    nodes: list[Node | None] = [None]
    depths = [1]
    expansions: list[tuple[int, str, int, int]] = []  # (slot, symbol, children's slots)
    committed = 1
    slot = 0
    while slot < len(nodes):
        depth = depths[slot]
        if committed < target and depth < max_depth:  # so a unary node fits
            choices = _ANY_ARITY if committed + 2 <= target else UNARY_SYMBOLS
            k = int(integers(len(choices)))
            arity = 1 if k < _N_UNARY else 2
            expansions.append((slot, choices[k], len(nodes), len(nodes) + arity))
            committed += arity
            nodes += (None,) * arity
            depths += (depth + 1,) * arity
        elif n_variables > 0 and random() < 0.5:
            nodes[slot] = Node("var", int(integers(n_variables)), ())
        else:
            nodes[slot] = Node("const", float(uniform(CONSTANT_LOW, CONSTANT_HIGH)), ())
        slot += 1
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
