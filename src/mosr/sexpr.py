"""S-expression reader/writer for expression trees.

This is the on-disk model format.  ``add sub mul`` print as ``+ - *``,
division prints as ``div`` (to keep ``-`` unambiguous as a sign),
everything else by name.  Variables print as ``x<index>``; constants use
the shortest decimal that parses back to the identical float.
"""

from __future__ import annotations

import math
import re

from .trees import (
    BINARY_SYMBOLS,
    UNARY_SYMBOLS,
    Node,
    constant,
    function,
    postorder,
    variable,
)


class ParseError(ValueError):
    """Malformed s-expression; ``position`` is the 1-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_PRINT_NAME = {"add": "+", "sub": "-", "mul": "*", "div": "div"}
_SYMBOL_FOR_TOKEN = {"+": "add", "-": "sub", "*": "mul", "div": "div"} | {
    symbol: symbol for symbol in UNARY_SYMBOLS
}

# a parenthesis, or an atom: a run of anything but whitespace and parentheses
# (``\s`` in a str pattern is exactly what ``str.isspace`` accepts)
_TOKEN_RE = re.compile(r"[()]|[^\s()]+")
_VARIABLE_RE = re.compile(r"^x(\d+)$")
_NUMBER_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?$")


def format_constant(value: float) -> str:
    """Shortest exact decimal for a finite float ("1" rather than "1.0",
    "-0" for negative zero)."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite constant {value!r}")
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def to_sexpr(tree: Node) -> str:
    """The tree's text; an explicit stack, so any depth can be written."""
    stack: list[str] = []
    for node in postorder(tree):
        kids = node.children
        if node.symbol == "const":
            stack.append(format_constant(node.value))
        elif node.symbol == "var":
            stack.append(f"x{node.value}")
        else:  # a node's child texts are the top len(kids), first child deepest
            parts = stack[-len(kids):]
            del stack[-len(kids):]
            name = _PRINT_NAME.get(node.symbol, node.symbol)
            stack.append("(" + " ".join([name] + parts) + ")")
    return stack[0]


def _leaf_from_atom(token: str, pos: int) -> Node:
    m = _VARIABLE_RE.match(token)
    if m:
        return variable(int(m.group(1)))
    if _NUMBER_RE.match(token):
        value = float(token)
        if not math.isfinite(value):
            raise ParseError(f"constant '{token}' overflows the float range", pos + 1)
        return constant(value)
    if token in _SYMBOL_FOR_TOKEN:
        raise ParseError(
            f"function symbol '{token}' must be applied in parentheses", pos + 1
        )
    raise ParseError(f"unknown symbol '{token}'", pos + 1)


def _close_function(frame, close_pos: int) -> Node:
    token, symbol, sym_pos, kids, _open_pos = frame
    if symbol is None:
        raise ParseError("empty '()' expression", close_pos + 1)
    if symbol in UNARY_SYMBOLS:
        if len(kids) != 1:
            raise ParseError(
                f"'{token}' expects exactly 1 argument, got {len(kids)}", sym_pos + 1
            )
    elif len(kids) < 2:
        raise ParseError(
            f"'{token}' expects at least 2 arguments, got {len(kids)}", sym_pos + 1
        )
    return function(symbol, kids)


def parse_sexpr(text: str) -> Node:
    """Parse one expression; errors report a 1-based character position."""
    # frame: [surface token, symbol, symbol position, children, '(' position]
    stack: list[list] = []
    result: Node | None = None
    for match in _TOKEN_RE.finditer(text):
        token, pos = match.group(), match.start()
        if result is not None:
            raise ParseError("unexpected trailing content", pos + 1)
        if token == ")":
            if not stack:
                raise ParseError("unexpected ')'", pos + 1)
            node = _close_function(stack.pop(), pos)
        elif stack and stack[-1][1] is None:  # a '(' here is no function symbol either
            symbol = _SYMBOL_FOR_TOKEN.get(token)
            if symbol is None:
                raise ParseError(f"unknown function symbol '{token}'", pos + 1)
            stack[-1][:3] = token, symbol, pos
            continue
        elif token == "(":
            stack.append([None, None, None, [], pos])
            continue
        else:
            node = _leaf_from_atom(token, pos)
        if stack:
            stack[-1][3].append(node)
        else:
            result = node

    if stack:
        raise ParseError("missing ')'", stack[-1][4] + 1)
    if result is None:
        raise ParseError("empty input", 1)
    return result
