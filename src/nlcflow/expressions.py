"""Expressions in x, y for initial data and forcing, parsed without eval.

Grammar: int/float literals, x, y, pi, unary + -, binary + - * /, ** with an
exponent free of x and y, and one-argument sin/cos. Each ast node is checked
as its numpy closure is built, so anything else raises ConfigError first.
"""

import ast
import operator

import numpy as np

from .errors import ConfigError

_UNOP = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINOP = {ast.Add: operator.add, ast.Sub: operator.sub,
          ast.Mult: operator.mul, ast.Div: operator.truediv,
          ast.Pow: operator.pow}
_NAMES = {"x": lambda X, Y: X, "y": lambda X, Y: Y, "pi": lambda X, Y: np.pi}
_FUNCS = {"sin": np.sin, "cos": np.cos}


def _build(node):
    """The numpy closure f(X, Y) of one node of the tree."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = np.float64(node.value)
        return lambda X, Y: value
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNOP:
        op, f = _UNOP[type(node.op)], _build(node.operand)
        return lambda X, Y: op(f(X, Y))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOP:
        op, f, g = _BINOP[type(node.op)], _build(node.left), _build(node.right)
        if op is operator.pow and any(getattr(n, "id", "") in ("x", "y")
                                      for n in ast.walk(node.right)):
            raise ConfigError("exponent must not depend on x or y")
        return lambda X, Y: op(f(X, Y), g(X, Y))
    if (isinstance(node, ast.Call) and getattr(node.func, "id", "") in _FUNCS
            and len(node.args) == 1 and not node.keywords):
        fn, f = _FUNCS[node.func.id], _build(node.args[0])
        return lambda X, Y: fn(f(X, Y))
    raise ConfigError(f"{type(node).__name__} is not in the grammar")


def parse_expression(text: str):
    """Parse an expression in x, y into a vectorized callable f(X, Y)."""
    try:
        fn = _build(ast.parse(text, mode="eval").body)
    except (ConfigError, SyntaxError, TypeError, ValueError, OverflowError,
            RecursionError, MemoryError) as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc
    # a fresh float array of the broadcast shape, also for a constant
    return lambda xx, yy: np.full(np.broadcast(xx, yy).shape, fn(xx, yy),
                                  dtype=float)
