"""The operation set O (Definition 1): unary and binary feature transforms.

Every operation is numerically guarded — ``log``, ``divide``, ``sqrt`` and
friends never emit NaN/inf — because the RL agents will compose them blindly
and the downstream oracle requires finite inputs. :func:`guard` is that
guard: NaN becomes 0.0 and every value, ±inf included, is clipped to
±1e12, in one ``clip`` pass and one NaN fill, byte-identical to the
two-call reference guard in ``tests/reference/operations.py``.
:class:`Operation` applies it after every kernel; the serving compiler
calls ``fn`` and :func:`guard` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Operation",
    "UNARY_OPERATIONS",
    "BINARY_OPERATIONS",
    "OPERATIONS",
    "OPERATION_NAMES",
    "get_operation",
    "guard",
]

_CLIP = 1e12


def guard(values: np.ndarray) -> np.ndarray:
    """Map NaN to 0.0 and clip to ±1e12 (±inf included), in a new array."""
    out = np.clip(values, -_CLIP, _CLIP)  # ±inf -> ±_CLIP; NaN passes through
    if out.ndim == 0:
        # A 0-d input comes back as a NumPy scalar, which copyto cannot fill.
        return out.dtype.type(0.0) if np.isnan(out) else out
    np.copyto(out, 0.0, where=np.isnan(out))
    return out


@dataclass(frozen=True)
class Operation:
    """A named transform with arity 1 or 2 and an infix template.

    ``template`` uses ``{0}`` / ``{1}`` placeholders, e.g. ``"({0}+{1})"`` or
    ``"sqrt({0})"`` — this is what makes generated features traceable
    (Table IV / Fig 15).
    """

    name: str
    arity: int
    fn: Callable[..., np.ndarray]
    template: str

    def __call__(self, *args: np.ndarray) -> np.ndarray:
        if len(args) != self.arity:
            raise ValueError(f"{self.name} expects {self.arity} operand(s), got {len(args)}")
        with np.errstate(all="ignore"):
            return guard(self.fn(*[np.asarray(a, dtype=float) for a in args]))

    def format(self, *operands: str) -> str:
        return self.template.format(*operands)


UNARY_OPERATIONS: list[Operation] = [
    Operation("square", 1, lambda a: a * a, "({0})^2"),
    Operation("sqrt", 1, lambda a: np.sqrt(np.abs(a)), "sqrt(|{0}|)"),
    Operation("log", 1, lambda a: np.log(np.abs(a) + 1.0), "log(|{0}|+1)"),
    Operation("exp", 1, lambda a: np.exp(np.clip(a, -25.0, 25.0)), "exp({0})"),
    Operation("reciprocal", 1, lambda a: 1.0 / (a + np.where(a >= 0, 1e-6, -1e-6)), "1/({0})"),
    Operation("sin", 1, np.sin, "sin({0})"),
    Operation("cos", 1, np.cos, "cos({0})"),
    Operation("tanh", 1, np.tanh, "tanh({0})"),
    Operation("cube", 1, lambda a: a * a * a, "({0})^3"),
    Operation(
        "sigmoid", 1, lambda a: 1.0 / (1.0 + np.exp(-np.clip(a, -25.0, 25.0))), "sigmoid({0})"
    ),
]

BINARY_OPERATIONS: list[Operation] = [
    Operation("add", 2, lambda a, b: a + b, "({0}+{1})"),
    Operation("subtract", 2, lambda a, b: a - b, "({0}-{1})"),
    Operation("multiply", 2, lambda a, b: a * b, "({0}*{1})"),
    Operation(
        "divide", 2, lambda a, b: a / (b + np.where(b >= 0, 1e-6, -1e-6)), "({0}/{1})"
    ),
]

OPERATIONS: list[Operation] = UNARY_OPERATIONS + BINARY_OPERATIONS
OPERATION_NAMES: list[str] = [op.name for op in OPERATIONS]
_BY_NAME = {op.name: op for op in OPERATIONS}


def get_operation(name: str) -> Operation:
    """Look up an operation by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"Unknown operation {name!r}. Available: {OPERATION_NAMES}") from None
