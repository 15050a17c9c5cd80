"""Value semantics for the PPS-C IR.

PPS-C has a single scalar type: a 32-bit two's-complement integer (the word
size of the IXP MicroEngines).  The IR interpreter and constant folder both
normalize every arithmetic result through :func:`wrap32`.
"""

from __future__ import annotations

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1
INT_MIN = -(1 << (WORD_BITS - 1))
INT_MAX = (1 << (WORD_BITS - 1)) - 1


def wrap32(value: int) -> int:
    """Wrap an arbitrary Python int to signed 32-bit two's complement."""
    value &= WORD_MASK
    if value > INT_MAX:
        value -= 1 << WORD_BITS
    return value


def to_unsigned(value: int) -> int:
    """View a signed 32-bit value as unsigned (for shifts and printing)."""
    return value & WORD_MASK


def _div32(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise ZeroDivisionError("division by zero")
    quotient = abs(lhs) // abs(rhs)
    if (lhs < 0) != (rhs < 0):
        quotient = -quotient
    return wrap32(quotient)


def _mod32(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise ZeroDivisionError("modulo by zero")
    return wrap32(lhs - _div32(lhs, rhs) * rhs)


#: Binary operator -> implementation over wrapped 32-bit signed values.
#: Division/modulo follow C semantics (truncation toward zero); division by
#: zero raises ``ZeroDivisionError`` (the interpreter turns it into a trap).
#: Shift counts are masked to 5 bits, as on the IXP ALU.  The interpreter
#: generates the same arithmetic inline (``runtime/compile.py``, held to
#: these functions by ``tests/test_runtime_compile.py``) and calls only
#: division and modulo.
BINARY_FUNCS: dict = {
    "+": lambda lhs, rhs: wrap32(lhs + rhs),
    "-": lambda lhs, rhs: wrap32(lhs - rhs),
    "*": lambda lhs, rhs: wrap32(lhs * rhs),
    "/": _div32,
    "%": _mod32,
    "&": lambda lhs, rhs: wrap32(lhs & rhs),
    "|": lambda lhs, rhs: wrap32(lhs | rhs),
    "^": lambda lhs, rhs: wrap32(lhs ^ rhs),
    "<<": lambda lhs, rhs: wrap32(lhs << (rhs & 31)),
    # Arithmetic shift on signed values, like the MicroEngine ALU.
    ">>": lambda lhs, rhs: wrap32(lhs >> (rhs & 31)),
    "==": lambda lhs, rhs: int(lhs == rhs),
    "!=": lambda lhs, rhs: int(lhs != rhs),
    "<": lambda lhs, rhs: int(lhs < rhs),
    "<=": lambda lhs, rhs: int(lhs <= rhs),
    ">": lambda lhs, rhs: int(lhs > rhs),
    ">=": lambda lhs, rhs: int(lhs >= rhs),
}

#: Unary operator -> implementation over wrapped 32-bit signed values.
UNARY_FUNCS: dict = {
    "-": lambda operand: wrap32(-operand),
    "~": lambda operand: wrap32(~operand),
    "!": lambda operand: int(operand == 0),
}


def binary_func(op: str):
    """The implementation function of a binary operator (for compilers)."""
    func = BINARY_FUNCS.get(op)
    if func is None:
        raise ValueError(f"unknown binary operator {op!r}")
    return func


def eval_binary(op: str, lhs: int, rhs: int) -> int:
    """Evaluate a PPS-C binary operator on 32-bit values."""
    func = BINARY_FUNCS.get(op)
    if func is None:
        raise ValueError(f"unknown binary operator {op!r}")
    return func(lhs, rhs)


def eval_unary(op: str, operand: int) -> int:
    """Evaluate a PPS-C unary operator on a 32-bit value."""
    func = UNARY_FUNCS.get(op)
    if func is None:
        raise ValueError(f"unknown unary operator {op!r}")
    return func(operand)


#: Binary operators that always produce 0/1.
COMPARISON_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})

#: All binary operators the IR supports.
BINARY_OPS = frozenset(
    {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"} | COMPARISON_OPS
)

#: All unary operators the IR supports.
UNARY_OPS = frozenset({"-", "~", "!"})
