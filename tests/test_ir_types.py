"""Unit and property tests for 32-bit value semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.ir.types import (
    INT_MAX,
    INT_MIN,
    eval_binary,
    eval_unary,
    wrap32,
)

words = st.integers(min_value=-(2**40), max_value=2**40)
in_range = st.integers(min_value=INT_MIN, max_value=INT_MAX)


@given(words)
def test_wrap32_is_idempotent(value):
    assert wrap32(wrap32(value)) == wrap32(value)


@given(words)
def test_wrap32_range(value):
    assert INT_MIN <= wrap32(value) <= INT_MAX


@given(in_range)
def test_wrap32_identity_in_range(value):
    assert wrap32(value) == value


def test_wrap32_boundaries():
    assert wrap32(INT_MAX + 1) == INT_MIN
    assert wrap32(INT_MIN - 1) == INT_MAX
    assert wrap32(2**32) == 0
    assert wrap32(0xFFFFFFFF) == -1


@given(in_range, in_range)
def test_add_matches_c_semantics(a, b):
    assert eval_binary("+", a, b) == wrap32(a + b)


@given(in_range, in_range)
def test_comparisons_produce_booleans(a, b):
    for op in ("<", "<=", ">", ">=", "==", "!="):
        assert eval_binary(op, a, b) in (0, 1)


def test_division_truncates_toward_zero():
    assert eval_binary("/", 7, 2) == 3
    assert eval_binary("/", -7, 2) == -3
    assert eval_binary("/", 7, -2) == -3
    assert eval_binary("/", -7, -2) == 3


def test_modulo_matches_c():
    assert eval_binary("%", 7, 3) == 1
    assert eval_binary("%", -7, 3) == -1
    assert eval_binary("%", 7, -3) == 1


@given(in_range.filter(lambda v: v != 0), in_range.filter(lambda v: v != 0))
def test_divmod_identity(a, b):
    quotient = eval_binary("/", a, b)
    remainder = eval_binary("%", a, b)
    assert wrap32(quotient * b + remainder) == a


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        eval_binary("/", 1, 0)
    with pytest.raises(ZeroDivisionError):
        eval_binary("%", 1, 0)


def test_shift_counts_masked_to_five_bits():
    assert eval_binary("<<", 1, 33) == 2  # 33 & 31 == 1
    assert eval_binary(">>", 4, 34) == 1


def test_right_shift_is_arithmetic():
    assert eval_binary(">>", -8, 1) == -4
    assert eval_binary(">>", -1, 31) == -1


@given(in_range)
def test_unary_ops(value):
    assert eval_unary("-", value) == wrap32(-value)
    assert eval_unary("~", value) == wrap32(~value)
    assert eval_unary("!", value) == (1 if value == 0 else 0)


@given(in_range)
def test_to_unsigned_roundtrip(value):
    assert wrap32(value & 0xFFFFFFFF) == value


def test_unknown_operator_rejected():
    with pytest.raises(ValueError):
        eval_binary("**", 1, 2)
    with pytest.raises(ValueError):
        eval_unary("+", 1)
