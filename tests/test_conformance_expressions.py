"""Expression-semantics conformance: PPS-C vs a Python reference model.

For randomly generated arithmetic expressions, the whole stack —
lexer, parser, lowering, constant folding, interpreter — must agree with
a direct Python evaluation under 32-bit C semantics (`repro.ir.types`).
This pins the end-to-end semantics of every operator in one sweep.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.types import eval_binary, eval_unary, wrap32
from repro.runtime import MachineState, run_sequential

from helpers import compile_module

_BINOPS = ["+", "-", "*", "&", "|", "^", "<<", ">>",
           "<", "<=", ">", ">=", "==", "!=", "/", "%"]
_UNOPS = ["-", "~", "!"]


def random_expression(rng, names, depth=0):
    """Returns (source_text, python_evaluator)."""
    choice = rng.random()
    if depth >= 4 or choice < 0.3:
        if names and rng.random() < 0.6:
            name, value = rng.choice(names)
            return name, (lambda env, n=name: env[n])
        value = rng.randint(-100, 255)
        return f"({value})", (lambda env, v=value: wrap32(v))
    if choice < 0.45:
        op = rng.choice(_UNOPS)
        inner_text, inner_eval = random_expression(rng, names, depth + 1)
        return (f"({op}{inner_text})",
                lambda env, op=op, e=inner_eval: eval_unary(op, e(env)))
    op = rng.choice(_BINOPS)
    lhs_text, lhs_eval = random_expression(rng, names, depth + 1)
    rhs_text, rhs_eval = random_expression(rng, names, depth + 1)
    if op in ("/", "%"):
        rhs_text = f"((({rhs_text}) & 15) + 1)"
        original = rhs_eval

        def rhs_eval(env, e=original):
            return eval_binary("+", eval_binary("&", e(env), 15), 1)
    if op in ("<<", ">>"):
        rhs_text = f"(({rhs_text}) & 7)"
        original = rhs_eval

        def rhs_eval(env, e=original):
            return eval_binary("&", e(env), 7)

    def evaluate(env, op=op, lhs=lhs_eval, rhs=rhs_eval):
        return eval_binary(op, lhs(env), rhs(env))

    return f"(({lhs_text}) {op} ({rhs_text}))", evaluate


@pytest.mark.parametrize("seed", range(30))
def test_random_expression_conformance(seed):
    rng = random.Random(seed)
    names = [("a", rng.randint(-50, 200)), ("b", rng.randint(-50, 200)),
             ("c", rng.randint(0, 31))]
    text, evaluate = random_expression(rng, names)
    env = {name: wrap32(value) for name, value in names}
    expected = evaluate(env)

    declarations = "\n".join(
        f"        int {name} = {value};" for name, value in names
    )
    module = compile_module(f"""
        pps p {{
            for (;;) {{
{declarations}
                int result = {text};
                trace(1, result);
            }}
        }}
    """)
    state = MachineState(module)
    run_sequential(module.pps("p"), state, iterations=1)
    assert state.traces[1] == [expected], text


@settings(max_examples=40, deadline=None)
@given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
def test_ternary_and_shortcircuit_conformance(a, b):
    module = compile_module(f"""
        pps p {{
            for (;;) {{
                int a = {a};
                int b = {b};
                trace(1, a > b ? a - b : b - a);
                trace(2, (a != 0) && (b != 0));
                trace(3, (a != 0) || (b != 0));
            }}
        }}
    """)
    state = MachineState(module)
    run_sequential(module.pps("p"), state, iterations=1)
    expected_diff = eval_binary("-", a, b) if a > b else eval_binary("-", b, a)
    assert state.traces[1] == [expected_diff]
    assert state.traces[2] == [int(a != 0 and b != 0)]
    assert state.traces[3] == [int(a != 0 or b != 0)]


@pytest.mark.parametrize("literal", [
    "0x80000000", "0xFFFFFFFF", "4294967295", "037777777777", "2147483648",
    "0x7FFFFFFF", "1"])
def test_a_literal_folds_to_the_word_the_run_time_computes(literal):
    # trace 1/3 fold at compile time; trace 2/4 compute from the same bits
    # received through a pipe.
    word = wrap32(int(literal, 16 if literal.startswith("0x")
                      else 8 if literal.startswith("0") else 10))
    module = compile_module(f"""
        pipe in_q;
        pps p {{
            for (;;) {{
                int x = {literal};
                int y = pipe_recv(in_q);
                trace(1, x >> 31);
                trace(2, y >> 31);
                trace(3, x == -1);
                trace(4, y == -1);
                trace(5, x);
            }}
        }}
    """, optimize=True)
    state = MachineState(module)
    state.feed_pipe("in_q", [word])
    run_sequential(module.pps("p"), state, iterations=1)
    assert state.traces[1] == state.traces[2] == [word >> 31]
    assert state.traces[3] == state.traces[4] == [int(word == -1)]
    assert state.traces[5] == [word]
