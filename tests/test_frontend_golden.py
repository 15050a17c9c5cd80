"""The front end's output, pinned.

``compile_module`` (lex, parse, check, lower, inline, optimize) hands the
rest of the compiler one IR module per source.  These SHA-256 digests are
taken over ``format_function`` of every function and PPS body it returns,
for the seven suite applications and for 600 generated programs (seeds
0..299, arrays on and off).  They were computed before the lexer, parser
and cleanup passes were rewritten for speed: a change to any of them that
moves one byte of the IR fails here.
"""

import hashlib

import pytest

from repro import compile_module
from repro.ir.printer import format_function

SUITE = ("rx", "ipv4", "ip_v4", "ip_v6", "scheduler", "qm", "tx")


def ir_digest(sources):
    """SHA-256 over the printed IR of every function and PPS body."""
    digest = hashlib.sha256()
    for source in sources:
        module = compile_module(source)
        for function in (*module.functions.values(), *module.ppses.values()):
            digest.update(format_function(function).encode())
            digest.update(b"\0")
    return digest.hexdigest()


def _suite_sources():
    from repro.apps.suite import build_app

    return [build_app(name, packets=8).source for name in SUITE]


def _progen_sources(use_arrays):
    from repro.testing.progen import random_pps_source

    return [random_pps_source(seed, use_arrays=use_arrays)
            for seed in range(300)]


@pytest.mark.parametrize("sources, digest", [
    (_suite_sources,
     "711a04845ba2628f448d88ca9b0f7d61fa746b61de0f6520052d875a6c6e310b"),
    (lambda: _progen_sources(True),
     "93868c7d810e8dd4187c51b8fe3d0bd935ef131ab709cc05e2e60da18343e291"),
    (lambda: _progen_sources(False),
     "7c13b0f3add7b052b7fa0f19ca8940957649ff9e4498b0d5e1918ef6af9593a6"),
], ids=["suite", "progen-arrays", "progen-scalars"])
def test_front_end_ir_matches_the_pinned_digest(sources, digest):
    assert ir_digest(sources()) == digest
