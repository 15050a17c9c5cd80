"""Round-trip tests for the PPS-C pretty printer."""

from repro.lang import ast
from repro.lang.parser import parse
from repro.lang.pretty import format_expr, format_program

SAMPLE = """
pipe in_ring;
pipe out_ring;
readonly memory routes[256];
memory stats[16];

int checksum(int a, int b)
{
    int s = a + b;
    if (s > 0xFFFF)
        s = (s & 0xFFFF) + (s >> 16);
    return s;
}

pps fwd
{
    int seq = 0;
    for (;;) {
        int h = pipe_recv(in_ring);
        int ok = 1;
        for (int i = 0; i < 4; i++) {
            int b = pkt_load(h, i);
            if (b == 0) { ok = 0; break; }
        }
        switch (ok) {
        case 0:
            pkt_free(h);
            break;
        default:
            seq++;
            pipe_send(out_ring, h);
        }
        do { seq = seq & 0xFF; } while (seq > 255);
        int z = ok ? seq : -seq;
        trace(1, z);
    }
}
"""


def strip(tree):
    """Structural fingerprint of an AST ignoring locations.

    Singleton blocks are collapsed: the printer normalizes ``if (c) s;`` to
    ``if (c) { s; }``, which is semantically identical.
    """

    def walk(node):
        if isinstance(node, ast.Block) and len(node.statements) == 1:
            return walk(node.statements[0])
        if isinstance(node, ast.Node):
            fields = []
            for key, value in vars(node).items():
                if key == "location":
                    continue
                fields.append((key, walk(value)))
            return (type(node).__name__, tuple(fields))
        if isinstance(node, list):
            return tuple(walk(item) for item in node)
        if isinstance(node, tuple):
            return tuple(walk(item) for item in node)
        return node

    return walk(tree)


def test_roundtrip_structural_equivalence():
    tree = parse(SAMPLE)
    printed = format_program(tree)
    reparsed = parse(printed)
    assert strip(tree) == strip(reparsed)


def test_roundtrip_is_fixed_point():
    printed = format_program(parse(SAMPLE))
    assert format_program(parse(printed)) == printed


def test_expr_parenthesization_minimal():
    tree = parse("void f(void) { int x = (a + b) * c - d / (e - f); }")
    init = tree.functions[0].body.statements[0].init
    assert format_expr(init) == "(a + b) * c - d / (e - f)"


def test_nested_unary_parentheses():
    tree = parse("void f(void) { int x = -(-a); int y = ~(a + 1); }")
    stmts = tree.functions[0].body.statements
    assert format_expr(stmts[0].init) == "-(-a)"
    assert format_expr(stmts[1].init) == "~(a + 1)"


def test_precedence_preserved_through_roundtrip():
    source = "void f(void) { int x = a & b | c ^ d && e; }"
    tree = parse(source)
    assert strip(parse(format_program(tree))) == strip(tree)


def test_top_bit_literals_print_as_their_word():
    # Their value is negative; "-2147483648" would re-parse as a negation.
    tree = parse("void f(void) { int x = 0x80000000 - 4294967295; }")
    init = tree.functions[0].body.statements[0].init
    assert format_expr(init) == "0x80000000 - 0xffffffff"
    assert strip(parse(format_program(tree))) == strip(tree)
