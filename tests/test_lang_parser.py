"""Unit tests for the PPS-C parser."""

import pytest

from repro.lang import ast
from repro.lang import parser as parser_module
from repro.lang.errors import ParseError
from repro.lang.parser import MAX_DEPTH, parse


def first_stmt(source_body):
    program = parse("void f(void) { " + source_body + " }")
    return program.functions[0].body.statements[0]


def test_toplevel_declarations():
    program = parse(
        """
        pipe in_ring;
        readonly memory routes[1024];
        memory queues[64];
        int add(int a, int b) { return a + b; }
        pps main_pps { for (;;) { int x = 0; } }
        """
    )
    assert [p.name for p in program.pipes] == ["in_ring"]
    assert [(m.name, m.size, m.readonly) for m in program.memories] == [
        ("routes", 1024, True),
        ("queues", 64, False),
    ]
    assert program.function("add").params == ["a", "b"]
    assert program.pps("main_pps").name == "main_pps"


def test_precedence_shapes():
    stmt = first_stmt("int x = 1 + 2 * 3;")
    init = stmt.init
    assert isinstance(init, ast.Binary) and init.op == "+"
    assert isinstance(init.rhs, ast.Binary) and init.rhs.op == "*"


def test_left_associativity():
    stmt = first_stmt("int x = 10 - 4 - 3;")
    init = stmt.init
    assert init.op == "-"
    assert isinstance(init.lhs, ast.Binary) and init.lhs.op == "-"
    assert isinstance(init.rhs, ast.IntLit) and init.rhs.value == 3


def test_ternary_and_logical():
    stmt = first_stmt("int x = a && b ? c : d || e;")
    init = stmt.init
    assert isinstance(init, ast.Ternary)
    assert isinstance(init.cond, ast.Binary) and init.cond.op == "&&"
    assert isinstance(init.other, ast.Binary) and init.other.op == "||"


def test_compound_assignment_desugar():
    stmt = first_stmt("x += 2;")
    assert isinstance(stmt, ast.AssignStmt)
    assert stmt.op == "+"


def test_increment_desugar():
    stmt = first_stmt("x++;")
    assert isinstance(stmt, ast.AssignStmt)
    assert stmt.op == "+"
    assert isinstance(stmt.value, ast.IntLit) and stmt.value.value == 1


def test_array_declaration_and_index():
    program = parse("void f(void) { int a[8]; a[0] = 1; int y = a[x + 1]; }")
    decl, assign, read = program.functions[0].body.statements
    assert decl.array_size == 8
    assert isinstance(assign.target, ast.Index)
    assert isinstance(read.init, ast.Index)


def test_zero_array_size_rejected():
    with pytest.raises(ParseError):
        parse("void f(void) { int a[0]; }")


def test_for_loop_parts_optional():
    stmt = first_stmt("for (;;) { break; }")
    assert isinstance(stmt, ast.For)
    assert stmt.init is None and stmt.cond is None and stmt.step is None


def test_for_loop_with_declaration():
    stmt = first_stmt("for (int i = 0; i < 4; i++) { }")
    assert isinstance(stmt.init, ast.DeclStmt)
    assert isinstance(stmt.step, ast.AssignStmt)


def test_dangling_else_binds_to_nearest_if():
    stmt = first_stmt("if (a) if (b) x = 1; else x = 2;")
    assert stmt.other is None
    inner = stmt.then
    assert isinstance(inner, ast.If) and inner.other is not None


def test_do_while():
    stmt = first_stmt("do { x = x + 1; } while (x < 3);")
    assert isinstance(stmt, ast.DoWhile)


def test_switch_cases_and_default():
    stmt = first_stmt(
        "switch (x) { case 4: y = 1; break; case 6: y = 2; default: y = 3; }"
    )
    assert isinstance(stmt, ast.Switch)
    assert [value for value, _ in stmt.cases] == [4, 6]
    assert stmt.default is not None


def test_duplicate_case_rejected():
    with pytest.raises(ParseError):
        first_stmt("switch (x) { case 1: y = 1; case 1: y = 2; }")


def test_call_with_arguments():
    stmt = first_stmt("g(1, x + 2, h());")
    call = stmt.expr
    assert isinstance(call, ast.Call)
    assert call.callee == "g"
    assert len(call.args) == 3


def test_assignment_target_must_be_lvalue():
    with pytest.raises(ParseError):
        first_stmt("1 = 2;")
    with pytest.raises(ParseError):
        first_stmt("f() = 2;")


def test_goto_rejected_with_clear_message():
    with pytest.raises(ParseError, match="goto"):
        first_stmt("goto done;")


def test_unterminated_block_rejected():
    with pytest.raises(ParseError):
        parse("void f(void) { int x = 1;")


def test_missing_semicolon_rejected():
    with pytest.raises(ParseError):
        first_stmt("x = 1")


def test_empty_statement_is_empty_block():
    stmt = first_stmt(";")
    assert isinstance(stmt, ast.Block) and not stmt.statements


def test_garbage_toplevel_rejected():
    with pytest.raises(ParseError):
        parse("banana;")


# -- nesting is bounded ------------------------------------------------------


def tree_depth(node, level=1):
    """The deepest level at or under ``node``, which sits at ``level``:
    each statement and expression node is one level below its parent.
    Parentheses leave no node, so this never exceeds the parser's count."""
    children = []
    for key, value in vars(node).items():
        if key == "location":
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, tuple):  # a switch case: (value, statements)
                children += item[1]
            elif isinstance(item, ast.Node):
                children.append(item)
    return max((tree_depth(child, level + 1) for child in children),
               default=level)


def program_depth(program):
    bodies = [decl.body for decl in (*program.functions, *program.ppses)]
    return max(tree_depth(body) for body in bodies)


def _in_pps(statement):
    return f"pipe q;\npps p {{\n  for (;;) {{\n    {statement}\n  }}\n}}\n"


#: Programs nested ``size`` deep, one shape each: a left-leaning operator
#: chain (built by a loop in the parser, but recursed into by every later
#: pass), parentheses, and blocks.
DEEP = {
    "sum": lambda size: _in_pps(
        "trace(1, " + " + ".join(["1"] * size) + ");"),
    "parens": lambda size: _in_pps(
        "trace(1, " + "(" * size + "1" + ")" * size + ");"),
    "blocks": lambda size: _in_pps("{" * size + "}" * size),
}


@pytest.mark.parametrize("shape, size",
                         [("sum", 5000), ("parens", 3000), ("blocks", 1500)])
def test_deep_nesting_is_a_parse_error_at_its_place(shape, size):
    with pytest.raises(ParseError) as excinfo:
        parse(DEEP[shape](size), "deep.ppc")
    assert excinfo.value.message == f"nested more than {MAX_DEPTH} levels deep"
    assert excinfo.value.location.filename == "deep.ppc"
    assert excinfo.value.location.line == 4


@pytest.mark.parametrize("shape", DEEP)
def test_the_deepest_accepted_tree_compiles(shape):
    from repro import compile_module

    size = next(size for size in range(MAX_DEPTH, 0, -1)
                if _parses(DEEP[shape](size)))
    assert size > MAX_DEPTH - 10
    with pytest.raises(ParseError):
        parse(DEEP[shape](size + 1))
    compile_module(DEEP[shape](size))
    if shape != "parens":  # no parentheses: the two counts agree
        assert program_depth(parse(DEEP[shape](size))) == MAX_DEPTH


def _parses(source):
    try:
        parse(source)
    except ParseError:
        return False
    return True


def test_operators_push_their_left_operand_down(monkeypatch):
    # ((x + x + x) + x + x) ...: the parser recurses once per parenthesis,
    # but each operator pushes its left operand one level further down,
    # and the limit is on the tree.
    monkeypatch.setattr(parser_module, "MAX_DEPTH", 12)

    def source(levels):
        expr = "x"
        for _ in range(levels):
            expr = f"({expr} + x + x)"
        return f"void f(int x) {{ int y = {expr}; }}"

    assert program_depth(parse(source(3))) <= 12
    with pytest.raises(ParseError, match="nested more than 12 levels deep"):
        parse(source(4))


def _suite_and_example_sources():
    import pathlib

    from repro.apps.suite import build_app

    examples = pathlib.Path(__file__).resolve().parent.parent / "examples"
    return ([build_app(name, packets=8).source for name in
             ("rx", "ipv4", "ip_v4", "ip_v6", "scheduler", "qm", "tx")]
            + [path.read_text() for path in sorted(examples.glob("*.ppc"))])


def test_real_programs_nest_far_below_the_limit(monkeypatch):
    monkeypatch.setattr(parser_module, "MAX_DEPTH", MAX_DEPTH // 10)
    for source in _suite_and_example_sources():
        parse(source)


def test_an_accepted_tree_is_never_deeper_than_the_limit(monkeypatch):
    from repro.testing.progen import random_pps_source

    monkeypatch.setattr(parser_module, "MAX_DEPTH", 9)
    accepted = 0
    for seed in range(200):
        try:
            program = parse(random_pps_source(seed))
        except ParseError:
            continue
        accepted += 1
        assert program_depth(program) <= 9
    assert 0 < accepted < 200
