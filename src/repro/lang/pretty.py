"""Pretty-printer for PPS-C ASTs.

``format_program`` renders an AST back to compilable PPS-C source.  The
output re-parses to a structurally equivalent tree, which the test-suite
uses as a round-trip property.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.parser import BINARY_PRECEDENCE as _PRECEDENCE

_INDENT = "    "
_UNARY_PRECEDENCE = 11


def format_expr(expr: ast.Expr, parent_precedence: int = 0) -> str:
    """Render an expression, parenthesizing only where required."""
    if isinstance(expr, ast.IntLit):
        # A negative literal value came from a word with the top bit set:
        # spell that word, which lexes back to the same value.
        if expr.value < 0:
            return hex(expr.value & 0xFFFFFFFF)
        return str(expr.value)
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.Index):
        assert expr.index is not None
        return f"{expr.base}[{format_expr(expr.index)}]"
    if isinstance(expr, ast.Call):
        args = ", ".join(format_expr(arg) for arg in expr.args)
        return f"{expr.callee}({args})"
    if isinstance(expr, ast.Unary):
        assert expr.operand is not None
        inner = format_expr(expr.operand, _UNARY_PRECEDENCE)
        text = f"{expr.op}{inner}"
        return text if parent_precedence < _UNARY_PRECEDENCE else f"({text})"
    if isinstance(expr, ast.Binary):
        assert expr.lhs is not None and expr.rhs is not None
        precedence = _PRECEDENCE[expr.op]
        lhs = format_expr(expr.lhs, precedence - 1)
        rhs = format_expr(expr.rhs, precedence)
        text = f"{lhs} {expr.op} {rhs}"
        return text if parent_precedence < precedence else f"({text})"
    if isinstance(expr, ast.Ternary):
        assert expr.cond is not None
        assert expr.then is not None and expr.other is not None
        text = (f"{format_expr(expr.cond, 0)} ? {format_expr(expr.then)} "
                f": {format_expr(expr.other)}")
        return f"({text})" if parent_precedence > 0 else text
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _format_stmt(stmt: ast.Stmt, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(stmt, ast.Block):
        lines = [f"{pad}{{"]
        for inner in stmt.statements:
            lines.extend(_format_stmt(inner, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ast.DeclStmt):
        if stmt.array_size is not None:
            return [f"{pad}int {stmt.name}[{stmt.array_size}];"]
        if stmt.init is not None:
            return [f"{pad}int {stmt.name} = {format_expr(stmt.init)};"]
        return [f"{pad}int {stmt.name};"]
    if isinstance(stmt, ast.AssignStmt):
        assert stmt.target is not None and stmt.value is not None
        op = f"{stmt.op}=" if stmt.op else "="
        return [f"{pad}{format_expr(stmt.target)} {op} {format_expr(stmt.value)};"]
    if isinstance(stmt, ast.ExprStmt):
        assert stmt.expr is not None
        return [f"{pad}{format_expr(stmt.expr)};"]
    if isinstance(stmt, ast.If):
        assert stmt.cond is not None and stmt.then is not None
        lines = [f"{pad}if ({format_expr(stmt.cond)})"]
        lines.extend(_format_stmt(_as_block(stmt.then), depth))
        if stmt.other is not None:
            lines.append(f"{pad}else")
            lines.extend(_format_stmt(_as_block(stmt.other), depth))
        return lines
    if isinstance(stmt, ast.While):
        assert stmt.cond is not None and stmt.body is not None
        lines = [f"{pad}while ({format_expr(stmt.cond)})"]
        lines.extend(_format_stmt(_as_block(stmt.body), depth))
        return lines
    if isinstance(stmt, ast.DoWhile):
        assert stmt.cond is not None and stmt.body is not None
        lines = [f"{pad}do"]
        lines.extend(_format_stmt(_as_block(stmt.body), depth))
        lines.append(f"{pad}while ({format_expr(stmt.cond)});")
        return lines
    if isinstance(stmt, ast.For):
        init = ""
        if isinstance(stmt.init, ast.DeclStmt):
            init = _format_stmt(stmt.init, 0)[0].rstrip(";")
        elif stmt.init is not None:
            init = _format_stmt(stmt.init, 0)[0].rstrip(";")
        cond = format_expr(stmt.cond) if stmt.cond is not None else ""
        step = _format_stmt(stmt.step, 0)[0].rstrip(";") if stmt.step is not None else ""
        lines = [f"{pad}for ({init}; {cond}; {step})"]
        lines.extend(_format_stmt(_as_block(stmt.body), depth))
        return lines
    if isinstance(stmt, ast.Switch):
        assert stmt.expr is not None
        lines = [f"{pad}switch ({format_expr(stmt.expr)}) {{"]
        for value, body in stmt.cases:
            lines.append(f"{pad}case {value}:")
            for inner in body:
                lines.extend(_format_stmt(inner, depth + 1))
            lines.append(f"{_INDENT * (depth + 1)}break;")
        if stmt.default is not None:
            lines.append(f"{pad}default:")
            for inner in stmt.default:
                lines.extend(_format_stmt(inner, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ast.Break):
        return [f"{pad}break;"]
    if isinstance(stmt, ast.Continue):
        return [f"{pad}continue;"]
    if isinstance(stmt, ast.Return):
        if stmt.value is not None:
            return [f"{pad}return {format_expr(stmt.value)};"]
        return [f"{pad}return;"]
    raise TypeError(f"unknown statement node {type(stmt).__name__}")


def _as_block(stmt: ast.Stmt) -> ast.Block:
    if isinstance(stmt, ast.Block):
        return stmt
    return ast.Block(statements=[stmt], location=stmt.location)


def format_program(program: ast.Program) -> str:
    """Render a whole translation unit as PPS-C source text."""
    lines: list[str] = []
    for pipe in program.pipes:
        lines.append(f"pipe {pipe.name};")
    for memory in program.memories:
        prefix = "readonly " if memory.readonly else ""
        lines.append(f"{prefix}memory {memory.name}[{memory.size}];")
    if lines:
        lines.append("")
    for func in program.functions:
        kind = "int" if func.returns_value else "void"
        params = ", ".join(f"int {param}" for param in func.params) or "void"
        lines.append(f"{kind} {func.name}({params})")
        assert func.body is not None
        lines.extend(_format_stmt(func.body, 0))
        lines.append("")
    for pps in program.ppses:
        lines.append(f"pps {pps.name}")
        assert pps.body is not None
        lines.extend(_format_stmt(pps.body, 0))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
