"""Recursive-descent parser for PPS-C.

Grammar sketch (EBNF, whitespace-insensitive)::

    program     := (function | pipe | memory | pps)*
    pipe        := 'pipe' IDENT ';'
    memory      := 'readonly'? 'memory' IDENT '[' INT ']' ';'
    pps         := 'pps' IDENT block
    function    := ('int' | 'void') IDENT '(' params? ')' block
    params      := 'int' IDENT (',' 'int' IDENT)*
    block       := '{' stmt* '}'
    stmt        := block | decl | if | while | do | for | switch
                 | 'break' ';' | 'continue' ';' | 'return' expr? ';'
                 | assign-or-expr ';' | ';'
    decl        := 'int' IDENT ('[' INT ']' | ('=' expr)?) ';'
    assign      := lvalue ('=' | '+=' | ... ) expr | lvalue '++' | lvalue '--'
    expr        := ternary with usual C precedence (no comma operator)

Expressions use precedence climbing; assignment is a statement form, not an
expression (one statement per line is a PPS-C idiom).

The parser holds the current token in ``_token`` and moves on with one
call of the token list's iterator.  Keywords and punctuation are told
apart by their lexeme, which names exactly one kind: comparing strings is
cheaper than reading a ``TokenKind`` member, which is a descriptor call.

Nesting is bounded.  A statement, an operator (a call and an index
included) and a pair of parentheses each open one level; a tree deeper
than ``MAX_DEPTH`` levels is a ``ParseError`` at the token where it passes
the limit, so neither the parser nor a later recursive pass (sema,
lowering) can run out of interpreter stack.
"""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import COMPOUND_ASSIGN_OPS, Token, TokenKind

#: Levels of statements, operators and parentheses a program may nest.
MAX_DEPTH = 200

#: Binary operator precedence by lexeme, higher binds tighter (C-like).
BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_TERNARY_PRECEDENCE = 0
_UNARY_OPS = frozenset(("-", "~", "!", "+"))
# What ends a case body; "" is the text of the EOF token.
_CASE_END = frozenset(("case", "default", "}", ""))
_IDENT, _INT_LIT, _EOF = TokenKind.IDENT, TokenKind.INT_LIT, TokenKind.EOF


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: list[Token]):
        # Never pulled past EOF, the last token: every advance follows a
        # test that the current token is something else.
        self._pull = iter(tokens).__next__
        self._token = self._pull()
        # The deepest level the expression being parsed has reached.
        self._deepest = 0

    # -- token helpers --------------------------------------------------

    def _advance(self) -> Token:
        token = self._token
        self._token = self._pull()
        return token

    def _accept(self, lexeme: str) -> bool:
        if self._token.text == lexeme:
            self._token = self._pull()
            return True
        return False

    def _expect(self, lexeme: str, what: str | None = None) -> Token:
        token = self._token
        if token.text == lexeme:
            self._token = self._pull()
            return token
        raise self._unexpected(what or f"'{lexeme}'")

    def _expect_kind(self, kind: TokenKind, what: str) -> Token:
        token = self._token
        if token.kind is kind:
            self._token = self._pull()
            return token
        raise self._unexpected(what)

    def _unexpected(self, wanted: str) -> ParseError:
        token = self._token
        return ParseError(f"expected {wanted}, found '{token.text or 'EOF'}'",
                          token.location)

    @staticmethod
    def _too_deep(token: Token) -> ParseError:
        return ParseError(f"nested more than {MAX_DEPTH} levels deep",
                          token.location)

    # -- top level -------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse a complete translation unit."""
        program = ast.Program(location=self._token.location)
        while self._token.kind is not _EOF:
            token = self._token
            text = token.text
            if text == "pipe":
                program.pipes.append(self._parse_pipe())
            elif text in ("memory", "readonly"):
                program.memories.append(self._parse_memory())
            elif text == "pps":
                program.ppses.append(self._parse_pps())
            elif text in ("int", "void"):
                program.functions.append(self._parse_function())
            else:
                raise ParseError(
                    f"expected a top-level declaration, found '{text}'", token.location
                )
        return program

    def _parse_pipe(self) -> ast.PipeDecl:
        location = self._advance().location
        name = self._expect_kind(_IDENT, "pipe name").text
        self._expect(";")
        return ast.PipeDecl(name=name, location=location)

    def _parse_memory(self) -> ast.MemoryDecl:
        readonly = self._accept("readonly")
        location = self._expect("memory").location
        name = self._expect_kind(_IDENT, "memory name").text
        self._expect("[")
        size = self._expect_kind(_INT_LIT, "memory size").value
        self._expect("]")
        self._expect(";")
        return ast.MemoryDecl(name=name, size=size, readonly=readonly, location=location)

    def _parse_pps(self) -> ast.PpsDecl:
        location = self._advance().location
        name = self._expect_kind(_IDENT, "pps name").text
        body = self._parse_block(1)
        return ast.PpsDecl(name=name, body=body, location=location)

    def _parse_function(self) -> ast.FunctionDecl:
        returns_value = self._advance().text == "int"
        name_token = self._expect_kind(_IDENT, "function name")
        self._expect("(")
        params: list[str] = []
        if self._token.text != ")":
            while True:
                if self._accept("void"):
                    break
                self._expect("int", "parameter type 'int'")
                params.append(self._expect_kind(_IDENT, "parameter name").text)
                if not self._accept(","):
                    break
        self._expect(")")
        body = self._parse_block(1)
        return ast.FunctionDecl(
            name=name_token.text,
            params=params,
            returns_value=returns_value,
            body=body,
            location=name_token.location,
        )

    # -- statements -------------------------------------------------------
    #
    # Each takes the level its statement is at; a function or PPS body is
    # level 1.

    def _parse_statement(self, depth: int) -> ast.Stmt:
        if depth > MAX_DEPTH:
            raise self._too_deep(self._token)
        parse = _STATEMENTS.get(self._token.text)
        if parse is not None:
            return parse(self, depth)
        stmt = self._parse_assign_or_expr(depth)
        self._expect(";")
        return stmt

    def _parse_block(self, depth: int) -> ast.Block:
        location = self._expect("{").location
        statements = []
        while self._token.text != "}":
            if self._token.kind is _EOF:
                raise ParseError("unterminated block", location)
            statements.append(self._parse_statement(depth + 1))
        self._advance()
        return ast.Block(statements=statements, location=location)

    def _parse_declaration(self, depth: int) -> ast.DeclStmt:
        location = self._expect("int").location
        name = self._expect_kind(_IDENT, "variable name").text
        if self._accept("["):
            size_token = self._expect_kind(_INT_LIT, "array size")
            self._expect("]")
            self._expect(";")
            if size_token.value <= 0:
                raise ParseError("array size must be positive", size_token.location)
            return ast.DeclStmt(name=name, array_size=size_token.value, location=location)
        init = None
        if self._accept("="):
            init = self._parse_expression(depth + 1)
        self._expect(";")
        return ast.DeclStmt(name=name, init=init, location=location)

    def _parse_condition(self, depth: int) -> ast.Expr:
        """The parenthesised condition of the statement at ``depth``."""
        self._expect("(")
        cond = self._parse_expression(depth + 1)
        self._expect(")")
        return cond

    def _parse_if(self, depth: int) -> ast.If:
        location = self._advance().location
        cond = self._parse_condition(depth)
        then = self._parse_statement(depth + 1)
        other = self._parse_statement(depth + 1) if self._accept("else") else None
        return ast.If(cond=cond, then=then, other=other, location=location)

    def _parse_while(self, depth: int) -> ast.While:
        location = self._advance().location
        cond = self._parse_condition(depth)
        body = self._parse_statement(depth + 1)
        return ast.While(cond=cond, body=body, location=location)

    def _parse_do_while(self, depth: int) -> ast.DoWhile:
        location = self._advance().location
        body = self._parse_statement(depth + 1)
        self._expect("while")
        cond = self._parse_condition(depth)
        self._expect(";")
        return ast.DoWhile(body=body, cond=cond, location=location)

    def _parse_for(self, depth: int) -> ast.For:
        location = self._advance().location
        self._expect("(")
        init: ast.Stmt | None = None
        text = self._token.text
        if text == ";":
            self._advance()
        elif text == "int":
            init = self._parse_declaration(depth + 1)
        else:
            init = self._parse_assign_or_expr(depth + 1)
            self._expect(";")
        cond = None
        if self._token.text != ";":
            cond = self._parse_expression(depth + 1)
        self._expect(";")
        step = None
        if self._token.text != ")":
            step = self._parse_assign_or_expr(depth + 1)
        self._expect(")")
        body = self._parse_statement(depth + 1)
        return ast.For(init=init, cond=cond, step=step, body=body, location=location)

    def _parse_switch(self, depth: int) -> ast.Switch:
        location = self._advance().location
        expr = self._parse_condition(depth)
        self._expect("{")
        cases: list[tuple[int, list[ast.Stmt]]] = []
        default: list[ast.Stmt] | None = None
        seen_values: set[int] = set()
        while self._token.text != "}":
            if self._accept("case"):
                value_token = self._expect_kind(_INT_LIT, "case value")
                self._expect(":")
                if value_token.value in seen_values:
                    raise ParseError(
                        f"duplicate case value {value_token.value}", value_token.location
                    )
                seen_values.add(value_token.value)
                cases.append((value_token.value, self._parse_case_body(depth + 1)))
            elif self._accept("default"):
                self._expect(":")
                if default is not None:
                    raise ParseError("duplicate 'default' label", location)
                default = self._parse_case_body(depth + 1)
            else:
                token = self._token
                raise ParseError(
                    f"expected 'case' or 'default', found '{token.text}'", token.location
                )
        self._advance()
        return ast.Switch(expr=expr, cases=cases, default=default, location=location)

    def _parse_case_body(self, depth: int) -> list[ast.Stmt]:
        statements: list[ast.Stmt] = []
        while self._token.text not in _CASE_END:
            if self._token.text == "break":
                # `break` in a case terminates the case body (no fallthrough
                # exists in PPS-C, so it is accepted and redundant).
                self._advance()
                self._expect(";")
                break
            statements.append(self._parse_statement(depth))
        return statements

    def _parse_break(self, depth: int) -> ast.Break:
        location = self._advance().location
        self._expect(";")
        return ast.Break(location=location)

    def _parse_continue(self, depth: int) -> ast.Continue:
        location = self._advance().location
        self._expect(";")
        return ast.Continue(location=location)

    def _parse_return(self, depth: int) -> ast.Return:
        location = self._advance().location
        value = None
        if self._token.text != ";":
            value = self._parse_expression(depth + 1)
        self._expect(";")
        return ast.Return(value=value, location=location)

    def _parse_empty(self, depth: int) -> ast.Block:
        return ast.Block(location=self._advance().location)

    def _parse_goto(self, depth: int) -> ast.Stmt:
        raise ParseError("'goto' is reserved but not supported in PPS-C",
                         self._token.location)

    def _parse_assign_or_expr(self, depth: int) -> ast.Stmt:
        location = self._token.location
        expr = self._parse_expression(depth + 1)
        token = self._token
        text = token.text
        if text == "=":
            op = None
        elif text in COMPOUND_ASSIGN_OPS:
            op = COMPOUND_ASSIGN_OPS[text]
        elif text in ("++", "--"):
            self._require_lvalue(expr)
            self._advance()
            one = ast.IntLit(value=1, location=token.location)
            return ast.AssignStmt(target=expr, op=text[0], value=one, location=location)
        else:
            return ast.ExprStmt(expr=expr, location=location)
        self._require_lvalue(expr)
        self._advance()
        value = self._parse_expression(depth + 1)
        return ast.AssignStmt(target=expr, op=op, value=value, location=location)

    @staticmethod
    def _require_lvalue(expr: ast.Expr) -> None:
        if not isinstance(expr, (ast.Name, ast.Index)):
            raise ParseError("assignment target must be a variable or array element",
                             expr.location)

    # -- expressions -------------------------------------------------------

    def _parse_expression(self, depth: int,
                          min_precedence: int = _TERNARY_PRECEDENCE) -> ast.Expr:
        """An expression whose root is ``depth`` levels down.

        A left operand is parsed before the operator that takes it is
        seen, so each operator pushes the tree built so far one level
        down; ``deepest`` follows the deepest level the tree reaches
        through those pushes, and ``_deepest`` never exceeds it here.
        """
        outer = self._deepest
        self._deepest = 0
        lhs = self._parse_operand(depth)
        deepest = self._deepest
        while True:
            token = self._token
            text = token.text
            precedence = BINARY_PRECEDENCE.get(text)
            if precedence is not None and precedence > min_precedence:
                self._token = self._pull()
                rhs = self._parse_expression(depth + 1, precedence)
                lhs = ast.Binary(op=text, lhs=lhs, rhs=rhs, location=token.location)
            elif text == "?" and min_precedence <= _TERNARY_PRECEDENCE:
                self._token = self._pull()
                then = self._parse_expression(depth + 1)
                self._expect(":")
                other = self._parse_expression(depth + 1)
                lhs = ast.Ternary(cond=lhs, then=then, other=other, location=token.location)
            else:
                self._deepest = deepest if deepest > outer else outer
                return lhs
            deepest += 1
            if self._deepest > deepest:
                deepest = self._deepest
            if deepest > MAX_DEPTH:
                raise self._too_deep(token)

    def _parse_operand(self, depth: int) -> ast.Expr:
        """A unary or primary expression ``depth`` levels down."""
        token = self._token
        if depth > self._deepest:
            if depth > MAX_DEPTH:
                raise self._too_deep(token)
            self._deepest = depth
        if token.kind is _IDENT:
            self._token = self._pull()
            text = self._token.text
            if text == "(":
                self._token = self._pull()
                args: list[ast.Expr] = []
                if self._token.text != ")":
                    while True:
                        args.append(self._parse_expression(depth + 1))
                        if not self._accept(","):
                            break
                self._expect(")")
                return ast.Call(callee=token.text, args=args, location=token.location)
            if text == "[":
                self._token = self._pull()
                index = self._parse_expression(depth + 1)
                self._expect("]")
                return ast.Index(base=token.text, index=index, location=token.location)
            return ast.Name(ident=token.text, location=token.location)
        if token.kind is _INT_LIT:
            self._token = self._pull()
            return ast.IntLit(value=token.value, location=token.location)
        text = token.text
        if text == "(":
            self._token = self._pull()
            expr = self._parse_expression(depth + 1)
            self._expect(")")
            return expr
        if text in _UNARY_OPS:
            self._token = self._pull()
            operand = self._parse_operand(depth + 1)
            if text == "+":
                return operand
            return ast.Unary(op=text, operand=operand, location=token.location)
        raise ParseError(f"expected an expression, found '{text or 'EOF'}'",
                         token.location)


# Statement parsers by the lexeme a statement starts with; any other
# statement is an assignment or an expression.
_STATEMENTS = {
    "{": Parser._parse_block,
    "int": Parser._parse_declaration,
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "do": Parser._parse_do_while,
    "for": Parser._parse_for,
    "switch": Parser._parse_switch,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
    "return": Parser._parse_return,
    ";": Parser._parse_empty,
    "goto": Parser._parse_goto,
}


def parse(source: str, filename: str = "<pps-c>") -> ast.Program:
    """Parse PPS-C ``source`` into an AST (lexes internally)."""
    return Parser(tokenize(source, filename)).parse_program()
