"""AST → IR lowering for PPS-C.

Each user function lowers to an IR :class:`~repro.ir.function.Function`;
each ``pps`` lowers to a parameterless function whose CFG contains the PPS
loop.  The loop is given a canonical shape::

    entry:  ...prologue...          ; runs once
    pps_header:                     ; start of every iteration
        ...loop body...
    pps_latch:  jump pps_header     ; unique back edge

``continue`` inside the PPS loop jumps to the latch, so the loop body minus
the back edge is always a single-entry (header) single-exit (latch) region —
exactly the region the pipelining transformation partitions.

Short-circuit ``&&``/``||`` and ``?:`` lower to control flow, so evaluation
order and side-effect semantics match C.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.function import BasicBlock, Function, Module
from repro.ir.instructions import (
    ArrayLoad,
    ArrayStore,
    Assign,
    BinOp,
    Branch,
    Call,
    Jump,
    Return,
    SwitchTerm,
    UnOp,
)
from repro.ir.values import ArrayRef, Const, PipeRef, RegionRef, Value, VReg
from repro.lang import ast
from repro.lang.errors import SemanticError
from repro.lang.intrinsics import (
    PIPE_ARG_INTRINSICS,
    REGION_ARG_INTRINSICS,
    is_intrinsic,
)
from repro.lang.sema import is_infinite_loop


@dataclass
class _LoopContext:
    """Targets for ``break`` / ``continue`` while lowering a loop/switch."""

    break_target: str
    continue_target: str | None  # None for switch contexts


class _Scope:
    """Lexical scope mapping names to VRegs or ArrayRefs during lowering."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.bindings: dict[str, VReg | ArrayRef] = {}

    def declare(self, name: str, value: VReg | ArrayRef) -> None:
        self.bindings[name] = value

    def lookup(self, name: str) -> VReg | ArrayRef:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        raise KeyError(name)


class Lowerer:
    """Lowers one function or PPS body to IR."""

    def __init__(self, module: Module, name: str, *, returns_value: bool,
                 params: list[str]):
        self.module = module
        self.function = Function(name, returns_value=returns_value)
        self.current = self.function.new_block("entry")
        self.scope = _Scope()
        self.loop_stack: list[_LoopContext] = []
        for param in params:
            reg = self.function.new_reg(param)
            self.function.params.append(reg)
            self.scope.declare(param, reg)

    # -- plumbing -------------------------------------------------------------

    def _start_block(self, block: BasicBlock) -> None:
        self.current = block

    def _emit(self, instruction) -> None:
        assert self.current is not None
        if self.current.is_terminated:
            # Unreachable code after break/continue/return: drop it.
            return
        self.current.append(instruction)

    def _terminate(self, terminator) -> None:
        if not self.current.is_terminated:
            self.current.set_terminator(terminator)

    def _push_scope(self) -> None:
        self.scope = _Scope(parent=self.scope)

    def _pop_scope(self) -> None:
        assert self.scope.parent is not None
        self.scope = self.scope.parent

    # -- expressions ------------------------------------------------------------

    def lower_expr(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLit):
            return Const(expr.value)
        if isinstance(expr, ast.Name):
            binding = self.scope.lookup(expr.ident)
            assert isinstance(binding, VReg)
            return binding
        if isinstance(expr, ast.Index):
            array = self.scope.lookup(expr.base)
            assert isinstance(array, ArrayRef)
            assert expr.index is not None
            index = self.lower_expr(expr.index)
            dest = self.function.new_reg("ld")
            self._emit(ArrayLoad(dest, array, index, location=expr.location))
            return dest
        if isinstance(expr, ast.Unary):
            assert expr.operand is not None
            operand = self.lower_expr(expr.operand)
            dest = self.function.new_reg("u")
            self._emit(UnOp(dest, expr.op, operand, location=expr.location))
            return dest
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                return self._lower_short_circuit(expr)
            assert expr.lhs is not None and expr.rhs is not None
            lhs = self.lower_expr(expr.lhs)
            rhs = self.lower_expr(expr.rhs)
            dest = self.function.new_reg("b")
            self._emit(BinOp(dest, expr.op, lhs, rhs, location=expr.location))
            return dest
        if isinstance(expr, ast.Ternary):
            return self._lower_ternary(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, want_value=True)
        raise TypeError(f"unknown expression {type(expr).__name__}")

    def _lower_short_circuit(self, expr: ast.Binary) -> Value:
        assert expr.lhs is not None and expr.rhs is not None
        result = self.function.new_reg("sc")
        rhs_block = self.function.new_block("sc_rhs")
        done_block = self.function.new_block("sc_done")
        lhs = self.lower_expr(expr.lhs)
        lhs_bool = self.function.new_reg("scb")
        self._emit(BinOp(lhs_bool, "!=", lhs, Const(0), location=expr.location))
        self._emit(Assign(result, lhs_bool, location=expr.location))
        if expr.op == "&&":
            self._terminate(Branch(lhs_bool, rhs_block.name, done_block.name,
                                   location=expr.location))
        else:
            self._terminate(Branch(lhs_bool, done_block.name, rhs_block.name,
                                   location=expr.location))
        self._start_block(rhs_block)
        rhs = self.lower_expr(expr.rhs)
        rhs_bool = self.function.new_reg("scb")
        self._emit(BinOp(rhs_bool, "!=", rhs, Const(0), location=expr.location))
        self._emit(Assign(result, rhs_bool, location=expr.location))
        self._terminate(Jump(done_block.name, location=expr.location))
        self._start_block(done_block)
        return result

    def _lower_ternary(self, expr: ast.Ternary) -> Value:
        assert expr.cond is not None
        assert expr.then is not None and expr.other is not None
        result = self.function.new_reg("sel")
        cond = self.lower_expr(expr.cond)
        then_block = self.function.new_block("sel_then")
        else_block = self.function.new_block("sel_else")
        done_block = self.function.new_block("sel_done")
        self._terminate(Branch(cond, then_block.name, else_block.name,
                               location=expr.location))
        self._start_block(then_block)
        then_value = self.lower_expr(expr.then)
        self._emit(Assign(result, then_value, location=expr.location))
        self._terminate(Jump(done_block.name, location=expr.location))
        self._start_block(else_block)
        else_value = self.lower_expr(expr.other)
        self._emit(Assign(result, else_value, location=expr.location))
        self._terminate(Jump(done_block.name, location=expr.location))
        self._start_block(done_block)
        return result

    def _lower_call(self, call: ast.Call, *, want_value: bool) -> Value:
        args: list[Value] = []
        ast_args = list(call.args)
        if is_intrinsic(call.callee):
            if call.callee in REGION_ARG_INTRINSICS:
                region_name = ast_args.pop(0)
                assert isinstance(region_name, ast.Name)
                args.append(self.module.regions[region_name.ident])
            elif call.callee in PIPE_ARG_INTRINSICS:
                pipe_name = ast_args.pop(0)
                assert isinstance(pipe_name, ast.Name)
                args.append(self.module.pipes[pipe_name.ident])
        for arg in ast_args:
            args.append(self.lower_expr(arg))
        dest = self.function.new_reg("r") if want_value else None
        if dest is None and not is_intrinsic(call.callee):
            # Keep a dest for user calls so inlining has a uniform shape;
            # void functions get no dest.
            decl = None
            for func in self.module.functions.values():
                if func.name == call.callee:
                    decl = func
                    break
            if decl is not None and decl.returns_value:
                dest = self.function.new_reg("r")
        self._emit(Call(dest, call.callee, args, location=call.location))
        return dest if dest is not None else Const(0)

    # -- statements ----------------------------------------------------------------

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._push_scope()
            for inner in stmt.statements:
                self.lower_stmt(inner)
            self._pop_scope()
        elif isinstance(stmt, ast.DeclStmt):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.AssignStmt):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            if isinstance(stmt.expr, ast.Call):
                self._lower_call(stmt.expr, want_value=False)
            else:
                self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._lower_switch(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise SemanticError("'break' outside loop", stmt.location)
            self._terminate(Jump(self.loop_stack[-1].break_target,
                                 location=stmt.location))
        elif isinstance(stmt, ast.Continue):
            target = None
            for context in reversed(self.loop_stack):
                if context.continue_target is not None:
                    target = context.continue_target
                    break
            if target is None:
                raise SemanticError("'continue' outside loop", stmt.location)
            self._terminate(Jump(target, location=stmt.location))
        elif isinstance(stmt, ast.Return):
            value = self.lower_expr(stmt.value) if stmt.value is not None else None
            self._terminate(Return(value, location=stmt.location))
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")

    def _lower_decl(self, stmt: ast.DeclStmt) -> None:
        if stmt.array_size is not None:
            array = self.function.new_array(stmt.name, stmt.array_size)
            self.scope.declare(stmt.name, array)
            return
        reg = self.function.new_reg(stmt.name)
        self.scope.declare(stmt.name, reg)
        init = self.lower_expr(stmt.init) if stmt.init is not None else Const(0)
        self._emit(Assign(reg, init, location=stmt.location))

    def _lower_assign(self, stmt: ast.AssignStmt) -> None:
        assert stmt.target is not None and stmt.value is not None
        if isinstance(stmt.target, ast.Name):
            binding = self.scope.lookup(stmt.target.ident)
            assert isinstance(binding, VReg)
            if stmt.op is None:
                value = self.lower_expr(stmt.value)
                self._emit(Assign(binding, value, location=stmt.location))
            else:
                rhs = self.lower_expr(stmt.value)
                self._emit(BinOp(binding, stmt.op, binding, rhs,
                                 location=stmt.location))
            return
        assert isinstance(stmt.target, ast.Index)
        array = self.scope.lookup(stmt.target.base)
        assert isinstance(array, ArrayRef)
        assert stmt.target.index is not None
        index = self.lower_expr(stmt.target.index)
        if stmt.op is None:
            value = self.lower_expr(stmt.value)
            self._emit(ArrayStore(array, index, value, location=stmt.location))
        else:
            old = self.function.new_reg("ld")
            self._emit(ArrayLoad(old, array, index, location=stmt.location))
            rhs = self.lower_expr(stmt.value)
            new = self.function.new_reg("st")
            self._emit(BinOp(new, stmt.op, old, rhs, location=stmt.location))
            self._emit(ArrayStore(array, index, new, location=stmt.location))

    def _lower_if(self, stmt: ast.If) -> None:
        assert stmt.cond is not None and stmt.then is not None
        cond = self.lower_expr(stmt.cond)
        then_block = self.function.new_block("if_then")
        join_block = self.function.new_block("if_join")
        else_name = join_block.name
        else_block = None
        if stmt.other is not None:
            else_block = self.function.new_block("if_else")
            else_name = else_block.name
        self._terminate(Branch(cond, then_block.name, else_name,
                               location=stmt.location))
        self._start_block(then_block)
        self.lower_stmt(stmt.then)
        self._terminate(Jump(join_block.name, location=stmt.location))
        if else_block is not None:
            self._start_block(else_block)
            assert stmt.other is not None
            self.lower_stmt(stmt.other)
            self._terminate(Jump(join_block.name, location=stmt.location))
        self._start_block(join_block)

    def _lower_while(self, stmt: ast.While) -> None:
        assert stmt.cond is not None and stmt.body is not None
        header = self.function.new_block("while_header")
        body = self.function.new_block("while_body")
        exit_block = self.function.new_block("while_exit")
        self._terminate(Jump(header.name, location=stmt.location))
        self._start_block(header)
        cond = self.lower_expr(stmt.cond)
        self._terminate(Branch(cond, body.name, exit_block.name,
                               location=stmt.location))
        self._start_block(body)
        self.loop_stack.append(_LoopContext(exit_block.name, header.name))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        self._terminate(Jump(header.name, location=stmt.location))
        self._start_block(exit_block)

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        assert stmt.cond is not None and stmt.body is not None
        body = self.function.new_block("do_body")
        cond_block = self.function.new_block("do_cond")
        exit_block = self.function.new_block("do_exit")
        self._terminate(Jump(body.name, location=stmt.location))
        self._start_block(body)
        self.loop_stack.append(_LoopContext(exit_block.name, cond_block.name))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        self._terminate(Jump(cond_block.name, location=stmt.location))
        self._start_block(cond_block)
        cond = self.lower_expr(stmt.cond)
        self._terminate(Branch(cond, body.name, exit_block.name,
                               location=stmt.location))
        self._start_block(exit_block)

    def _lower_for(self, stmt: ast.For) -> None:
        assert stmt.body is not None
        self._push_scope()
        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        header = self.function.new_block("for_header")
        body = self.function.new_block("for_body")
        step_block = self.function.new_block("for_step")
        exit_block = self.function.new_block("for_exit")
        self._terminate(Jump(header.name, location=stmt.location))
        self._start_block(header)
        if stmt.cond is not None:
            cond = self.lower_expr(stmt.cond)
            self._terminate(Branch(cond, body.name, exit_block.name,
                                   location=stmt.location))
        else:
            self._terminate(Jump(body.name, location=stmt.location))
        self._start_block(body)
        self.loop_stack.append(_LoopContext(exit_block.name, step_block.name))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        self._terminate(Jump(step_block.name, location=stmt.location))
        self._start_block(step_block)
        if stmt.step is not None:
            self.lower_stmt(stmt.step)
        self._terminate(Jump(header.name, location=stmt.location))
        self._start_block(exit_block)
        self._pop_scope()

    def _lower_switch(self, stmt: ast.Switch) -> None:
        assert stmt.expr is not None
        value = self.lower_expr(stmt.expr)
        join_block = self.function.new_block("switch_join")
        cases: dict[int, str] = {}
        case_blocks: list[tuple[BasicBlock, list[ast.Stmt]]] = []
        for case_value, body in stmt.cases:
            block = self.function.new_block(f"case_{case_value}")
            cases[case_value] = block.name
            case_blocks.append((block, body))
        default_name = join_block.name
        if stmt.default is not None:
            block = self.function.new_block("case_default")
            default_name = block.name
            case_blocks.append((block, stmt.default))
        self._terminate(SwitchTerm(value, cases, default_name,
                                   location=stmt.location))
        for block, body in case_blocks:
            self._start_block(block)
            self._push_scope()
            self.loop_stack.append(_LoopContext(join_block.name, None))
            for inner in body:
                self.lower_stmt(inner)
            self.loop_stack.pop()
            self._pop_scope()
            self._terminate(Jump(join_block.name, location=stmt.location))
        self._start_block(join_block)


def _lower_function(module: Module, decl: ast.FunctionDecl) -> Function:
    assert decl.body is not None
    lowerer = Lowerer(module, decl.name, returns_value=decl.returns_value,
                      params=decl.params)
    lowerer.lower_stmt(decl.body)
    lowerer._terminate(Return(Const(0) if decl.returns_value else None,
                              location=decl.location))
    function = lowerer.function
    function.remove_unreachable_blocks()
    return function


def _lower_pps(module: Module, decl: ast.PpsDecl) -> Function:
    assert decl.body is not None
    lowerer = Lowerer(module, decl.name, returns_value=False, params=[])
    lowerer._push_scope()
    statements = decl.body.statements
    for stmt in statements[:-1]:
        lowerer.lower_stmt(stmt)
    pps_loop = statements[-1]
    # For `for(init; ; step)` loops, init belongs to the prologue and step
    # to the end of each iteration.
    step: ast.Stmt | None = None
    if isinstance(pps_loop, ast.For):
        lowerer._push_scope()
        if pps_loop.init is not None:
            lowerer.lower_stmt(pps_loop.init)
        step = pps_loop.step
        body = pps_loop.body
    else:
        assert isinstance(pps_loop, ast.While) and is_infinite_loop(pps_loop)
        body = pps_loop.body
    assert body is not None
    header = lowerer.function.new_block("pps_header")
    latch = lowerer.function.new_block("pps_latch")
    lowerer._terminate(Jump(header.name, location=pps_loop.location))
    lowerer._start_block(header)
    lowerer.loop_stack.append(_LoopContext(break_target="<pps-exit>",
                                           continue_target=latch.name))
    lowerer.lower_stmt(body)
    if step is not None:
        lowerer.lower_stmt(step)
    lowerer.loop_stack.pop()
    lowerer._terminate(Jump(latch.name, location=pps_loop.location))
    latch.set_terminator(Jump(header.name, location=pps_loop.location))
    if isinstance(pps_loop, ast.For):
        lowerer._pop_scope()
    function = lowerer.function
    function.remove_unreachable_blocks()
    return function


def lower_program(program: ast.Program, name: str = "<module>") -> Module:
    """Lower a checked PPS-C program to an IR module (no inlining yet)."""
    module = Module(name=name)
    for pipe in program.pipes:
        module.pipes[pipe.name] = PipeRef(pipe.name)
    for memory in program.memories:
        module.regions[memory.name] = RegionRef(memory.name, memory.size,
                                                memory.readonly)
    for decl in program.functions:
        module.functions[decl.name] = _lower_function(module, decl)
    for decl in program.ppses:
        module.ppses[decl.name] = _lower_pps(module, decl)
    return module
