"""Textual rendering of IR functions and modules (for debugging and tests)."""

from __future__ import annotations

from repro.ir.function import Function, Module


def format_function(function: Function) -> str:
    """Render a function as readable IR text."""
    params = ", ".join(str(param) for param in function.params)
    kind = "int" if function.returns_value else "void"
    lines = [f"{kind} {function.name}({params}) {{"]
    for array in function.arrays.values():
        lines.append(f"  array {array.name}[{array.size}]")
    for block in function.ordered_blocks():
        entry_mark = " (entry)" if block.name == function.entry else ""
        lines.append(f"{block.name}:{entry_mark}")
        for instruction in block.instructions:
            lines.append(f"  {instruction}")
        if block.terminator is not None:
            lines.append(f"  {block.terminator}")
        else:
            lines.append("  <unterminated>")
    lines.append("}")
    return "\n".join(lines)


def format_module(module: Module) -> str:
    """Render a whole module as readable IR text."""
    lines = [f"module {module.name}"]
    for pipe in module.pipes.values():
        lines.append(f"pipe {pipe.name}")
    for region in module.regions.values():
        readonly = "readonly " if region.readonly else ""
        lines.append(f"{readonly}memory {region.name}[{region.size}]")
    for function in module.functions.values():
        lines.append("")
        lines.append(format_function(function))
    for pps in module.ppses.values():
        lines.append("")
        lines.append(f"pps {pps.name}:")
        lines.append(format_function(pps))
    return "\n".join(lines)
