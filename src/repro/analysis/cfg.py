"""Control-flow-graph views of IR functions.

``cfg_of`` builds a :class:`~repro.analysis.graph.Digraph` over block names.
``PpsLoop`` identifies the PPS loop of a lowered PPS body and exposes the
*body graph*: the loop's blocks with the back edge removed — the region the
pipelining transformation partitions (the paper's "PPS loop body").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.graph import Digraph
from repro.ir.function import Function


def cfg_of(function: Function) -> Digraph:
    """The full control-flow graph of ``function``."""
    graph = Digraph(entry=function.entry)
    for name in function.block_order:
        graph.add_node(name)
    for block in function.ordered_blocks():
        for successor in block.successors():
            graph.add_edge(block.name, successor)
    return graph


@dataclass
class PpsLoop:
    """The PPS loop of a lowered PPS body.

    Attributes:
        function: The lowered PPS function.
        header: Loop header block (the start of each iteration).
        latch: The unique block whose jump back to ``header`` closes the loop.
        body: All block names in the loop, header first.
    """

    function: Function
    header: str
    latch: str
    body: list[str]

    def body_graph(self) -> Digraph:
        """The loop body as a graph with the back edge removed.

        The header is the entry; the latch has no successors.  Inner loops
        remain as cycles (they are the CFG SCCs the transformation must not
        split).
        """
        graph = Digraph(entry=self.header)
        body = set(self.body)
        for name in self.body:
            graph.add_node(name)
        for name in self.body:
            for successor in self.function.block(name).successors():
                if successor in body and not (name == self.latch and
                                              successor == self.header):
                    graph.add_edge(name, successor)
        return graph


def pps_loop_header(function: Function) -> str:
    """The name of the PPS loop header block, without building a CFG.

    The header is the unique block with two predecessor groups: one from
    the prologue (outside the loop) and one back edge.  Lowering marks it
    by name prefix, so callers that only need where an iteration starts
    (the runtime, once per run) read the mark instead of the graph.
    """
    headers = [name for name in function.block_order
               if name.startswith("pps_header")]
    if len(headers) != 1:
        raise ValueError(
            f"{function.name}: expected exactly one PPS loop header, "
            f"found {headers}"
        )
    return headers[0]


def find_pps_loop(function: Function) -> PpsLoop:
    """Locate the PPS loop in a lowered PPS body.

    Lowering guarantees the shape: a prologue chain from the function entry
    reaches the loop header; the header's only in-loop predecessor is the
    unique latch; every block except the prologue is in the loop (the PPS
    loop never exits).
    """
    header = pps_loop_header(function)
    graph = cfg_of(function)
    assert function.entry is not None
    preds = graph.preds(header)
    # Blocks reachable from the header without leaving the loop: since the
    # PPS loop is infinite, everything reachable from header is in the loop.
    body = graph.dfs_preorder(header)
    body_set = set(body)
    latches = [pred for pred in preds if pred in body_set]
    if len(latches) != 1:
        raise ValueError(
            f"{function.name}: expected a unique PPS back edge, found "
            f"{latches}"
        )
    return PpsLoop(function=function, header=header, latch=latches[0], body=body)


def split_large_blocks(function: Function, max_instructions: int) -> int:
    """Split blocks longer than ``max_instructions`` into chains.

    Finer block granularity lets the balanced-cut algorithm place a cut in
    the middle of long straight-line runs (the paper cuts at arbitrary
    control-flow points).  Returns the number of splits performed.
    """
    from repro.ir.instructions import Jump, Phi

    splits = 0
    for name in list(function.block_order):
        block = function.block(name)
        while len(block.instructions) > max_instructions:
            # Never separate a phi from its block head.
            cut_at = max_instructions
            while (cut_at < len(block.instructions) and
                   isinstance(block.instructions[cut_at], Phi)):
                cut_at += 1
            if cut_at >= len(block.instructions):
                break
            rest = block.instructions[cut_at:]
            old_term = block.terminator
            assert old_term is not None
            block.instructions = block.instructions[:cut_at]
            # The fresh name must not inherit a "pps_header" prefix, which
            # find_pps_loop uses to identify the loop header.
            tail = function.new_block("chunk")
            tail.instructions = rest
            tail.set_terminator(old_term)
            block.terminator = None
            block.set_terminator(Jump(tail.name, location=old_term.location))
            # Phi incomings in successors must be renamed to the tail block.
            for succ_name in old_term.successors():
                for phi in function.block(succ_name).phis():
                    if block.name in phi.incomings:
                        phi.incomings[tail.name] = phi.incomings.pop(block.name)
            splits += 1
            block = tail
    return splits
