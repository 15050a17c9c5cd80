"""Tests for pipeline stage realization."""

import pytest

from repro.ir.instructions import PipeIn, PipeOut, SwitchTerm
from repro.ir.verify import verify_function
from repro.pipeline.liveset import Strategy
from repro.pipeline.realize import stage_pipe_name
from repro.pipeline.transform import PipelineError, pipeline_pps
from repro.runspec import Knobs

from helpers import STANDARD_PPS, compile_module


@pytest.fixture(scope="module")
def transformed():
    module = compile_module(STANDARD_PPS)
    return module, pipeline_pps(module, "worker", 3)


def test_stage_count_and_names(transformed):
    module, result = transformed
    assert len(result.stages) == 3
    for index, stage in enumerate(result.stages, start=1):
        assert stage.index == index
        assert f"s{index}of3" in stage.function.name


def test_stage_functions_verify(transformed):
    module, result = transformed
    for stage in result.stages:
        verify_function(stage.function)


def test_pipe_chain_wiring(transformed):
    module, result = transformed
    first, middle, last = result.stages
    assert first.in_pipe is None
    assert first.out_pipe.name == stage_pipe_name("worker", 1)
    assert middle.in_pipe.name == stage_pipe_name("worker", 1)
    assert middle.out_pipe.name == stage_pipe_name("worker", 2)
    assert last.in_pipe.name == stage_pipe_name("worker", 2)
    assert last.out_pipe is None
    # Stage pipes are registered on the module.
    assert stage_pipe_name("worker", 1) in module.pipes


def test_downstream_stages_dispatch_on_control_word(transformed):
    module, result = transformed
    for stage in result.stages[1:]:
        recv = stage.function.block("stage_recv")
        assert any(isinstance(inst, PipeIn) for inst in recv.instructions)
        assert isinstance(recv.terminator, SwitchTerm)


def test_non_final_stages_send(transformed):
    module, result = transformed
    for stage in result.stages[:-1]:
        sends = [inst for inst in stage.function.all_instructions()
                 if isinstance(inst, PipeOut)]
        assert sends
    last = result.stages[-1]
    assert not any(isinstance(inst, PipeOut)
                   for inst in last.function.all_instructions())


def test_prologue_replicated_into_every_stage():
    module = compile_module("""
        pipe q;
        pps p {
            int config = 777;
            for (;;) { int v = pipe_recv(q); trace(1, v + config);
                       trace(2, v ^ config); }
        }
    """)
    result = pipeline_pps(module, "p", 2)
    for stage in result.stages:
        entry = stage.function.block(stage.function.entry)
        values = [getattr(inst, "src", None) for inst in entry.instructions]
        assert any(getattr(v, "value", None) == 777 for v in values), \
            f"stage {stage.index} lost the prologue constant"


def test_stage_blocks_partition_body(transformed):
    module, result = transformed
    seen = {}
    for stage in result.stages:
        for name in stage.local_blocks:
            assert name not in seen, f"block {name} in two stages"
            seen[name] = stage.index
    assert set(seen) <= set(result.loop.body)


def test_impure_prologue_rejected():
    module = compile_module("""
        pipe q;
        pps p {
            pipe_send(q, 1);
            for (;;) { int v = pipe_recv(q); trace(1, v); }
        }
    """)
    with pytest.raises(PipelineError, match="prologue"):
        pipeline_pps(module, "p", 2)


def test_unknown_pps_rejected():
    module = compile_module("pps p { for (;;) { trace(1, 0); } }")
    with pytest.raises(PipelineError, match="unknown pps"):
        pipeline_pps(module, "nope", 2)


def test_bad_degree_rejected():
    module = compile_module("pps p { for (;;) { trace(1, 0); } }")
    with pytest.raises(PipelineError):
        pipeline_pps(module, "p", 0)


def test_conditionalized_strategy_uses_word_messages():
    module = compile_module(STANDARD_PPS)
    result = pipeline_pps(module, "worker", 2,
                          knobs=Knobs(strategy=Strategy.CONDITIONALIZED))
    sender = result.stages[0].function
    outs = [inst for inst in sender.all_instructions()
            if isinstance(inst, PipeOut)]
    assert outs
    assert all(len(inst.values) == 1 for inst in outs), \
        "conditionalized transmission sends one object per ring operation"


def test_degrees_beyond_units_leave_empty_forwarding_stages():
    module = compile_module("""
        pipe q;
        pps p { for (;;) { int v = pipe_recv(q); trace(1, v); } }
    """)
    result = pipeline_pps(module, "p", 6)
    # Tiny PPS: later stages may have no local blocks but must still be
    # valid forwarders.
    for stage in result.stages:
        verify_function(stage.function)
