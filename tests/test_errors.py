"""The unified error hierarchy and the CLI's exit-code families."""

import pytest

from repro.cli import CLIError, main
from repro.errors import (
    DeadlockError,
    FaultPlanError,
    ReproError,
    TrapError,
)
from repro.lang.errors import FrontendError
from repro.pipeline.transform import PipelineError
from repro.runtime.devices import DeviceError
from repro.runtime.packets import PacketError


def test_every_toolchain_error_derives_from_repro_error():
    for cls in (TrapError, FaultPlanError, DeadlockError, CLIError,
                FrontendError, PipelineError, DeviceError, PacketError):
        assert issubclass(cls, ReproError), cls


def test_device_and_packet_errors_are_traps():
    # Trap isolation must quarantine device/packet misuse like any trap.
    assert issubclass(DeviceError, TrapError)
    assert issubclass(PacketError, TrapError)


def test_runtime_error_alias_is_gone():
    import repro.runtime

    assert not hasattr(repro.runtime.state, "RuntimeError_")
    assert "RuntimeError_" not in repro.runtime.__all__


def test_deadlock_error_carries_structure():
    exc = DeadlockError("stuck", kind="livelock",
                        parked={"a": ("recv", "p")},
                        offenders={"a": ("recv", "p")})
    assert exc.kind == "livelock"
    assert exc.parked == {"a": ("recv", "p")}
    assert exc.offenders == {"a": ("recv", "p")}
    assert exc.report is None
    assert isinstance(exc, ReproError)


# -- CLI exit-code families ---------------------------------------------------

TRAPPING = """
pipe in_q;
readonly memory tbl[4];

pps boom {
    for (;;) {
        int v = pipe_recv(in_q);
        int w = mem_read(tbl, v + 100);
        trace(1, w);
    }
}
"""


@pytest.fixture()
def trap_file(tmp_path):
    path = tmp_path / "boom.ppc"
    path.write_text(TRAPPING)
    return str(path)


def test_usage_error_exits_2(trap_file, capsys):
    assert main(["run", trap_file, "--pps", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compile_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ppc"
    bad.write_text("pps p { for (;;) { undeclared = 1; } }")
    assert main(["run", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_runtime_trap_exits_3(trap_file, capsys):
    code = main(["run", trap_file, "--feed", "in_q=1,2,3",
                 "--iterations", "3"])
    assert code == 3
    assert "trap" in capsys.readouterr().err


def test_trap_isolation_turns_trap_into_dead_letters(trap_file, capsys):
    code = main(["run", trap_file, "--feed", "in_q=1,2,3",
                 "--iterations", "3", "--isolate-traps"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dead letters: 3" in out


def test_malformed_fault_plan_exits_2(trap_file, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"bogus": 1}')
    code = main(["run", trap_file, "--feed", "in_q=1",
                 "--faults", str(plan)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_fault_plan_exits_2(trap_file, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text("{not json")
    assert main(["run", trap_file, "--feed", "in_q=1",
                 "--faults", str(plan)]) == 2


def test_exit_code_family_constants():
    from repro.errors import (
        EXIT_DEGRADED,
        EXIT_DEGRADED_SERVE,
        EXIT_FAILURE,
        EXIT_OK,
        EXIT_RUNTIME,
        EXIT_USAGE,
    )

    assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_RUNTIME,
            EXIT_DEGRADED, EXIT_DEGRADED_SERVE) == (0, 1, 2, 3, 4, 5)


def test_serve_report_exit_code_mapping():
    """The degraded-serve code maps exactly: mismatch/undelivered -> 1,
    resharded or part-drained -> 5, clean delivery -> 0."""
    from repro.errors import EXIT_DEGRADED_SERVE, EXIT_FAILURE, EXIT_OK
    from repro.serve import ServeReport

    def report(**kwargs):
        base = ServeReport(app="ipv4", shards=2, degree=1, batch=4,
                           packets=8, seed=7)
        base.counters = {"pending": 0}
        for key, value in kwargs.items():
            setattr(base, key, value)
        return base

    assert report().exit_code() == EXIT_OK
    assert report(degraded=True).exit_code() == EXIT_DEGRADED_SERVE
    assert report(mismatches=["shard 0 batch 1: tx diverged"]) \
        .exit_code() == EXIT_FAILURE
    undelivered = report()
    undelivered.counters = {"pending": 3}
    assert undelivered.exit_code() == EXIT_FAILURE
    # Degraded beats undelivered: a drain that left a tail is exit 5,
    # the batches were given up deliberately.
    drained = report(degraded=True, drained=True)
    drained.counters = {"pending": 3}
    assert drained.exit_code() == EXIT_DEGRADED_SERVE
