"""The unified error hierarchy and the CLI's exit-code families."""

import pickle

import pytest

from repro.cli import CLIError, main
from repro.errors import (
    DeadlockError,
    FaultPlanError,
    ReproError,
    TrapError,
)
from repro.eval.fuzz import CheckFailure
from repro.eval.sweep import SweepError, SweepTask
from repro.lang.errors import FrontendError, ParseError, SourceLocation
from repro.pipeline.transform import PipelineError
from repro.pipeline.verify import VerifyError, VerifyFinding, VerifyVerdict
from repro.runspec import RunSpec
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


#: One instance of every ``ReproError`` subclass with its own
#: ``__init__``, and the fields it carries beside its message.
PICKLED = [
    pytest.param(VerifyError(VerifyVerdict("tx", 2, [VerifyFinding(
        "dependence", "x crosses backward", cut=1, subject="x")])),
        ("verdict",), id="VerifyError"),
    pytest.param(ParseError("expected ';'", SourceLocation("a.ppc", 3, 7)),
                 ("message", "location"), id="ParseError"),
    pytest.param(DeadlockError("stuck", kind="livelock",
                               parked={"a": ("recv", "p")},
                               offenders={"a": ("recv", "p")}),
                 ("kind", "parked", "offenders", "report"),
                 id="DeadlockError"),
    pytest.param(SweepError("cell failed", task=SweepTask(
        "explore", RunSpec("ipv4", packets=8, seed=7, degrees=(2,)))),
        ("task",), id="SweepError"),
    pytest.param(CheckFailure("verify", ValueError("boom")),
                 ("phase", "cause"), id="CheckFailure"),
]


@pytest.mark.parametrize("error, fields", PICKLED)
def test_errors_survive_pickling(error, fields):
    # A sweep worker hands its failure back to the parent by pickle.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert [repr(getattr(copy, name)) for name in fields] == \
        [repr(getattr(error, name)) for name in fields]


def test_every_error_with_its_own_init_is_pickle_tested():
    import importlib
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    own_init, pending = set(), [ReproError]
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        if "__init__" in vars(cls) and cls.__module__.startswith("repro."):
            own_init.add(cls)
    tested = [type(param.values[0]) for param in PICKLED]
    assert [cls.__name__ for cls in own_init
            if not any(issubclass(kind, cls) for kind in tested)] == []


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
    from repro.errors import EXIT_FAILURE, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE

    assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_RUNTIME) == (0, 1, 2, 3)


def test_serve_report_exit_code_mapping():
    """A serve report exits 1 on an oracle mismatch and 0 otherwise: a
    run that could not deliver raised ``ServeError`` (exit 3) instead of
    reporting, and a drain's undelivered tail was asked for."""
    from repro.errors import EXIT_FAILURE, EXIT_OK
    from repro.serve import ServeReport

    def report(pending=0, **kwargs):
        base = ServeReport(app="ipv4", shards=2, degree=1, batch=4,
                           packets=8, seed=7, **kwargs)
        base.counters = {"pending": pending}
        return base

    assert report().exit_code() == EXIT_OK
    assert report(mismatches=["shard 0 batch 1: tx diverged"]) \
        .exit_code() == EXIT_FAILURE
    # A drain that left a tail: warned about, verified, exit 0.
    drained = report(pending=3, drained=True)
    assert drained.degraded and drained.ok
    assert drained.exit_code() == EXIT_OK
    assert not report(pending=0, drained=True).degraded
    assert report(pending=3, drained=True, mismatches=[
        "shard 1 batch 2: traces diverged"]).exit_code() == EXIT_FAILURE
