"""Deterministic, seeded fault injection for the runtime.

A :class:`FaultPlan` describes *what* to break — packet loss, duplication,
corruption and reordering delays at the inputs, transient pipe-full
stalls, per-stage slowdowns, and injected interpreter traps at a chosen
instruction count.  A :class:`FaultInjector` executes one plan against a
concrete run.  All randomness derives from the plan's seed (one
``random.Random`` for the input stream, an independently salted one for
runtime events), so a plan replays bit-identically.

The fault-free path pays nothing (the same zero-overhead discipline as
:mod:`repro.obs`): the hooks live at *rare* boundaries only —

* input perturbation happens host-side, before the run starts;
* pipe stalls ride on a :class:`FaultyPipe` subclass substituted at pipe
  *creation*, so unwrapped pipes keep the plain ``can_send``;
* stage slowdowns add yields inside the existing once-per-iteration
  ``loop_start`` branch of the interpreter drivers;
* injected traps reprogram the interpreter's *fuel* gauge, reusing the
  fuel check the hot loops already perform.

Stall countdowns advance on scheduler *quiescence* (a virtual clock):
every time the ready deque empties, :meth:`FaultInjector.on_quiescence`
ticks active stalls and notifies the wake hub when one expires, so a
stalled pipeline resumes deterministically instead of hanging.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatch
from random import Random

from repro.errors import FaultPlanError
from repro.runtime.state import Pipe

#: Salt separating the runtime RNG stream from the input-stream RNG.
_RUNTIME_SALT = 0x9E3779B9


@dataclass
class InputFaults:
    """Per-input-stream fault rates (all probabilities in [0, 1])."""

    drop: float = 0.0         # lose the packet entirely
    duplicate: float = 0.0    # deliver the packet twice
    corrupt: float = 0.0      # flip one byte / one bit
    delay: float = 0.0        # push the packet later in the stream
    max_delay: int = 4        # max positions a delayed packet moves back


@dataclass
class PipeFaults:
    """Transient pipe-full stalls: after every ``stall_every`` sends the
    pipe refuses further sends for ``stall_for`` quiescence ticks."""

    stall_every: int = 0
    stall_for: int = 1


@dataclass
class StageFaults:
    """Per-stage perturbations, matched against interpreter names."""

    slowdown: int = 0         # extra scheduler yields per loop iteration
    trap_at: int = 0          # inject a trap after ~N more weighted units


@dataclass
class WorkerFaults:
    """Serve-pool worker faults, matched against ``shard-<index>`` names.

    A worker SIGKILLs itself after committing ``kill_after_batches``
    batches (0 = die before the first commit), or falls silent after
    ``hang_after_batches`` so the supervisor's hang timeout must
    catch it.  Both fire on incarnation 0 only unless
    ``every_incarnation`` — the every-incarnation form is how the chaos
    suite exhausts a restart budget deterministically.  Worker faults are
    semantics-preserving by construction: the journal replays the shard,
    so committed output must still match the sequential oracle.
    """

    kill_after_batches: int | None = None
    hang_after_batches: int | None = None
    every_incarnation: bool = False


class FaultPlan:
    """A validated, serializable fault-injection plan."""

    def __init__(self, seed: int = 0,
                 inputs: dict[str, InputFaults] | None = None,
                 pipes: dict[str, PipeFaults] | None = None,
                 stages: dict[str, StageFaults] | None = None,
                 workers: dict[str, WorkerFaults] | None = None,
                 name: str = ""):
        self.seed = seed
        self.inputs = dict(inputs or {})
        self.pipes = dict(pipes or {})
        self.stages = dict(stages or {})
        self.workers = dict(workers or {})
        self.name = name

    # -- predicates ------------------------------------------------------------

    def semantics_preserving(self) -> bool:
        """True when surviving-packet outputs must match the fault-free
        pipeline exactly: drops/duplicates/delays perturb only the input
        stream (shared by every run), stalls and slowdowns perturb only
        scheduling.  Corruption and injected traps void the guarantee."""
        return (not self.has_traps()
                and all(spec.corrupt == 0 for spec in self.inputs.values()))

    def has_traps(self) -> bool:
        return any(spec.trap_at > 0 for spec in self.stages.values())

    # -- (de)serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict, *, name: str = "") -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        unknown = set(data) - {"seed", "inputs", "pipes", "stages",
                               "workers", "name"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan keys: {sorted(unknown)}")
        seed = data.get("seed", 0)
        if not isinstance(seed, int):
            raise FaultPlanError(f"seed must be an integer, got {seed!r}")
        plan = cls(seed=seed, name=data.get("name", name))
        for key, spec in _section(data, "inputs").items():
            plan.inputs[key] = _parse_input_faults(key, spec)
        for key, spec in _section(data, "pipes").items():
            plan.pipes[key] = _parse_pipe_faults(key, spec)
        for key, spec in _section(data, "stages").items():
            plan.stages[key] = _parse_stage_faults(key, spec)
        for key, spec in _section(data, "workers").items():
            plan.workers[key] = _parse_worker_faults(key, spec)
        return plan

    @classmethod
    def from_json(cls, text: str, *, name: str = "") -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}")
        return cls.from_dict(data, name=name)

    @classmethod
    def load(cls, path) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return cls.from_json(text, name=str(path))

    def worker_faults(self, shard_name: str) -> "WorkerFaults | None":
        """The worker fault spec matching ``shard-<index>``, if any."""
        for pattern, spec in self.workers.items():
            if fnmatch(str(shard_name), pattern):
                return spec
        return None


def _section(data: dict, key: str) -> dict:
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise FaultPlanError(f"{key!r} must be an object of glob -> spec")
    for spec in section.values():
        if not isinstance(spec, dict):
            raise FaultPlanError(f"every {key!r} entry must be an object")
    return section


def _rate(name: str, key: str, value) -> float:
    if not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise FaultPlanError(
            f"{name}[{key!r}]: rate must be in [0, 1], got {value!r}")
    return float(value)


def _count(name: str, key: str, value, *, minimum: int = 0) -> int:
    if not isinstance(value, int) or value < minimum:
        raise FaultPlanError(
            f"{name}[{key!r}]: expected an integer >= {minimum}, "
            f"got {value!r}")
    return value


def _parse_input_faults(key: str, spec: dict) -> InputFaults:
    unknown = set(spec) - {"drop", "duplicate", "corrupt", "delay",
                           "max_delay"}
    if unknown:
        raise FaultPlanError(
            f"inputs[{key!r}]: unknown keys {sorted(unknown)}")
    return InputFaults(
        drop=_rate("inputs", "drop", spec.get("drop", 0.0)),
        duplicate=_rate("inputs", "duplicate", spec.get("duplicate", 0.0)),
        corrupt=_rate("inputs", "corrupt", spec.get("corrupt", 0.0)),
        delay=_rate("inputs", "delay", spec.get("delay", 0.0)),
        max_delay=_count("inputs", "max_delay", spec.get("max_delay", 4),
                         minimum=1),
    )


def _parse_pipe_faults(key: str, spec: dict) -> PipeFaults:
    unknown = set(spec) - {"stall_every", "stall_for"}
    if unknown:
        raise FaultPlanError(
            f"pipes[{key!r}]: unknown keys {sorted(unknown)}")
    return PipeFaults(
        stall_every=_count("pipes", "stall_every",
                           spec.get("stall_every", 0)),
        stall_for=_count("pipes", "stall_for", spec.get("stall_for", 1),
                         minimum=1),
    )


def _parse_stage_faults(key: str, spec: dict) -> StageFaults:
    unknown = set(spec) - {"slowdown", "trap_at"}
    if unknown:
        raise FaultPlanError(
            f"stages[{key!r}]: unknown keys {sorted(unknown)}")
    return StageFaults(
        slowdown=_count("stages", "slowdown", spec.get("slowdown", 0)),
        trap_at=_count("stages", "trap_at", spec.get("trap_at", 0)),
    )


def _parse_worker_faults(key: str, spec: dict) -> WorkerFaults:
    unknown = set(spec) - {"kill_after_batches", "hang_after_batches",
                           "every_incarnation"}
    if unknown:
        raise FaultPlanError(
            f"workers[{key!r}]: unknown keys {sorted(unknown)}")
    kill = spec.get("kill_after_batches")
    hang = spec.get("hang_after_batches")
    every = spec.get("every_incarnation", False)
    if kill is not None:
        kill = _count("workers", "kill_after_batches", kill)
    if hang is not None:
        hang = _count("workers", "hang_after_batches", hang)
    if not isinstance(every, bool):
        raise FaultPlanError(
            f"workers[{key!r}]: every_incarnation must be a boolean, "
            f"got {every!r}")
    return WorkerFaults(kill_after_batches=kill, hang_after_batches=hang,
                        every_incarnation=every)


@dataclass
class FaultyPipe(Pipe):
    """A :class:`Pipe` that periodically refuses sends.

    After every ``stall_every`` accepted sends the pipe *stalls*: it
    reports full for ``stall_for`` quiescence ticks, parking would-be
    senders exactly like a full bounded pipe.  The injector's virtual
    clock (:meth:`FaultInjector.on_quiescence`) expires the stall and
    notifies the hub.  Messages are never lost — stalls perturb only
    scheduling, so any fault plan built from them is
    semantics-preserving.
    """

    stall_every: int = 0
    stall_for: int = 1
    injector: "FaultInjector | None" = None
    _since_stall: int = 0
    _stall_remaining: int = 0

    def can_send(self) -> bool:
        if self._stall_remaining > 0:
            return False
        return super().can_send()

    def send(self, message) -> None:
        super().send(message)
        if self.stall_every > 0:
            self._since_stall += 1
            if self._since_stall >= self.stall_every:
                self._since_stall = 0
                self._stall_remaining = self.stall_for
                if self.injector is not None:
                    self.injector.stalls += 1

    def tick_stall(self) -> bool:
        """Advance the stall countdown one quiescence tick.  Returns True
        if the stall was active (and wakes parked senders on expiry)."""
        if self._stall_remaining <= 0:
            return False
        self._stall_remaining -= 1
        if self._stall_remaining == 0 and self.hub is not None:
            self.hub.notify(("send", self.name))
        return True


@dataclass
class DeadLetter:
    """One quarantined packet iteration (see scheduler trap isolation)."""

    stage: str
    iteration: int
    instructions: int
    last_block: str | None
    cause: str
    detail: str

    def as_dict(self) -> dict:
        return vars(self).copy()


class FaultInjector:
    """Executes one :class:`FaultPlan` against a run, deterministically."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._stream_rng = Random(plan.seed)
        self._runtime_rng = Random(plan.seed ^ _RUNTIME_SALT)
        self._wrapped: list[FaultyPipe] = []
        # Counters for the runtime report.
        self.drops = 0
        self.duplicates = 0
        self.corruptions = 0
        self.delays = 0
        self.stalls = 0
        self.slowdowns = 0
        self.traps_armed = 0
        self.traps_fired = 0        # bumped by the interpreter's trap path
        self.quiescence_ticks = 0

    # -- input-stream perturbation ---------------------------------------------

    def perturb(self, key: str, items: list) -> list:
        """Apply the matching input fault spec to a packet stream.

        Perturbation is applied *once*, host-side, before the run — every
        run sharing this perturbed stream (sequential oracle, each
        pipelined degree) sees identical inputs, which is what makes the
        ``faults`` check family of ``repro fuzz`` sound.
        """
        spec = self._match(self.plan.inputs, key)
        if spec is None:
            return list(items)
        rng = self._stream_rng
        staged: list[tuple[int, int, object]] = []
        for index, item in enumerate(items):
            if spec.drop and rng.random() < spec.drop:
                self.drops += 1
                continue
            if spec.corrupt and rng.random() < spec.corrupt:
                item = self._corrupt(item, rng)
                self.corruptions += 1
            position = index
            if spec.delay and rng.random() < spec.delay:
                position += rng.randint(1, spec.max_delay)
                self.delays += 1
            staged.append((position, len(staged), item))
            if spec.duplicate and rng.random() < spec.duplicate:
                staged.append((position, len(staged), item))
                self.duplicates += 1
        staged.sort(key=lambda entry: (entry[0], entry[1]))
        return [item for _, _, item in staged]

    @staticmethod
    def _corrupt(item, rng: Random):
        if isinstance(item, (bytes, bytearray)) and len(item):
            data = bytearray(item)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            return bytes(data)
        if isinstance(item, int):
            return item ^ (1 << rng.randrange(31))
        return item  # unknown payload type: leave untouched

    def absorb_stream(self, other: "FaultInjector") -> None:
        """Take over ``other``'s stream-perturbation counters.

        The stream is perturbed once by a dedicated injector and shared
        by every run; each run's armed injector absorbs those counts so
        a single report shows the whole plan's effect."""
        self.drops += other.drops
        self.duplicates += other.duplicates
        self.corruptions += other.corruptions
        self.delays += other.delays

    # -- arming a machine ------------------------------------------------------

    def arm(self, state) -> None:
        """Attach to ``state``: wrap existing pipes and register for
        late-created ones (the realized stages' ``.xfer`` rings)."""
        state.faults = self
        for name in list(state.pipes):
            state.pipes[name] = self.wrap_pipe(state.pipes[name])

    def wrap_pipe(self, pipe: Pipe) -> Pipe:
        if isinstance(pipe, FaultyPipe):
            return pipe
        spec = self._match(self.plan.pipes, pipe.name)
        if spec is None or spec.stall_every <= 0:
            return pipe
        faulty = FaultyPipe(
            name=pipe.name, capacity=pipe.capacity, queue=pipe.queue,
            hub=pipe.hub, sent=pipe.sent, received=pipe.received,
            high_water=pipe.high_water,
            stall_every=spec.stall_every, stall_for=spec.stall_for,
            injector=self,
        )
        self._wrapped.append(faulty)
        return faulty

    def arm_interpreters(self, interpreters: dict) -> None:
        """Apply stage slowdowns and injected traps by interpreter name."""
        for name, interp in interpreters.items():
            spec = self._match(self.plan.stages, name)
            if spec is None:
                continue
            if spec.slowdown > 0:
                interp._slow_yields = spec.slowdown
                self.slowdowns += 1
            if spec.trap_at > 0:
                interp.arm_injected_trap(
                    spec.trap_at,
                    f"injected trap (plan seed {self.plan.seed})")
                self.traps_armed += 1

    # -- virtual clock ---------------------------------------------------------

    def on_quiescence(self) -> bool:
        """Advance stalls one tick when the scheduler quiesces.  Returns
        True while any stall was active (the scheduler re-checks its
        ready deque before judging the quiescence final)."""
        active = False
        for pipe in self._wrapped:
            if pipe.tick_stall():
                active = True
        if active:
            self.quiescence_ticks += 1
        return active

    # -- reporting -------------------------------------------------------------

    def counters(self) -> dict:
        return {
            "plan": self.plan.name or None,
            "seed": self.plan.seed,
            "drops": self.drops,
            "duplicates": self.duplicates,
            "corruptions": self.corruptions,
            "delays": self.delays,
            "stalls": self.stalls,
            "slowdowns": self.slowdowns,
            "traps_armed": self.traps_armed,
            "traps_fired": self.traps_fired,
            "quiescence_ticks": self.quiescence_ticks,
        }

    @staticmethod
    def _match(specs: dict, key: str):
        for pattern, spec in specs.items():
            if fnmatch(str(key), pattern):
                return spec
        return None


def builtin_plans() -> dict[str, FaultPlan]:
    """The seeded plans ``repro fuzz`` runs by default (3 drop/delay plans
    whose differential must hold, plus one trap plan for isolation)."""
    return {
        "drop-light": FaultPlan.from_dict({
            "seed": 11,
            "inputs": {"*": {"drop": 0.15}},
        }, name="drop-light"),
        "delay-stall": FaultPlan.from_dict({
            "seed": 23,
            "inputs": {"*": {"delay": 0.5, "max_delay": 6}},
            "pipes": {"*.xfer*": {"stall_every": 5, "stall_for": 3}},
        }, name="delay-stall"),
        "mixed-loss": FaultPlan.from_dict({
            "seed": 37,
            "inputs": {"*": {"drop": 0.1, "duplicate": 0.1, "delay": 0.25}},
            "stages": {"*": {"slowdown": 2}},
        }, name="mixed-loss"),
        "trap-storm": FaultPlan.from_dict({
            "seed": 53,
            "stages": {"*": {"trap_at": 500}},
        }, name="trap-storm"),
    }


def serve_plans() -> dict[str, FaultPlan]:
    """Seeded plans for the sharded serving runtime (``repro serve``).

    Kept out of :func:`builtin_plans` because ``run`` and the in-process
    ``faults`` check family have no worker pool, and
    :func:`resolve_plan` rejects a ``workers`` section there, as it
    rejects every other section under ``serve``.  ``worker-kill`` murders every worker once
    mid-stream (restart + journal replay must reproduce the oracle);
    ``worker-storm`` kills shard 0 on *every* incarnation, which is the
    deterministic way to exhaust a restart budget: the run ends in a
    ``ServeError`` (exit 3) naming the shard and its causes.
    """
    return {
        "worker-kill": FaultPlan.from_dict({
            "seed": 71,
            "workers": {"*": {"kill_after_batches": 1}},
        }, name="worker-kill"),
        "worker-storm": FaultPlan.from_dict({
            "seed": 73,
            "workers": {"shard-0": {"kill_after_batches": 0,
                                    "every_incarnation": True}},
        }, name="worker-storm"),
    }


def resolve_plan(spec: str, *, serve: bool = False) -> FaultPlan:
    """The one fault-plan resolver (``run --faults``, ``fuzz --faults``,
    ``serve --faults``): a builtin plan name — with ``serve``, also a
    :func:`serve_plans` name — or a JSON plan file.  Anything else is a
    :class:`FaultPlanError` (CLI exit 2) naming the plans available, and
    so is a plan with a section the command cannot apply: ``serve``
    applies only ``workers``, and ``run`` / ``fuzz`` everything but
    ``workers`` (they run in one process, with no worker pool)."""
    named = {**builtin_plans(), **(serve_plans() if serve else {})}
    if spec in named:
        plan = named[spec]
    else:
        try:
            plan = FaultPlan.load(spec)
        except OSError as exc:
            raise FaultPlanError(
                f"no fault plan {spec!r}: not a plan name and not a "
                f"readable JSON file ({exc.strerror}); available plans: "
                f"{', '.join(sorted(named))}") from exc
    if serve:
        sections, why = ("inputs", "pipes", "stages"), \
            "repro serve applies only 'workers'"
    else:
        sections, why = ("workers",), \
            "repro run and repro fuzz have no worker pool"
    for section in sections:
        if getattr(plan, section):
            raise FaultPlanError(
                f"fault plan {spec!r} has section {section!r}, which "
                f"this command cannot apply ({why})")
    return plan
