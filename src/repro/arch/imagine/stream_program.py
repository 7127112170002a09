"""Stream-program representation and execution for Imagine.

§2.4: "the programming model is based on streams ... a program is
described in two languages, one for the host (or control) thread ... and
one for the stream processing unit".  The host-level program is a
sequence of *stream operations* — memory loads/stores between DRAM and
the SRF, and kernel invocations on the cluster array — issued in order
by the stream controller, with double buffering emerging from the
dependency structure rather than being assumed.

:class:`StreamProgram` captures that host program; :func:`execute`
schedules it with the in-order earliest-start scheduler over the
machine's two memory controllers (least-loaded assignment per stream)
and the single cluster array.  The Imagine kernel mappings build their
host programs explicitly, so memory/compute overlap — §4.2's "87% of the
cycles ... are due to memory transfers" and §4.3's fully-hidden CSLC
streams — is an *outcome* of the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.imagine.machine import ImagineMachine
from repro.errors import ScheduleError
from repro.memory.dram import DRAMCost
from repro.memory.streams import AccessPattern, TemplateStream
from repro.sim.resources import TimelineResource
from repro.sim.schedule import DependencyScheduler, Task


@dataclass(frozen=True)
class StreamOp:
    """One host-program operation.

    ``kind`` is ``"load"``/``"store"`` (with ``pattern`` set and
    optionally ``gather``) or ``"kernel"`` (with ``cycles`` set —
    inner-loop time including the software-pipeline prologue).
    ``deps`` name earlier ops whose completion this op requires (data in
    the SRF, buffers freed).
    """

    name: str
    kind: str
    pattern: Optional[AccessPattern] = None
    gather: bool = False
    cycles: float = 0.0
    deps: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("load", "store", "kernel"):
            raise ScheduleError(
                f"op {self.name!r}: kind must be load/store/kernel"
            )
        if self.kind == "kernel":
            if self.pattern is not None:
                raise ScheduleError(
                    f"kernel op {self.name!r} must not carry a pattern"
                )
            if self.cycles < 0:
                raise ScheduleError(
                    f"kernel op {self.name!r}: negative cycles"
                )
        elif self.pattern is None:
            raise ScheduleError(
                f"memory op {self.name!r} needs an access pattern"
            )


@dataclass
class StreamSchedule:
    """Outcome of executing a stream program."""

    makespan: float
    memory_busy: float
    cluster_busy: float
    op_intervals: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def memory_wall(self) -> float:
        """Total memory-system busy time (the §4.2 memory bound)."""
        return self.memory_busy

    @property
    def exposed_over_memory(self) -> float:
        """Cycles the schedule runs past the memory wall — the
        unoverlapped kernel time of §4.2's 13%."""
        return max(0.0, self.makespan - self.memory_wall)


class StreamProgram:
    """An ordered host program of :class:`StreamOp`."""

    def __init__(self) -> None:
        self._ops: List[StreamOp] = []
        self._names: set = set()

    def add(self, op: StreamOp) -> None:
        if op.name in self._names:
            raise ScheduleError(f"duplicate stream op {op.name!r}")
        for dep in op.deps:
            if dep not in self._names:
                raise ScheduleError(
                    f"op {op.name!r} depends on unknown op {dep!r} "
                    "(host program is issued in order)"
                )
        self._ops.append(op)
        self._names.add(op.name)

    def load(
        self,
        name: str,
        pattern: AccessPattern,
        deps: Sequence[str] = (),
        gather: bool = False,
    ) -> None:
        self.add(StreamOp(name, "load", pattern=pattern, gather=gather,
                          deps=tuple(deps)))

    def store(
        self, name: str, pattern: AccessPattern, deps: Sequence[str] = ()
    ) -> None:
        self.add(StreamOp(name, "store", pattern=pattern, deps=tuple(deps)))

    def kernel(
        self, name: str, cycles: float, deps: Sequence[str] = ()
    ) -> None:
        self.add(StreamOp(name, "kernel", cycles=cycles, deps=tuple(deps)))

    @property
    def ops(self) -> Tuple[StreamOp, ...]:
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)


@dataclass(frozen=True)
class OpCost:
    """Structural cost coefficients of one stream op.

    :func:`execute_measured` records these while it runs the DRAM model
    in program order; :func:`reschedule` turns them back into task
    durations under a *different* calibration without touching DRAM
    state.  ``issue_cycles`` (data transfer at the controller rate) and
    ``activations`` (row switches, a pure function of the address stream
    and bank geometry) are calibration-independent; the row-cycle time,
    gather derate, and kernel durations re-enter at replay.
    """

    name: str
    kind: str
    deps: Tuple[str, ...]
    issue_cycles: float = 0.0
    activations: int = 0
    n_words: int = 0
    gather: bool = False
    cycles: float = 0.0  # kernel duration under the measuring calibration


def execute_measured(
    program: StreamProgram, machine: ImagineMachine
) -> Tuple[StreamSchedule, Tuple[OpCost, ...]]:
    """Schedule ``program`` on ``machine`` and record per-op cost
    coefficients for later replay.

    Each memory stream stripes across the machine's controllers (the
    memory controllers "reorder accesses ... to increase data access
    locality", §2.2, and interleave banks between them), so the memory
    system appears as one resource moving ``memory_controllers`` words
    per cycle; kernels serialise on the single SIMD cluster array.
    Issue is in program order, so a later op can never displace an
    earlier one.
    """
    memory = TimelineResource("memory-system")
    clusters = TimelineResource("cluster-array")
    scheduler = DependencyScheduler()
    costs: List[OpCost] = []

    # Cost every memory stream in one DRAM pass: the ops' patterns, in
    # program order, are one template stream whose open-row state
    # threads through exactly as per-op ``access`` calls would (held to
    # by the DRAM oracles).  A corner-turn program issues hundreds of
    # streams of two shapes; the DRAM costs each class of shifted copies
    # once, in bounded chunks, instead of the whole program's addresses.
    memory_ops = [op for op in program.ops if op.kind != "kernel"]
    op_cost_index: Dict[str, DRAMCost] = {}
    if memory_ops:
        batch = machine.dram.access_templates(
            TemplateStream.from_patterns([op.pattern for op in memory_ops]),
            np.full(
                len(memory_ops),
                machine.config.controller_words_per_cycle,
                dtype=np.float64,
            ),
        )
        for i, op in enumerate(memory_ops):
            op_cost_index[op.name] = batch.segment(i)

    for op in program.ops:
        if op.kind == "kernel":
            resource = clusters
            duration = op.cycles
            costs.append(
                OpCost(name=op.name, kind=op.kind, deps=op.deps,
                       cycles=op.cycles)
            )
        else:
            resource = memory
            cost = op_cost_index[op.name]
            controller_cycles = (
                machine.gather_cycles(op.pattern)
                if op.gather
                else cost.stream_cycles
            )
            duration = machine.memory_time(controller_cycles)
            costs.append(
                OpCost(
                    name=op.name,
                    kind=op.kind,
                    deps=op.deps,
                    issue_cycles=cost.issue_cycles,
                    activations=cost.activations,
                    n_words=op.pattern.n_words,
                    gather=op.gather,
                )
            )
        scheduler.add(Task(op.name, resource, duration, deps=op.deps))

    intervals = {
        t.name: (t.start, t.end) for t in scheduler.tasks
    }
    schedule = StreamSchedule(
        makespan=scheduler.makespan,
        memory_busy=memory.busy_cycles,
        cluster_busy=clusters.busy_cycles,
        op_intervals=intervals,
    )
    return schedule, tuple(costs)


def execute(program: StreamProgram, machine: ImagineMachine) -> StreamSchedule:
    """Schedule ``program`` on ``machine``; returns the timeline summary
    (see :func:`execute_measured` for the resource model)."""
    schedule, _ = execute_measured(program, machine)
    return schedule


def reschedule(
    costs: Sequence[OpCost],
    machine: ImagineMachine,
    *,
    row_cycle: float,
    gather_derate: float,
    kernel_cycles: Dict[str, float],
) -> StreamSchedule:
    """Replay a measured program under different calibration constants.

    Rebuilds every task duration from the structural coefficients —
    ``issue + activations * row_cycle`` for record streams, the derated
    word rate for gathers, the caller-supplied per-op durations for
    kernels — and re-runs the identical dependency schedule.  With the
    measuring calibration's constants this reproduces
    :func:`execute_measured`'s timeline bit for bit; no DRAM state is
    touched and no trace spans are emitted, so a batch sweep can replay
    one structure pass across many calibration cells.
    """
    memory = TimelineResource("memory-system")
    clusters = TimelineResource("cluster-array")
    scheduler = DependencyScheduler()

    for op in costs:
        if op.kind == "kernel":
            resource = clusters
            duration = kernel_cycles[op.name]
        else:
            resource = memory
            if op.gather:
                controller_cycles = (
                    op.n_words
                    * gather_derate
                    / machine.config.controller_words_per_cycle
                )
            else:
                controller_cycles = (
                    op.issue_cycles + op.activations * row_cycle
                )
            duration = controller_cycles / machine.config.memory_controllers
        scheduler.add(Task(op.name, resource, duration, deps=op.deps))

    intervals = {
        t.name: (t.start, t.end) for t in scheduler.tasks
    }
    return StreamSchedule(
        makespan=scheduler.makespan,
        memory_busy=memory.busy_cycles,
        cluster_busy=clusters.busy_cycles,
        op_intervals=intervals,
    )
