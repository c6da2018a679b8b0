"""Seeded inputs, one timed repetition, and the reference-join gate.

Every repetition builds its inputs afresh from the seed: runs under
``UpdateFault`` rewrite the stored table in place, so reusing inputs
would change the next run.  The reference answer is a single-node hash
join over a snapshot of the table taken before the run starts.

Phase boundaries are timestamped from outside the program by
:class:`PhaseClock`, which wraps a handful of entry points
(``Simulator.run``, ``ClusterDriver.start/run/close`` and
``RpcClient.call``) without changing what they do.
"""

from __future__ import annotations

import functools
import gc
import heapq
import json
import random
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Hashable

from repro.api import BatchOptions, JobSpec, RunConfig, run_join
from repro.cluster import ClusterBackend, ClusterOptions
from repro.cluster.driver import ClusterDriver
from repro.cluster.rpc import RpcClient
from repro.faults.schedule import FaultSchedule, MessageChaos, UpdateFault
from repro.obs.registry import MetricsRegistry
from repro.runtime.backend import JoinWorkload
from repro.sim.events import Simulator
from repro.workloads.synthetic import SyntheticWorkload

DESIGN_PATH = Path(__file__).with_name("design.json")
#: Scratch space inside the checkout: cluster worker logs (removed after
#: each repetition) and the traced runs' span files.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench"

#: Synthetic profile label per input kind (``SyntheticWorkload.name``).
_KIND_LABELS = {
    "data_heavy": "DH",
    "compute_heavy": "CH",
    "data_compute_heavy": "DCH",
}

_MISSING = object()


def load_design() -> dict[str, Any]:
    """The workload definitions and predictions in ``design.json``."""
    return json.loads(DESIGN_PATH.read_text())


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """One repetition's generated inputs plus its reference answer."""

    workload: JoinWorkload
    faults: FaultSchedule | None
    #: Per tuple id: the expected result, or (``admissible``) the set
    #: of results some version of the row would give.
    expected: list[Any]
    admissible: bool


def make_inputs(spec: dict[str, Any], seed: int) -> Inputs:
    """Generate a workload's inputs from ``seed`` (same seed, same inputs)."""
    inputs = spec["inputs"]
    synthetic = SyntheticWorkload(
        name=_KIND_LABELS[inputs["kind"]],
        n_keys=inputs["n_keys"],
        n_tuples=inputs["n_tuples"],
        skew=inputs["skew"],
        value_size=float(inputs["value_bytes"]),
        compute_cost=inputs["udf_seconds"],
        seed=seed,
        shifts=inputs["shifts"],
    )
    workload = JoinWorkload.from_synthetic(synthetic)
    # Snapshot before anything runs: the run mutates the table.
    values = {row.key: row.value for row in workload.table.rows()}
    updates = _updates(workload.keys, inputs, seed)
    chaos = inputs.get("chaos")
    faults = None
    if updates or chaos:
        faults = FaultSchedule(
            seed=chaos["seed"] if chaos else seed,
            updates=updates,
            chaos=(
                MessageChaos(
                    at=chaos["at"], duration=chaos["duration"],
                    drop=chaos["drop"], duplicate=chaos["duplicate"],
                    delay=chaos["delay"],
                ),
            ) if chaos else (),
        )
    return Inputs(
        workload=workload,
        faults=faults,
        expected=reference_join(workload, values, updates),
        admissible=bool(updates),
    )


def _updates(
    keys: tuple[Hashable, ...], inputs: dict[str, Any], seed: int
) -> tuple[UpdateFault, ...]:
    """Row rewrites drawn from the probe stream, timed to follow it.

    Each rewrite picks a probe position, rewrites that probe's key and
    fires when the run has reached about that position, so the keys
    that are hot at the time are the ones rewritten most.
    """
    count = inputs["updates"]
    if not count:
        return ()
    rng = random.Random(f"updates:{seed}")
    horizon = inputs["update_horizon_s"]
    n = len(keys)
    drawn = []
    for i in range(count):
        position = rng.randrange(n)
        key = keys[position]
        drawn.append((position / n * horizon, key, f"rewrite-{i}-{key}"))
    drawn.sort(key=lambda item: item[0])
    return tuple(UpdateFault(at=at, key=k, value=v) for at, k, v in drawn)


def reference_join(
    workload: JoinWorkload,
    values: dict[Hashable, Any],
    updates: tuple[UpdateFault, ...] = (),
) -> list[Any]:
    """Single-node hash join: build on ``values``, probe with the keys.

    With updates, each tuple's entry is the set of results over every
    version its row takes during the run.
    """
    udf = workload.udf
    params = workload.params
    if not updates:
        return [
            udf.apply(key, params[t] if params else None, values[key])
            for t, key in enumerate(workload.keys)
        ]
    versions: dict[Hashable, list[Any]] = {k: [v] for k, v in values.items()}
    for update in updates:
        versions[update.key].append(update.value)
    return [
        {
            udf.apply(key, params[t] if params else None, v)
            for v in versions[key]
        }
        for t, key in enumerate(workload.keys)
    ]


def count_errors(
    outputs: dict[int, Any], expected: list[Any], admissible: bool
) -> int:
    """Tuples whose output is missing, extra, or not what the join gives."""
    n = len(expected)
    errors = sum(1 for tid in outputs if not (isinstance(tid, int) and 0 <= tid < n))
    get = outputs.get
    if admissible:
        for tid, allowed in enumerate(expected):
            if get(tid, _MISSING) not in allowed:
                errors += 1
    else:
        for tid, want in enumerate(expected):
            if get(tid, _MISSING) != want:
                errors += 1
    return errors


# ----------------------------------------------------------------------
# Phase timestamps
# ----------------------------------------------------------------------
class PhaseClock:
    """Records when the program enters and leaves its phases.

    ``marks[name] = (enter, exit)`` for ``sim_run``, ``start``, ``run``
    and ``close`` (first enter, last exit within one repetition), and
    ``batch_s`` collects the wall latency of every ``run_batch`` RPC
    the cluster driver makes.
    """

    def __init__(self) -> None:
        self.marks: dict[str, list[float]] = {}
        self.batch_s: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.marks = {}
        self.batch_s = []

    def install(self) -> None:
        if self._patches:
            return
        self._mark(Simulator, "run", "sim_run")
        self._mark(ClusterDriver, "start", "start")
        self._mark(ClusterDriver, "run", "run")
        self._mark(ClusterDriver, "close", "close")
        self._time_rpc()

    def _time_rpc(self) -> None:
        call = RpcClient.call
        clock = time.perf_counter

        @functools.wraps(call)
        def timed_call(client: Any, op: str, *args: Any, **kwargs: Any) -> Any:
            if op != "run_batch":
                return call(client, op, *args, **kwargs)
            began = clock()
            try:
                return call(client, op, *args, **kwargs)
            finally:
                self.batch_s.append(clock() - began)

        self._patch(RpcClient, "call", timed_call)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _mark(self, owner: type, attr: str, name: str) -> None:
        method = getattr(owner, attr)
        clock = time.perf_counter

        @functools.wraps(method)
        def marked(*args: Any, **kwargs: Any) -> Any:
            began = clock()
            try:
                return method(*args, **kwargs)
            finally:
                ended = clock()
                mark = self.marks.get(name)
                if mark is None:
                    self.marks[name] = [began, ended]
                else:
                    mark[1] = ended

        self._patch(owner, attr, marked)

    def _patch(self, owner: type, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def span(self, name: str) -> float:
        began, ended = self.marks[name]
        return ended - began


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """What one run call produced and how long its phases took."""

    n_tuples: int
    errors: int
    wall_s: float
    setup_s: float
    process_s: float
    batch_s: list[float]
    outputs: dict[int, Any] = field(repr=False)
    counters: dict[str, float] = field(repr=False)
    #: Simulated makespan (sim backend only).
    makespan: float | None = None
    start_s: float = 0.0
    close_s: float = 0.0
    #: The host's :func:`probe_speed` reading around this repetition.
    slowdown: float = 1.0


def run_rep(
    spec: dict[str, Any],
    seed: int,
    clock: PhaseClock,
    root: Callable[[], ContextManager[Any]] = nullcontext,
) -> Rep:
    """Generate fresh inputs, run them once, check the outputs.

    ``root`` is entered around the run call (the tracer's root span).
    """
    inputs = make_inputs(spec, seed)
    # Start every repetition from the same collector state, so one
    # repetition's garbage is not collected on the next one's clock.
    gc.collect()
    clock.reset()
    runner = _run_sim if spec["backend"] == "sim" else _run_cluster
    rep = runner(spec, seed, inputs, clock, root)
    rep.errors = count_errors(rep.outputs, inputs.expected, inputs.admissible)
    return rep


def _run_sim(
    spec: dict[str, Any],
    seed: int,
    inputs: Inputs,
    clock: PhaseClock,
    root: Callable[[], ContextManager[Any]],
) -> Rep:
    shape = spec["cluster"]
    job = JobSpec.from_workload(inputs.workload, strategy=spec["strategy"])
    config = RunConfig(
        engine=spec["engine"],
        backend="sim",
        n_compute=shape["n_compute"],
        n_data=shape["n_data"],
        seed=seed,
        batching=BatchOptions(batch_size=shape["batch_size"]),
        faults=inputs.faults,
    )
    with root():
        began = time.perf_counter()
        report = run_join(job, config)
        ended = time.perf_counter()
    entered, left = clock.marks["sim_run"]
    # Simulated latency of every compute-to-data batch request.
    latencies = list(report.metrics.transport.latencies)
    return Rep(
        n_tuples=len(job.keys),
        errors=0,
        wall_s=ended - began,
        setup_s=entered - began,
        process_s=left - entered,
        batch_s=latencies,
        outputs=report.outputs,
        counters=report.snapshot["counters"],
        makespan=report.makespan,
    )


def _run_cluster(
    spec: dict[str, Any],
    seed: int,
    inputs: Inputs,
    clock: PhaseClock,
    root: Callable[[], ContextManager[Any]],
) -> Rep:
    shape = spec["cluster"]
    registry = MetricsRegistry()
    log_dir = _log_dir()
    try:
        backend = ClusterBackend(
            engine=spec["engine"],
            n_compute=shape["n_compute"],
            n_data=shape["n_data"],
            batch_size=shape["batch_size"],
            seed=seed,
            fault_schedule=inputs.faults,
            registry=registry,
            options=ClusterOptions(
                placement=shape["placement"], log_dir=str(log_dir)
            ),
        )
        with root():
            began = time.perf_counter()
            run = backend.run_join(inputs.workload)
            ended = time.perf_counter()
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)
    started = clock.marks["start"][1]
    run_began, run_ended = clock.marks["run"]
    return Rep(
        n_tuples=len(inputs.workload.keys),
        errors=0,
        wall_s=ended - began,
        setup_s=started - began,
        process_s=run_ended - run_began,
        batch_s=clock.batch_s,
        outputs=run.outputs,
        counters=registry.snapshot()["counters"],
        start_s=clock.span("start"),
        close_s=clock.span("close"),
    )


def probe_cluster_setup(spec: dict[str, Any], seed: int) -> float:
    """Seconds from constructing a driver until its workers are ready.

    Starts a fleet that runs no join and closes it again: the extra
    set-up samples a long workload needs for a stable median.
    """
    inputs = make_inputs(spec, seed)
    shape = spec["cluster"]
    log_dir = _log_dir()
    try:
        began = time.perf_counter()
        driver = ClusterDriver(
            inputs.workload,
            engine=spec["engine"],
            n_compute=shape["n_compute"],
            n_data=shape["n_data"],
            placement=shape["placement"],
            batch_size=shape["batch_size"],
            seed=seed,
            fault_schedule=inputs.faults,
            log_dir=str(log_dir),
        )
        with driver:
            ready = time.perf_counter()
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)
    return ready - began


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds one :func:`probe_speed` loop takes at the reference speed,
#: the reading on an otherwise idle 2-vCPU VM.  Timings are reported
#: as if the host had run at this speed throughout.
REFERENCE_PROBE_S = 0.009

_PROBE_KEYS = 50_000
_probe_table: dict[int, list[Any]] = {}


class _ProbeItem:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight


def probe_speed() -> float:
    """How slow the host runs right now: 1.0 at the reference speed.

    Times a fixed loop of the interpreter work the program is made of
    (object allocation, heap pushes and pops, lookups in a table larger
    than the CPU caches, float arithmetic) and divides by
    :data:`REFERENCE_PROBE_S`.  The loop is the benchmark's own code,
    so a change to the program never moves it; on a shared virtual
    machine whose CPU speed drifts by tens of percent within a minute
    it follows that drift.
    """
    table = _probe_table
    if not table:
        rng = random.Random(0)
        table.update((k, [k, rng.random()]) for k in range(_PROBE_KEYS))
    heap: list[tuple[int, int, _ProbeItem]] = []
    counts: dict[int, int] = {}
    total = 0.0
    began = time.perf_counter()
    for i in range(6000):
        key = i * 7919 % _PROBE_KEYS
        row = table[key]
        item = _ProbeItem(key % 1009, row[1] * 0.5)
        heapq.heappush(heap, (item.key, i, item))
        counts[item.key] = counts.get(item.key, 0) + 1
        if len(heap) > 256:
            total += heapq.heappop(heap)[2].weight
    return (time.perf_counter() - began) / REFERENCE_PROBE_S


def _log_dir() -> Path:
    """A fresh worker-log directory inside the checkout."""
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="cluster-logs-", dir=SCRATCH))


def remove_scratch() -> None:
    """Remove the scratch directory if nothing is left in it."""
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
