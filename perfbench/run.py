"""The repository benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_hot_read --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload until ``--seconds`` have passed,
cycling through :data:`INPUT_SETS` input sets generated afresh from the
seed for every repetition, and reports the end-to-end metrics as
medians over the repetitions, scaled to a reference host speed (see
``workloads.probe_speed``).  ``--trace 1`` spends the first
half of the time on untraced repetitions and the second half on traced
ones, and reports the per-layer metrics (see ``tracer.py``).  Every
repetition's outputs are checked against a single-node hash join; the
last line of standard output is the result object, and any wrong
output makes the command exit with status 1.

The workloads, their inputs and the layer -> metric predictions are in
``design.json``; ``BENCHMARK.json`` at the repository root names the
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
sys.path[:0] = [str(SOURCE), str(HERE)]

try:
    from workloads import (
        SCRATCH,
        PhaseClock,
        load_design,
        probe_cluster_setup,
        probe_speed,
        remove_scratch,
        run_rep,
    )
except ModuleNotFoundError as exc:  # run outside a checkout of the program
    sys.exit(f"cannot import the program from {SOURCE}: {exc}")
from tracer import LAYER_MODULES, ROOT, LayerTracer  # noqa: E402

#: A long cluster workload takes extra start/close probes until it has
#: this many set-up samples (the set-up median needs several).
MIN_SETUP_SAMPLES = 9

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Input sets a run cycles through, all generated from its seed.  The
#: simulated batch latencies are fixed by the inputs, and the tail of
#: one input set moves by tens of percent from seed to seed; a median
#: over several sets is steady.
INPUT_SETS = 8


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it (the maximum when there are
    too few samples for that)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def outputs_digest(outputs: dict[int, Any]) -> str:
    h = hashlib.blake2b(digest_size=12)
    for tid in sorted(outputs):
        h.update(repr((tid, outputs[tid])).encode())
    return h.hexdigest()


class Session:
    """One benchmark invocation: a workload, a seed and a time budget."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        design = load_design()
        if name not in design["workloads"]:
            raise SystemExit(
                f"unknown workload {name!r}; expected one of "
                f"{sorted(design['workloads'])}"
            )
        self.name = name
        self.spec = design["workloads"][name]
        self.seed = seed
        self.seconds = seconds
        self.clock = PhaseClock()
        self.reps: list[Any] = []
        #: The first repetition of each input set, outputs kept.
        self.firsts: dict[int, Any] = {}
        self.problems: list[str] = []

    # ------------------------------------------------------------------
    def repeat(
        self, until: float, root: Any = nullcontext, on_rep: Any = None
    ) -> list[Any]:
        """Run repetitions until ``until`` (at least one); check each."""
        done = []
        before = probe_speed()
        while not done or time.perf_counter() < until:
            input_set = len(self.reps) % INPUT_SETS
            rep = run_rep(
                self.spec, self.seed * INPUT_SETS + input_set, self.clock, root
            )
            after = probe_speed()
            rep.slowdown = (before + after) / 2
            before = after
            first = self.firsts.setdefault(input_set, rep)
            if first is not rep:
                self._check_repeatable(rep, first)
                rep.outputs = {}  # only each set's first are kept
            if on_rep is not None:
                on_rep(rep)
            done.append(rep)
            self.reps.append(rep)
        return done

    @staticmethod
    def timed(reps: list[Any]) -> list[Any]:
        """The repetitions whose timings count.

        The first one warms the process (allocator arenas, first-touch
        page faults, lazily built caches) and is checked but not timed,
        unless it is the only one.
        """
        return reps[1:] if len(reps) > 1 else reps

    def _check_repeatable(self, rep: Any, first: Any) -> None:
        """Same inputs: sim outputs and makespan must repeat."""
        if rep.makespan is None:
            return
        if rep.outputs != first.outputs:
            self.problems.append("sim outputs differ between repetitions")
        if rep.makespan != first.makespan:
            self.problems.append(
                f"makespan differs between repetitions: "
                f"{first.makespan!r} != {rep.makespan!r}"
            )

    @property
    def attempted(self) -> int:
        return sum(rep.n_tuples for rep in self.reps)

    @property
    def failed(self) -> int:
        return sum(rep.errors for rep in self.reps)

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        began = time.perf_counter()
        self.clock.install()
        try:
            reps = self.timed(self.repeat(began + self.seconds))
            setups = [rep.setup_s / rep.slowdown for rep in reps]
            if self.spec["backend"] == "cluster":
                before = probe_speed()
                while len(setups) < MIN_SETUP_SAMPLES:
                    setup_s = probe_cluster_setup(self.spec, self.seed)
                    after = probe_speed()
                    setups.append(2 * setup_s / (before + after))
                    before = after
        finally:
            self.clock.uninstall()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Simulated batch latencies do not depend on the host's speed.
        wall = [r.slowdown if r.makespan is None else 1.0 for r in reps]
        return {
            "tuples_per_s": _median(
                [r.n_tuples * r.slowdown / r.process_s for r in reps]
            ),
            "setup_s": _median(setups),
            "batch_p50_ms": _median([
                1e3 * statistics.median(r.batch_s) / w
                for r, w in zip(reps, wall) if r.batch_s
            ]),
            "batch_tail_ms": _median(
                [1e3 * tail(r.batch_s)[0] / w for r, w in zip(reps, wall)]
            ),
            "peak_rss_mb": peak_kib / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        began = time.perf_counter()
        self.clock.install()
        tracer = LayerTracer()
        rows: list[dict[str, float]] = []
        try:
            untraced = self.timed(self.repeat(began + self.seconds / 2))
            tracer.install()

            self.repeat(
                began + self.seconds,
                root=tracer.root,
                on_rep=lambda rep: rows.append(self._layer_row(rep, tracer)),
            )
            tracer.write(SCRATCH / f"spans-{self.name}-seed{self.seed}.tsv")
        finally:
            tracer.uninstall()
            self.clock.uninstall()
        metrics = {
            name: _median([row[name] for row in rows]) for name in rows[0]
        }
        untraced_wall = _median([rep.wall_s / rep.slowdown for rep in untraced])
        metrics["trace.overhead"] = metrics.pop("trace.wall_s") / untraced_wall
        batch = [tail(rep.batch_s) for rep in untraced]
        metrics["batch_tail.percentile"] = _median([b[1] for b in batch])
        metrics["batch_tail.samples"] = _median([b[2] for b in batch])
        metrics["check.error_rate"] = self.failed / self.attempted
        metrics["host.slowdown"] = _median([rep.slowdown for rep in untraced])
        metrics["wall.tuples_per_s"] = _median(
            [rep.n_tuples / rep.process_s for rep in untraced]
        )
        return metrics

    def _layer_row(self, rep: Any, tracer: Any) -> dict[str, float]:
        summary = tracer.summary()
        row: dict[str, float] = {}
        for layer in LAYER_MODULES:
            row[f"{layer}.self_s"] = summary[layer]["self_s"]
            row[f"{layer}.calls"] = summary[layer]["calls"]
        row["cluster.codec.encode_s"] = summary["cluster.codec.encode"]["self_s"]
        row["cluster.codec.decode_s"] = summary["cluster.codec.decode"]["self_s"]
        row["cluster.rpc.wait_s"] = summary["cluster.rpc"]["total_s"]
        row["cluster.driver.start_s"] = rep.start_s
        row["cluster.driver.close_s"] = rep.close_s
        c = rep.counters
        n = rep.n_tuples
        sent = c.get("transport.requests_sent", 0.0)
        row["cache.hit_ratio"] = (
            c.get("cache.memory_hits", 0.0) + c.get("cache.disk_hits", 0.0)
        ) / n
        row["routing.local_share"] = c.get("jobs.udfs_at_compute_nodes", 0.0) / n
        row["store.datanode.items_per_call"] = (
            (c.get("routing.compute_requests", 0.0)
             + c.get("routing.data_requests", 0.0)) / sent
            if sent else 0.0
        )
        row["runtime.transport.retries"] = c.get("transport.retries", 0.0)
        row["runtime.transport.timeouts"] = c.get("transport.timeouts", 0.0)
        row["sim.events.events"] = sum(s.events_processed for s in tracer.simulators)
        row["sim.events.cancelled"] = sum(s.events_cancelled for s in tracer.simulators)
        row["sim_tuples_per_s"] = n / rep.makespan if rep.makespan else 0.0
        for name in ("retries", "timeouts", "reconnects"):
            row[f"cluster.rpc.{name}"] = c.get(f"cluster.rpc.{name}", 0.0)
        row["cluster.worker.udf_applied"] = c.get("cluster.udf.applied", 0.0)
        row["cluster.worker.values_served"] = c.get("cluster.values.served", 0.0)
        row["cluster.worker.peer_requests"] = c.get("cluster.peer.requests", 0.0)
        row["trace.unattributed_s"] = summary[ROOT]["self_s"]
        row["trace.wall_s"] = rep.wall_s / rep.slowdown
        row["trace.coverage"] = 1.0 - summary[ROOT]["self_s"] / rep.wall_s
        return row

    def describe(self) -> str:
        """One human-readable line about the run (to standard error)."""
        firsts = [self.firsts[i] for i in sorted(self.firsts)]
        parts = [
            f"workload={self.name}",
            f"seed={self.seed}",
            f"reps={len(self.reps)}",
            f"tuples={self.attempted}",
            f"failed={self.failed}",
            "outputs=" + ",".join(outputs_digest(f.outputs) for f in firsts),
            f"slowdown={_median([rep.slowdown for rep in self.reps]):.3f}",
        ]
        if firsts[0].makespan is not None:
            parts.append("makespan=" + ",".join(repr(f.makespan) for f in firsts))
        return " ".join(parts)


def declared_metrics(kind: str) -> dict[str, dict[str, Any]]:
    """Metric name -> declaration in ``BENCHMARK.json`` (``kind`` is
    ``end_to_end`` or ``per_layer``)."""
    path = HERE.parent / "BENCHMARK.json"
    return {entry["name"]: entry for entry in json.loads(path.read_text())[kind]}


def measure(session: Session, trace: bool) -> dict[str, Any]:
    """Run the session and build the result object."""
    kind = "per_layer" if trace else "end_to_end"
    values = session.per_layer() if trace else session.end_to_end()
    declared = declared_metrics(kind)
    missing = sorted(set(declared) - set(values))
    if missing:
        session.problems.append(f"metrics not measured: {missing}")
    failed = session.failed
    return {
        "correct": failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": entry["unit"]}
            for name, entry in declared.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    session = Session(args.workload, args.seed, args.seconds)
    result = measure(session, bool(args.trace))
    remove_scratch()
    print(session.describe(), file=sys.stderr)
    for problem in session.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
