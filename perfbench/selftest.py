"""Fast self-test of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every workload in ``BENCHMARK.json`` is defined in ``design.json``,
  and every prediction cites a declared metric, a traced layer and a
  defined workload;
* every workload, untraced and traced, emits each declared metric
  with its declared unit and passes the correctness gate;
* the gate trips when an output is corrupted or missing, for both the
  exact check and the admissible-version check;
* without the program's source next to it the benchmark exits non-zero
  and prints no result.

Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the program's source on sys.path)
import tracer  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def tiny(spec: dict[str, Any]) -> dict[str, Any]:
    """The workload shrunk to a few hundred tuples."""
    spec = copy.deepcopy(spec)
    inputs = spec["inputs"]
    scale = 400 / inputs["n_tuples"]
    inputs["n_tuples"] = 400
    inputs["n_keys"] = min(inputs["n_keys"], 100)
    if inputs["updates"]:
        inputs["updates"] = 50
        inputs["update_horizon_s"] *= scale
    if "chaos" in inputs:
        # One faulted message per worker: retries fire, nothing stalls.
        inputs["chaos"]["duration"] = 0.005
    return spec


def session(name: str) -> run.Session:
    s = run.Session(name, seed=3, seconds=0.0)
    s.spec = tiny(s.spec)
    return s


def check_declarations() -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = workloads.load_design()
    declared = {e["name"] for kind in ("end_to_end", "per_layer") for e in benchmark[kind]}
    check(
        {w["name"] for w in benchmark["workloads"]} <= set(design["workloads"]),
        "every workload in BENCHMARK.json is defined in design.json",
    )
    for prediction in design["predictions"]:
        check(
            set(prediction["moves"]) <= declared
            and set(prediction["layers"]) <= set(tracer.LAYERS)
            and set(prediction["on"] + prediction["holds_on"]) <= set(design["workloads"]),
            f"prediction for {prediction['layers']} cites declared names",
        )


def check_metrics(name: str) -> None:
    for trace in (False, True):
        kind = "per_layer" if trace else "end_to_end"
        declared = run.declared_metrics(kind)
        result = run.measure(session(name), trace)
        metrics = result["metrics"]
        check(
            result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
            f"{name} {kind}: outputs pass the gate",
        )
        check(
            set(metrics) == set(declared)
            and all(metrics[m]["unit"] == declared[m]["unit"] for m in declared)
            and all(isinstance(metrics[m]["value"], float | int) for m in declared),
            f"{name} {kind}: every declared metric is emitted with its unit",
        )
        if not trace:
            check(
                all(metrics[m]["value"] > 0 for m in declared),
                f"{name} {kind}: no end-to-end metric reads 0",
            )
        else:
            check(
                metrics["trace.coverage"]["value"] >= 0.9,
                f"{name} {kind}: named layers cover at least 90% of traced wall",
            )
            spans = workloads.SCRATCH / f"spans-{name}-seed3.tsv"
            check(
                spans.is_file() and len(spans.read_text().splitlines()) > 1,
                f"{name} {kind}: the traced repetition's spans are written out",
            )
            spans.unlink(missing_ok=True)
        if trace and "chaos" in workloads.load_design()["workloads"][name]["inputs"]:
            check(
                metrics["cluster.rpc.timeouts"]["value"] > 0,
                f"{name} {kind}: injected drops make RPCs time out",
            )


def corrupting(runner: Callable[..., Any]) -> Callable[..., Any]:
    """``runner`` with one output changed and another one dropped."""

    def corrupted(*args: Any, **kwargs: Any) -> Any:
        rep = runner(*args, **kwargs)
        rep.outputs[0] = "corrupted"
        del rep.outputs[1]
        return rep

    return corrupted


def check_gate(name: str, attr: str) -> None:
    original = getattr(workloads, attr)
    setattr(workloads, attr, corrupting(original))
    try:
        result = run.measure(session(name), False)
    finally:
        setattr(workloads, attr, original)
    check(
        not result["correct"] and result["failed"] == 2,
        f"{name}: the gate counts one wrong and one missing output",
    )


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark files: exit non-zero, print nothing."""
    workloads.SCRATCH.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=workloads.SCRATCH))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sim_hot_read",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(
            proc.returncode != 0 and not proc.stdout.strip(),
            "without the program source the benchmark fails and prints no result",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        workloads.remove_scratch()


def main() -> int:
    check_declarations()
    design = workloads.load_design()
    for name in design["workloads"]:
        check_metrics(name)
    check_gate("sim_hot_read", "_run_sim")
    check_gate("sim_shift_update", "_run_sim")
    check_gate("cluster_hot_read", "_run_cluster")
    check_bare_directory()
    workloads.remove_scratch()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
