"""Regression gate between two ``BENCH_perf.json`` files.

A scenario regresses when its current median wall time exceeds the
baseline median by more than the gate threshold (default 10%) *beyond*
the combined noise bars: the tolerated ceiling is

    baseline_median * (1 + threshold) + baseline_MAD + current_MAD

so a noisy-but-unchanged scenario cannot trip the gate while a real
10% slowdown on a quiet scenario always does.  Scenarios that failed
differential verification in either file are reported as failures
regardless of timing — a fast wrong answer is still wrong.  So are
scenarios whose digest (join outputs, and for most scenarios makespan
and counters) differs from the baseline's: the gate pins behaviour as
well as speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["Regression", "compare_benchmarks", "load_bench"]

DEFAULT_THRESHOLD = 0.10


@dataclass(frozen=True)
class Regression:
    """One gate violation."""

    scenario: str
    kind: str  # "slower" | "unverified" | "digest"
    baseline_s: float | None
    current_s: float | None
    ratio: float | None
    detail: str

    def render(self) -> str:
        if self.kind == "slower":
            assert self.ratio is not None
            return (
                f"{self.scenario}: {self.ratio:.2f}x slower "
                f"({self.baseline_s * 1e3:.2f}ms -> "
                f"{self.current_s * 1e3:.2f}ms) — {self.detail}"
            )
        return f"{self.scenario}: {self.kind} — {self.detail}"


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load one ``BENCH_perf.json`` payload."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _by_name(payload: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {s["name"]: s for s in payload.get("scenarios", [])}


def compare_benchmarks(
    baseline: dict[str, Any],
    current: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[Regression]:
    """All gate violations of ``current`` against ``baseline``."""
    base = _by_name(baseline)
    curr = _by_name(current)
    regressions: list[Regression] = []
    # Iterate over the *current* run: partial runs (the CI smoke
    # subset) are legitimate, so a baseline scenario the current run
    # skipped is not a regression.  A current scenario with no
    # baseline entry is new and passes by default.
    for name, c in curr.items():
        b = base.get(name)
        if b is None:
            continue
        if not c.get("verified_identical", False):
            regressions.append(
                Regression(
                    scenario=name,
                    kind="unverified",
                    baseline_s=b.get("wall_median_s"),
                    current_s=c.get("wall_median_s"),
                    ratio=None,
                    detail=c.get("error", "differential verification failed"),
                )
            )
            continue
        if c.get("digest") != b.get("digest"):
            regressions.append(
                Regression(
                    scenario=name,
                    kind="digest",
                    baseline_s=b.get("wall_median_s"),
                    current_s=c.get("wall_median_s"),
                    ratio=None,
                    detail=(
                        f"behaviour changed: digest {b.get('digest')} "
                        f"-> {c.get('digest')}"
                    ),
                )
            )
        b_median = b.get("wall_median_s")
        c_median = c.get("wall_median_s")
        if b_median is None or c_median is None:
            continue
        ceiling = (
            b_median * (1.0 + threshold)
            + b.get("wall_mad_s", 0.0)
            + c.get("wall_mad_s", 0.0)
        )
        if c_median > ceiling:
            regressions.append(
                Regression(
                    scenario=name,
                    kind="slower",
                    baseline_s=b_median,
                    current_s=c_median,
                    ratio=c_median / b_median,
                    detail=(
                        f"exceeds {threshold:.0%} gate + noise bars "
                        f"(ceiling {ceiling * 1e3:.2f}ms)"
                    ),
                )
            )
    return regressions
