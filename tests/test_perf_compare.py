"""Unit tests for the ``BENCH_perf.json`` regression gate."""

from __future__ import annotations

import json

from repro.perf.__main__ import main
from repro.perf.compare import compare_benchmarks


def scenario(name, median=0.100, mad=0.001, digest="d0", verified=True, **extra):
    entry = {
        "name": name,
        "verified_identical": verified,
        "digest": digest,
        "wall_median_s": median,
        "wall_mad_s": mad,
    }
    entry.update(extra)
    return entry


def payload(*scenarios):
    return {"bench": "perf", "schema": 1, "scenarios": list(scenarios)}


def kinds(regressions):
    return [(r.scenario, r.kind) for r in regressions]


class TestCompareBenchmarks:
    def test_identical_payloads_pass(self):
        base = payload(scenario("a"), scenario("b", digest="d1"))
        assert compare_benchmarks(base, base) == []

    def test_slowdown_within_gate_and_noise_passes(self):
        base = payload(scenario("a", median=0.100, mad=0.002))
        # Ceiling: 0.100 * 1.1 + 0.002 + 0.002 = 0.114.
        curr = payload(scenario("a", median=0.113, mad=0.002))
        assert compare_benchmarks(base, curr) == []

    def test_slower_past_the_ceiling(self):
        base = payload(scenario("a", median=0.100, mad=0.002))
        curr = payload(scenario("a", median=0.115, mad=0.002))
        [reg] = compare_benchmarks(base, curr)
        assert (reg.scenario, reg.kind) == ("a", "slower")
        assert reg.ratio == 0.115 / 0.100
        assert "slower" in reg.render()

    def test_threshold_is_honoured(self):
        base = payload(scenario("a", median=0.100, mad=0.0))
        curr = payload(scenario("a", median=0.120, mad=0.0))
        assert kinds(compare_benchmarks(base, curr, threshold=0.25)) == []
        assert kinds(compare_benchmarks(base, curr, threshold=0.10)) == [
            ("a", "slower")
        ]

    def test_unverified_current_fails_regardless_of_timing(self):
        base = payload(scenario("a"))
        curr = payload(
            scenario("a", median=0.050, verified=False, error="ref/opt diverged")
        )
        [reg] = compare_benchmarks(base, curr)
        assert reg.kind == "unverified"
        assert reg.detail == "ref/opt diverged"

    def test_digest_change_fails_even_when_faster(self):
        base = payload(scenario("a", digest="aaaa"))
        curr = payload(scenario("a", median=0.050, digest="bbbb"))
        [reg] = compare_benchmarks(base, curr)
        assert (reg.scenario, reg.kind) == ("a", "digest")
        assert "aaaa" in reg.detail and "bbbb" in reg.detail
        assert reg.render().startswith("a: digest")

    def test_digest_change_and_slowdown_both_reported(self):
        base = payload(scenario("a", median=0.100, mad=0.0, digest="aaaa"))
        curr = payload(scenario("a", median=0.200, mad=0.0, digest="bbbb"))
        assert kinds(compare_benchmarks(base, curr)) == [
            ("a", "digest"), ("a", "slower")
        ]

    def test_baseline_scenario_missing_from_partial_run_passes(self):
        base = payload(scenario("a"), scenario("b", digest="d1"))
        curr = payload(scenario("a"))
        assert compare_benchmarks(base, curr) == []

    def test_new_scenario_without_baseline_passes(self):
        base = payload(scenario("a"))
        curr = payload(scenario("a"), scenario("new", digest="zz", median=9.0))
        assert compare_benchmarks(base, curr) == []


class TestCompareCommand:
    def test_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        same = tmp_path / "same.json"
        changed = tmp_path / "changed.json"
        base.write_text(json.dumps(payload(scenario("a", digest="aaaa"))))
        same.write_text(json.dumps(payload(scenario("a", digest="aaaa"))))
        changed.write_text(json.dumps(payload(scenario("a", digest="bbbb"))))
        assert main(["compare", str(base), str(same)]) == 0
        assert main(["compare", str(base), str(changed)]) == 1
        assert "a: digest" in capsys.readouterr().err
        assert main(["compare", str(base), str(changed), "--warn-only"]) == 0
