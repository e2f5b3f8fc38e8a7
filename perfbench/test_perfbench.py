"""Fast self-test of the benchmark on a tiny problem set.

    python3 -m pytest perfbench -q
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
import probe
import run
import workloads
from tracer import HOOKS, Tracer

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
rb = probe.import_reachbound()


def tiny(seed=0):
    wl = workloads.planar(seed, "box", (4,), nets=workloads.planar_nets(seed)[:2])
    wl.name = "selftest"
    return wl


def tiny_problem(tmp_path, mode="full"):
    wl = tiny()
    manifest = wl.manifest(tmp_path)
    nets = probe.read_models(rb, manifest)
    spec = next(p for p in manifest["problems"] if p["mode"] == mode)
    return probe.build_problem(rb, manifest, nets, spec), wl.oracle[spec["net"]]


def test_benchmark_json_names_every_workload():
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, key):
    result, report = run.run(rb, tiny(), seconds=0, trace=trace, min_calls=8, probes=1)
    expected = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    for name, unit in expected.items():
        assert any(line.split()[::2] == [name, unit] for line in report), name


def test_oracle_accepts_a_sound_verdict_and_rejects_corrupted_ones(tmp_path):
    problem, (image_lo, image_hi) = tiny_problem(tmp_path)
    verdict = rb.verify(problem)
    assert verdict.status == "safe"
    assert oracle.check_verdict(rb, problem, verdict, image_lo, image_hi) == []

    hull = verdict.output_hull
    shrunk = replace(verdict, output_hull=rb.Box.from_arrays(hull.lo + 0.25 * hull.widths(), hull.hi))
    assert any("hull misses" in r for r in oracle.check_verdict(rb, problem, shrunk, image_lo, image_hi))

    mid = 0.5 * (image_lo + image_hi)
    tight = replace(problem, safe_box=rb.Box.from_arrays(mid - 1e-3, mid + 1e-3))
    assert any("safe verdict" in r for r in oracle.check_verdict(rb, tight, verdict, image_lo, image_hi))

    inside = replace(verdict, status="falsified", counterexample=problem.input_box.midpoint())
    assert any("counterexample" in r for r in oracle.check_verdict(rb, problem, inside, image_lo, image_hi))


def test_runner_counts_raises_and_status_flips():
    class Flaky:
        """reachbound, except that one problem raises and one flips status."""

        def __init__(self):
            self.calls = 0

        def __getattr__(self, name):
            return getattr(rb, name)

        def verify(self, problem):
            self.calls += 1
            if self.calls == 1:
                raise ValueError("injected")
            verdict = rb.verify(problem)
            if self.calls == 2 + len(runner.problems):
                verdict.status = "unknown"
            return verdict

    wl = tiny()
    manifest = wl.manifest(run.OUT / "selftest-runner")
    runner = run.Runner(Flaky(), wl, manifest, probe.read_models(rb, manifest))
    runner.run_pass()
    runner.run_pass()
    assert runner.calls == 2 * len(runner.problems)
    assert runner.failed == 2
    assert any("raised ValueError" in r for _, r in runner.failures)
    assert any("differs" in r for _, r in runner.failures)


def test_missing_hook_is_reported_and_hooks_are_restored():
    from reachbound import verifier

    original = verifier.propagate_cells
    tracer = Tracer()
    tracer.install(HOOKS + (("reachbound.verifier.no_such_function", "gone", None),
                            ("reachbound.no_such_module.f", "gone", None)))
    assert tracer.missing == ["reachbound.verifier.no_such_function", "reachbound.no_such_module.f"]
    assert verifier.propagate_cells is not original
    tracer.uninstall()
    assert verifier.propagate_cells is original


def test_self_times_subtract_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["child", 1.0, 4.0, 0, 0, None],
        ["grandchild", 2.0, 3.0, 1, 0, None],
        ["child", 5.0, 6.0, 0, 0, None],
    ]
    assert tracer.self_times().tolist() == [6.0, 2.0, 1.0, 1.0]
