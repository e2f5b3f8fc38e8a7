#!/usr/bin/env python3
"""reachbound benchmark: time to verdict, precision and soundness.

    python3 perfbench/run.py --workload planar-box --seed 0 --seconds 10 --trace 0

Runs one seeded workload (``workloads.WORKLOADS``) through reachbound's public
API in this process, with one client in a closed loop: the next problem is
sent once the previous verdict has returned.  A run cycles through the
workload's problem list in a fixed order for at least ``MIN_CALLS`` calls and
at least ``--seconds`` seconds.  Every verdict is checked by
``oracle.check_verdict`` and against the status of the same problem in
earlier passes.

Times are CPU time of this process, scaled by the yardstick kernel measured
between calls (see yardstick.py), because on a shared host the wall time and
even the CPU time of fixed work drift by tens of percent.  ``setup_s`` is the
median over ``SETUP_PROBES`` fresh processes (see probe.py).

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics, taken from spans that ``tracer.Tracer`` records around the program's
public functions; the spans are written to ``.perfbench_out/``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads: the single-threaded baseline
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from tracer import CALL, COUNTS, END, NAME, START, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_CALLS = 100  # p90 then has at least 10 samples beyond it
SETUP_PROBES = 5
LAYERS = 3  # per-layer width metrics for network layers 0..LAYERS-1

END_TO_END = {
    "setup_s": "s",
    "verify_ms_p50": "ms",
    "verify_ms_p90": "ms",
    "problems_per_s": "1/s",
    "decided_ratio": "fraction",
    "hull_excess": "fraction",
    "passed_ratio": "fraction",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "topology.jacobian_ms": "ms",
    "topology.jacobian_cells_per_s": "1/s",
    "topology.jacobian_share": "fraction",
    "topology.certify_self_ms": "ms",
    "topology.certify_box_ms": "ms",
    "topology.certified_ratio": "fraction",
    "topology.kept_ratio": "fraction",
    "topology.grid_ms": "ms",
    "topology.grid_cells": "cells",
    "verifier.cells_propagated": "cells",
    "verifier.retry_cells": "cells",
    "verifier.refine_levels": "levels",
    "verifier.falsify_ms": "ms",
    "verifier.self_ms": "ms",
    "domains.box_ms": "ms",
    "domains.box_cells": "cells",
    "domains.box_cells_per_s": "1/s",
    "domains.zono_ms": "ms",
    "domains.zono_cells": "cells",
    "domains.zono_cells_per_s": "1/s",
    "domains.propagate_self_ms": "ms",
    **{f"domains.{d}.L{k}.{m}": u
       for d in ("box", "zono") for k in range(LAYERS)
       for m, u in (("ms", "ms"), ("width_mean", "width"))},
    "network.forward_ms": "ms",
    "network.forward_points": "points",
    "network.read_model_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "fraction",
}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# closed-loop runner


class Runner:
    """Sends the workload's problems one at a time and checks each verdict."""

    def __init__(self, rb, wl, manifest, nets):
        self.rb = rb
        self.wl = wl
        self.problems = [probe.build_problem(rb, manifest, nets, p) for p in manifest["problems"]]
        self.first = {}  # problem index -> status of its first call
        self.hull_excess = {}  # problem index -> per-dimension excess, first call
        self.failures = []  # (problem id, reason)
        self.calls = 0
        self.failed = 0
        self.decided = 0
        self.meta = []  # per traced call: (mode, refinement level, yardstick scale)

    def run_pass(self, tracer=None, on_verdict=None) -> list:
        return self.run(range(len(self.problems)), tracer, on_verdict)

    def run(self, order, tracer=None, on_verdict=None) -> list:
        """One call per problem index in ``order``; returns each call's CPU
        time in yardstick ms (see yardstick.py)."""
        times = []
        kernel = yardstick.kernel_ms()
        for i in order:
            problem = self.problems[i]
            if tracer is not None:
                tracer.call = len(self.meta)
                started = process_time()
                with tracer.span("verifier.verify"):
                    verdict = self._verify(problem)
            else:
                started = process_time()
                verdict = self._verify(problem)
            cpu_ms = (process_time() - started) * 1e3
            after = yardstick.kernel_ms()
            factor = yardstick.scale(kernel, after)
            kernel = after
            times.append(cpu_ms * factor)
            self._check(i, verdict)
            if tracer is not None:
                stats = getattr(verdict, "stats", {})
                self.meta.append((problem.mode, stats.get("refinement_level", 0), factor))
            if on_verdict is not None and not isinstance(verdict, Exception):
                on_verdict(i, verdict, factor)
        return times

    def _verify(self, problem):
        try:
            return self.rb.verify(problem)
        except Exception as exc:  # a raising call is a counted failure, not a crash
            return exc

    def _check(self, i, verdict) -> None:
        pid = self.wl.problems[i].pid
        self.calls += 1
        if isinstance(verdict, Exception):
            self.failures.append((pid, f"raised {type(verdict).__name__}: {verdict}"))
            self.failed += 1
            return
        image_lo, image_hi = self.wl.oracle[self.wl.problems[i].net]
        reasons = oracle.check_verdict(self.rb, self.problems[i], verdict, image_lo, image_hi)
        first = self.first.setdefault(i, verdict.status)
        if verdict.status != first:
            reasons.append(f"status {verdict.status} differs from {first} in an earlier pass")
        self.failures.extend((pid, r) for r in reasons)
        self.failed += bool(reasons)
        self.decided += verdict.status in ("safe", "falsified")
        # an assumes_invertible hull need not enclose the image, so it is no precision figure
        enclosing = not verdict.stats.get("assumes_invertible", False)
        if enclosing and i not in self.hull_excess and verdict.output_hull is not None:
            hull = verdict.output_hull
            self.hull_excess[i] = (hull.hi - hull.lo) / (image_hi - image_lo) - 1.0


def setup_seconds(manifest_path: Path, probes: int) -> float:
    """Median set-up time over fresh processes (see probe.py)."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")), str(manifest_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# end-to-end run


def measure(runner, seconds, min_calls) -> dict:
    """Cycle through the problems in a fixed order until at least ``min_calls``
    calls and ``seconds`` have passed.  Where the call floor governs, every
    run times the same sequence of problems."""
    started = perf_counter()

    def order():
        sent = 0
        while sent < min_calls or perf_counter() - started < seconds:
            yield sent % len(runner.problems)
            sent += 1

    latencies = runner.run(order())
    excess = np.concatenate([np.zeros(0), *runner.hull_excess.values()])
    return {
        "verify_ms_p50": statistics.median(latencies),
        "verify_ms_p90": float(np.percentile(latencies, 90)),
        "problems_per_s": 1e3 * len(latencies) / sum(latencies),
        "decided_ratio": runner.decided / runner.calls,
        "hull_excess": float(excess.mean()) if excess.size else 0.0,
        "passed_ratio": 1.0 - runner.failed / runner.calls,
        "_passes": len(latencies) / len(runner.problems),
    }


# ---------------------------------------------------------------------------
# traced run


class WidthPass:
    """Per-layer (ms, mean width) of each verdict's cells, and a bit-for-bit
    cross-check of the last layer against the verdict's own ``cell_batch``."""

    def __init__(self, rb, domain):
        self.rb = rb
        self.domain = "box" if domain == "box" else "zono"
        self.rows = defaultdict(list)  # layer -> [(ms, width_mean)] over problems
        self.mismatches = []

    def __call__(self, verdict, problem, pid, factor) -> None:
        batch = verdict.cell_batch
        if batch is None:
            return
        if self.domain == "box":
            lo, hi = self._box(problem.net, batch.lo, batch.hi, factor)
        else:
            lo, hi = self._zono(problem.net, batch.lo, batch.hi, factor)
        if not (np.array_equal(lo, batch.out_lo) and np.array_equal(hi, batch.out_hi)):
            self.mismatches.append(pid)

    def _box(self, net, lo, hi, factor):
        for k, layer in enumerate(net.layers):
            single = self.rb.Network((layer,))
            started = process_time()
            lo, hi = self.rb.domains.box_propagate_arrays(single, lo, hi)
            ms = (process_time() - started) * 1e3 * factor
            self.rows[k].append((ms, float(np.mean(hi - lo))))
        return lo, hi

    def _zono(self, net, lo, hi, factor):
        rb = self.rb
        zs = [rb.zono_from_box(rb.Box.from_arrays(lo[i], hi[i])) for i in range(lo.shape[0])]
        for k, layer in enumerate(net.layers):
            started = process_time()
            zs = [rb.zono_activation(rb.zono_affine(z, layer.weights, layer.bias), layer.activation)
                  for z in zs]
            ms = (process_time() - started) * 1e3 * factor
            hulls = [z.hull_arrays() for z in zs]
            lo = np.array([h[0] for h in hulls])
            hi = np.array([h[1] for h in hulls])
            self.rows[k].append((ms, float(np.mean(hi - lo))))
        return lo, hi

    def metrics(self) -> dict:
        out = {}
        for d in ("box", "zono"):
            for k in range(LAYERS):
                rows = self.rows.get(k, []) if d == self.domain else []
                ms, width = np.mean(rows, axis=0) if rows else (0.0, 0.0)
                out[f"domains.{d}.L{k}.ms"] = float(ms)
                out[f"domains.{d}.L{k}.width_mean"] = float(width)
        return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def span_metrics(tracer: Tracer, meta: list) -> dict:
    """Per-layer metrics from traced spans, as means per traced verify call.

    Every span lies inside one verify call and is scaled by that call's
    yardstick factor, so these times share the unit of the end-to-end ones.
    """
    calls = len(meta)
    self_s = tracer.self_times()
    total = defaultdict(float)
    own = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    spans_of = defaultdict(int)
    jac_subset_s = 0.0
    verify_subset_s = 0.0
    propagated = defaultdict(list)  # call -> cells per propagate, in order
    for s, st in zip(tracer.spans, self_s):
        name = s[NAME]
        factor = meta[s[CALL]][2]
        dur = (s[END] - s[START]) * factor
        st *= factor
        total[name] += dur
        own[name] += st
        spans_of[name] += 1
        for key, val in (s[COUNTS] or {}).items():
            counts[name][key] += val
        if meta[s[CALL]][0] in ("subset", "auto"):
            if name == "topology.jacobian":
                jac_subset_s += st
            elif name == "verifier.verify":
                verify_subset_s += dur
        if name == "verifier.propagate_cells":
            propagated[s[CALL]].append(s[COUNTS]["cells"])

    def per_call_ms(seconds):
        return seconds * 1e3 / calls

    grid_s = sum(own[n] for n in ("topology.bounds_arrays", "topology.boundary_cell_batch",
                                  "topology.grid_cell_batch"))
    cert = counts["topology.certify_cells"]
    subset = counts["topology.extract_subset"]
    return {
        "topology.jacobian_ms": per_call_ms(own["topology.jacobian"]),
        "topology.jacobian_cells_per_s": _ratio(counts["topology.jacobian"]["cells"],
                                                own["topology.jacobian"]),
        "topology.jacobian_share": _ratio(jac_subset_s, verify_subset_s),
        "topology.certify_self_ms": per_call_ms(own["topology.certify_cells"]),
        "topology.certify_box_ms": per_call_ms(total["topology.certify_box"]),
        "topology.certified_ratio": _ratio(cert["certified"], cert["cells"]),
        "topology.kept_ratio": _ratio(subset["kept"], subset["total"]),
        "topology.grid_ms": per_call_ms(grid_s),
        "topology.grid_cells": counts["topology.bounds_arrays"]["cells"] / calls,
        "verifier.cells_propagated": counts["verifier.propagate_cells"]["cells"] / calls,
        "verifier.retry_cells": sum(sum(c[:-1]) for c in propagated.values()) / calls,
        "verifier.refine_levels": sum(m[1] for m in meta) / calls,
        "verifier.falsify_ms": per_call_ms(total["verifier.monte_carlo"]),
        "verifier.self_ms": per_call_ms(own["verifier.verify"]),
        "domains.box_ms": per_call_ms(total["domains.box_propagate"]),
        "domains.box_cells": counts["domains.box_propagate"]["cells"] / calls,
        "domains.box_cells_per_s": _ratio(counts["domains.box_propagate"]["cells"],
                                          total["domains.box_propagate"]),
        "domains.zono_ms": per_call_ms(total["domains.zono_propagate"]),
        "domains.zono_cells": spans_of["domains.zono_propagate"] / calls,
        "domains.zono_cells_per_s": _ratio(spans_of["domains.zono_propagate"],
                                           total["domains.zono_propagate"]),
        "domains.propagate_self_ms": per_call_ms(own["verifier.propagate_cells"]),
        "network.forward_ms": per_call_ms(total["network.forward_batch"]),
        "network.forward_points": counts["network.forward_batch"]["points"] / calls,
    }


def read_model_ms(rb, manifest) -> float:
    """Mean over the workload's models of the median time of five read_model calls."""
    per_model = []
    kernel = yardstick.kernel_ms()
    for m in manifest["models"].values():
        times = []
        for _ in range(5):
            started = process_time()
            rb.read_model(m["path"])
            times.append((process_time() - started) * 1e3)
        per_model.append(statistics.median(times))
    return float(np.mean(per_model)) * yardstick.scale(kernel, yardstick.kernel_ms())


def measure_traced(runner, seconds, spans_path) -> dict:
    widths = WidthPass(runner.rb, runner.problems[0].domain)

    def width_pass(i, verdict, factor):
        widths(verdict, runner.problems[i], runner.wl.problems[i].pid, factor)

    tracer = Tracer()
    untraced_ms = traced_ms = 0.0
    pairs = 0
    started = perf_counter()
    runner.run_pass(on_verdict=width_pass)  # first sizes touch fresh memory: not in the ratio
    while True:
        untraced_ms += sum(runner.run_pass())
        tracer.install()
        try:
            traced_ms += sum(runner.run_pass(tracer=tracer))
        finally:
            tracer.uninstall()
        pairs += 1
        if perf_counter() - started >= seconds:
            break
    tracer.write(spans_path)
    out = span_metrics(tracer, runner.meta)
    out.update(widths.metrics())
    out["trace.overhead_ratio"] = traced_ms / untraced_ms
    out["failed_ratio"] = runner.failed / runner.calls
    out["_passes"] = 1 + 2 * pairs
    out["_missing_hooks"] = tracer.missing
    out["_width_mismatches"] = widths.mismatches
    return out


# ---------------------------------------------------------------------------


def run(rb, wl, seconds, trace, min_calls=MIN_CALLS, probes=SETUP_PROBES) -> tuple:
    """Run one workload; returns (result object, report lines)."""
    work = OUT / f"{wl.name}-seed{wl.seed}"
    work.mkdir(parents=True, exist_ok=True)
    manifest = wl.manifest(work / "models")
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    report = [f"env {json.dumps(environment())}"]
    setup_s = setup_seconds(manifest_path, probes) if not trace else None
    nets = probe.read_models(rb, manifest)
    shapes = probe.warm_up(rb, manifest, nets)
    runner = Runner(rb, wl, manifest, nets)

    if trace:
        values = measure_traced(runner, seconds, work / "spans.csv")
        values["network.read_model_ms"] = read_model_ms(rb, manifest)
        units = PER_LAYER
        report.append(f"spans written to {(work / 'spans.csv').relative_to(ROOT)}")
        for target in values.pop("_missing_hooks"):
            report.append(f"trace hook missing: {target}")
        mismatches = values.pop("_width_mismatches")
        for pid in mismatches:
            report.append(f"width pass differs from the verdict's cell_batch: {pid}")
    else:
        values = measure(runner, seconds, min_calls)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        mismatches = []
        report.append(f"setup: median of {probes} fresh processes, {shapes} warm-up shapes")
    passes = values.pop("_passes")
    report.append(f"workload {wl.name} seed {wl.seed}: {runner.calls} calls ({passes:.3g} passes "
                  f"of {len(runner.problems)} problems), one closed-loop client")
    for pid, reason in runner.failures:
        report.append(f"FAILED {pid}: {reason}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    report += [f"{name:34s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {
        "correct": runner.failed == 0 and not mismatches,
        "attempted": runner.calls,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        rb = probe.import_reachbound()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    result, report = run(rb, wl, args.seconds, args.trace)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
