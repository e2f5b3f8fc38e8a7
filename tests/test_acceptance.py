"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion also enforces its own wall-clock budget.
"""

import functools
import json
import time

import numpy as np
import pytest

import reachbound as rb
from reachbound.cli import main
from reachbound.verifier import boundary_cell_batch, grid_cell_batch
from reachbound.topology import jacobian_interval_arrays, partition
from conftest import INVERTIBLE, MIXED, dropped_mask, make_net, mc_safe, sample_box


def criterion(cid, desc, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {cid} {desc}: FAIL", flush=True)
                raise
            elapsed = time.perf_counter() - started
            print(f"\n[acceptance] {cid} {desc}: PASS ({elapsed:.2f}s)", flush=True)
            assert elapsed < budget_s, f"{cid} exceeded budget {budget_s}s: {elapsed:.2f}s"

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# the seeded configuration table shared by several criteria

DIMS = [(2, 5, 2), (2, 7, 2), (3, 5, 3), (2, 4, 4, 2)]
ACTS = ["tanh", "sigmoid"]
MODES = ["boundary", "subset", "full", "auto"]
DOMS = ["box", "zono"]
INPUTS2 = [((-0.8, 0.6), (-0.5, 0.9)), ((0, 1), (0, 1)), ((-1, 1), (-1, 1))]
INPUT3 = ((-0.5, 0.5),) * 3


def config_table():
    configs = []
    i = 0
    for seed in range(13):
        for mode in MODES:
            dims = DIMS[i % 4]
            act = ACTS[i % 2]
            dom = DOMS[(i // 2) % 2]
            scale = [0.6, 0.9, 1.2][i % 3]
            n = dims[0]
            box = rb.Box.from_bounds(INPUT3 if n == 3 else INPUTS2[i % 3])
            grid = (4,) * n if n == 3 else (6, 6)
            configs.append((seed, dims, act, scale, dom, mode, box, grid))
            i += 1
    return configs


def run_config(seed, dims, act, scale, dom, mode, box, grid, inflate=1.4):
    net = rb.generate_network(seed, dims, act, scale)
    safe = mc_safe(net, box, inflate)
    problem = rb.VerificationProblem(
        net, box, safe, domain=dom, mode=mode, grid=grid, max_refinements=1, seed=seed
    )
    return net, problem, rb.verify(problem)


# ---------------------------------------------------------------------------


@criterion("C1", "partition arithmetic (10^4 full cells, 400 boundary cells)", 1.0)
def test_c1_partition_counts(tmp_path, capsys):
    model = tmp_path / "model.json"
    rb.write_model(make_net(), model)
    out = tmp_path / "compare.json"
    code = main(
        ["compare", "--model", str(model), "--input", "0,1;0,1", "--safe", "-9,9;-9,9",
         "--grid", "100", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    stats = {d["stats"]["mode"]: d["stats"] for d in json.loads(out.read_text())}
    assert stats["full"]["cells_propagated"] == 10_000
    assert stats["boundary"]["cells_propagated"] == 400


@criterion("C2", "master soundness (Safe verdicts vs 1e5-sample Monte-Carlo)", 60.0)
def test_c2_master_soundness():
    configs = config_table()
    assert len(configs) >= 50
    rng = np.random.default_rng(2024)
    n_safe = 0
    for seed, dims, act, scale, dom, mode, box, grid in configs:
        net, problem, verdict = run_config(seed, dims, act, scale, dom, mode, box, grid)
        if verdict.status == rb.SAFE:
            n_safe += 1
            mc = rb.monte_carlo(net, box, 100_000, seed=seed + 1, safe=problem.safe_box)
            assert mc.violations.shape[0] == 0, (seed, mode, dom)
        # every sampled image must sit inside its own cell's over-approximation
        batch = verdict.cell_batch
        u = rng.random((batch.count, 64, box.dim))
        pts = batch.lo[:, None, :] + u * (batch.hi - batch.lo)[:, None, :]
        images = rb.forward_batch(net, pts.reshape(-1, box.dim)).reshape(
            batch.count, 64, net.output_dim
        )
        assert np.all(images >= batch.out_lo[:, None, :]), (seed, mode, dom)
        assert np.all(images <= batch.out_hi[:, None, :]), (seed, mode, dom)
    assert n_safe >= 25, f"only {n_safe} Safe verdicts; suite too weak"


@criterion("C3", "certification validity (dense-sampling oracle per certified cell)", 60.0)
def test_c3_certification_validity():
    nets = []
    for seed in range(8):
        nets.append((rb.generate_network(seed, (2, 5, 2), "tanh", 0.7), ((-0.5, 0.5),) * 2))
    for seed in range(6):
        nets.append((rb.generate_network(seed, (3, 4, 3), "sigmoid", 0.5), ((-0.6, 0.6),) * 3))
    for seed in (0, 4, 11, 16, 17, 20):
        nets.append((rb.generate_network(seed, (2, 7, 2), "tanh", 2.0), ((-1, 1),) * 2))
    assert len(nets) >= 20
    checked_cells = 0
    for net, bounds in nets:
        box = rb.Box.from_bounds(bounds)
        grid = partition(box, (4,) * box.dim)
        idx, lo, hi = grid.bounds_arrays()
        det_lo, det_hi, certified = rb.topology.certify_cells(net, lo, hi)
        for row in np.flatnonzero(certified):
            cell = rb.Box.from_arrays(lo[row], hi[row])
            pts = sample_box(cell, 10_000, seed=row)
            dets = np.linalg.det(rb.jacobian_batch(net, pts))
            assert np.min(np.abs(dets)) > 0.0
            assert len(np.unique(np.sign(dets))) == 1
            assert np.all(dets >= det_lo[row]) and np.all(dets <= det_hi[row])
            checked_cells += 1
    assert checked_cells > 100


@criterion("C4", "subset accounting (kept + certified_interior == total, separation)", 5.0)
def test_c4_extraction_accounting():
    cases = [
        (make_net(**MIXED), ((-1, 1), (-1, 1)), (20, 20)),
        (make_net(**MIXED), ((-1, 1), (-1, 1)), (7, 9)),
        (make_net(), ((0, 1), (0, 1)), (12, 12)),
        (rb.generate_network(5, (3, 4, 3), "sigmoid", 0.5), ((-0.4, 0.4),) * 3, (5, 4, 3)),
    ]
    for net, bounds, counts in cases:
        ex = rb.extract_subset(net, rb.Box.from_bounds(bounds), counts)
        c = ex.counts
        assert c["kept"] + c["certified_interior"] == c["total"] == int(np.prod(counts))
        interior_idx = ex.grid.bounds_arrays()[0][dropped_mask(ex)]
        assert np.all(interior_idx > 0)
        assert np.all(interior_idx + 1 < np.array(counts))


@criterion("C5", "conservativeness and refinement monotonicity (1e-9 per endpoint)", 60.0)
def test_c5_conservativeness_and_refinement():
    for seed, dims, act, scale, dom, mode, box, grid in config_table()[:16]:
        net = rb.generate_network(seed, dims, act, scale)
        safe = rb.Box.from_arrays(box.lo * 0 - 1e9, box.hi * 0 + 1e9)
        hulls = {}
        for counts in (grid, tuple(2 * c for c in grid)):
            full = rb.verify(
                rb.VerificationProblem(net, box, safe, domain=dom, mode="full", grid=counts)
            )
            bound = rb.verify(
                rb.VerificationProblem(net, box, safe, domain=dom, mode="boundary", grid=counts)
            )
            assert np.all(bound.output_hull.lo >= full.output_hull.lo - 1e-9)
            assert np.all(bound.output_hull.hi <= full.output_hull.hi + 1e-9)
            hulls[counts] = (full.output_hull, bound.output_hull)
        coarse, fine = hulls[grid], hulls[tuple(2 * c for c in grid)]
        for c_hull, f_hull in zip(coarse, fine):
            assert np.all(f_hull.lo >= c_hull.lo - 1e-9)
            assert np.all(f_hull.hi <= c_hull.hi + 1e-9)


@criterion("C6", "domain dominance (zonotope hulls inside box hulls + 1e-9)", 30.0)
def test_c6_domain_dominance():
    for seed, dims, act, scale, _, mode, box, grid in config_table()[:12]:
        net = rb.generate_network(seed, dims, act, scale)
        batch_box = grid_cell_batch(box, grid)
        batch_zono = grid_cell_batch(box, grid)
        rb.verifier.propagate_cells(net, batch_box, "box")
        rb.verifier.propagate_cells(net, batch_zono, "zono")
        assert np.all(batch_zono.out_lo >= batch_box.out_lo - 1e-9)
        assert np.all(batch_zono.out_hi <= batch_box.out_hi + 1e-9)


@criterion("C7", "efficiency trend (boundary <= 4% of full cells, strictly faster)", 60.0)
def test_c7_efficiency_trend():
    net = make_net(**INVERTIBLE)
    box = rb.Box.from_bounds([(0, 1), (0, 1)])
    assert rb.certify_homeomorphism(net, box).certified

    # warm up both timed modes at the timed grid; the full hull sets the safe box
    full_hull = rb.verify(
        rb.VerificationProblem(net, box, mc_safe(net, box, 2.0), mode="full", grid=(100, 100))
    ).output_hull
    safe = rb.Box.from_arrays(full_hull.lo - 0.05, full_hull.hi + 0.05)
    rb.verify(rb.VerificationProblem(net, box, safe, mode="boundary", grid=(100, 100)))

    # three interleaved timings per mode, compared by the fastest, so one
    # stall in a single call cannot decide the comparison
    verdicts, times = {}, {"full": [], "boundary": []}
    for _ in range(3):
        for mode in times:
            t0 = time.perf_counter()
            verdicts[mode] = rb.verify(
                rb.VerificationProblem(net, box, safe, mode=mode, grid=(100, 100))
            )
            times[mode].append(time.perf_counter() - t0)
    full, bound = verdicts["full"], verdicts["boundary"]
    t_full, t_bound = min(times["full"]), min(times["boundary"])

    assert full.status == rb.SAFE and bound.status == rb.SAFE
    assert full.stats["cells_propagated"] == 10_000
    assert bound.stats["cells_propagated"] == 400
    assert bound.stats["cells_propagated"] <= 0.04 * full.stats["cells_propagated"]
    assert t_bound < t_full, f"boundary {t_bound:.4f}s not faster than full {t_full:.4f}s"


@criterion("C8", "Jacobian correctness (finite differences and interval containment)", 30.0)
def test_c8_jacobian_correctness():
    pairs = 0
    for seed in range(20):
        dims = DIMS[seed % 4]
        net = rb.generate_network(seed, dims, ACTS[seed % 2], 0.8)
        box = rb.Box.from_bounds([(-1, 1)] * dims[0])
        for x in sample_box(box, 5, seed=seed):
            jac = rb.jacobian_batch(net, x[None])[0]
            h = 1e-5
            fd = np.stack(
                [
                    (rb.forward_point(net, x + h * e) - rb.forward_point(net, x - h * e))
                    / (2 * h)
                    for e in np.eye(dims[0])
                ],
                axis=1,
            )
            rel = np.max(np.abs(jac - fd)) / max(np.max(np.abs(jac)), 1e-12)
            assert rel < 1e-6
            pairs += 1
    assert pairs == 100

    for seed in (0, 3, 7, 11):
        net = rb.generate_network(seed, (2, 5, 2), "tanh", 0.9)
        for bounds in (((0, 0.1), (0, 0.1)), ((-0.6, -0.35), (0.2, 0.55))):
            cell = rb.Box.from_bounds(bounds)
            jlo, jhi = jacobian_interval_arrays(net, cell.lo, cell.hi)
            pts = sample_box(cell, 1000, seed=seed + 50)
            jacs = rb.jacobian_batch(net, pts)
            assert np.all(jacs >= jlo[None] - 0.0)
            assert np.all(jacs <= jhi[None] + 0.0)


def test_subset_and_auto_verdicts_are_identical():
    # one path: the two modes differ only in the mode they echo and in timings
    for seed, dims, act, scale, dom, _, box, grid in config_table():
        sub, auto = (run_config(seed, dims, act, scale, dom, m, box, grid)[2]
                     for m in ("subset", "auto"))
        assert sub.status == auto.status, (seed, dims)
        assert sub.output_hull.lo.tobytes() == auto.output_hull.lo.tobytes()
        assert sub.output_hull.hi.tobytes() == auto.output_hull.hi.tobytes()
        for field in ("index", "lo", "hi", "out_lo", "out_hi"):
            assert (getattr(sub.cell_batch, field).tobytes()
                    == getattr(auto.cell_batch, field).tobytes()), (seed, dims, field)
        stats = [{k: v for k, v in s.items() if k != "mode" and not k.endswith("_ms")}
                 for s in (sub.stats, auto.stats)]
        assert stats[0] == stats[1], (seed, dims)
        assert (sub.stats["mode"], auto.stats["mode"]) == ("subset", "auto")
