import argparse
import ast
import dataclasses
import inspect
import json
import os
import re
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import reachbound as rb
from reachbound import cli, verifier
from reachbound.cli import main, parse_box, parse_grid
from reachbound.domains import box_propagate_arrays, zono_propagate
from reachbound.reports import (
    read_reach_cells,
    render_svg,
    write_certification,
    write_mc_points,
    write_reach_cells,
)
from reachbound.topology import CELL_BUDGET, CellBatch, grid_cell_batch, grid_counts
from reachbound.verifier import MonteCarloResult, propagate_cells
from conftest import (
    MIXED,
    dropped_mask,
    identity_net,
    interior_mask,
    kept_whole_mask,
    make_net,
    traced_extraction,
)


@pytest.fixture
def identity_model(tmp_path):
    path = tmp_path / "identity.json"
    rb.write_model(identity_net(), path)
    return str(path)


@pytest.fixture
def seeded_model(tmp_path):
    path = tmp_path / "seeded.json"
    rb.write_model(make_net(), path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_box_and_grid():
    box = parse_box("0,1;-2,3")
    assert box.lo.tolist() == [0.0, -2.0] and box.hi.tolist() == [1.0, 3.0]
    assert parse_grid(None) is None and parse_grid("100") == (100,)
    assert grid_counts(parse_grid("100"), parse_box("0,1")) == (100,)
    assert grid_counts(parse_grid("10,20"), box) == (10, 20)
    assert grid_counts(parse_grid("4"), parse_box("0,1;2,2;0,1")) == (4, 1, 4)
    assert grid_counts(parse_grid("4"), parse_box("2,2")) == (1,)
    # the cell grid refuses this one
    assert grid_counts(parse_grid("4,2"), parse_box("0,1;2,2")) == (4, 2)
    assert grid_counts(parse_grid("4,3"), parse_box("0,1;2,2"), level=2) == (16, 3)
    with pytest.raises(ValueError):
        parse_box("0;1")
    for text in ("2.5", "2,x", ""):
        with pytest.raises(ValueError):
            parse_grid(text)
    with pytest.raises(ValueError):
        grid_counts(parse_grid("0,5"), box)


def test_verify_safe_exit_zero(identity_model, capsys):
    code, out, _ = run(
        capsys, "verify", "--model", identity_model, "--input", "0,1;0,1",
        "--safe", "-1,2;-1,2", "--mode", "boundary", "--grid", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "safe"
    assert doc["stats"]["cells_propagated"] == 20


def test_verify_unknown_exit_one(identity_model, capsys):
    code, out, _ = run(
        capsys, "verify", "--model", identity_model, "--input", "0,1;0,1",
        "--safe", "0.4,0.6;0.4,0.6", "--mode", "boundary", "--grid", "5",
    )
    assert code == 1
    assert json.loads(out)["status"] == "unknown"


def test_verify_falsified_exit_two(identity_model, capsys):
    code, out, _ = run(
        capsys, "verify", "--model", identity_model, "--input", "0,1;0,1",
        "--safe", "0.4,0.6;0.4,0.6", "--mode", "full", "--grid", "4",
        "--falsify-samples", "128",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "falsified"
    assert len(doc["counterexample"]) == 2


@pytest.mark.parametrize("mode, last_level", [("auto", 2), ("subset", 2), ("full", 2),
                                              ("boundary", 4)])
def test_a_refinement_level_past_the_budget_keeps_the_last_verdict(
        tmp_path, capsys, monkeypatch, mode, last_level):
    # 256 cells: a 16x16 grid (level 2 from 4x4) or the faces of 64x64
    # (level 4); refining stops there and the verdict stays Unknown
    monkeypatch.setattr(rb.topology, "CELL_BUDGET", 256)
    model = tmp_path / "mixed.json"
    rb.write_model(make_net(**MIXED), model)
    code, out, err = run(
        capsys, "verify", "--model", str(model), "--input", "-1,1;-1,1",
        "--safe", "0,0.001;0,0.001", "--mode", mode, "--grid", "4", "--max-refine", "40",
    )
    doc = json.loads(out)
    assert code == 1 and err == "" and doc["status"] == "unknown"
    assert doc["stats"]["refinement_level"] == last_level
    stats = doc["stats"]
    assert stats.get("cells_total", stats["cells_propagated"]) == 256  # the subset's grid
    assert doc["output_hull"] is not None


@pytest.mark.parametrize("mode", ["auto", "subset", "full", "boundary"])
def test_falsification_stops_refining(tmp_path, capsys, mode):
    # the level-0 sample holds a violation, so no level past 0 is built
    model = tmp_path / "mixed.json"
    rb.write_model(make_net(**MIXED), model)
    argv = ["verify", "--model", str(model), "--input", "-1,1;-1,1",
            "--safe", "0,0.001;0,0.001", "--mode", mode, "--grid", "4", "--falsify-samples", "10"]
    docs, cells = [], []
    for max_refine in ("40", "0"):
        cells_out = tmp_path / f"cells{max_refine}.csv"
        code, out, err = run(capsys, *argv, "--max-refine", max_refine,
                             "--cells-out", str(cells_out))
        assert code == 2 and err == ""
        docs.append(json.loads(out))
        cells.append(cells_out.read_bytes())
    doc, level_zero = docs
    assert doc["status"] == "falsified" and doc["stats"]["refinement_level"] == 0
    stats = doc["stats"]
    assert stats.get("cells_total", stats["cells_propagated"]) == 16  # 4x4, or its 16 faces
    assert stats["falsify_ms"] > 0
    # JSON floats round-trip, so equal documents are equal bits
    assert doc["output_hull"] == level_zero["output_hull"]
    assert doc["counterexample"] == level_zero["counterexample"]
    assert cells[0] == cells[1]
    problem = cli._problem_from_args(cli.build_parser().parse_args(argv + ["--max-refine", "40"]))
    batches = [verifier.verify(dataclasses.replace(problem, max_refinements=k)).cell_batch
               for k in (40, 0)]
    for name in ("lo", "hi", "out_lo", "out_hi"):
        assert getattr(batches[0], name).tobytes() == getattr(batches[1], name).tobytes()


def test_verify_malformed_model_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json", encoding="utf-8")
    code, _, err = run(
        capsys, "verify", "--model", str(bad), "--input", "0,1;0,1", "--safe", "0,1;0,1",
    )
    assert code == 3
    assert err.strip()


def _layer(weights=([1, 0], [0, 1]), bias=[0, 0]):
    return {"weights": list(weights), "bias": bias, "activation": "linear"}


@pytest.mark.parametrize(
    "document, message",
    [
        ([1, 2], "JSON object"),
        ({"layers": [5]}, "layer 0 must be an object"),
        ({"layers": [{"weights": [[1, 0], [0, 1]]}]}, "layer 0 missing fields"),
        ({"layers": [_layer(), _layer(weights=(["1", 0], [0, 1]))]}, "layer 1"),
        ({"layers": [_layer(weights=([True, 0], [0, 1]))]}, "layer 0"),
        ({"layers": [_layer(bias=[0, "0"])]}, "layer 0"),
        ({"layers": [_layer(bias=0)]}, "layer 0"),
        ({"layers": [_layer(weights=([10**400, 0], [0, 1]))]}, "layer 0"),
        ({"layers": [dict(_layer(), activation=["tanh"])]}, "unknown activation"),
    ],
    ids=["array", "layer-number", "missing-fields", "string-weight", "bool-weight",
         "string-bias", "scalar-bias", "int-past-float-range", "list-activation"],
)
def test_malformed_model_document_exit_three(tmp_path, capsys, document, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(
        capsys, "verify", "--model", str(bad), "--input", "0,1;0,1", "--safe", "0,1;0,1",
    )
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text", ["[" * 100_000 + "]" * 100_000, '{"layers": ' + "[" * 5000 + "]" * 5000 + "}"],
    ids=["arrays", "layers"],
)
def test_deeply_nested_model_document_exit_three(tmp_path, capsys, text):
    bad = tmp_path / "deep.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "verify", "--model", str(bad), "--input", "0,1;0,1", "--safe", "0,1;0,1",
    )
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "nested too deeply" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--safe", "-1,1;-1,1"),
        ("verify", "--safe", "-1,1;-1,1", "--mode", "full"),
        ("verify", "--safe", "-1,1;-1,1", "--mode", "boundary"),
        ("compare", "--safe", "-1,1;-1,1"),
        ("certify", "--grid", "4"),
        ("mc", "--samples", "3"),
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[3:]),
)
def test_overflowing_input_width_exit_three(tmp_path, capsys, argv):
    rb.write_model(make_net(**MIXED), tmp_path / "mixed.json")
    code, out, err = run(
        capsys, argv[0], "--model", str(tmp_path / "mixed.json"), "--input", "-1e308,1e308;-1,1",
        *argv[1:],
    )
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "dimension 0" in err


@pytest.mark.parametrize("safe", ["0,1", "0,1;0,1;0,1"])
def test_mc_safe_box_of_the_wrong_dimension_exit_three(tmp_path, capsys, safe):
    rb.write_model(make_net(**MIXED), tmp_path / "mixed.json")
    code, out, err = run(
        capsys, "mc", "--model", str(tmp_path / "mixed.json"), "--input", "-1,1;-1,1",
        "--safe", safe, "--samples", "1000",
    )
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "safe box dimension" in err


@pytest.mark.parametrize("bound", ["-inf", "-Infinity", "-nan", "-NaN"])
@pytest.mark.parametrize("option", ["--input", "--safe"])
def test_a_non_finite_bound_is_a_value_and_exits_three(identity_model, capsys, option, bound):
    boxes = {"--input": "0,1;0,1", "--safe": "-9,9;-9,9", option: f"{bound},1;0,1"}
    code, out, err = run(capsys, "verify", "--model", identity_model,
                         "--input", boxes["--input"], "--safe", boxes["--safe"])
    assert code == 3 and out == ""
    assert err.startswith("error: box endpoints must be finite") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--safe", "-1,2;-1,2", "--mode", "boundary", "--grid", "5"],
        ["mc", "--samples", "100"],
    ],
    ids=["verify-safe", "mc"],
)
def test_negative_seed_exit_three(identity_model, capsys, argv):
    code, out, err = run(
        capsys, argv[0], "--model", identity_model, "--input", "0,1;0,1", "--seed", "-1", *argv[1:],
    )
    assert code == 3 and out == ""
    assert err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv", [("verify", "--falsify-samples"), ("mc", "--samples")],
                         ids=" ".join)
def test_a_sample_count_past_the_budget_exit_three(identity_model, capsys, monkeypatch, argv):
    monkeypatch.setattr(rb.topology, "CELL_BUDGET", 100)
    command, option = argv
    safe = ("--safe", "-1,2;-1,2") if command == "verify" else ()
    for count, code in (("100", 0), ("101", 3)):
        got, out, err = run(capsys, command, "--model", identity_model, "--input", "0,1;0,1",
                            *safe, option, count)
        assert got == code
    assert out == "" and err == "error: sample count 101 is more than the budget of 100; " \
        "refusing to allocate it\n"


def test_verify_missing_model_file_exit_three(capsys):
    code, _, err = run(
        capsys, "verify", "--model", "/nonexistent/m.json", "--input", "0,1;0,1",
        "--safe", "0,1;0,1",
    )
    assert code == 3 and err.strip()


@pytest.mark.parametrize("option, value", [("--max-refine", "-1"), ("--falsify-samples", "-5")])
def test_verify_negative_count_exit_three(identity_model, capsys, option, value):
    code, out, err = run(
        capsys, "verify", "--model", identity_model, "--input", "0,1;0,1",
        "--safe", "-1,2;-1,2", option, value,
    )
    assert code == 3 and out == ""
    assert "nonnegative" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("mc", "--samples", "0"),
        ("mc", "--samples", "-5"),
        ("verify", "--grid", "0"),
        ("verify", "--grid", "2,x"),
        ("verify", "--grid", ""),
        ("certify", "--grid", "0"),
        ("certify", "--grid", "3,4,5"),
    ],
    ids=" ".join,
)
def test_bad_count_exit_three(identity_model, capsys, argv):
    command, *options = argv
    safe = ("--safe", "-1,2;-1,2") if command == "verify" else ()
    code, out, err = run(
        capsys, command, "--model", identity_model, "--input", "0,1;0,1", *safe, *options
    )
    assert code == 3 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_grid_out_of_memory_exit_three(identity_model):
    # the address-space cap makes the 65.5 TiB cell-index request fail on any
    # overcommit policy; the two 24 MB edge arrays fit under it
    cap = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "reachbound", "verify", "--model", identity_model,
         "--input", "0,1;0,1", "--safe", "-1,2;-1,2", "--mode", "full", "--grid", "3000000"],
        env=dict(os.environ, PYTHONPATH=str(Path(rb.__file__).parents[1])),
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert "allocate" in proc.stderr and "Traceback" not in proc.stderr


def test_certify_refuses_a_grid_above_the_budget(identity_model):
    # same cap as above: a grid built past the budget would fail with a
    # MemoryError, whose message also says "allocate"; the budget check names itself
    cap = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "reachbound", "certify", "--model", identity_model,
         "--input", "0,1;0,1", "--grid", "3000000"],
        env=dict(os.environ, PYTHONPATH=str(Path(rb.__file__).parents[1])),
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert f"budget of {CELL_BUDGET}" in proc.stderr and "Traceback" not in proc.stderr


def overflow_net():
    # two linear layers of ±1e300 weights: the second layer's sums overflow to ±inf
    w = np.array([[1e300, -1e300], [1e300, 1e300]])
    return rb.Network((rb.Layer(w, np.zeros(2), "linear"),) * 2)


@pytest.fixture
def overflow_model(tmp_path):
    path = tmp_path / "overflow.json"
    rb.write_model(overflow_net(), path)
    return str(path)


def test_overflow_gives_non_finite_ends_in_either_domain():
    # One rule for both domains: no pass checks values mid-way, so an
    # overflow reaches every output hull as a non-finite end, and Box refuses
    # it where verify builds the hull (test_overflowing_model_exit_three).
    net = overflow_net()
    box = rb.Box.from_bounds([(0, 1), (0, 1)])
    cells = grid_cell_batch(box, (2, 2))
    with np.errstate(all="ignore"):
        hulls = [box_propagate_arrays(net, cells.lo, cells.hi),
                 zono_propagate(net, cells.lo, cells.hi)]
        for domain in ("box", "zono"):
            batch = propagate_cells(net, grid_cell_batch(box, (2, 2)), domain)
            hulls.append((batch.out_lo, batch.out_hi))
    for out_lo, out_hi in hulls:
        assert out_lo.shape == (4, 2)
        assert not (np.isfinite(out_lo) & np.isfinite(out_hi)).any()


@pytest.mark.parametrize("domain", ["box", "zono"])
def test_a_non_finite_hull_ends_verify_at_its_level(monkeypatch, domain):
    # the level's hull is a Box, which refuses the non-finite end before any refinement
    propagated = []

    def recording(net, batch, domain):
        propagated.append(batch.count)
        return propagate_cells(net, batch, domain)

    monkeypatch.setattr(verifier, "propagate_cells", recording)
    problem = rb.VerificationProblem(overflow_net(), rb.Box.from_bounds([(0, 1)] * 2),
                                     rb.Box.from_bounds([(-1, 1)] * 2), domain=domain,
                                     mode="full", grid=(2,), max_refinements=3)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="must be finite"):
        rb.verify(problem)
    assert propagated == [4]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["full", "auto"])
@pytest.mark.parametrize("domain", ["box", "zono"])
def test_overflowing_model_exit_three(overflow_model, capsys, mode, domain):
    code, out, err = run(
        capsys, "verify", "--model", overflow_model, "--input", "0,1;0,1",
        "--safe", "-1,1;-1,1", "--mode", mode, "--domain", domain, "--grid", "2",
    )
    assert code == 3 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_usage_error_exit_four(capsys):
    code, _, err = run(capsys, "verify", "--input", "0,1;0,1", "--safe", "0,1;0,1")
    assert code == 4 and "usage" in err.lower()


def test_verdict_json_roundtrip(identity_model, tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code, out, _ = run(
        capsys, "verify", "--model", identity_model, "--input", "0,1;0,1",
        "--safe", "-1,2;-1,2", "--mode", "full", "--grid", "3", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc == json.loads(out)
    assert set(doc["stats"]) >= {"cells_propagated", "refinement_level", "wall_ms"}
    # the full path records no subset counts, so the document holds none
    assert not {"cells_total", "cells_certified", "cells_kept"} & set(doc["stats"])
    assert doc["output_hull"] == [[0.0, 1.0], [0.0, 1.0]] or all(
        abs(a - b) < 1e-9
        for pair, ref in zip(doc["output_hull"], [[0, 1], [0, 1]])
        for a, b in zip(pair, ref)
    )
    assert doc["counterexample"] is None


def test_compare_reports_cell_counts(seeded_model, capsys, tmp_path):
    out_path = tmp_path / "compare.json"
    code, out, _ = run(
        capsys, "compare", "--model", seeded_model, "--input", "0,1;0,1",
        "--safe", "-9,9;-9,9", "--grid", "100", "--out", str(out_path),
    )
    assert code == 0
    stats = {d["stats"]["mode"]: d["stats"] for d in json.loads(out_path.read_text())}
    assert stats["full"]["cells_propagated"] == 10_000
    assert stats["boundary"]["cells_propagated"] == 400
    # the seeded net certifies on the unit square, so the subset document is its faces
    subset = stats["subset"]
    assert subset["cells_propagated"] == 400 and subset["path"] == "boundary"
    assert subset["input_certified"] is True and subset["assumes_invertible"] is False
    assert "mode" in out and "cells" in out

    mixed = tmp_path / "mixed.json"
    rb.write_model(make_net(**MIXED), mixed)  # does not certify on [-1, 1]^2
    code, _, _ = run(
        capsys, "compare", "--model", str(mixed), "--input", "-1,1;-1,1",
        "--safe", "-9,9;-9,9", "--grid", "100", "--out", str(out_path),
    )
    assert code == 0
    subset = {d["stats"]["mode"]: d["stats"] for d in json.loads(out_path.read_text())}["subset"]
    assert subset["path"] == "subset" and subset["input_certified"] is False
    assert subset["cells_kept"] + subset["cells_certified"] == 10_000


def test_compare_small_grid_counts(seeded_model, capsys):
    code, out, _ = run(
        capsys, "compare", "--model", seeded_model, "--input", "0,1;0,1",
        "--safe", "-9,9;-9,9", "--grid", "20",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("mode")]
    cells = {l.split()[0]: int(l.split()[1]) for l in lines}
    assert cells["full"] == 400 and cells["boundary"] == 80


def test_compare_reads_model_once(seeded_model, capsys, monkeypatch):
    reads = []

    def counting_read(path):
        reads.append(path)
        return rb.read_model(path)

    monkeypatch.setattr("reachbound.cli.read_model", counting_read)
    code, out, _ = run(
        capsys, "compare", "--model", seeded_model, "--input", "0,1;0,1",
        "--safe", "-9,9;-9,9", "--grid", "4",
    )
    assert code == 0 and len(out.splitlines()) == 4
    assert reads == [seeded_model]


def test_compare_rows_carry_the_boundary_assumption(tmp_path, capsys):
    # MIXED does not certify on [-1, 1]^2, so its boundary hull is not an image bound
    net = make_net(**MIXED)
    box = rb.Box.from_bounds([(-1, 1), (-1, 1)])
    assert not rb.certify_homeomorphism(net, box)[2]
    roomy = rb.Box.from_bounds([(-99, 99), (-99, 99)])
    hull = rb.verify(rb.VerificationProblem(net, box, roomy, mode="boundary", grid=(40,))).output_hull
    safe = rb.Box.from_arrays(hull.lo - 1e-3, hull.hi + 1e-3)
    assert rb.monte_carlo(net, box, 20_000, seed=0, safe=safe).violations.shape[0] > 0
    model, out_path = tmp_path / "mixed.json", tmp_path / "compare.json"
    rb.write_model(net, model)
    code, out, _ = run(
        capsys, "compare", "--model", str(model), "--input", "-1,1;-1,1",
        "--safe", ";".join(f"{a!r},{b!r}" for a, b in safe.bounds()),
        "--grid", "40", "--out", str(out_path),
    )
    assert code == 0
    assert out.splitlines()[0].split() == ["mode", "cells", "verdict", "time_ms"]
    docs = {d["stats"]["mode"]: d for d in json.loads(out_path.read_text())}
    assert docs["boundary"]["status"] == "safe"
    assert docs["boundary"]["stats"]["assumes_invertible"] is True
    assert docs["subset"]["status"] == docs["full"]["status"] == "unknown"
    assert "assumes_invertible" not in docs["subset"]["stats"]
    assert "assumes_invertible" not in docs["full"]["stats"]


def test_compare_documents_are_the_verify_documents(tmp_path, capsys):
    model, out_path = tmp_path / "mixed.json", tmp_path / "doc.json"
    rb.write_model(make_net(**MIXED), model)
    argv = ["--model", str(model), "--input", "-1,1;-1,1", "--safe", "-9,9;-9,9", "--grid", "20"]

    def untimed(doc):
        timings = ("wall_ms", "certify_ms", "propagate_ms", "falsify_ms")
        return {**doc, "stats": {k: v for k, v in doc["stats"].items() if k not in timings}}

    code, _, _ = run(capsys, "compare", *argv, "--out", str(out_path))
    assert code == 0
    docs = json.loads(out_path.read_text())
    assert [d["stats"]["mode"] for d in docs] == ["boundary", "subset", "full"]
    for doc in docs:
        run(capsys, "verify", *argv, "--mode", doc["stats"]["mode"], "--out", str(out_path))
        assert untimed(doc) == untimed(json.loads(out_path.read_text()))


def _namespace_reads(func):
    """Names ``func`` reads from ``args``, following the cli helpers it passes ``args`` to."""
    names = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            names.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "getattr" and getattr(node.args[0], "id", None) == "args":
                names.add(node.args[1].value)
            elif any(getattr(a, "id", None) == "args" for a in node.args):
                names |= _namespace_reads(getattr(cli, node.func.id))
    return names


def test_every_option_is_read_by_its_command():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        options = {a.dest for a in sub._actions} - {"help", "func"}
        unread = options - _namespace_reads(sub.get_default("func"))
        assert not unread, f"{name} accepts options it never reads: {sorted(unread)}"


@pytest.mark.parametrize("argv", [("mc", "--grid", "7"), ("compare", "--seed", "123")],
                         ids=" ".join)
def test_removed_options_exit_four(identity_model, capsys, argv):
    command, *options = argv
    code, out, err = run(
        capsys, command, "--model", identity_model, "--input", "0,1;0,1",
        "--safe", "-1,2;-1,2", *options,
    )
    assert code == 4 and out == "" and "unrecognized arguments" in err


def test_certify_csv_and_summary(tmp_path, capsys):
    model = tmp_path / "mixed.json"
    rb.write_model(make_net(**MIXED), model)
    out_csv = tmp_path / "cells.csv"
    code, out, _ = run(
        capsys, "certify", "--model", str(model), "--input", "-1,1;-1,1",
        "--grid", "10", "--out", str(out_csv),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["total"] == 100
    assert summary["kept"] + summary["certified_interior"] == 100
    assert 0 < summary["certified_cells"] < 100
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "idx0,idx1,det_lo,det_hi,certified"
    assert len(lines) == 101
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"] and first[4] in ("0", "1")


def test_certify_summary_agrees_with_the_subset_decision(tmp_path, capsys):
    # certify reports every cell; subset mode drops each interior cell it certifies,
    # unless the cell lies in a leaf-sized node that the tree keeps whole
    net, box = make_net(**MIXED), rb.Box.from_bounds([(-1, 1), (-1, 1)])
    rb.write_model(net, tmp_path / "mixed.json")
    code, out, _ = run(
        capsys, "certify", "--model", str(tmp_path / "mixed.json"), "--input", "-1,1;-1,1",
        "--grid", "10,7", "--out", str(tmp_path / "cells.csv"),
    )
    summary = json.loads(out)
    assert code == 0 and list(summary) == ["total", "certified_interior", "kept", "certified_cells"]
    ex, levels = traced_extraction(net, box, (10, 7))
    assert summary["total"] == ex.counts["total"]
    assert summary["certified_interior"] < summary["certified_cells"]
    certified = np.loadtxt(tmp_path / "cells.csv", delimiter=",", skiprows=1)[:, -1] == 1
    assert summary["certified_cells"] == certified.sum()
    interior = interior_mask(ex.grid)
    assert summary["certified_interior"] == (certified & interior).sum()
    dropped, whole = dropped_mask(ex), kept_whole_mask(ex.grid, levels)
    assert np.all(dropped[certified & interior & ~whole])
    assert np.all(whole[interior & ~dropped])


def test_certify_and_full_mode_list_the_same_cells(tmp_path, capsys):
    # both enumerate the grid with `grid_cell_batch`, so their idx columns agree row for row
    model = tmp_path / "mixed.json"
    rb.write_model(make_net(**MIXED), model)
    common = ("--model", str(model), "--input", "-1,1;-0.5,2", "--grid", "6,9")
    assert run(capsys, "certify", *common, "--out", str(tmp_path / "cert.csv"))[0] == 0
    run(capsys, "verify", *common, "--safe", "-9,9;-9,9", "--mode", "full",
        "--cells-out", str(tmp_path / "reach.csv"))
    cert = np.loadtxt(tmp_path / "cert.csv", delimiter=",", skiprows=1, dtype=float)
    idx = read_reach_cells(tmp_path / "reach.csv")[0]
    assert idx.shape == (54, 2) and np.array_equal(cert[:, :2], idx)


def test_certify_identity_fully_certified(identity_model, capsys):
    code, out, _ = run(
        capsys, "certify", "--model", identity_model, "--input", "0,1;0,1", "--grid", "4",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["certified_cells"] == summary["total"] == 16


def test_certify_singular_none_certified(tmp_path, capsys):
    model = tmp_path / "singular.json"
    rb.write_model(
        rb.Network((rb.Layer([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], "linear"),)), model
    )
    code, out, _ = run(
        capsys, "certify", "--model", str(model), "--input", "0,1;0,1", "--grid", "4",
    )
    assert json.loads(out)["certified_cells"] == 0


def test_certify_degenerate_box_exit_three(identity_model, capsys):
    code, out, err = run(
        capsys, "certify", "--model", identity_model, "--input", "0,0;0,1", "--grid", "1,3",
    )
    assert code == 3 and out == ""
    assert "non-degenerate" in err and "Traceback" not in err


def test_certify_non_square_exit_three(tmp_path, capsys):
    model = tmp_path / "rect.json"
    rb.write_model(rb.generate_network(0, [2, 4, 3]), model)
    code, _, err = run(
        capsys, "certify", "--model", str(model), "--input", "0,1;0,1", "--grid", "4",
    )
    assert code == 3 and err.strip()


@pytest.mark.parametrize("sizes,box", [([7, 8, 7], "0,1;" * 6 + "0,1"), ([2, 8, 2], "0,1;0,1;0,1")],
                         ids=["seven-inputs", "box-of-the-wrong-dimension"])
def test_certify_refuses_before_it_builds_the_grid(tmp_path, capsys, monkeypatch, sizes, box):
    def unreachable(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli, "grid_cell_batch", unreachable)
    model = tmp_path / "net.json"
    rb.write_model(rb.generate_network(0, sizes), model)
    code, out, err = run(capsys, "certify", "--model", str(model), "--input", box, "--grid", "7")
    assert code == 3 and out == "" and err.startswith("error:")


def test_mc_deterministic_output(seeded_model, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, out, _ = run(
            capsys, "mc", "--model", seeded_model, "--input", "0,1;0,1",
            "--samples", "200", "--seed", "7", "--out", str(path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 200 and len(doc["image_hull"]) == 2
    assert a.read_bytes() == b.read_bytes()


def test_mc_reports_violations(identity_model, capsys):
    code, out, _ = run(
        capsys, "mc", "--model", identity_model, "--input", "0,1;0,1",
        "--samples", "500", "--seed", "1", "--safe", "0.4,0.6;0.4,0.6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] > 0 and len(doc["first_violation"]) == 2


def test_plot_deterministic_bytes(seeded_model, identity_model, tmp_path, capsys):
    cells = tmp_path / "cells.csv"
    mc = tmp_path / "mc.csv"
    run(
        capsys, "verify", "--model", seeded_model, "--input", "0,1;0,1",
        "--safe", "-9,9;-9,9", "--mode", "full", "--grid", "6", "--cells-out", str(cells),
    )
    run(
        capsys, "mc", "--model", seeded_model, "--input", "0,1;0,1",
        "--samples", "50", "--out", str(mc),
    )
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (svg_a, svg_b):
        code, _, _ = run(
            capsys, "plot", "--full-cells", str(cells), "--mc", str(mc),
            "--safe", "-9,9;-9,9", "--out", str(target),
        )
        assert code == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert svg_a.read_text().count('class="cell"') == 36


def test_plot_single_cell_single_rect(identity_model, tmp_path, capsys):
    cells = tmp_path / "one.csv"
    run(
        capsys, "verify", "--model", identity_model, "--input", "0,1;0,1",
        "--safe", "-1,2;-1,2", "--mode", "full", "--grid", "1", "--cells-out", str(cells),
    )
    svg = tmp_path / "one.svg"
    code, _, _ = run(capsys, "plot", "--full-cells", str(cells), "--out", str(svg))
    assert code == 0
    assert svg.read_text().count('class="cell"') == 1


def test_plot_empty_inputs_axes_only(tmp_path, capsys):
    import xml.etree.ElementTree as ET

    empty = tmp_path / "empty.csv"
    empty.write_text("idx0,idx1,out0_lo,out0_hi,out1_lo,out1_hi\n", encoding="utf-8")
    svg = tmp_path / "empty.svg"
    code, _, _ = run(capsys, "plot", "--full-cells", str(empty), "--out", str(svg))
    assert code == 0
    tree = ET.parse(svg)
    assert tree.getroot().tag.endswith("svg")
    assert 'class="cell"' not in svg.read_text()


def test_plot_pads_a_single_point_to_a_unit_frame(tmp_path, capsys):
    # one MC point has no extent: each axis widens by 0.5 both ways, then pads by 5%
    mc = tmp_path / "one.csv"
    mc.write_text("x0,x1,y0,y1\n0.0,0.0,0.5,0.5\n", encoding="utf-8")
    svg = tmp_path / "one.svg"
    code, _, _ = run(capsys, "plot", "--mc", str(mc), "--out", str(svg))
    assert code == 0
    labels = re.findall(r'class="axis"[^>]*>([^<]*)<', svg.read_text())
    assert labels == ["-0.05", "1.05", "-0.05", "1.05"]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_render_svg_refuses_a_non_finite_value(bad):
    # the CSV readers refuse one with the file's name; a direct call must not plot it either
    lo, hi = np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
    assert 'class="cell"' in render_svg([("blue", lo, hi)], mc_points=lo)
    for layers, points in (([("blue", np.array([[0.0, bad]]), hi)], None),
                           ([], np.array([[bad, 0.5]]))):
        with pytest.raises(ValueError, match="finite"):
            render_svg(layers, mc_points=points)


def test_render_svg_frames_a_single_value_past_half_an_ulp():
    # at 1e17 the ulp is 16: widening by 0.5 alone left a zero-width frame and cx="nan"
    svg = render_svg([], np.array([[1e17, 0.0]]))
    assert 'cx="320" cy="240"' in svg and "nan" not in svg and "inf" not in svg


def test_render_svg_refuses_a_span_past_the_float_range():
    # finite bounds whose difference overflows: the parent drew x="nan" and labels -inf, inf
    layers = [("blue", np.array([[-1e308, 0.0]]), np.array([[1e308, 1.0]]))]
    with pytest.raises(ValueError, match="cannot frame"):
        render_svg(layers)
    assert "nan" not in render_svg([("blue", np.array([[-1e307, 0.0]]), np.array([[1e307, 1.0]]))])


@pytest.mark.parametrize("proj, safe", [
    ((1, 1), None), ((0, -1), None), ((0, 5), None), ((0, 1.0), None), (None, None),
    ((0, 2), rb.Box.from_bounds([(0, 1)] * 2)),
], ids=["same", "negative", "past-cells", "float", "wide-data-no-proj", "past-safe"])
def test_render_svg_refuses_a_projection_it_cannot_draw(proj, safe):
    # the checks `plot` relies on, made by the exported function for every caller
    layers = [("blue", np.zeros((1, 3)), np.ones((1, 3)))]
    assert 'class="cell"' in render_svg(layers, proj=(0, 2))
    with pytest.raises(ValueError, match="proj"):
        render_svg(layers, safe_box=safe, **({} if proj is None else {"proj": proj}))


def test_plot_high_dim_needs_projection(tmp_path, capsys):
    cells = tmp_path / "three.csv"
    cells.write_text(
        "idx0,out0_lo,out0_hi,out1_lo,out1_hi,out2_lo,out2_hi\n"
        "0,0.0,1.0,0.0,1.0,0.0,1.0\n",
        encoding="utf-8",
    )
    svg = tmp_path / "p.svg"
    code, _, err = run(capsys, "plot", "--full-cells", str(cells), "--out", str(svg))
    assert code == 3 and "proj" in err
    code, _, _ = run(
        capsys, "plot", "--full-cells", str(cells), "--proj", "0", "2", "--out", str(svg)
    )
    assert code == 0


PLOT_CELLS = "idx0,idx1,out0_lo,out0_hi,out1_lo,out1_hi\n0,0,0.0,1.0,0.0,1.0\n"
PLOT_MC = "x0,x1,y0,y1\n0.5,0.5,0.1,0.2\n"


@pytest.mark.parametrize(
    "files, extra",
    [
        ({"--mc": ""}, []),
        ({"--full-cells": PLOT_CELLS + "1,0,0.0,1.0,0.0\n"}, []),
        ({"--mc": PLOT_MC + "0.1,0.2,0.3\n"}, []),
        ({"--mc": PLOT_MC}, ["--proj", "0", "5"]),
        ({}, ["--safe", "-1,1;-1,1", "--proj", "0", "5"]),
        ({"--full-cells": PLOT_CELLS}, ["--proj", "0", "-3"]),
        ({"--full-cells": PLOT_CELLS.splitlines()[0]}, ["--proj", "0", "-1"]),
        ({"--full-cells": PLOT_CELLS}, ["--proj", "1", "1"]),
        ({"--mc": PLOT_MC + "0.5,0.5,nan,0.2\n"}, []),
        ({"--full-cells": PLOT_CELLS + "1,0,0.0,inf,0.0,1.0\n"}, []),
    ],
    ids=["empty-mc", "short-cell-row", "short-mc-row", "proj-past-mc", "proj-past-safe",
         "negative-proj", "negative-proj-no-data", "same-proj", "nan-mc", "inf-cell"],
)
def test_plot_bad_input_exits_3(tmp_path, capsys, files, extra):
    argv = ["plot", "--out", str(tmp_path / "p.svg"), *extra]
    for flag, text in files.items():
        path = tmp_path / f"{flag.strip('-')}.csv"
        path.write_text(text, encoding="utf-8")
        argv += [flag, str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 3 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--full-cells", PLOT_MC),
        ("--mc", PLOT_CELLS),
        ("--partial-cells", "idx0,idx1,det_lo,det_hi,certified\n0,0,0.5,1.5,1\n"),
    ],
    ids=["cells-given-mc", "mc-given-cells", "cells-given-certification"],
)
def test_plot_refuses_a_csv_of_the_wrong_kind(tmp_path, capsys, flag, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "plot", flag, str(path), "--out", str(tmp_path / "p.svg"))
    assert code == 3 and err.startswith(f"error: {path} is not a") and err.count("\n") == 1
    assert not (tmp_path / "p.svg").exists()


def test_cli_auto_zono_with_refinement(seeded_model, capsys):
    code, out, _ = run(
        capsys, "verify", "--model", seeded_model, "--input", "0,1;0,1",
        "--safe", "-2,2;-2,2", "--domain", "zono", "--mode", "auto",
        "--grid", "4", "--max-refine", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "safe"
    assert doc["stats"]["path"] in ("boundary", "subset")
    assert doc["stats"]["refinement_level"] >= 0


def test_cells_out_schema(seeded_model, tmp_path, capsys):
    cells = tmp_path / "cells.csv"
    code, _, _ = run(
        capsys, "verify", "--model", seeded_model, "--input", "0,1;0,1",
        "--safe", "-9,9;-9,9", "--mode", "boundary", "--grid", "3", "--cells-out", str(cells),
    )
    assert code == 0
    lines = cells.read_text().strip().splitlines()
    assert lines[0] == "idx0,idx1,out0_lo,out0_hi,out1_lo,out1_hi"
    assert len(lines) == 1 + 12
    idx, lo, hi = read_reach_cells(cells)
    assert idx.shape == (12, 2) and lo.shape == (12, 2)
    assert np.all(lo <= hi)


def test_csv_writers_exact_bytes(tmp_path):
    # repr round-trips every float: the sign of -0.0 and all 17 digits of 0.1 + 0.2
    third = 0.1 + 0.2
    index = np.array([[0, 1], [2, 0]])
    grid = rb.CellGrid(rb.Box.from_bounds([(0, 1), (0, 1)]), (3, 2))
    batch = CellBatch(grid, index, index + 1, *grid.range_bounds(index.T, index.T + 1),
                      np.array([[-0.0, third], [1e-300, -2.5]]), np.array([[0.0, 0.5], [1.0, 2.0]]))
    certification = (
        np.array([[1, 2], [3, 4]]), np.array([-0.0, third]),
        np.array([0.0, 1.7976931348623157e308]), np.array([False, True]),
    )
    mc = MonteCarloResult(np.array([[-0.0, third]]), np.array([[5e-324, -2.5]]),
                          rb.Box.from_bounds([(5e-324, 5e-324), (-2.5, -2.5)]), np.empty((0, 2)))
    write_reach_cells(batch, tmp_path / "cells.csv")
    write_certification(*certification, tmp_path / "cert.csv")
    write_mc_points(mc, tmp_path / "mc.csv")
    assert (tmp_path / "cells.csv").read_bytes() == (
        b"idx0,idx1,out0_lo,out0_hi,out1_lo,out1_hi\r\n"
        b"0,1,-0.0,0.0,0.30000000000000004,0.5\r\n"
        b"2,0,1e-300,1.0,-2.5,2.0\r\n"
    )
    assert (tmp_path / "cert.csv").read_bytes() == (
        b"idx0,idx1,det_lo,det_hi,certified\r\n"
        b"1,2,-0.0,0.0,0\r\n"
        b"3,4,0.30000000000000004,1.7976931348623157e+308,1\r\n"
    )
    assert (tmp_path / "mc.csv").read_bytes() == (
        b"x0,x1,y0,y1\r\n"
        b"-0.0,0.30000000000000004,5e-324,-2.5\r\n"
    )


def test_one_count_grid_skips_zero_width_dimensions(tmp_path, capsys):
    model = tmp_path / "mixed.json"
    rb.write_model(make_net(**MIXED), model)
    for mode in ("full", "subset", "auto"):
        code, out, err = run(
            capsys, "verify", "--model", str(model), "--input", "-1,1;0.3,0.3",
            "--safe", "-99,99;-99,99", "--grid", "4", "--mode", mode, "--cells-out",
            str(tmp_path / "cells.csv"),
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["stats"]["cells_propagated"] == 4
        assert doc["stats"].get("path") == (None if mode == "full" else "subset")
        idx, _, _ = read_reach_cells(tmp_path / "cells.csv")
        assert idx.tolist() == [[0, 0], [1, 0], [2, 0], [3, 0]]
    code, _, err = run(
        capsys, "verify", "--model", str(model), "--input", "-1,1;0.3,0.3",
        "--safe", "-9,9;-9,9", "--grid", "4,4",
    )
    assert code == 3 and "degenerate dimension 1" in err


def test_compare_marks_the_boundary_row_not_applicable_on_a_flat_box(tmp_path, capsys):
    model, out_path = tmp_path / "mixed.json", tmp_path / "compare.json"
    rb.write_model(make_net(**MIXED), model)
    code, out, err = run(
        capsys, "compare", "--model", str(model), "--input", "-1,1;0.3,0.3",
        "--safe", "-99,99;-99,99", "--grid", "4", "--out", str(out_path),
    )
    assert code == 0 and err == ""
    docs = {d["stats"]["mode"]: d for d in json.loads(out_path.read_text())}
    assert docs["boundary"] == {"status": "n/a", "stats": {"mode": "boundary"}, "output_hull": None,
                                "counterexample": None,
                                "reason": "the input box has a zero-width dimension"}
    assert docs["subset"]["stats"]["path"] == "subset" and docs["subset"]["status"] == "safe"
    assert docs["subset"]["stats"]["cells_certified"] == 0
    assert docs["subset"]["stats"]["cells_propagated"] == docs["full"]["stats"]["cells_propagated"] == 4
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    assert lines["boundary"] == ["-", "n/a", "-"]
    assert lines["full"][:2] == ["4", "safe"]
