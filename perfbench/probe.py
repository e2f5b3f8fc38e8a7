"""Set-up path of the benchmark, and the fresh process that times it.

``python3 perfbench/probe.py MANIFEST`` imports reachbound, reads every model
the manifest lists and makes one warm-up ``verify`` per distinct problem
shape, then prints the CPU seconds this took, scaled by the yardstick
(see yardstick.py).  A problem shape is the network's
layer sizes with the domain, mode and refinement options; the warm-up uses
one grid cell per input dimension, which runs the same code paths as the
timed problems at a fraction of their cost.

Nothing here imports numpy at module level, so the probe's clock starts
before numpy and reachbound are loaded.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_reachbound():
    """Import reachbound from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "reachbound" / "__init__.py").is_file():
        raise FileNotFoundError(f"no reachbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reachbound

    if Path(reachbound.__file__).resolve().parent != (SRC / "reachbound").resolve():
        raise ImportError(f"reachbound was imported from {reachbound.__file__}, not {SRC}")
    return reachbound


def read_models(rb, manifest) -> dict:
    return {name: rb.read_model(m["path"]) for name, m in manifest["models"].items()}


def build_problem(rb, manifest, nets, p: dict, grid=None):
    return rb.VerificationProblem(
        nets[p["net"]],
        rb.Box.from_bounds(manifest["models"][p["net"]]["input_box"]),
        rb.Box.from_bounds(p["safe_box"]),
        domain=p["domain"],
        mode=p["mode"],
        grid=(p["grid"] if grid is None else grid,),
        max_refinements=p["max_refinements"],
        seed=p["seed"],
        falsify_samples=p["falsify_samples"],
    )


def warm_up(rb, manifest, nets) -> int:
    seen = set()
    for p in manifest["problems"]:
        net = nets[p["net"]]
        shape = (net.dims(), p["domain"], p["mode"], p["max_refinements"], p["falsify_samples"] > 0)
        if shape not in seen:
            seen.add(shape)
            rb.verify(build_problem(rb, manifest, nets, p, grid=1))
    return len(seen)


def main(argv) -> int:
    manifest = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    started = time.process_time()
    rb = import_reachbound()
    nets = read_models(rb, manifest)
    warm_up(rb, manifest, nets)
    cpu_s = time.process_time() - started
    import yardstick

    factor = yardstick.scale(yardstick.kernel_ms(), yardstick.kernel_ms())
    print(json.dumps({"setup_s": cpu_s * factor}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
