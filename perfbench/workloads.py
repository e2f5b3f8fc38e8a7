"""Seeded workload tables for the reachbound benchmark.

Every input is built here with numpy alone: network weights, input boxes,
safe boxes and the Monte-Carlo oracle samples.  The program under test only
receives the resulting model JSON files and boxes.

INVERTIBLE and MIXED are the paper's two planar cases and never change.  The
other networks are drawn from fixed base seeds and then jittered by the run
seed (relative ``JITTER`` on every weight and bias).  Each seed therefore
hands the program different inputs, while the certification profile that the
workload was chosen for (how many cells certify, which verdicts come out)
stays the same from seed to seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

JITTER = 0.01
SAFE_SAMPLES = 20_000  # per half of the safe-box sample (interior and faces)
ORACLE_SAMPLES = 50_000  # per half of the oracle sample
MODES = ("full", "boundary", "subset", "auto")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


_ACT = {"tanh": np.tanh, "sigmoid": _sigmoid, "linear": lambda x: x}


@dataclass(frozen=True)
class Net:
    """A dense network as ((weights, bias, activation), ...) over an input box."""

    name: str
    layers: tuple
    input_box: tuple  # ((lo, hi), ...)

    def document(self) -> dict:
        return {
            "layers": [
                {"weights": w.tolist(), "bias": b.tolist(), "activation": act}
                for w, b, act in self.layers
            ]
        }

    def forward(self, xs: np.ndarray) -> np.ndarray:
        out = xs
        for w, b, act in self.layers:
            out = _ACT[act](out @ w.T + b)
        return out

    @property
    def dim(self) -> int:
        return len(self.input_box)


@dataclass(frozen=True)
class Problem:
    """One verification call, as plain data the setup probe can rebuild."""

    pid: str
    net: str
    safe_box: tuple
    domain: str
    mode: str
    grid: int
    max_refinements: int = 0
    falsify_samples: int = 0
    seed: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    nets: dict  # name -> Net
    problems: list  # [Problem]
    oracle: dict  # net name -> (image lo, image hi) of the oracle sample

    def manifest(self, model_dir: Path) -> dict:
        """Write every model as JSON; return what a fresh process needs."""
        model_dir.mkdir(parents=True, exist_ok=True)
        models = {}
        for net in self.nets.values():
            path = model_dir / f"{net.name}.json"
            path.write_text(json.dumps(net.document()), encoding="utf-8")
            models[net.name] = {"path": str(path), "input_box": net.input_box}
        return {"models": models, "problems": [asdict(p) for p in self.problems]}


def seeded_layers(seed, dims, activation, scale, output_activation="linear"):
    """Uniform weights in [-scale, scale], drawn in the order
    ``reachbound.generate_network`` uses, so equal arguments give equal nets."""
    rng = np.random.Generator(np.random.Philox(seed))
    layers = []
    last = len(dims) - 2
    for k in range(len(dims) - 1):
        w = rng.uniform(-scale, scale, size=(dims[k + 1], dims[k]))
        b = rng.uniform(-scale, scale, size=dims[k + 1])
        layers.append((w, b, output_activation if k == last else activation))
    return tuple(layers)


def _rng(*key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def jittered(layers, seed: int, tag: int):
    rng = _rng(seed, tag, 7)
    return tuple(
        (
            w * (1.0 + JITTER * rng.uniform(-1.0, 1.0, w.shape)),
            b * (1.0 + JITTER * rng.uniform(-1.0, 1.0, b.shape)),
            act,
        )
        for w, b, act in layers
    )


def image_bounds(net: Net, n: int, rng: np.random.Generator):
    """Bounding box of the images of n uniform interior points, n points on
    the input faces (one random coordinate pinned to a face) and every corner."""
    box = np.asarray(net.input_box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    d = net.dim
    interior = lo + rng.random((n, d)) * (hi - lo)
    faces = lo + rng.random((n, d)) * (hi - lo)
    pinned = rng.integers(0, d, n)
    side = rng.integers(0, 2, n)
    faces[np.arange(n), pinned] = box[pinned, side]
    corners = np.array(np.meshgrid(*box, indexing="ij")).reshape(d, -1).T
    images = net.forward(np.concatenate([interior, faces, corners]))
    return images.min(axis=0), images.max(axis=0)


def safe_box(net: Net, inflate: float, rng: np.random.Generator) -> tuple:
    lo, hi = image_bounds(net, SAFE_SAMPLES, rng)
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * inflate
    return tuple((float(a), float(b)) for a, b in zip(c - half, c + half))


# ---------------------------------------------------------------------------
# the workloads

INVERTIBLE = dict(seed=25, dims=(2, 5, 2), activation="tanh", scale=0.8)
MIXED = dict(seed=11, dims=(2, 7, 2), activation="tanh", scale=2.0)
UNIT = ((0.0, 1.0), (0.0, 1.0))
SQUARE = ((-1.0, 1.0), (-1.0, 1.0))


def planar_nets(seed: int) -> list:
    return [
        Net("invertible", seeded_layers(**INVERTIBLE), UNIT),
        Net("mixed", seeded_layers(**MIXED), SQUARE),
        Net("tanh-2-8-8-2", jittered(seeded_layers(0, (2, 8, 8, 2), "tanh", 1.0), seed, 1), SQUARE),
        Net("sigmoid-2-8-2", jittered(seeded_layers(1, (2, 8, 2), "sigmoid", 2.0), seed, 2), SQUARE),
    ]


CUBE_NETS = (((3, 12, 3), 8), ((4, 12, 4), 4), ((6, 16, 6), 2), ((6, 16, 16, 6), 2))


def _finish(name, seed, nets, specs) -> Workload:
    """specs: (net, inflate, [problem fields...]) groups sharing one safe box."""
    by_name = {net.name: net for net in nets}
    oracle = {
        net.name: image_bounds(net, ORACLE_SAMPLES, _rng(seed, i, 1))
        for i, net in enumerate(nets)
    }
    problems = []
    for g, (net, inflate, fields) in enumerate(specs):
        safe = safe_box(net, inflate, _rng(seed, g, 0))
        for f in fields:
            pid = f"{net.name}/x{inflate}/{f['domain']}/{f['mode']}/g{f['grid']}"
            problems.append(Problem(pid, net.name, safe, **f))
    return Workload(name, seed, by_name, problems, oracle)


def planar(seed: int, domain: str, grids, nets=None) -> Workload:
    nets = planar_nets(seed) if nets is None else nets
    specs = [
        (net, 1.3, [dict(domain=domain, mode=m, grid=g) for g in grids for m in MODES])
        for net in nets
    ]
    return _finish(f"planar-{domain}", seed, nets, specs)


def cube(seed: int) -> Workload:
    nets, specs = [], []
    for i, (dims, grid) in enumerate(CUBE_NETS):
        name = "tanh-" + "-".join(map(str, dims))
        layers = jittered(seeded_layers(10 + i, dims, "tanh", 1.0), seed, 10 + i)
        net = Net(name, layers, ((-1.0, 1.0),) * dims[0])
        nets.append(net)
        # 0.9 rather than tighter: at 0.95 the 2000-sample falsifier misses the
        # 6-16-6 violation for some seeds, and the verdict mix would follow the seed
        for j, inflate in enumerate((1.5, 1.1, 0.9)):
            auto = dict(domain="box", mode="auto", grid=grid, max_refinements=1,
                        falsify_samples=2000, seed=seed * 100 + i * 10 + j)
            subset = dict(domain="box", mode="subset", grid=grid)
            specs.append((net, inflate, [auto, subset]))
    return _finish("cube-refine", seed, nets, specs)


WORKLOADS = {
    "planar-box": lambda seed: planar(seed, "box", (100, 200)),
    "planar-zono": lambda seed: planar(seed, "zono", (20, 40)),
    "cube-refine": cube,
}
