"""Independent checks of one verdict against the benchmark's own samples."""

from __future__ import annotations

import numpy as np

HULL_SLACK = 1e-9
STATUSES = ("safe", "unknown", "falsified")


def check_verdict(rb, problem, verdict, image_lo, image_hi) -> list:
    """Reasons the oracle rejects ``verdict`` for ``problem``; empty if none.

    ``image_lo``/``image_hi`` bound the images of the oracle sample of the
    problem's input box, computed without the program.
    """
    reasons = []
    safe = problem.safe_box
    if verdict.status not in STATUSES:
        reasons.append(f"status {verdict.status!r} is not a verdict")
    if verdict.status == "safe" and (np.any(image_lo < safe.lo) or np.any(image_hi > safe.hi)):
        reasons.append("safe verdict, but a sampled image lies outside the safe box")
    if verdict.status == "falsified":
        x = verdict.counterexample
        if (
            x is None
            or not problem.input_box.contains_point(x)
            or safe.contains_point(rb.forward_point(problem.net, x))
        ):
            reasons.append("counterexample does not re-check outside the safe box")
    if not verdict.stats.get("assumes_invertible", False):
        hull = verdict.output_hull
        if (
            hull is None
            or np.any(image_lo < hull.lo - HULL_SLACK)
            or np.any(image_hi > hull.hi + HULL_SLACK)
        ):
            reasons.append(f"output hull misses sampled images by more than {HULL_SLACK}")
    return reasons
