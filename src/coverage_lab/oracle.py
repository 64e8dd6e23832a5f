"""A brute-force coverage oracle for convex labels, independent of the
exact engine.

It exists to cross-check the engine: it grids candidate ball centers and
evaluates the best anchor radius directly, with local grid refinement around
the incumbent. Slow and simple on purpose.
"""

from __future__ import annotations

import numpy as np

from .geometry import HPolytope, as_point, as_polytope


def inscribed_radius_polytope(P: HPolytope, centers: np.ndarray) -> np.ndarray:
    """Radius of the largest ball centered at each row of `centers` that fits
    inside P: min_i (b_i - a_i.c) / ||a_i||. Negative outside the closure."""
    return np.min(P.b - centers @ P.A.T, axis=1)


def _grid(box: np.ndarray, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(box[0], box[1])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def coverage_oracle_polytope(x, region, box, per_axis: int = 41,
                             rounds: int = 3) -> float:
    """Best anchor radius at x for a convex region by center gridding.

    Centers c are feasible when the inscribed radius r(c) strictly exceeds
    ||x - c||; the oracle maximizes r(c) over feasible centers, zooming the
    grid around the incumbent each round.
    """
    x = as_point(x)
    P = as_polytope(region)
    box = np.asarray(box, dtype=float)
    best_r, best_c = 0.0, x
    for _ in range(rounds):
        centers = _grid(box, per_axis)
        radii = inscribed_radius_polytope(P, centers)
        feas = radii > np.linalg.norm(centers - x, axis=1)
        if np.any(feas):
            idx = int(np.argmax(np.where(feas, radii, -np.inf)))
            if radii[idx] > best_r:
                best_r, best_c = float(radii[idx]), centers[idx]
        # zoom: new box is a neighborhood of the incumbent center
        span = (box[1] - box[0]) / (per_axis - 1) * 4.0
        box = np.stack([best_c - span, best_c + span])
    return best_r
