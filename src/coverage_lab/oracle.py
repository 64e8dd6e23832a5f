"""Brute-force coverage oracles, independent of the bisection engine.

These exist to cross-check the engine: they grid candidate ball centers and
evaluate the best anchor radius directly, with local grid refinement around
the incumbent. Slow and simple on purpose.
"""

from __future__ import annotations

import numpy as np

from .geometry import Halfspace, HPolytope, as_point


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
    P = HPolytope((region,)) if isinstance(region, Halfspace) else region
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


def boundary_distance(region, center: np.ndarray, dirs: np.ndarray,
                      r_max: float, steps: int = 48) -> float:
    """Distance from `center` to the complement of `region`, estimated as the
    minimum over the given unit directions of the first exit radius.

    All directions are bisected in lockstep (vectorized membership tests).
    """
    if not region.contains(center):
        return 0.0
    k = dirs.shape[0]
    # coarse scan to bracket the FIRST exit along each ray (rays may
    # re-enter the region, so plain bisection from r_max is not sound)
    coarse = 64
    ts = np.linspace(0.0, r_max, coarse + 1)[1:]
    pts = center + ts[None, :, None] * dirs[:, None, :]
    inside = region.contains_many(pts.reshape(-1, dirs.shape[1])).reshape(k, coarse)
    any_out = ~np.all(inside, axis=1)
    if not np.any(any_out):
        return r_max
    first_out = np.argmin(inside, axis=1)  # index of first False per ray
    lo = np.where(first_out == 0, 0.0, ts[np.maximum(first_out - 1, 0)])
    hi = ts[first_out]
    lo = np.where(any_out, lo, r_max)
    hi = np.where(any_out, hi, r_max)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        ins = region.contains_many(center + mid[:, None] * dirs)
        lo = np.where(any_out & ins, mid, lo)
        hi = np.where(any_out & ~ins, mid, hi)
    return float(np.min(np.where(any_out, lo, r_max)))


def coverage_oracle_region(x, region, box, per_axis: int = 31,
                           n_dirs: int = 96, rounds: int = 2,
                           r_max: float | None = None, seed: int = 0) -> float:
    """Best anchor radius at x for an arbitrary region (union / analytic) by
    center gridding with directional exit-radius estimation."""
    x = as_point(x)
    box = np.asarray(box, dtype=float)
    n = x.shape[0]
    if r_max is None:
        r_max = 2.0 * float(np.linalg.norm(box[1] - box[0]))
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    best_r, best_c = 0.0, x
    for _ in range(rounds):
        centers = _grid(box, per_axis)
        for c in centers:
            gap = float(np.linalg.norm(c - x))
            if gap >= r_max:
                continue
            r = boundary_distance(region, c, dirs, r_max)
            if r > gap and r > best_r:
                best_r, best_c = r, c
        span = (box[1] - box[0]) / (per_axis - 1) * 3.0
        box = np.stack([best_c - span, best_c + span])
    return best_r
