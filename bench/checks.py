"""Output checks made apart from coverage_lab.

Nothing here imports the package under test. Every reference is computed
from the inputs alone (the generated halfspaces, or the shipped spec files
read as plain JSON), with numpy and scipy:

* exact convex coverage by bisection over a least-distance program solved
  with NNLS (Lawson & Hanson, *Solving Least Squares Problems*, ch. 23),
  whose answers are themselves verified: a nonempty answer by checking the
  returned center, an empty one by its Farkas certificate;
* exact coverage of an axis-aligned box by clip-based projection;
* a lower bound on the distance to fig1's sine curve that can only
  under-estimate it;
* a fresh uniform sample of a witness ball, tested against the label's own
  inequalities.

A check returns a list of failure reasons, each "code: detail"; an empty
list means it passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# samples drawn by the witness check, half uniform in the ball and half
# just inside its surface, where near-tangent balls leave their label
WITNESS_SAMPLES = 20_000
# fixed, so that the set of refuted witnesses is the same at every --seed
WITNESS_SEED = 20191019
# How far below a reference, in tol, a radius may fall and still count as
# the exact route's bisection-margin fault, which leaves the workloads'
# radii 1.1 to 5.1 tol short. A radius further off is another failure.
MARGIN_FAULT_TOLS = 6.0


def radius_short(code, radius, reference, tol) -> list:
    """[] when radius >= reference - tol; otherwise one reason, named
    radius_short_by_margin when the shortfall is within the margin fault."""
    if radius >= reference - tol:
        return []
    if radius >= reference - MARGIN_FAULT_TOLS * tol:
        code = "radius_short_by_margin"
    return [f"{code}: {radius!r} < {reference!r} by {(reference - radius) / tol:.3g} tol"]


# --- least-distance programming ------------------------------------------------

class Inconclusive(Exception):
    """The least-distance program could verify neither a point nor emptiness."""


def least_distance(A: np.ndarray, h: np.ndarray):
    """min ||u|| subject to A u <= h, as (distance, u), or None when empty."""
    from scipy.optimize import nnls

    n = A.shape[1]
    # Lawson-Hanson LDP in the form G u >= g with G = -A, g = -h
    E = np.vstack([-A.T, -h[None, :]])
    f = np.zeros(n + 1)
    f[n] = 1.0
    w, _ = nnls(E, f)
    r = E @ w - f
    if abs(r[n]) > 1e-14:
        u = -r[:n] / r[n]
        slack = 1e-9 * (1.0 + np.abs(h) + np.linalg.norm(A, axis=1) * np.linalg.norm(u))
        if np.all(A @ u <= h + slack):
            return float(np.linalg.norm(u)), u
    # Farkas: w >= 0 with A^T w = 0 and h.w < 0 proves {u : A u <= h} empty
    if -(h @ w) > 0.5 and np.linalg.norm(A.T @ w) <= 1e-9 * (1.0 + w.sum()):
        return None
    raise Inconclusive("LDP answer failed both verifications")


def convex_coverage(x: np.ndarray, A: np.ndarray, b: np.ndarray, precision: float) -> float:
    """Exact coverage of the bounded polytope {A c <= b} at interior x:
    sup { r : some c with A c <= b - r ||a_i|| has ||x - c|| < r }."""
    norms = np.linalg.norm(A, axis=1)

    def feasible(r: float) -> bool:
        out = least_distance(A, b - r * norms - A @ x)
        return out is not None and out[0] < r

    lo, hi = 0.0, 1.0
    while feasible(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_convex(x, A, b, tol, reference, result) -> list:
    """coverage_exact_convex result against the least-distance reference."""
    if result.kind != "bounded" or result.method != "exact":
        return [f"wrong_kind: expected bounded exact, got {result.kind} {result.method}"]
    reasons = radius_short("radius_off_exact", result.radius, reference, tol)
    if result.radius > reference + tol:
        reasons.append(f"radius_off_exact: {result.radius!r} > {reference!r} (tol {tol:g})")
    w = result.witness
    if w is None:
        return reasons + ["no_witness"]
    c, r = np.asarray(w.ball.center, dtype=float), float(w.ball.radius)
    if not float(np.linalg.norm(x - c)) < r:
        reasons.append("witness_misses_point")
    norms = np.linalg.norm(A, axis=1)
    slack = 1e-9 * (1.0 + np.abs(b) + r * norms + norms * float(np.linalg.norm(c)))
    if not np.all(A @ c <= b - r * norms + slack):
        reasons.append("witness_leaves_polytope")
    return reasons


# --- shipped specs read as plain inequalities ----------------------------------

def grid(lo, hi, counts) -> np.ndarray:
    """Row-major grid with endpoints, as documented for `field --grid`."""
    axes = [np.linspace(a, b, c) for a, b, c in zip(lo, hi, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _halfspace_mask(X, body) -> np.ndarray:
    v = X @ np.asarray(body["a"], dtype=float)
    b = float(body["b"])
    return v <= b if body.get("closed", True) else v < b


class BoxSpec:
    """A spec whose labels are unions of axis-aligned boxes (fig3.json)."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.domain = np.asarray(data["domain_box"], dtype=float)
        self.labels = {name: body["union"] for name, body in data["labels"].items()}
        self.boxes = {name: [self._bounds(p["halfspaces"]) for p in pieces]
                      for name, pieces in self.labels.items()}

    @staticmethod
    def _bounds(halfspaces):
        n = len(halfspaces[0]["a"])
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        for h in halfspaces:
            a = np.asarray(h["a"], dtype=float)
            if np.count_nonzero(a) != 1:
                raise ValueError("BoxSpec needs axis-aligned halfspaces")
            k = int(np.flatnonzero(a)[0])
            if a[k] > 0:
                hi[k] = min(hi[k], h["b"] / a[k])
            else:
                lo[k] = max(lo[k], h["b"] / a[k])
        return lo, hi

    def contains(self, name, X) -> np.ndarray:
        out = np.zeros(X.shape[0], dtype=bool)
        for piece in self.labels[name]:
            mask = np.ones(X.shape[0], dtype=bool)
            for h in piece["halfspaces"]:
                mask &= _halfspace_mask(X, h)
            out |= mask
        return out

    def box_coverage(self, name, x, precision) -> float:
        """Largest exact coverage at x over the label's boxes whose closure
        holds x, by bisection with clip projection onto the shrunk box."""
        best = 0.0
        for lo, hi in self.boxes[name]:
            if np.any(x < lo) or np.any(x > hi):
                continue
            a, b = 0.0, float(np.min(hi - lo)) / 2
            while b - a > precision:
                r = 0.5 * (a + b)
                z = np.clip(x, lo + r, hi - r)
                if float(np.linalg.norm(x - z)) < r:
                    a = r
                else:
                    b = r
            best = max(best, a)
        return best


# Largest ball each fig3 label holds, from its box geometry. M is two boxes
# with disjoint closures, [-7,20]x[1,20] (27 x 19) and [-20,18]x[-10,-1]
# (38 x 9); a ball is connected, so it lies in one of them: 19/2. A ball in
# N wider than 13 has chords longer than 13 through its center in every
# direction. Above x2 = 1, N spans only x1 in [-20,-7], 13 wide; a center at
# or below x2 = 1 puts its vertical chord across x2 in [-10,-1), where N is
# the column [18,20], or its horizontal chord out of the domain: 13/2.
FIG3_LABEL_MAX_BALL = {"M": 9.5, "N": 6.5}


class Fig1:
    """fig1.json's four labels, as numpy expressions of its inequalities."""

    @staticmethod
    def _sides(X):
        above_sine = X[:, 1] > 10.0 * np.sin(0.1 * X[:, 0])
        above_line = X[:, 1] > -X[:, 0] - 3.0
        return above_sine, above_line

    def contains(self, name, X) -> np.ndarray:
        s, l = self._sides(X)
        return {"E": s & l, "C": s & ~l, "D": ~s & l, "F": ~s & ~l}[name]

    def label(self, x) -> str:
        for name in "ECDF":
            if self.contains(name, x[None, :])[0]:
                return name
        raise ValueError(f"no fig1 label at {x}")

    @staticmethod
    def boundary_distance(x) -> float:
        """Lower bound on the distance from x to the nearer of the curve
        x2 = 10 sin(0.1 x1) and the line x2 = -x1 - 3. Any ball around x with
        this radius crosses neither, so it is an anchor."""
        line = abs(x[0] + x[1] + 3.0) / math.sqrt(2.0) * (1.0 - 1e-12)
        # the curve is the graph of a 1-Lipschitz function, so its distance
        # is at least vertical/sqrt(2) and at most vertical, and nearest
        # points lie within `vertical` of x1 along the axis
        vertical = abs(x[1] - 10.0 * math.sin(0.1 * x[0]))
        h = 1e-4 * vertical
        t = x[0] + np.arange(-vertical, vertical + h, h) if h > 0 else np.array([x[0]])
        d = np.hypot(t - x[0], 10.0 * np.sin(0.1 * t) - x[1])
        # a curve point at parameter t lies within sqrt(2) * h / 2 of a sample
        sine = max(0.0, float(d.min()) - h / math.sqrt(2.0)) * (1.0 - 1e-12)
        return min(line, sine)


def sample_ball(rng, center, radius, m) -> np.ndarray:
    n = center.shape[0]
    d = rng.standard_normal((m, n))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    half = m // 2
    scale = np.empty((m, 1))
    scale[:half, 0] = radius * rng.random(half) ** (1.0 / n)
    scale[half:, 0] = radius * (1.0 - 1e-9)
    return center + scale * d


def check_witness(spec, label, point, center, radius, seed) -> list:
    """A witness anchor contains its point and stays inside `label` on a
    fresh sample of its ball."""
    reasons = []
    center = np.asarray(center, dtype=float)
    if not float(np.linalg.norm(point - center)) < radius:
        reasons.append("witness_misses_point")
    rng = np.random.default_rng([WITNESS_SEED, seed])
    pts = sample_ball(rng, center, radius, WITNESS_SAMPLES)
    if not np.all(spec.contains(label, pts)):
        reasons.append("witness_refuted")
    return reasons
