"""Coverage of a classifier at a point.

Exact route (convex labels): bisection on the anchor radius r, where r is
feasible iff some center c with ||x - c|| < r lies in the inner parallel
body of the label shrunk by r. Unbounded growth is reported as ExceedsCap
with a certified witness sequence of increasing radii, all nested in the
ball found at the cap, with centers on the ray from x to its center.

Sampled route (union / analytic labels): multi-start center search with
per-candidate certification by uniform interior and near-surface samples;
results are lower bounds, never claims of exactness.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (EmptyPolytope, EmptyRegion, EvalError, NoLabel,
                     PointNotInAnyLabel, PointNotInRegion, RefinementPoint)
from .geometry import (Ball, Certificate, Halfspace, HPolytope, as_point,
                       as_polytope, ball_in_region, project_onto_polytope,
                       sample_in_ball, shrink_polytope)
from .model import (REFINEMENT, AnalyticRegion, Classifier, UnionOfPolytopes,
                    label_of)

CAP_DIAMETERS = 1e6   # default cap, in units of the domain-box diameter
TOL_DIAMETERS = 1e-6  # default tolerance, likewise


def default_cap(C: Classifier) -> float:
    return CAP_DIAMETERS * C.diameter

def default_tol(C: Classifier) -> float:
    return TOL_DIAMETERS * C.diameter


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class Anchor:
    """An open ball certified to contain `anchored_point` and to lie inside
    the region of `label`."""

    ball: Ball
    anchored_point: np.ndarray
    label: str
    certificate: Certificate

    def __post_init__(self):
        object.__setattr__(self, "anchored_point", as_point(self.anchored_point))
        if not self.ball.contains(self.anchored_point):
            raise ValueError("anchored point must lie strictly inside the ball")


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class CoverageResult:
    """Zero | Bounded(radius, witness) | ExceedsCap(cap, witness sequence)."""

    kind: str  # "zero" | "bounded" | "exceeds_cap"
    method: str  # "exact" | "lower_bound"
    radius: float | None = None
    cap: float | None = None
    witness: Anchor | None = None
    witnesses: tuple = ()
    detail: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "bounded":
            if self.radius is None or not self.radius > 0:
                raise ValueError("bounded coverage requires a positive radius")
        elif self.kind == "exceeds_cap":
            radii = [a.ball.radius for a in self.witnesses]
            if not radii or any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
                raise ValueError("exceeds_cap requires strictly increasing witness radii")
            if radii[-1] < self.cap:
                raise ValueError("last witness radius must reach the cap")
        elif self.kind != "zero":
            raise ValueError(f"unknown coverage kind {self.kind!r}")

    def order_key(self) -> tuple:
        """Total order Zero < Bounded(r) < ExceedsCap."""
        if self.kind == "zero":
            return (0, 0.0)
        if self.kind == "bounded":
            return (1, self.radius)
        return (2, math.inf)

    def describe(self) -> str:
        if self.kind == "zero":
            return f"Zero ({self.method})"
        if self.kind == "bounded":
            return f"Bounded(radius={self.radius:.6g}) ({self.method})"
        return f"ExceedsCap(cap={self.cap:.6g}) ({self.method})"


def compare_results(r1: CoverageResult, r2: CoverageResult, tol: float = 0.0) -> str:
    """'less' | 'equal' | 'greater' under the coverage-result ordering."""
    k1, k2 = r1.order_key(), r2.order_key()
    if k1[0] != k2[0]:
        return "less" if k1[0] < k2[0] else "greater"
    if abs(k1[1] - k2[1]) <= tol or k1[1] == k2[1]:
        return "equal"
    return "less" if k1[1] < k2[1] else "greater"


# --- exact convex route ----------------------------------------------------

def _feasible_center(x: np.ndarray, P: HPolytope, r: float, tol: float):
    """(center, r) of a radius-r ball inscribed in P that contains x
    strictly, else (None, bound): no radius above bound <= r is feasible.

    The distance must clear r by a float margin far below any tol. An
    empty body's Farkas vector w proves it empty at every r' > b.w / sum(w).
    """
    try:
        z, d = project_onto_polytope(x, shrink_polytope(P, r), tol)
    except EmptyPolytope as exc:
        w = exc.farkas
        return None, (r if w is None else min(r, float(P.b @ w) / float(w.sum())))
    if d < r - 1e-12 * (1.0 + r + float(np.linalg.norm(x))):
        return z, r
    return None, r


def shrink_toward(x: np.ndarray, c: np.ndarray, r_small: float, r_big: float) -> np.ndarray:
    """Center of the radius-r_small ball nested in B(c, r_big) and still
    containing x: slide c toward x proportionally."""
    return x + (r_small / r_big) * (c - x)


def _anchor(x, c, r, region, label):
    return Anchor(Ball(c, r), x, label, ball_in_region(Ball(c, r), region, "exact"))


def coverage_exact_convex(x, region, cap: float, tol: float,
                          label: str = "label") -> CoverageResult:
    """Supremum anchor radius at x for a convex region, within tol.

    Zero exactly when x lies on a facet, up to rounding. Otherwise bisection
    from x's distance to the nearest facet (the ball around x) up to the
    cap, where an empty body lowers the upper end to its Farkas bound.
    Raises ExactUnsupported for a region that is not convex.
    """
    x = as_point(x)
    if not 0 < tol < cap:
        raise ValueError(f"need 0 < tol < cap, got tol={tol:g} and cap={cap:g}")
    P = as_polytope(region)
    if not P.contains(x):
        # boundary points of closed regions are members; anything else is out
        if not P.closure_contains(x, atol=1e-12):
            try:
                project_onto_polytope(x, P, tol)
            except EmptyPolytope:
                raise EmptyRegion("region is empty")
            raise PointNotInRegion(f"query point {list(x)} is not in the region")

    slack = P.b - P.A @ x
    if np.any(slack <= 1e-12 * (1.0 + np.abs(P.b) + float(np.linalg.norm(x)))):
        return CoverageResult("zero", "exact")

    cap_probe = cap * (1 + 1e-9) + 4 * tol
    z, hi = _feasible_center(x, P, cap_probe, tol)
    if z is not None:
        # balls nested in B(z, cap_probe) that still hold x
        witnesses = tuple(_anchor(x, shrink_toward(x, z, r, cap_probe), r, P, label)
                          for r in (cap / 4, cap / 2, cap * (1 + 1e-9) + 2 * tol))
        return CoverageResult("exceeds_cap", "exact", cap=cap,
                              witness=witnesses[-1], witnesses=witnesses)

    lo, center = float(np.min(slack)), x  # B(x, lo) lies in P
    hi = max(lo, hi)
    while hi - lo > 0.5 * tol:
        mid = 0.5 * (lo + hi)
        z, bound = _feasible_center(x, P, mid, tol)
        if z is not None:
            lo, center = mid, z
        else:
            hi = max(lo, bound)
    return CoverageResult("bounded", "exact", radius=0.5 * (lo + hi),
                          witness=_anchor(x, center, lo, P, label))


# --- sampled route ---------------------------------------------------------

class _SampledSearch:
    """Deterministic multi-start anchor search with sampled certification.

    Certification of a candidate ball uses m interior samples and m
    near-surface samples; surface samples catch the thin slivers of
    near-tangent balls that interior sampling almost never hits.
    """

    def __init__(self, region, x, label, cap, budget, seed, tol, scale):
        self.region = region
        self.x = x
        self.label = label
        self.cap = cap
        self.budget = budget
        self.tol = tol
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self.m = int(min(2000, max(200, budget // 200)))
        self.spent = 0
        self.best_r = 0.0
        self.best_c = None
        self.last_violation = None

    def exhausted(self) -> bool:
        return self.spent >= self.budget

    def certify(self, c: np.ndarray, r: float) -> bool:
        if r <= 0 or not float(np.linalg.norm(self.x - c)) < r:
            return False
        if self.exhausted():
            return False
        self.spent += 2 * self.m
        for surface in (True, False):
            pts = sample_in_ball(c, r, self.rng, self.m, surface=surface)
            try:
                inside = self.region.contains_many(pts)
            except EvalError:  # some sample's label cannot be evaluated
                self.last_violation = None
                return False
            if not inside.all():
                self.last_violation = pts[int(np.flatnonzero(~inside)[0])]
                return False
        return True

    def note(self, c: np.ndarray, r: float) -> None:
        if r > self.best_r:
            self.best_r = r
            self.best_c = c

    def max_radius_at(self, c: np.ndarray, r_hint: float) -> float:
        """Largest certified radius of a ball centered at c containing x."""
        r = max(r_hint, 1.25 * float(np.linalg.norm(self.x - c)), self.tol)
        if not self.certify(c, r):
            return 0.0
        while r < self.cap and self.certify(c, 2 * r):
            r *= 2
        if r >= self.cap:
            self.note(c, r)
            return r
        lo, hi = r, 2 * r
        for _ in range(12):
            if hi - lo <= max(self.tol, 1e-4 * lo):
                break
            mid = 0.5 * (lo + hi)
            if self.certify(c, mid):
                lo = mid
            else:
                hi = mid
        self.note(c, lo)
        return lo

    def directions(self, k: int) -> np.ndarray:
        d = self.rng.standard_normal((k, self.x.shape[0]))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return d

    def run(self):
        """Returns ('exceeds', direction, alpha) or ('bounded',) after
        filling best_r/best_c."""
        x = self.x
        # phase 1: grow centered at the query point
        r0 = max(self.scale * 1e-3, 4 * self.tol)
        r = r0
        while r > self.tol and not self.certify(x, r):
            r /= 8
        if r <= self.tol:
            return ("bounded",)
        base = self.max_radius_at(x, r)
        if base >= self.cap:
            return ("exceeds", None, None)

        # phase 2: directional growth with doubling radii; when certification
        # fails, the violating sample points at the blocking boundary, and
        # the ray direction is bent away from it (perceptron-style) so that
        # growth along near-halfspace labels converges to the inward normal
        phase2_budget = (self.budget * 3) // 5
        alpha = 0.5 * base
        for d in self.directions(6):
            out = self._grow_adaptive(d, base, alpha, phase2_budget)
            if out is not None:
                return ("exceeds", out, alpha)
            if self.spent >= phase2_budget:
                break

        # phase 3: inflate-and-push — grow the incumbent ball a few percent
        # at a time, nudging the center away from whichever boundary the
        # violating samples reveal (single boundary: slide off it; two
        # boundaries: move along their bisector)
        if self._inflate_push():
            d = self.best_c - x
            nd = float(np.linalg.norm(d))
            if nd > 0:
                alpha = max(0.5 * (self.best_r - nd), 4 * self.tol)
                return ("exceeds", d / nd, alpha)
        return ("bounded",)

    def _grow_adaptive(self, d: np.ndarray, base: float, alpha: float,
                       spend_limit: int):
        """March centers x + t*d with radius t + alpha, doubling t. On a
        failed certification, bend d away from the violating sample and back
        off t. Returns the final direction when the cap is reached, else
        None."""
        x = self.x
        t = base
        best_t = 0.0
        updates = 0
        while self.spent < spend_limit and not self.exhausted():
            c = x + t * d
            rr = t + alpha
            if self.certify(c, rr):
                self.note(c, rr)
                best_t = max(best_t, t)
                if rr >= self.cap:
                    return d
                t *= 2
                continue
            if self.last_violation is None or updates >= 25:
                return None
            q = self.last_violation - c
            qn = float(np.linalg.norm(q))
            if qn == 0.0:
                return None
            d_new = d - 0.6 * (q / qn)
            d_new /= float(np.linalg.norm(d_new))
            if best_t > 0 and t <= base and float(d_new @ d) > 1.0 - 1e-12:
                return None  # no direction progress and no radius progress
            d = d_new
            t = max(t / 2, base)
            updates += 1
        return None

    def _inflate_push(self) -> bool:
        """Local improvement of the incumbent ball: repeatedly grow the
        radius by a small factor, escaping the boundaries that block growth
        by moving the center away from violating samples. Returns True when
        the growth ran through the cap."""
        if self.best_c is None:
            return False
        c, r = self.best_c, self.best_r
        gamma = 0.05
        while not self.exhausted() and gamma > 1e-4:
            if r >= self.cap:
                return True
            r_try = min(r * (1 + gamma), self.cap * (1 + 1e-9) + 4 * self.tol)
            if self.certify(c, r_try):
                r = r_try
                self.note(c, r)
                continue
            p1 = self.last_violation
            if p1 is None:  # no violating sample to steer by: grow less
                gamma *= 0.5
                continue
            u1 = c - p1
            n1 = float(np.linalg.norm(u1))
            if n1 == 0.0:
                break
            step = 2.0 * (r_try - r)
            c1 = c + step * (u1 / n1)
            if self.certify(c1, r_try):
                c, r = c1, r_try
                self.note(c, r)
                continue
            p2 = self.last_violation
            n2 = 0.0 if p2 is None else float(np.linalg.norm(c - p2))
            if n2 > 0.0:
                u2 = c - p2
                bis = u1 / n1 + u2 / n2
                nb = float(np.linalg.norm(bis))
                if nb > 1e-9:
                    c2 = c + (2.0 * step / nb) * bis
                    if self.certify(c2, r_try):
                        c, r = c2, r_try
                        self.note(c, r)
                        continue
            gamma *= 0.5
        return r >= self.cap

    def witness_at(self, c: np.ndarray, r: float) -> Anchor:
        cert_seed = int(self.rng.integers(0, 2**32))
        cert = ball_in_region(Ball(c, r), self.region, ("sampled", 2 * self.m, cert_seed))
        return Anchor(Ball(c, r), self.x, self.label, cert)


def resolve_limits(C: Classifier, cap: float | None,
                   tol: float | None) -> tuple[float, float]:
    """The (cap, tol) of a query on C, defaults filled in. ValueError unless
    0 < tol < cap."""
    cap = default_cap(C) if cap is None else float(cap)
    tol = default_tol(C) if tol is None else float(tol)
    if not 0 < tol < cap:
        raise ValueError(f"need 0 < tol < cap, got tol={tol:g} and cap={cap:g}")
    return cap, tol


def _resolve_query(C: Classifier, x):
    x = as_point(x)
    try:
        name = label_of(C, x)
    except NoLabel:
        raise PointNotInAnyLabel(f"point {list(x)} lies in no label")
    if name == REFINEMENT:
        raise RefinementPoint(
            f"point {list(x)} lies in the refinement set; coverage is undefined there")
    return x, name


def _sampled_result(search: _SampledSearch, seed: int,
                    floor: CoverageResult | None = None) -> CoverageResult:
    """Run the search and build its lower-bound result. A union's exact
    per-component `floor` stands unless the search beats it."""
    outcome = search.run()
    detail = {"m": search.m, "seed": seed, "samples_spent": search.spent}
    if floor is not None:
        detail["component_floor"] = floor.radius if floor.kind == "bounded" else None
    if outcome[0] == "exceeds":
        _, d, alpha = outcome
        witnesses = _sampled_cap_witnesses(search, d, alpha)
        if witnesses is not None:
            return CoverageResult("exceeds_cap", "lower_bound", cap=search.cap,
                                  witness=witnesses[-1], witnesses=witnesses,
                                  detail=detail)
        # growth reached the cap but re-certification failed; fall through
    if floor is not None and floor.kind == "bounded" and floor.radius >= search.best_r:
        return dataclasses.replace(floor, method="lower_bound", detail=detail)
    if search.best_r <= 0:
        return CoverageResult("zero", "lower_bound", detail=detail)
    witness = search.witness_at(search.best_c, search.best_r)
    return CoverageResult("bounded", "lower_bound", radius=search.best_r,
                          witness=witness, detail=detail)


def coverage_sampled(C: Classifier, x, cap: float | None = None,
                     budget: int = 100_000, seed: int = 0,
                     tol: float | None = None) -> CoverageResult:
    """Sampled lower-bound coverage at x, for any label kind."""
    cap, tol = resolve_limits(C, cap, tol)
    x, name = _resolve_query(C, x)
    return _fully_sampled(C, x, name, cap, budget, seed, tol)


def _fully_sampled(C: Classifier, x, name: str, cap: float, budget: int,
                   seed: int, tol: float) -> CoverageResult:
    if budget <= 0:
        return CoverageResult("zero", "lower_bound",
                              detail={"note": "no certification attempted", "budget": 0})
    search = _SampledSearch(C.labels[name], x, name, cap, budget, seed, tol, C.diameter)
    return _sampled_result(search, seed)


def _sampled_cap_witnesses(search: _SampledSearch, d, alpha):
    """Increasing witness sequence at radii ~cap/4, cap/2, cap along the
    growth direction."""
    if d is None:  # cap reached with the query point itself as center
        d = search.directions(1)[0]
        alpha = max(search.best_r / 2, 4 * search.tol)
    cap = search.cap
    witnesses = []
    for r in (cap / 4, cap / 2, cap * (1 + 1e-9)):
        t = r - alpha
        c = search.x + t * d
        if not search.certify(c, r):
            return None
        witnesses.append(search.witness_at(c, r))
    return tuple(witnesses)


def coverage_at(C: Classifier, x, cap: float | None = None,
                budget: int = 100_000, seed: int = 0,
                tol: float | None = None) -> CoverageResult:
    """Coverage of C at x: exact for convex labels, certified lower bound
    for unions (per-component exact floor plus straddle search) and
    analytic labels (fully sampled)."""
    cap, tol = resolve_limits(C, cap, tol)
    x, name = _resolve_query(C, x)
    region = C.labels[name]

    if isinstance(region, (Halfspace, HPolytope)):
        return coverage_exact_convex(x, region, cap, tol, label=name)

    if isinstance(region, UnionOfPolytopes):
        floor = CoverageResult("zero", "exact")
        for comp in region.polytopes:
            if not comp.closure_contains(x, atol=1e-9):
                continue
            try:
                res = coverage_exact_convex(x, comp, cap, tol, label=name)
            except (PointNotInRegion, EmptyRegion):
                continue
            if res.order_key() > floor.order_key():
                floor = res
        if floor.kind == "exceeds_cap" or budget <= 0:
            return dataclasses.replace(floor, method="lower_bound")
        # try to beat the per-component floor with straddling balls
        search = _SampledSearch(region, x, name, cap, budget, seed, tol, C.diameter)
        return _sampled_result(search, seed, floor)

    if isinstance(region, AnalyticRegion):
        return _fully_sampled(C, x, name, cap, budget, seed, tol)

    raise TypeError(f"unsupported region type {type(region).__name__}")


def certify_anchor(C: Classifier, A: Anchor, m: int = 10_000,
                   seed: int = 0) -> Certificate:
    """proven (exact), unfalsified(m, seed) (sampled) or refuted(witness)."""
    if not A.ball.contains(A.anchored_point):
        return Certificate("refuted", witness=A.anchored_point)
    if A.label not in C.labels:
        raise KeyError(f"unknown label {A.label!r}")
    region = C.labels[A.label]
    if isinstance(region, (Halfspace, HPolytope)):
        return ball_in_region(A.ball, region, "exact")
    return ball_in_region(A.ball, region, ("sampled", m, seed))
