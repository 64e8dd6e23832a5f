"""Coverage of a classifier at a point.

Exact route (convex labels): a search on the anchor radius r, where r is
feasible iff some center c with ||x - c|| < r lies in the inner parallel
body of the label shrunk by r. An infeasible probe bounds r from above: an
empty body by its Farkas vector, a body too far from x by the Newton step
on dist(x, body) - r from its projection's multipliers. The next probe goes
just under that bound; where a probe gives no bound, the search bisects. A
probe that proves nothing (no checked certificate, or a distance within
rounding of r) makes the answer a lower bound.

Union labels: the exact route on each component whose closure holds x
gives the floor. A ball is connected, so where x's component is isolated
(its closure is proven, by a checked Farkas vector per pair, to meet no
other component's closure) the floor is the answer. Elsewhere it stands
unless the sampled route beats it with a ball that straddles components.

Sampled route (analytic labels, union points whose component touches
another): multi-start center search with per-candidate certification by
uniform interior and near-surface samples; results are lower bounds, never
claims of exactness.

Any ball certified to hold x in the label, with a radius at or above the
cap, answers ExceedsCap: witnesses of radii cap/4, cap/2 and one at or
above the cap, nested in it with centers on the ray from x to its center.
It is exact for a convex label's or a union component's ball, which is
proven, and a lower bound for the sampled incumbent, whose witnesses carry
the verdict of 2*m fresh samples, recorded as it comes out, so one can read
refuted.
"""

from __future__ import annotations

import dataclasses
import math
import types

import numpy as np

from .errors import (EmptyPolytope, EmptyRegion, NoLabel, PointNotInAnyLabel,
                     PointNotInRegion, RefinementPoint)
from .geometry import (Ball, Certificate, Halfspace, HPolytope, as_point,
                       as_polytope, ball_in_region, project_onto_polytope,
                       sample_in_ball, sampled_inside, shrink_polytope)
from .model import (REFINEMENT, AnalyticRegion, Classifier, UnionOfPolytopes,
                    label_of)

CAP_DIAMETERS = 1e6   # default cap, in units of the domain-box diameter
TOL_DIAMETERS = 1e-6  # default tolerance, likewise
_NO_DETAIL = types.MappingProxyType({})  # the detail of a result without statistics


def default_cap(C: Classifier) -> float:
    return CAP_DIAMETERS * C.diameter

def default_tol(C: Classifier) -> float:
    return TOL_DIAMETERS * C.diameter


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class Anchor:
    """An open ball holding `anchored_point`, with its certificate of lying
    inside the region of `label`."""

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
    detail: types.MappingProxyType = dataclasses.field(default_factory=lambda: _NO_DETAIL)

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

def _margin(x: np.ndarray, r):
    """mu = 1e-14 (1 + r + ||x||) of _feasible_center, at x against radius or
    offset r; math.hypot takes ||x|| without the overflow of x.x."""
    return 1e-14 * (1.0 + r + math.hypot(*x.tolist()))


def _feasible_center(x: np.ndarray, P: HPolytope, r: float):
    """(center, r, False) of a radius-r ball inscribed in P that contains x
    strictly, else (None, bound, empty): no radius above bound <= r is
    feasible, and `empty` says whether P shrunk by r is empty. bound is None
    when the probe proves nothing: an empty body without a checked Farkas
    vector, multipliers that do not check out, or a distance d from x to
    the body within the margin mu = _margin(x, r) of r.

    mu bounds the rounding of d, and of ||x - c|| as Ball.contains reads it
    back for the center c = x + u: forming c and then x - c rounds each
    coordinate by at most eps/2 (|x_i| + |u_i|) twice (eps = 2**-52), which
    moves the distance by at most eps (||x|| + d), and a norm of n terms
    reads within (n + 2) eps / 2 of its value, relative. So a reading near r
    is off by less than (n + 3) eps (||x|| + r) <= mu for n <= 42. Only
    d < r - mu is read as feasible, and only d >= r + mu, with checked
    multipliers, as infeasible. With r = |b|, mu bounds the rounding of the
    zero rule's slack b - a.x on a unit row as well, (n + 1) eps (|b| +
    ||x||) (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 3.1), so a slack read above mu is positive.

    An empty body's Farkas vector w proves it empty at every r' > b.w /
    sum(w). A body at distance d >= r + mu from x gives the Newton bound:
    phi(r') = dist(x, P_r') - r' is convex with slope sum(lambda) / d - 1 at
    r, from the projection's multipliers lambda, so when that slope is
    positive phi stays positive above its tangent's root r - (d - r) /
    slope; otherwise the bound is r.
    """
    try:
        p = project_onto_polytope(x, shrink_polytope(P, r))
    except EmptyPolytope as exc:
        w = exc.farkas
        return None, (None if w is None else min(r, float(P.b @ w) / float(w.sum()))), True
    d, mu = p.distance, _margin(x, r)
    if d < r - mu:
        return p.point, r, False
    if p.multipliers is None or d < r + mu:
        return None, None, False
    slope = float(p.multipliers.sum()) / d - 1.0
    return None, (r - (d - r) / slope if slope > 0.0 else r), False


def shrink_toward(x: np.ndarray, c: np.ndarray, r_small: float, r_big: float) -> np.ndarray:
    """Center of the radius-r_small ball nested in B(c, r_big) and still
    containing x: slide c toward x proportionally."""
    return x + (r_small / r_big) * (c - x)


def _exceeds_cap(x, c, R, top, cap, anchor, method, detail=_NO_DETAIL) -> CoverageResult:
    """ExceedsCap from a ball B(c, R), R >= top >= cap, certified to hold x
    in the label: witnesses of radii cap/4, cap/2 and top nested in it, each
    certified by anchor(center, radius)."""
    witnesses = tuple(anchor(shrink_toward(x, c, r, R), r) for r in (cap / 4, cap / 2, top))
    return CoverageResult("exceeds_cap", method, cap=cap, witness=witnesses[-1],
                          witnesses=witnesses, detail=detail)


def coverage_exact_convex(x, region, cap: float, tol: float,
                          label: str = "label") -> CoverageResult:
    """Supremum anchor radius at x for a convex region, within tol.

    Zero when x lies on a facet, up to the rounding margin mu (_margin).
    Otherwise the cap probe, whose ball is the one around x where that
    reaches it (as at a far x, whose rounding hides the probe's answer),
    then a search from x's distance to the nearest facet. An infeasible
    probe lowers the upper end to its bound: an empty body's Farkas bound,
    or the Newton bound of a body too far from x (see _feasible_center).
    The next probe goes 0.4 tol under it, which closes the bracket where
    the bound is the answer. Newton bounds fall
    superlinearly to the answer, which is a simple root of the convex
    dist(x, P_r) - r; an empty probe that lowers the upper end by less than
    half the bracket is followed by a midpoint, and so is a probe that gives
    no bound. A probe that proves nothing lowers the upper end to its radius
    too, but the answer is then a lower bound: radius lo, the largest radius
    whose ball is proven, which is also the witness.
    Raises ExactUnsupported for a region that is not convex.
    """
    x = as_point(x)
    _check_limits(cap, tol)
    tol = float(tol)  # a numpy tol would make the probe radii numpy scalars
    P = as_polytope(region)
    if not P.contains(x):
        # boundary points of closed regions are members; anything else is out
        if not P.closure_contains(x, atol=1e-12):
            try:
                project_onto_polytope(x, P)
            except EmptyPolytope:
                raise EmptyRegion("region is empty")
            raise PointNotInRegion(f"query point {list(x)} is not in the region")

    slack = P.b - P.A @ x
    if np.any(slack <= _margin(x, np.abs(P.b))):
        return CoverageResult("zero", "exact")

    def anchor(c, r):
        return Anchor(Ball(c, r), x, label, ball_in_region(Ball(c, r), P, "exact"))

    lo, center = float(np.min(slack)), x  # B(x, lo) lies in P
    cap_probe = cap * (1 + 1e-9) + 4 * tol
    z, hi, _ = (x, cap_probe, False) if lo >= cap_probe else _feasible_center(x, P, cap_probe)
    if z is not None:
        return _exceeds_cap(x, z, cap_probe, cap * (1 + 1e-9) + 2 * tol, cap, anchor, "exact")

    proven = hi is not None  # every lowering of hi so far was proven
    hi = max(lo, cap_probe if hi is None else hi)
    bounded = hi < cap_probe  # hi is a bound not yet probed under
    midpoint_due = False
    while hi - lo > 0.5 * tol:
        r = hi - 0.4 * tol if bounded and not midpoint_due else 0.5 * (lo + hi)
        z, bound, empty = _feasible_center(x, P, r)
        width = hi - lo
        if z is not None:
            lo, center = r, z
        else:
            proven = proven and bound is not None
            bound = r if bound is None else bound
            hi = max(lo, bound)
            bounded = bound < r
        # Farkas bounds that fall slowly are broken up by midpoints; Newton
        # bounds fall superlinearly and need none
        midpoint_due = empty and hi - lo > 0.5 * width
    witness = anchor(center, lo)
    if not proven:
        return CoverageResult("bounded", "lower_bound", radius=lo, witness=witness)
    return CoverageResult("bounded", "exact", radius=0.5 * (lo + hi), witness=witness)


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
        d = self.x - c
        if r <= 0 or not math.sqrt(float(d @ d)) < r or self.exhausted():
            return False
        self.spent += 2 * self.m
        # the interior batch is drawn only once the surface batch passes
        ok, self.last_violation = sampled_inside(self.region, (
            sample_in_ball(c, r, self.rng, self.m, surface=surface)
            for surface in (True, False)))
        return ok

    def note(self, c: np.ndarray, r: float) -> None:
        if r > self.best_r:
            self.best_r, self.best_c = r, c

    def max_radius_at(self, c: np.ndarray, r_hint: float) -> float:
        """Largest certified radius of a ball centered at c containing x."""
        d = self.x - c
        r = max(r_hint, 1.25 * math.sqrt(float(d @ d)), self.tol)
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

    def run(self) -> None:
        """Fill the incumbent best_r/best_c, stopping once it reaches the
        cap."""
        x = self.x
        # phase 1: grow centered at the query point
        r0 = max(self.scale * 1e-3, 4 * self.tol)
        r = r0
        while r > self.tol and not self.certify(x, r):
            r /= 8
        if r <= self.tol:
            return
        base = self.max_radius_at(x, r)
        if base >= self.cap:
            return

        # phase 2: directional growth with doubling radii; when certification
        # fails, the violating sample points at the blocking boundary, and
        # the ray direction is bent away from it (perceptron-style) so that
        # growth along near-halfspace labels converges to the inward normal
        phase2_budget = (self.budget * 3) // 5
        alpha = 0.5 * base
        for d in self.directions(6):
            if self._grow_adaptive(d, base, alpha, phase2_budget):
                return
            if self.spent >= phase2_budget:
                break

        # phase 3: inflate-and-push — grow the incumbent ball a few percent
        # at a time, nudging the center away from whichever boundary the
        # violating samples reveal (single boundary: slide off it; two
        # boundaries: move along their bisector)
        self._inflate_push()

    def _grow_adaptive(self, d: np.ndarray, base: float, alpha: float,
                       spend_limit: int) -> bool:
        """March centers x + t*d with radius t + alpha, doubling t. On a
        failed certification, bend d away from the violating sample and back
        off t. Returns whether the cap was reached."""
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
                    return True
                t *= 2
                continue
            if self.last_violation is None or updates >= 25:
                return False
            q = self.last_violation - c
            qn = float(np.linalg.norm(q))
            if qn == 0.0:
                return False
            d_new = d - 0.6 * (q / qn)
            d_new /= float(np.linalg.norm(d_new))
            if best_t > 0 and t <= base and float(d_new @ d) > 1.0 - 1e-12:
                return False  # no direction progress and no radius progress
            d = d_new
            t = max(t / 2, base)
            updates += 1
        return False

    def _inflate_push(self) -> None:
        """Local improvement of the incumbent ball: repeatedly grow the
        radius by a small factor, up to the cap, escaping the boundaries
        that block growth by moving the center away from violating
        samples."""
        if self.best_c is None:
            return
        c, r = self.best_c, self.best_r
        gamma = 0.05
        while r < self.cap and not self.exhausted() and gamma > 1e-4:
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

    def witness_at(self, c: np.ndarray, r: float) -> Anchor:
        cert_seed = int(self.rng.integers(0, 2**32))
        cert = ball_in_region(Ball(c, r), self.region, ("sampled", 2 * self.m, cert_seed))
        return Anchor(Ball(c, r), self.x, self.label, cert)


def _check_limits(cap: float, tol: float) -> None:
    """ValueError unless cap and tol are finite, 0 < tol < cap and cap <=
    2**50 * tol. Above that bound the float spacing near the cap exceeds
    tol / 4, and the exact search could not close its bracket."""
    if not (math.isfinite(cap) and math.isfinite(tol) and 0 < tol < cap):
        raise ValueError(f"need finite 0 < tol < cap, got tol={tol:g} and cap={cap:g}")
    if cap > 2**50 * tol:
        raise ValueError(f"need cap <= 2**50 * tol = {2**50 * tol:g}, "
                         f"got cap={cap:g} and tol={tol:g}")


def resolve_limits(C: Classifier, cap: float | None, tol: float | None,
                   budget: int) -> tuple[float, float]:
    """The (cap, tol) of a query on C, defaults filled in. ValueError unless
    _check_limits passes and budget >= 0."""
    cap = default_cap(C) if cap is None else float(cap)
    tol = default_tol(C) if tol is None else float(tol)
    _check_limits(cap, tol)
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
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


def _sampled_result(C: Classifier, x, name: str, cap: float, budget: int, seed: int,
                    tol: float, floor: CoverageResult | None = None) -> CoverageResult:
    """Run the sampled search on label `name` at x and build its lower-bound
    result: ExceedsCap once the incumbent reaches the cap, with witnesses
    nested in it as on the exact route. A union's exact per-component
    `floor` stands unless the search beats it."""
    search = _SampledSearch(C.labels[name], x, name, cap, budget, seed, tol, C.diameter)
    search.run()
    detail = {"m": search.m, "seed": seed, "samples_spent": search.spent}
    if floor is not None:
        detail["component_floor"] = floor.radius if floor.kind == "bounded" else None
    detail = types.MappingProxyType(detail)
    c, r = search.best_c, search.best_r
    if r >= cap:
        return _exceeds_cap(x, c, r, r, cap, search.witness_at, "lower_bound", detail)
    if floor is not None and floor.kind == "bounded" and floor.radius >= r:
        return dataclasses.replace(floor, method="lower_bound", detail=detail)
    if r <= 0:
        return CoverageResult("zero", "lower_bound", detail=detail)
    return CoverageResult("bounded", "lower_bound", radius=r,
                          witness=search.witness_at(c, r), detail=detail)


def coverage_sampled(C: Classifier, x, cap: float | None = None,
                     budget: int = 100_000, seed: int = 0,
                     tol: float | None = None) -> CoverageResult:
    """Sampled lower-bound coverage at x, for any label kind."""
    cap, tol = resolve_limits(C, cap, tol, budget)
    x, name = _resolve_query(C, x)
    return _sampled_result(C, x, name, cap, budget, seed, tol)


def coverage_at(C: Classifier, x, cap: float | None = None,
                budget: int = 100_000, seed: int = 0,
                tol: float | None = None) -> CoverageResult:
    """Coverage of C at x, at any budget. Exact for convex labels. A union
    label's floor, the best exact coverage of the components whose closure
    holds x, is exact where x's component is isolated (its closure meets no
    other's, `UnionOfPolytopes.isolated`) or the floor exceeds the cap;
    elsewhere, as for analytic labels, the sampled search gives a lower
    bound, which the floor bounds from below."""
    cap, tol = resolve_limits(C, cap, tol, budget)
    x, name = _resolve_query(C, x)
    region = C.labels[name]

    if isinstance(region, (Halfspace, HPolytope)):
        return coverage_exact_convex(x, region, cap, tol, label=name)

    floor = None
    if isinstance(region, UnionOfPolytopes):
        floor, isolated = CoverageResult("zero", "exact"), False
        for comp, alone in zip(region.polytopes, region.isolated):
            if comp.closure_contains(x, atol=1e-12):  # the exact route's own test
                res = coverage_exact_convex(x, comp, cap, tol, label=name)
                floor = max(floor, res, key=CoverageResult.order_key)
                isolated = isolated or (alone and comp.contains(x))
        # a connected ball cannot leave an isolated component, and a ball
        # in a component lies in the label
        if isolated or floor.kind == "exceeds_cap":
            return floor
        if budget <= 0:
            return dataclasses.replace(floor, method="lower_bound")
    elif not isinstance(region, AnalyticRegion):
        raise TypeError(f"unsupported region type {type(region).__name__}")
    return _sampled_result(C, x, name, cap, budget, seed, tol, floor)


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
