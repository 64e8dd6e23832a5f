"""Unit tests for the coverage engine: exact convex route, sampled route,
result ordering, and anchor certification."""

import functools
import re
import time

import numpy as np
import pytest

from coverage_lab import engine, geometry
from coverage_lab.data import load_builtin
from coverage_lab.engine import (Anchor, CoverageResult, certify_anchor,
                                 compare_results, coverage_at,
                                 coverage_exact_convex, coverage_sampled,
                                 shrink_toward)
from coverage_lab.errors import (EmptyRegion, ExactUnsupported,
                                 PointNotInAnyLabel, PointNotInRegion,
                                 RefinementPoint)
from coverage_lab.field import compute_field, grid_points
from coverage_lab.geometry import Ball, Halfspace, HPolytope, ball_in_region
from coverage_lab.model import Classifier, UnionOfPolytopes, analytic
from coverage_lab.verify import random_polytope_case

# Sampled-route reference value, frozen from an exhaustive center-grid
# search with exact line/curve distance evaluation (see tests/conftest
# history): the best anchor radius for label E of fig1.json at (9, 60).
FIG1_E_AT_9_60 = 662.97

# least-distance solves of coverage_exact_convex without a bracket, counted
# at the commit before the bracket: fig3's M points of the 20x20 grid, and
# 100 random_polytope_case cases in 2-D and 3-D from seed 0
FIG3_M_SOLVES = 536
CASE_SOLVES = 401


def unit_box() -> HPolytope:
    hs = []
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        hs.append(Halfspace(e, 1.0))
        hs.append(Halfspace(-e, 0.0))
    return HPolytope(tuple(hs))


def box_vs_rest() -> Classifier:
    # closed unit box plus its open complement: partitions the plane
    return Classifier(dimension=2, labels={
        "box": unit_box(),
        "rest": analytic("x1 < 0 or x1 > 1 or x2 < 0 or x2 > 1", 2),
    })


# --- CoverageResult ---------------------------------------------------------

def test_result_kind_validation():
    with pytest.raises(ValueError):
        CoverageResult("bounded", "exact")  # missing radius
    with pytest.raises(ValueError):
        CoverageResult("bounded", "exact", radius=0.0)
    with pytest.raises(ValueError):
        CoverageResult("exceeds_cap", "exact", cap=10.0)  # no witnesses
    with pytest.raises(ValueError):
        CoverageResult("mystery", "exact")
    assert CoverageResult("zero", "exact").order_key() == (0, 0.0)


def test_result_ordering_and_compare():
    zero = CoverageResult("zero", "exact")
    small = CoverageResult("bounded", "exact", radius=1.0)
    big = CoverageResult("bounded", "exact", radius=2.0)
    assert zero.order_key() < small.order_key() < big.order_key()
    assert compare_results(zero, small) == "less"
    assert compare_results(big, small) == "greater"
    assert compare_results(small, small) == "equal"
    assert compare_results(small, big, tol=1.5) == "equal"


def test_describe_strings():
    assert "Zero" in CoverageResult("zero", "exact").describe()
    assert "Bounded" in CoverageResult("bounded", "lower_bound", radius=2.5).describe()


def test_anchor_requires_strict_containment():
    with pytest.raises(ValueError):
        Anchor(Ball([0.0, 0.0], 1.0), [1.0, 0.0], "a",
               ball_in_region(Ball([0.0, 0.0], 1.0),
                              Halfspace([1.0, 0.0], 5.0), "exact"))


# --- exact convex route -----------------------------------------------------

def test_unit_box_center_coverage():
    res = coverage_exact_convex([0.5, 0.5], unit_box(), cap=100.0, tol=1e-7)
    assert res.kind == "bounded" and res.method == "exact"
    assert abs(res.radius - 0.5) < 1e-5
    w = res.witness
    assert w is not None and w.certificate.kind == "proven"
    assert w.ball.contains([0.5, 0.5])
    assert w.ball.radius <= res.radius + 1e-9


def test_unit_box_off_center_same_supremum():
    # any point within 0.5 of the box center still admits the inscribed ball
    res = coverage_exact_convex([0.2, 0.3], unit_box(), cap=100.0, tol=1e-7)
    assert res.kind == "bounded"
    assert abs(res.radius - 0.5) < 1e-5


def test_halfspace_interior_exceeds_cap():
    h = Halfspace([0.0, 1.0], 0.0, False)  # x2 < 0
    res = coverage_exact_convex([3.0, -2.0], h, cap=1e4, tol=1e-6)
    assert res.kind == "exceeds_cap" and res.method == "exact"
    radii = [a.ball.radius for a in res.witnesses]
    assert len(radii) >= 3
    assert all(b > a for a, b in zip(radii, radii[1:]))
    assert radii[-1] >= res.cap
    for a in res.witnesses:
        assert a.certificate.kind == "proven"
        assert a.ball.contains([3.0, -2.0])


def test_closed_halfspace_boundary_is_zero():
    h = Halfspace([0.0, 1.0], 0.0, True)  # x2 <= 0
    res = coverage_exact_convex([7.0, 0.0], h, cap=1e3, tol=1e-6)
    assert res.kind == "zero" and res.method == "exact"


def test_point_outside_region_raises():
    with pytest.raises(PointNotInRegion):
        coverage_exact_convex([0.0, 1.0], Halfspace([0.0, 1.0], 0.0, False),
                              cap=10.0, tol=1e-6)


def test_empty_region_raises():
    empty = HPolytope((Halfspace([1.0, 0.0], 0.0), Halfspace([-1.0, 0.0], -1.0)))
    with pytest.raises(EmptyRegion):
        coverage_exact_convex([0.5, 0.0], empty, cap=10.0, tol=1e-6)


@pytest.mark.parametrize("region", [
    UnionOfPolytopes((unit_box(),)), analytic("x1 * x1 + x2 * x2 < 1", 2)])
def test_exact_checks_reject_non_convex_regions(region):
    with pytest.raises(ExactUnsupported):
        coverage_exact_convex([0.5, 0.5], region, cap=10.0, tol=1e-6)
    with pytest.raises(ExactUnsupported):
        ball_in_region(Ball([0.5, 0.5], 0.1), region, "exact")


def test_bad_cap_or_tol():
    with pytest.raises(ValueError):
        coverage_exact_convex([0.5, 0.5], unit_box(), cap=0.0, tol=1e-6)
    with pytest.raises(ValueError):
        coverage_exact_convex([0.5, 0.5], unit_box(), cap=1.0, tol=0.0)


@pytest.mark.parametrize("cap,tol", [(10.0, 10.0), (None, 0.0), (-1.0, None)])
def test_query_needs_tol_below_cap(cap, tol):
    # fig3 takes the union route, fig1 the fully sampled one
    for C in (load_builtin("fig3.json"), load_builtin("fig1.json")):
        with pytest.raises(ValueError, match="0 < tol < cap"):
            coverage_at(C, [5.0, 0.0], cap=cap, budget=1_000, tol=tol)
        with pytest.raises(ValueError, match="0 < tol < cap"):
            compute_field(C, [[5.0, 0.0]], cap=cap, budget=1_000, tol=tol)


@pytest.mark.parametrize("cap", [float("inf"), 1e14])
def test_query_rejects_a_cap_the_exact_route_cannot_resolve(cap):
    # above 2**50 tol the float spacing near the cap exceeds tol / 4: the
    # bisection at 1e14 never closed its bracket, and inf found no probe
    linear = load_builtin("linear.json")
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(f"cap={cap:g}")):
        coverage_at(linear, [0.0, 3.0], cap=cap)
    with pytest.raises(ValueError, match=re.escape(f"cap={cap:g}")):
        coverage_exact_convex([0.0, 3.0], linear.labels["M"], cap=cap,
                              tol=engine.default_tol(linear))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("cap,tol", [(float("nan"), 1e-6), (1.0, float("nan")),
                                     (float("inf"), float("inf"))])
def test_query_rejects_limits_that_are_not_finite(cap, tol):
    with pytest.raises(ValueError, match="finite 0 < tol < cap"):
        coverage_exact_convex([0.5, 0.5], unit_box(), cap=cap, tol=tol)


def test_a_cap_of_2_to_the_50_tol_still_answers():
    tol = 1e-6
    cap = 2**50 * tol
    res = coverage_at(load_builtin("linear.json"), [0.0, 3.0], cap=cap, tol=tol)
    assert (res.kind, res.method, res.cap) == ("exceeds_cap", "exact", cap)
    # a bracket that closes near the cap, where the float spacing is tol / 8
    R = 0.75 * cap
    box = HPolytope(tuple(Halfspace(a, R) for a in ([1.0, 0.0], [-1.0, 0.0],
                                                    [0.0, 1.0], [0.0, -1.0])))
    res = coverage_exact_convex([0.5 * R, 0.1 * R], box, cap, tol)
    assert res.kind == "bounded" and R - tol <= res.radius <= R


def test_small_cap_or_large_tol_is_no_silent_zero():
    linear, fig3 = load_builtin("linear.json"), load_builtin("fig3.json")
    res = coverage_at(linear, [0.0, 5.0], cap=1e-9, tol=1e-12)
    assert res.kind == "exceeds_cap" and res.method == "exact"
    with pytest.raises(ValueError):  # the default tol, 5.7e-5, is above that cap
        coverage_at(linear, [0.0, 5.0], cap=1e-9)
    res = coverage_at(fig3, [5.0, 0.0], tol=100.0)
    assert res.kind == "bounded" and res.radius == pytest.approx(1.0)


def test_point_just_inside_a_facet_is_not_zero():
    # zero is reserved for points on a facet; 1e-9 inside, the ball around
    # the point itself already holds
    res = coverage_exact_convex([0.5, 1e-9], unit_box(), cap=100.0, tol=1e-6)
    assert res.kind == "bounded" and abs(res.radius - 0.5) < 1e-6
    assert coverage_exact_convex([0.5, 0.0], unit_box(), cap=100.0,
                                 tol=1e-6).kind == "zero"


def _halfspace_pair(n: int) -> Classifier:
    e2 = np.zeros(n)
    e2[1] = 1.0
    return Classifier(n, {"U": Halfspace(-e2, 0.0, False), "D": Halfspace(e2, 0.0)})


@pytest.mark.parametrize("n", [2, 5])
def test_an_upper_end_without_proof_is_no_exact_answer(n):
    # U = {x2 > 0} holds an open halfspace, so its coverage is unbounded.
    # Near its boundary the cap probe's distance lies within rounding of
    # the cap, which proves nothing: the answer was Bounded (exact) at
    # depths up to 5e-5 on the default box
    C = _halfspace_pair(n)
    for norm in (0.0, 1e3, 1e6):
        for depth in (1e-3, 1e-4, 5e-5, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            x = np.zeros(n)
            x[0], x[1] = norm, depth
            res = coverage_at(C, x)
            assert not (res.kind == "bounded" and res.method == "exact"), (norm, depth)
            for w in res.witnesses:
                assert w.certificate.kind == "proven" and w.ball.contains(x)
            if norm == 0.0 and depth >= 1e-6:
                assert (res.kind, res.method) == ("exceeds_cap", "exact"), depth


@pytest.mark.parametrize("height", [1e22, 1e150, 1e160])
def test_a_far_point_whose_ball_reaches_the_cap_exceeds_it(height):
    # 1e-14 ||x|| is above the cap probe's radius, so its distance reading
    # proves nothing; the ball around x, of radius x2, reaches the cap. At
    # 1e160, x.x overflows (a RuntimeWarning fails the test)
    x = [0.0, height]
    res = coverage_at(_halfspace_pair(2), x)
    assert (res.kind, res.method) == ("exceeds_cap", "exact")
    for w in res.witnesses:
        assert w.certificate.kind == "proven" and w.ball.contains(x)


def test_the_zero_rule_reads_the_rounding_margin_only():
    # the zero band is the probe margin 1e-14 (1 + |b| + ||x||): above it
    # x lies strictly inside U = {x2 > 0}; within it the answer stays Zero
    C = _halfspace_pair(2)
    res = coverage_at(C, [1e6, 1e-6])
    assert (res.kind, res.method) == ("exceeds_cap", "exact")
    assert coverage_at(C, [1e3, 1e-9]).kind != "zero"
    for x in ([1e6, 1e-8], [1e3, 1e-11]):
        res = coverage_at(C, x)
        assert (res.kind, res.method) == ("zero", "exact"), x


@pytest.mark.parametrize("region, x", [
    (Halfspace([0.0, -1.0], 0.0, False), [0.0, 1.0]),  # unbounded coverage
    (unit_box(), [0.5, 0.5]),  # coverage 0.5
], ids=["halfspace", "box"])
def test_a_cap_probe_without_an_answer_gives_a_lower_bound(monkeypatch, region, x):
    # the cap probe's least-distance program finds neither a point nor a
    # Farkas vector that checks out; later probes answer as usual
    solve, calls = geometry._nnls, []

    def first_fails(E, f):
        calls.append(1)
        return np.zeros(E.shape[1]) if len(calls) == 1 else solve(E, f)

    monkeypatch.setattr(geometry, "_nnls", first_fails)
    assert geometry.least_distance(np.array([[1.0, 0.0]]), np.array([-1.0])) == (None, None)
    calls.clear()
    res = coverage_exact_convex(x, region, cap=100.0, tol=1e-6)
    assert (res.kind, res.method) == ("bounded", "lower_bound")
    assert res.radius == res.witness.ball.radius
    assert res.witness.certificate.kind == "proven" and res.witness.ball.contains(x)
    assert res.radius >= 0.5 - 1e-6


def test_radius_within_tol_where_distance_runs_flat():
    # fig3's box [-7, 20] x [1, 20] at the grid point (20/19, 20/19): the best
    # ball is tangent to the left and bottom facets with x on its boundary,
    # where dist(x, P_r) - r has a shallow slope; a bisection margin of
    # tol/2 left this answer 5 tol short
    P = HPolytope((Halfspace([-1.0, 0.0], 7.0), Halfspace([1.0, 0.0], 20.0),
                   Halfspace([0.0, -1.0], -1.0, False), Halfspace([0.0, 1.0], 20.0)))
    x = np.array([20.0 / 19.0, 20.0 / 19.0])
    # center (r - 7, r + 1) within r of x while r^2 - 2 p r + q < 0
    p, q = x[0] + 7.0 + x[1] - 1.0, (x[0] + 7.0) ** 2 + (x[1] - 1.0) ** 2
    exact = p + np.sqrt(p * p - q)  # the larger root; below 19/2
    tol = 1e-6 * np.sqrt(2.0) * 40.0
    res = coverage_exact_convex(x, P, cap=1e6, tol=tol)
    assert abs(res.radius - exact) <= tol
    assert res.witness.certificate.kind == "proven"


def test_farkas_bound_lands_on_the_inradius(monkeypatch):
    # at a box's center the cap probe's empty body proves every radius above
    # the inradius infeasible, and the ball around the point reaches it
    calls = []
    project = engine.project_onto_polytope

    def counted(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(engine, "project_onto_polytope", counted)
    res = coverage_exact_convex([0.5, 0.5], unit_box(), cap=100.0, tol=1e-9)
    assert res.kind == "bounded" and res.radius == 0.5
    assert len(calls) == 1


def _ldp_calls(monkeypatch) -> list:
    calls = []
    solve = geometry.least_distance
    monkeypatch.setattr(geometry, "least_distance",
                        lambda A, h: calls.append(1) or solve(A, h))
    return calls


def _triangle() -> HPolytope:
    # equilateral, inradius 1 around the origin, a vertex at (-2, 0)
    return HPolytope(tuple(Halfspace([np.cos(t), np.sin(t)], 1.0)
                           for t in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)))


@pytest.mark.parametrize("region, x, exact", [
    (HPolytope((Halfspace([0.0, -1.0], 1.0), Halfspace([0.0, 1.0], 3.0))), [0.3, 0.2], 2.0),
    (_triangle(), [0.2, -0.1], 1.0),  # inside the inscribed ball
], ids=["slab", "simplex"])
def test_probe_under_the_farkas_bound_closes_the_bracket(monkeypatch, region, x, exact):
    # the cap probe's Farkas bound is the answer, so the probe just under it
    # is feasible; bisection took 22 and 20 least-distance solves
    calls = _ldp_calls(monkeypatch)
    res = coverage_exact_convex(x, region, cap=1e6, tol=1e-6)
    assert res.kind == "bounded" and abs(res.radius - exact) <= 1e-6
    assert len(calls) <= 3


@pytest.mark.parametrize("region, x, exact, max_calls", [
    (_triangle(), [-1.5, 0.0], 0.5, 8),  # near a vertex: the ball centred on its bisector
    (HPolytope((Halfspace([1.0, -1.0], 0.0), Halfspace([-1.0, -1.0], 0.0))),
     [0.0, 0.5], 0.5 * (1.0 + np.sqrt(2.0)), 12),  # the cone y >= |x|: no Farkas bound
], ids=["simplex_vertex", "cone"])
def test_probe_at_most_doubles_bisection_where_distance_limits(monkeypatch, region, x,
                                                                exact, max_calls):
    # the answer is where the shrunk body, though nonempty, gets too far from
    # x; bisection took 22 and 42 least-distance solves, and Newton bounds
    # from the right take a few (on the cone dist(x, P_r) - r is affine)
    calls = _ldp_calls(monkeypatch)
    res = coverage_exact_convex(x, region, cap=1e6, tol=1e-6)
    assert res.kind == "bounded" and abs(res.radius - exact) <= 1e-6
    assert res.witness.certificate.kind == "proven"
    assert len(calls) <= max_calls


def test_fig3_component_queries_take_few_solves(monkeypatch):
    # budget 0 leaves the exact component floors alone; the distance-limited
    # ones took 20-22 least-distance solves each before the Newton bound
    C = load_builtin("fig3.json")
    calls, per_query = _ldp_calls(monkeypatch), []
    exact = engine.coverage_exact_convex

    def counted(*args, **kwargs):
        before = len(calls)
        res = exact(*args, **kwargs)
        per_query.append(len(calls) - before)
        return res

    monkeypatch.setattr(engine, "coverage_exact_convex", counted)
    compute_field(C, grid_points(C.domain_box, (20, 20)), budget=0)
    assert len(per_query) == 400
    assert max(per_query) <= 8 and np.mean(per_query) <= 4


def test_points_in_the_cached_ball_take_no_solve(monkeypatch):
    # the bracket of fig3's M boxes is tight to 1e-9, relative, so a point
    # of its inscribed ball needs no solve; elsewhere the probe under the
    # bracket's hi replaces the cap probe, whose body was always empty
    C = load_builtin("fig3.json")
    cap, tol = engine.default_cap(C), engine.default_tol(C)
    boxes = C.labels["M"].polytopes
    brackets = [P.inradius_bracket for P in boxes]
    calls, inside, solves = _ldp_calls(monkeypatch), 0, []
    for x in grid_points(C.domain_box, (20, 20)):
        for P, (lo, hi, center) in zip(boxes, brackets):
            if not P.contains(x):
                continue
            before = len(calls)
            res = coverage_exact_convex(x, P, cap, tol, bracket=(lo, hi, center))
            solves.append(len(calls) - before)
            assert res.method == "exact"
            if res.kind == "zero":  # on the box's closed facet
                continue
            assert res.witness.certificate.kind == "proven"
            if Ball(center, lo).contains(x):
                inside += 1
                assert solves[-1] == 0 and res.witness.ball.radius == lo
    # 77 points lie in a cached ball; 104 take no solve, against 0 without
    # the bracket, and 2.38 solves each became 0.81
    assert len(solves) == 225 and inside >= 70
    assert solves.count(0) >= 100 and np.mean(solves) <= 1.0


def test_without_a_bracket_the_search_keeps_its_solves(monkeypatch):
    # the least-distance solves of the search without a bracket, counted
    # before the bracket existed: fig3's M points and 100 verify-style cases
    C = load_builtin("fig3.json")
    cap, tol = engine.default_cap(C), engine.default_tol(C)
    calls = _ldp_calls(monkeypatch)
    for x in grid_points(C.domain_box, (20, 20)):
        for P in C.labels["M"].polytopes:
            if P.contains(x):
                coverage_exact_convex(x, P, cap, tol)
    assert len(calls) == FIG3_M_SOLVES
    calls.clear()
    rng = np.random.default_rng(0)
    for i in range(100):
        P, x0, B = random_polytope_case(rng, 2 + i % 2)
        coverage_exact_convex(x0, P, cap=100.0 * B, tol=1e-6 * B)
    assert len(calls) == CASE_SOLVES


def test_a_cached_ball_past_the_cap_nests_the_witnesses_in_it(monkeypatch):
    # x's own facet distance (20) is under the cap, but the inscribed ball
    # B((50, 50), 50) holds x and passes it: ExceedsCap with no solve, and
    # every witness nested in that ball
    P = _box([0.0, 0.0], [100.0, 100.0])
    lo, hi, center = P.inradius_bracket
    calls = _ldp_calls(monkeypatch)
    res = coverage_exact_convex([20.0, 20.0], P, cap=30.0, tol=1e-3, bracket=(lo, hi, center))
    assert res.kind == "exceeds_cap" and res.method == "exact" and not calls
    for a in res.witnesses:
        assert a.certificate.kind == "proven" and a.ball.contains([20.0, 20.0])
        gap = np.linalg.norm(a.ball.center - center) + a.ball.radius
        assert gap <= lo * (1 + 1e-12)
    plain = coverage_exact_convex([20.0, 20.0], P, cap=30.0, tol=1e-3)
    assert plain.kind == "exceeds_cap" and len(calls) == 1


def test_newton_bounds_are_sound(monkeypatch):
    # every radius between a Newton bound and the probe that gave it is
    # infeasible, so the bound never cuts off the answer
    feasible_center, bounds = engine._feasible_center, []

    def recorded(x, P, r):
        out = feasible_center(x, P, r)
        if out[0] is None and not out[2] and out[1] < r:
            bounds.append((x, P, r, out[1]))
        return out

    monkeypatch.setattr(engine, "_feasible_center", recorded)
    rng = np.random.default_rng(5)
    for i in range(200):
        P, x0, B = random_polytope_case(rng, 2 + i % 2)
        coverage_exact_convex(x0, P, cap=100.0 * B, tol=1e-6 * B)
    assert len(bounds) >= 100
    for x, P, r, beta in bounds:
        for t in (1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            assert feasible_center(x, P, beta + t * (r - beta))[0] is None


def test_exact_results_share_one_read_only_detail():
    a = coverage_exact_convex([0.5, 0.5], unit_box(), cap=100.0, tol=1e-6)
    b = coverage_exact_convex([0.2, 0.7], unit_box(), cap=100.0, tol=1e-6)
    assert a.detail is b.detail and not a.detail
    with pytest.raises(TypeError):
        a.detail["samples_spent"] = 1
    sampled = coverage_sampled(load_builtin("fig1.json"), [3.0, 0.5], budget=2_000)
    with pytest.raises(TypeError):
        sampled.detail["samples_spent"] = 0


@pytest.mark.parametrize("scale, wrap", [(1.0, False), (2.7, False), (0.4, True)])
def test_halfspace_pair_exceeds_default_cap(scale, wrap):
    # probes at r ~ cap = 5.7e7 must see depths of order 1 through rounding
    a = scale * np.array([0.6, -0.8])
    lo, hi = Halfspace(a, 3.0 * scale, False), Halfspace(-a, -3.0 * scale, True)
    if wrap:
        lo, hi = HPolytope((lo,)), HPolytope((hi,))
    C = Classifier(dimension=2, labels={"P": lo, "Q": hi})
    rng = np.random.default_rng(3)
    for x in rng.uniform(-20.0, 20.0, (10, 2)):
        if abs(float(a @ x) / scale - 3.0) < 1e-3:
            continue
        res = coverage_at(C, x)
        assert res.kind == "exceeds_cap" and res.method == "exact"
        assert all(w.certificate.kind == "proven" for w in res.witnesses)


def test_shrink_toward_keeps_point_and_nesting():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.uniform(-5, 5, 3)
        c = x + rng.standard_normal(3)
        r_big = float(np.linalg.norm(c - x)) + float(rng.uniform(0.1, 2.0))
        r_small = float(rng.uniform(0.05, 0.95)) * r_big
        c_small = shrink_toward(x, c, r_small, r_big)
        assert np.linalg.norm(c_small - x) < r_small  # still contains x
        # nested: B(c_small, r_small) inside B(c, r_big)
        assert np.linalg.norm(c_small - c) + r_small <= r_big + 1e-9


def test_nested_region_monotonicity():
    # shrinking the region can only shrink the coverage
    x = [0.5, 0.5]
    outer = coverage_exact_convex(x, unit_box(), cap=100.0, tol=1e-7)
    pulled = HPolytope(tuple(Halfspace(h.a, h.b - 0.2 * h.norm)
                             for h in unit_box().halfspaces[:2]) +
                       unit_box().halfspaces[2:])
    inner = coverage_exact_convex(x, pulled, cap=100.0, tol=1e-7)
    assert inner.order_key() <= outer.order_key()


# --- frozen figure values ---------------------------------------------------

def test_fig3_frozen_coverage_values():
    C = load_builtin("fig3.json")
    r1 = coverage_at(C, [5.0, 0.0], budget=20_000, seed=0)
    r2 = coverage_at(C, [-15.0, 10.0], budget=20_000, seed=0)
    assert r1.kind == "bounded" and abs(r1.radius - 1.0) < 1e-3
    assert r2.kind == "bounded" and abs(r2.radius - 6.5) < 1e-3
    assert r1.radius < r2.radius


def test_fig3_refinement_free_queries_have_witnesses():
    C = load_builtin("fig3.json")
    res = coverage_at(C, [5.0, 0.0], budget=20_000, seed=0)
    w = res.witness
    assert w is not None
    assert w.ball.contains([5.0, 0.0])
    assert certify_anchor(C, w, m=20_000, seed=1).ok


# --- sampled route ----------------------------------------------------------

def test_unevaluable_samples_do_not_escape_the_query():
    # exp overflows far out along x1: certifications that sample there
    # fail instead of raising, and the query and the field still answer
    C = Classifier(dimension=2, labels={"P": analytic("exp(x1) > 1", 2),
                                        "N": analytic("exp(x1) <= 1", 2)})
    res = coverage_at(C, [3.0, 0.0], budget=100_000)
    assert res.kind in ("bounded", "exceeds_cap") and res.method == "lower_bound"
    F = compute_field(C, np.array([[3.0, 0.0], [-3.0, 1.0]]), budget=100_000)
    assert len(F.results) == 2 and not F.skipped


def test_route_detail_says_whether_the_straddle_search_ran():
    fig3 = load_builtin("fig3.json")
    searched = coverage_at(fig3, [5.0, 0.0], budget=5_000, seed=0)
    assert searched.detail["samples_spent"] > 0
    assert searched.detail["component_floor"] == searched.radius  # floor kept
    assert "component_floor" not in coverage_at(fig3, [5.0, 0.0], budget=0).detail
    # a component exceeds the cap: the floor is the answer, no search runs
    U = UnionOfPolytopes((HPolytope((Halfspace([1.0, 0.0], 0.0, False),)),
                          HPolytope((Halfspace([0.0, 1.0], 0.0, False),))))
    V = HPolytope((Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, -1.0], 0.0)))
    C = Classifier(dimension=2, labels={"U": U, "V": V})
    res = coverage_at(C, [-5.0, 5.0], cap=100.0, budget=5_000, seed=0)
    assert res.kind == "exceeds_cap" and "component_floor" not in res.detail
    analytic_res = coverage_at(load_builtin("fig1.json"), [3.0, 0.5], budget=2_000)
    assert analytic_res.detail["samples_spent"] > 0
    assert "component_floor" not in analytic_res.detail


@pytest.mark.parametrize("spec, point", [("fig1.json", [3.0, 0.5]),
                                         ("fig3.json", [5.0, 0.0])])
def test_sampled_query_resolves_its_label_once(monkeypatch, spec, point):
    calls = []
    real = engine.label_of
    monkeypatch.setattr(engine, "label_of",
                        lambda C, x: calls.append(1) or real(C, x))
    coverage_at(load_builtin(spec), point, budget=2_000)
    assert len(calls) == 1


def test_sampled_budget_zero_is_lower_bound_zero():
    C = load_builtin("fig1.json")
    res = coverage_sampled(C, [3.0, 0.5], budget=0, seed=0)
    assert res.kind == "zero" and res.method == "lower_bound"
    assert res.detail["samples_spent"] == 0


def test_sampled_refinement_point_raises():
    C = load_builtin("refined_linear.json")
    with pytest.raises(RefinementPoint):
        coverage_sampled(C, [0.0, 0.0], seed=0)
    with pytest.raises(RefinementPoint):
        coverage_at(C, [0.0, 0.0], seed=0)


def test_point_in_no_label_raises():
    C = Classifier(dimension=2, labels={
        "a": Halfspace([1.0, 0.0], 0.0, False),
        "b": Halfspace([-1.0, 0.0], -1.0, False),
    })
    with pytest.raises(PointNotInAnyLabel):
        coverage_at(C, [0.5, 0.0], seed=0)


def test_sampled_halfspace_label_exceeds_cap():
    C = load_builtin("refined_linear.json")
    res = coverage_sampled(C, [0.0, 1.0], cap=1e3, budget=200_000, seed=0)
    assert res.kind == "exceeds_cap" and res.method == "lower_bound"
    radii = [a.ball.radius for a in res.witnesses]
    assert len(radii) == 3
    assert all(b > a for a, b in zip(radii, radii[1:]))
    assert radii[-1] >= 1e3
    for a in res.witnesses:
        assert a.certificate.ok
        assert a.ball.contains([0.0, 1.0])


def test_sampled_growth_through_the_cap_at_the_query_point_exceeds_cap():
    # the ball centered at (9, 60) itself grows through cap 20
    res = coverage_at(load_builtin("fig1.json"), [9.0, 60.0], cap=20.0)
    assert res.kind == "exceeds_cap" and res.method == "lower_bound"


def test_sampled_growth_through_the_cap_off_the_query_point_exceeds_cap():
    C = Classifier(dimension=2, labels={
        "near": analytic("x1 < 1000000", 2),
        "far": analytic("x1 >= 1000000", 2),
    })
    res = coverage_at(C, [0.0, 0.0], cap=100.0, budget=20_000, seed=0)
    assert res.kind == "exceeds_cap" and res.method == "lower_bound"


def test_sampled_cap_witnesses_nest_in_the_incumbent():
    C = load_builtin("fig1.json")
    F = compute_field(C, (10, 10), cap=20.0)
    assert not [r.radius for r in F.results if r.kind == "bounded" and r.radius >= 20.0]
    at_cap = [(p, r) for p, r in zip(F.points, F.results) if r.kind == "exceeds_cap"]
    assert at_cap
    for p, res in at_cap:
        first, second, last = res.witnesses
        assert (first.ball.radius, second.ball.radius) == (5.0, 10.0)
        assert last.ball.radius >= 20.0 and res.witness is last
        for a in res.witnesses:
            assert a.ball.contains(p) and a.certificate.samples > 0
            gap = float(np.linalg.norm(a.ball.center - last.ball.center))
            assert gap + a.ball.radius <= last.ball.radius * (1 + 1e-12)


def test_sampled_disk_reaches_true_supremum():
    # open disk of radius 5: the region itself is the best anchor at any
    # interior point, so the true coverage is exactly 5
    C = Classifier(dimension=2, labels={
        "in": analytic("x1 * x1 + x2 * x2 < 25", 2),
        "out": analytic("x1 * x1 + x2 * x2 >= 25", 2),
    })
    for seed in (0, 1, 2):
        res = coverage_sampled(C, [1.0, 0.0], budget=20_000, seed=seed)
        assert res.kind == "bounded"
        assert 4.75 <= res.radius <= 5.0 + 1e-6
        assert res.witness.certificate.ok


def test_sampled_fig1_sound_and_useful():
    # lower bound must stay below the frozen true value and reach a decent
    # fraction of it, even though the optimal center basin is far from x
    C = load_builtin("fig1.json")
    res = coverage_sampled(C, [9.0, 60.0], budget=100_000, seed=0)
    assert res.kind == "bounded" and res.method == "lower_bound"
    assert res.radius <= FIG1_E_AT_9_60 * 1.01
    assert res.radius >= FIG1_E_AT_9_60 * 0.6
    assert res.witness.certificate.ok


def test_sampled_never_exceeds_exact():
    C = box_vs_rest()
    exact = coverage_at(C, [0.5, 0.5], seed=0)
    assert exact.kind == "bounded" and abs(exact.radius - 0.5) < 1e-5
    sampled = coverage_sampled(C, [0.5, 0.5], budget=50_000, seed=0)
    assert sampled.kind == "bounded"
    assert sampled.radius <= exact.radius + 1e-3
    assert sampled.radius >= 0.45


def test_sampled_deterministic_per_seed():
    C = load_builtin("fig1.json")
    a = coverage_sampled(C, [-3.0, 11.0], budget=20_000, seed=5)
    b = coverage_sampled(C, [-3.0, 11.0], budget=20_000, seed=5)
    assert a.kind == b.kind and a.radius == b.radius
    assert np.array_equal(a.witness.ball.center, b.witness.ball.center)


# --- union labels -----------------------------------------------------------

def test_union_coverage_lower_bound_with_floor():
    C = load_builtin("fig3.json")
    # (-15, 10) sits in box B of label N; per-component exact value 6.5
    res = coverage_at(C, [-15.0, 10.0], budget=20_000, seed=0)
    assert res.method == "lower_bound"
    assert res.radius >= 6.5 - 1e-3


def _box(lo, hi, closed=True) -> HPolytope:
    rows = []
    for i, e in enumerate(np.eye(2)):
        rows += [Halfspace(e, hi[i], closed), Halfspace(-e, -lo[i], closed)]
    return HPolytope(tuple(rows))


def test_isolated_component_answers_point_238_exactly():
    # fig3's M boxes are 2 apart, so no ball in M holds more than 9.5; the
    # straddle search returned Bounded(9.50196) with a refuted witness at
    # this grid point (20x20 field, seed 0, so the point's own seed is 238)
    C = load_builtin("fig3.json")
    x = grid_points(C.domain_box, (20, 20))[238]
    res = coverage_at(C, x, budget=20_000, seed=238)
    assert res.kind == "bounded" and res.radius <= 9.5 + engine.default_tol(C)
    assert res.method == "exact"
    assert res.witness.certificate.kind == "proven"
    assert ball_in_region(res.witness.ball, C.labels["M"].polytopes[0], "exact").ok


@pytest.mark.parametrize("budget", [0, 20_000])
def test_isolated_components_answer_as_their_box(budget):
    C = load_builtin("fig3.json")
    boxes = C.labels["M"].polytopes
    points = grid_points(C.domain_box, (20, 20))
    F = compute_field(C, points, budget=budget)
    cap, tol = engine.default_cap(C), engine.default_tol(C)
    in_m = 0
    for x, res in zip(F.points, F.results):
        box = next((P for P in boxes if P.contains(x)), None)
        if box is None:
            continue
        in_m += 1
        ref = coverage_exact_convex(x, box, cap, tol, label="M", bracket=box.inradius_bracket)
        assert (res.kind, res.method, res.radius, res.cap) == (ref.kind, "exact",
                                                               ref.radius, ref.cap)
        assert dict(res.detail) == {}
        for a, b in zip((res.witness,) + res.witnesses, (ref.witness,) + ref.witnesses):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.ball.center, b.ball.center)
                assert a.ball.radius == b.ball.radius and a.certificate.kind == "proven"
    assert in_m == 225


@pytest.mark.parametrize("boxes", [
    (_box([0.0, 0.0], [1.0, 1.0], closed=False), _box([1.0, 0.0], [2.0, 1.0], closed=False)),
    (_box([0.0, 0.0], [1.0, 1.0]), _box([1.0, 1.0], [2.0, 2.0])),
], ids=["open_boxes_sharing_a_face", "closed_boxes_meeting_at_a_corner"])
def test_components_whose_closures_meet_keep_the_straddle_search(boxes):
    # the interiors are disjoint, but the closures meet, so a ball could
    # straddle the two components and only the search looks for one
    U = UnionOfPolytopes(boxes)
    assert U.isolated == (False, False)
    res = coverage_at(Classifier(dimension=2, labels={"U": U}), [0.5, 0.5],
                      budget=2_000, seed=0)
    assert res.method == "lower_bound" and "component_floor" in res.detail


def _corner_union() -> Classifier:
    # U = {x2 > 0} u {x2 <= 0, x1 > 5}, whose components touch, against
    # D = {x2 <= 0, x1 <= 5}
    down = Halfspace([0.0, 1.0], 0.0)
    U = UnionOfPolytopes((HPolytope((Halfspace([0.0, -1.0], 0.0, False),)),
                          HPolytope((down, Halfspace([-1.0, 0.0], -5.0, False)))))
    assert U.isolated == (False, False)
    D = HPolytope((down, Halfspace([1.0, 0.0], 5.0)))
    return Classifier(dimension=2, labels={"U": U, "D": D})


def test_isolated_component_exceeding_the_cap_is_exact():
    # a component's ball through the cap lies in the label, whether or not
    # the component touches another
    U = UnionOfPolytopes((HPolytope((Halfspace([1.0, 0.0], 0.0, False),)),
                          HPolytope((Halfspace([-1.0, 0.0], -1.0, False),))))
    assert U.isolated == (True, True)
    cases = [(Classifier(dimension=2, labels={"U": U}), [-5.0, 5.0], 100.0),
             (_corner_union(), [0.0, 3.0], None)]
    for C, x, cap in cases:
        for budget in (0, 2_000):
            res = coverage_at(C, x, cap=cap, budget=budget, seed=0)
            assert res.kind == "exceeds_cap" and res.method == "exact"
            assert all(a.certificate.kind == "proven" and a.ball.contains(x)
                       for a in res.witnesses)
            assert dict(res.detail) == {}


def _far_isolated_union():
    """U = {a.p <= b} u {a.p >= b + 1000}, whose closures are disjoint,
    against the slab V between them, and a far point x on U's closed
    facet: b = a.x as membership sums it. The facet's unit row reads x
    7e-11 outside, which an absolute 1e-12 closure test took for a point
    off the component."""
    a = [-5.886684071327974, -1.9363001412680765]
    x = [-252207.61254591608, 1184213.7322787463]
    b = a[0] * x[0] + a[1] * x[1]
    minus_a = [-v for v in a]
    U = UnionOfPolytopes((HPolytope((Halfspace(a, b),)),
                          HPolytope((Halfspace(minus_a, -b - 1000.0),))))
    assert U.isolated == (True, True)
    V = HPolytope((Halfspace(a, b + 1000.0, False), Halfspace(minus_a, -b, False)))
    return Classifier(dimension=2, labels={"U": U, "V": V}), x


@pytest.mark.parametrize("budget", [0, 2_000])
def test_a_far_member_on_an_isolated_component_s_facet_is_exact_zero(budget):
    # x is U's boundary point, and its component is isolated: Zero, exact,
    # with no straddle search (it answered Zero, lower_bound)
    C, x = _far_isolated_union()
    assert C.labels["U"].polytopes[0].closure_contains(x)
    res = coverage_at(C, x, budget=budget, seed=0)
    assert (res.kind, res.method) == ("zero", "exact")
    assert dict(res.detail) == {}


def _bracket_solves(monkeypatch, calls: list) -> list:
    """The solves of each inradius bracket computed from here on, one entry
    per bracket."""
    solves, bracket = [], HPolytope.inradius_bracket.func

    def counted(P):
        before = len(calls)
        out = bracket(P)
        solves.append(len(calls) - before)
        return out

    prop = functools.cached_property(counted)
    prop.__set_name__(HPolytope, "inradius_bracket")
    monkeypatch.setattr(HPolytope, "inradius_bracket", prop)
    return solves


def test_isolation_is_read_once_per_union(monkeypatch):
    # fig3 has one pair of M components and six pairs of N components; the
    # pair checks run at each union's first query, not at every query; each
    # component's bracket is solved apart from them, once, at the first
    # query its closure holds (no grid point lies in N's central box)
    C = load_builtin("fig3.json")
    calls, in_exact = _ldp_calls(monkeypatch), []
    in_bracket = _bracket_solves(monkeypatch, calls)
    exact = engine.coverage_exact_convex

    def counted(*args, **kwargs):
        before = len(calls)
        res = exact(*args, **kwargs)
        in_exact.append(len(calls) - before)
        return res

    monkeypatch.setattr(engine, "coverage_exact_convex", counted)
    points = grid_points(C.domain_box, (20, 20))
    for _ in range(2):
        compute_field(C, points, budget=0)
    assert len(calls) - sum(in_exact) - sum(in_bracket) == 7
    assert len(in_bracket) == 5 and set(in_bracket) <= {2, 3}


# --- anchor certification ---------------------------------------------------

def test_a_halfspace_label_answers_as_its_one_row_polytope(monkeypatch):
    # L = {x1 < -1} as a Halfspace and as a one-row HPolytope, beside a slab
    h = Halfspace([1.0, 0.0], -1.0, False)
    slab = HPolytope((Halfspace([-1.0, 0.0], 1.0), Halfspace([1.0, 0.0], 1.0)))
    right = Halfspace([-1.0, 0.0], -1.0, False)
    C1 = Classifier(dimension=2, labels={"L": h, "S": slab, "R": right})
    C2 = Classifier(dimension=2, labels={"L": HPolytope((h,)), "S": slab, "R": right})
    calls = []
    exact = engine.coverage_exact_convex

    def recorded(x, region, *args, **kwargs):
        calls.append((region, kwargs.get("bracket")))
        return exact(x, region, *args, **kwargs)

    monkeypatch.setattr(engine, "coverage_exact_convex", recorded)
    kinds = []
    for x, cap in (([-3.0, 0.5], 10.0), ([-1.5, 7.0], 0.25), ([-1.0 - 1e-15, 2.0], 10.0),
                   ([-4e6, -3.0], 1e3)):
        calls.clear()
        r1 = coverage_at(C1, x, cap=cap, tol=1e-6)
        # the Halfspace label passes its cached form, and the form's bracket
        assert calls == [(geometry.exact_form(h), (0.0, float("inf"), None))]
        r2 = coverage_at(C2, x, cap=cap, tol=1e-6)
        kinds.append(r1.kind)
        assert (r1.kind, r1.method, r1.radius) == (r2.kind, r2.method, r2.radius)
        assert len(r1.witnesses) == len(r2.witnesses)
        for a1, a2 in zip(r1.witnesses, r2.witnesses):
            assert a1.ball.radius == a2.ball.radius
            assert np.array_equal(a1.ball.center, a2.ball.center)
            assert certify_anchor(C1, a1) == certify_anchor(C2, a2) == geometry.PROVEN
    assert kinds == ["exceeds_cap", "exceeds_cap", "zero", "exceeds_cap"]
    bad = Anchor(Ball([-1.5, 0.0], 1.0), [-1.5, 0.0], "L", geometry.PROVEN)
    c1, c2 = certify_anchor(C1, bad), certify_anchor(C2, bad)
    assert c1.kind == c2.kind == "refuted" and np.array_equal(c1.witness, c2.witness)


def test_certify_anchor_exact_proven_and_refuted():
    C = Classifier(dimension=2, labels={
        "neg": Halfspace([0.0, 1.0], 0.0, False),
        "pos": Halfspace([0.0, -1.0], 0.0, True),
    })
    region = C.labels["neg"]
    good = Anchor(Ball([0.0, -2.0], 1.5), [0.0, -1.0], "neg",
                  ball_in_region(Ball([0.0, -2.0], 1.5), region, "exact"))
    assert certify_anchor(C, good).kind == "proven"
    bad = Anchor(Ball([0.0, -1.0], 1.5), [0.0, -1.5], "neg",
                 ball_in_region(Ball([0.0, -1.0], 1.5), region, "exact"))
    cert = certify_anchor(C, bad)
    assert cert.kind == "refuted"
    assert not region.contains(cert.witness)


@pytest.mark.parametrize("radius, excess", [(5e7, 0.04), (1e9, 0.9)])
def test_certify_anchor_refutes_a_far_ball_that_leaves_the_label(radius, excess):
    # the ball reaches x2 = -excess, outside U = {x2 > 0}
    C = _halfspace_pair(2)
    ball = Ball([0.0, radius - excess], radius)
    anchor = Anchor(ball, ball.center, "U", geometry.PROVEN)
    cert = certify_anchor(C, anchor)
    assert cert.kind == "refuted"
    assert ball.contains(cert.witness) and not C.labels["U"].contains(cert.witness)
    tangent = Ball([0.0, radius], radius)
    assert certify_anchor(C, Anchor(tangent, tangent.center, "U",
                                    geometry.PROVEN)).kind == "proven"


def test_certify_anchor_sampled_on_curved_region():
    C = load_builtin("fig1.json")
    region_d = C.labels["D"]
    ball = Ball([3.0, 0.0], 1.0)
    a = Anchor(ball, [3.0, 0.5], "D", ball_in_region(ball, region_d, ("sampled", 100, 0)))
    cert = certify_anchor(C, a, m=10_000, seed=0)
    assert cert.kind == "unfalsified"
    assert cert.samples == 10_000

    crossing = Ball([0.5, 0.5], 0.6)
    b = Anchor(crossing, [0.5, 0.8], "E",
               ball_in_region(crossing, C.labels["E"], ("sampled", 100, 0)))
    cert = certify_anchor(C, b, m=10_000, seed=0)
    assert cert.kind == "refuted"
    assert not C.labels["E"].contains(cert.witness)


def test_sampled_checks_need_a_sample():
    C = load_builtin("fig1.json")
    crossing = Ball([0.5, 0.5], 0.6)
    a = Anchor(crossing, [0.5, 0.8], "E",
               ball_in_region(crossing, C.labels["E"], ("sampled", 100, 0)))
    assert certify_anchor(C, a, m=20_000, seed=0).kind == "refuted"
    for m in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            certify_anchor(C, a, m=m, seed=0)


def test_negative_budget_raises():
    for spec, point in (("fig1.json", [9.0, 60.0]), ("fig3.json", [5.0, 0.0])):
        with pytest.raises(ValueError, match="budget"):
            coverage_at(load_builtin(spec), point, budget=-5)


def test_certify_anchor_unknown_label():
    C = load_builtin("fig1.json")
    ball = Ball([3.0, 0.0], 1.0)
    a = Anchor(ball, [3.0, 0.5], "Z",
               ball_in_region(ball, C.labels["D"], ("sampled", 100, 0)))
    with pytest.raises(KeyError):
        certify_anchor(C, a)


# --- downward closure on the engine level -----------------------------------

def test_downward_closure_of_witnesses():
    rng = np.random.default_rng(11)
    P = unit_box()
    res = coverage_exact_convex([0.4, 0.6], P, cap=100.0, tol=1e-7)
    w = res.witness
    for frac in rng.uniform(0.1, 0.9, 20):
        r_small = float(frac) * w.ball.radius
        c_small = shrink_toward(np.array([0.4, 0.6]), w.ball.center,
                                r_small, w.ball.radius)
        shrunk = Ball(c_small, r_small)
        assert shrunk.contains([0.4, 0.6])
        assert ball_in_region(shrunk, P, "exact").ok
