"""Unit tests for structural analysis: boundary refinement, direction
estimation, halfspace certificates, structure verdicts, negligibility and
generalized-binary-linear recognition."""

import math
import time

import numpy as np
import pytest

from coverage_lab import structure
from coverage_lab.data import load_builtin
from coverage_lab.engine import Anchor, coverage_at
from coverage_lab.errors import (AmbiguousLabel, DegenerateSequence, EvalError,
                                 NoLabel, RefinementPoint, UnsupportedRegion)
from coverage_lab.geometry import (Ball, Halfspace, HPolytope, Hyperplane,
                                   ball_in_region)
from coverage_lab.model import (REFINEMENT, Classifier, UnionOfPolytopes,
                                analytic, label_of, labels_of, sample_box)
from coverage_lab.structure import (_bisect_boundaries, _feature_space_probes,
                                    classify_structure,
                                    estimate_asymptotic_direction,
                                    halfspace_certificate,
                                    is_generalized_binary_linear,
                                    is_negligible_region, refine_boundary)
from coverage_lab.verify import (growth_anchor_sequence,
                                 random_quadrant_classifier,
                                 random_slab_classifier, two_quadrant_union)

SHIPPED = ("fig1.json", "fig3.json", "linear.json", "refined_linear.json",
           "generalized_linear.json", "trivial.json")


def _angle(u, v) -> float:
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return float(np.arccos(np.clip(abs(u @ v), -1.0, 1.0)))


# --- refine_boundary --------------------------------------------------------

def test_refine_binary_linear():
    C = load_builtin("linear.json")
    R = refine_boundary(C)
    assert not R.ordinary
    rng = np.random.default_rng(0)
    pts = sample_box(C.domain_box, rng, 5000)
    for p in pts:
        before = label_of(C, p)
        after = label_of(R, p)
        assert after in (before, REFINEMENT)
        if after == REFINEMENT:
            # only genuine boundary points may be absorbed
            h = C.labels["M"]
            assert abs(float(h.a @ p) - h.b) / h.norm < 1e-6


def test_refine_is_idempotent_on_refined_spec():
    C = load_builtin("refined_linear.json")
    R = refine_boundary(C)
    assert R is C  # refinement set already covers every boundary piece


@pytest.mark.parametrize("name", SHIPPED)
def test_refine_of_a_refinement_is_the_same_object(name):
    R = refine_boundary(load_builtin(name))
    assert refine_boundary(R) is R


def test_refine_keeps_one_copy_of_each_boundary_piece():
    # neighbouring labels share their boundary pieces
    def pieces(C):
        return refine_boundary(C).refinement_set.polytopes
    assert len(pieces(random_quadrant_classifier(np.random.default_rng(0)))) == 4
    assert len(pieces(load_builtin("generalized_linear.json"))) == 6
    assert len(pieces(load_builtin("fig3.json"))) == 24


def test_refine_refinement_set_is_negligible():
    for name in ("linear.json", "fig3.json"):
        R = refine_boundary(load_builtin(name))
        assert R.refinement_set is not None
        assert is_negligible_region(R.refinement_set)


def test_refine_analytic_classifier():
    C = load_builtin("fig1.json")
    R = refine_boundary(C)
    assert not R.ordinary
    rng = np.random.default_rng(1)
    pts = sample_box(C.domain_box, rng, 5000)
    for p in pts:
        assert label_of(R, p) in (label_of(C, p), REFINEMENT)
    # a point on the sine curve falls into the refinement set
    on_curve = np.array([0.0, 0.0])
    assert label_of(R, on_curve) == REFINEMENT


def test_refine_rejects_equality_and_not():
    C = Classifier(dimension=1, labels={"a": analytic("x1 == 0", 1),
                                        "b": analytic("not x1 == 0", 1)})
    with pytest.raises(UnsupportedRegion):
        refine_boundary(C)


def test_refine_rejects_mixed_label_kinds():
    C = Classifier(dimension=2, labels={
        "a": Halfspace([0.0, 1.0], 0.0, False),
        "b": analytic("x2 >= 0", 2),
    })
    with pytest.raises(UnsupportedRegion):
        refine_boundary(C)


# --- direction estimation ---------------------------------------------------

def test_direction_estimate_needs_three_increasing_anchors():
    x = np.array([0.0, -1.0])
    h = Halfspace([0.0, 1.0], 0.0, False)
    mk = lambda c, r: Anchor(Ball(c, r), x, "a", ball_in_region(Ball(c, r), h, "exact"))
    a1 = mk([0.0, -2.0], 1.5)
    a2 = mk([0.0, -4.0], 3.5)
    with pytest.raises(DegenerateSequence):
        estimate_asymptotic_direction([a1, a2], x)
    a3 = mk([0.0, -8.0], 7.5)
    bad_order = [a1, a3, a2]
    with pytest.raises(ValueError):
        estimate_asymptotic_direction(bad_order, x)


def test_direction_estimate_collinear_is_exact():
    x = np.array([1.0, -1.0])
    h = Halfspace([0.0, 1.0], 0.0, False)
    anchors = []
    for t in (2.0, 4.0, 8.0, 16.0):
        c = x + t * np.array([0.0, -1.0])
        anchors.append(Anchor(Ball(c, t + 0.5), x, "a",
                              ball_in_region(Ball(c, t + 0.5), h, "exact")))
    est = estimate_asymptotic_direction(anchors, x)
    assert _angle(est.direction, [0.0, -1.0]) < 1e-12
    assert all(a < 1e-12 for a in est.residual_angles)


def test_direction_estimate_recovers_halfspace_normal():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        h = Halfspace(a, 1.0, False)
        x = -2.0 * a  # depth 3 inside
        anchors, u = growth_anchor_sequence(h, x, rng, count=18)
        est = estimate_asymptotic_direction(anchors, x)
        assert _angle(est.direction, u) < 1e-2
        tail = est.residual_angles[-8:]
        assert all(b <= c + 1e-12 for c, b in zip(tail, tail[1:]))


def test_direction_estimate_rejects_anchor_at_query_point():
    x = np.array([0.0, -5.0])
    h = Halfspace([0.0, 1.0], 0.0, False)
    balls = [Ball(x, r) for r in (1.0, 2.0, 3.0)]
    anchors = [Anchor(b, x, "a", ball_in_region(b, h, "exact")) for b in balls]
    with pytest.raises(DegenerateSequence):
        estimate_asymptotic_direction(anchors, x)


# --- halfspace certificates -------------------------------------------------

def test_halfspace_certificate_proven_for_halfspace_label():
    C = load_builtin("linear.json")
    x = np.array([0.0, 5.0])  # inside M: 0.5*x1 - x2 < 1
    name = label_of(C, x)
    h = C.labels[name]
    inward = -h.a
    cert = halfspace_certificate(C, x, inward)
    assert cert.kind == "proven"


def test_halfspace_certificate_refuted_with_witness():
    C = load_builtin("linear.json")
    x = np.array([0.0, 5.0])
    name = label_of(C, x)
    region = C.labels[name]
    sideways = np.array([1.0, 0.5])  # not the inward normal
    cert = halfspace_certificate(C, x, sideways)
    assert cert.kind == "refuted"
    w = cert.witness
    assert float(sideways @ (w - x)) > 0  # witness lies in the tested halfspace
    assert not region.contains(w)


def test_halfspace_certificate_refuted_for_bounded_label():
    box = HPolytope(tuple(
        Halfspace(e, 1.0) for e in (np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                                    np.array([0.0, 1.0]), np.array([0.0, -1.0]))))
    C = Classifier(dimension=2, labels={
        "box": box,
        "rest": analytic("x1 < -1 or x1 > 1 or x2 < -1 or x2 > 1", 2),
    })
    cert = halfspace_certificate(C, [0.0, 0.0], [0.0, 1.0])
    assert cert.kind == "refuted"


def test_halfspace_certificate_sampled_on_analytic_label(monkeypatch):
    # analytic halfspace-shaped label: inward normal is unfalsifiable,
    # any other direction gets refuted by the far-field samples
    C = Classifier(dimension=2, labels={
        "up": analytic("x2 > 0", 2),
        "down": analytic("x2 <= 0", 2),
    })
    x = np.array([3.0, 5.0])
    tested = []
    check = structure.sampled_inside
    monkeypatch.setattr(structure, "sampled_inside", lambda region, batches: check(
        region, [tested.append(len(pts)) or pts for pts in batches]))
    cert = halfspace_certificate(C, x, [0.0, 1.0], budget=20_000, seed=0)
    assert cert.kind == "unfalsified"
    # the box points outside the halfspace are drawn but not tested
    assert cert.samples == sum(tested) < 20_000
    cert = halfspace_certificate(C, x, [1.0, 0.2], budget=20_000, seed=0)
    assert cert.kind == "refuted"

    # no halfspace at all fits inside fig1's E label: the sine boundary
    # eventually dips below any halfspace
    fig1 = load_builtin("fig1.json")
    for d in ([0.3, 1.0], [0.0, -1.0], [1.0, 1.0]):
        assert halfspace_certificate(fig1, [9.0, 60.0], d,
                                     budget=20_000, seed=0).kind == "refuted"


def test_halfspace_certificate_unevaluable_sample_refutes():
    # exp(2*x2) overflows in the far field above x: that sample cannot be
    # evaluated, so the halfspace is refuted without a witness
    C = Classifier(dimension=2, labels={"P": analytic("exp(2*x2) > 1", 2),
                                        "N": analytic("exp(2*x2) <= 1", 2)})
    cert = halfspace_certificate(C, [0.0, 5.0], [0.0, 1.0], budget=2000)
    assert cert.kind == "refuted" and cert.witness is None
    assert 0 < cert.samples < 2000 and cert.seed == 0  # the points above x2 = 5


def test_sampled_halfspace_certificate_needs_a_sample():
    C = load_builtin("fig1.json")
    for budget in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            halfspace_certificate(C, [9.0, 60.0], [0.0, 1.0], budget=budget)
    # budget 1 tests its one point in the far field, inside the halfspace,
    # where a box point could fall outside it and leave nothing tested
    C = Classifier(dimension=2, labels={"up": analytic("x2 > 0", 2),
                                        "down": analytic("x2 <= 0", 2)},
                   domain_box=np.array([[-10.0, -10.0], [10.0, 10.0]]))
    for seed in range(3):
        cert = halfspace_certificate(C, [3.0, 5.0], [1.0, 0.0], budget=1, seed=seed)
        assert cert.samples >= 1


def test_halfspace_certificate_rejects_a_direction_without_a_norm():
    # a zero direction, or one whose norm overflows, names no halfspace:
    # on a convex label and on an analytic one it raises before any check
    for spec, x in (("linear.json", [0.0, 3.0]), ("fig1.json", [9.0, 60.0])):
        C = load_builtin(spec)
        for d in ([0.0, 0.0], [1e200, 1e200]):
            with pytest.raises(ValueError, match="nonzero finite norm"):
                halfspace_certificate(C, x, d, budget=2000)
        with pytest.raises(ValueError, match="non-finite"):
            halfspace_certificate(C, x, [np.nan, 1.0], budget=2000)


def test_halfspace_certificate_refinement_point_raises():
    C = load_builtin("refined_linear.json")
    with pytest.raises(RefinementPoint):
        halfspace_certificate(C, [0.0, 0.0], [0.0, 1.0])


# --- classify_structure -----------------------------------------------------

def test_classify_refined_linear_recovers_hyperplane():
    C = load_builtin("refined_linear.json")
    v = classify_structure(C, probe_count=20, budget=20_000, seed=0)
    assert v.kind == "refined_linear"
    u, c = v.hyperplane.unit()
    assert _angle(u, [0.0, 1.0]) < 1e-3
    assert abs(c) < 1e-3 * C.diameter
    assert set(v.label_pair) == {"M", "N"}


def test_classify_trivial():
    v = classify_structure(load_builtin("trivial.json"), probe_count=8,
                           budget=5_000, seed=0)
    assert v.kind == "trivial"


def test_classify_without_a_probe_is_inconclusive():
    # the default box [-20, 20]^2 lies inside the refinement set
    C = Classifier(dimension=2, labels={"L": Halfspace([1.0, 0.0], -100.0, False),
                                        "R": Halfspace([-1.0, 0.0], -100.0, False)},
                   refinement_set=HPolytope((Halfspace([1.0, 0.0], 100.0),
                                             Halfspace([-1.0, 0.0], 100.0))))
    v = classify_structure(C, seed=0)
    assert v.kind == "inconclusive"
    assert v.reason == "no feature-space probes found"


def test_classify_not_refined_linear_bounded_witness():
    # a slab holds no open halfspace: its first probe is the witness, with
    # its exact bounded coverage
    C = random_slab_classifier(np.random.default_rng(3), k=3)
    v = classify_structure(C, probe_count=12, budget=20_000, seed=0)
    assert v.kind == "not_refined_linear" and label_of(C, v.witness) == "slab0"
    assert (v.coverage.kind, v.coverage.method) == ("bounded", "exact")
    # fig3's labels are unions, so its verdict names no witness
    v = classify_structure(load_builtin("fig3.json"), probe_count=8,
                           budget=20_000, seed=0)
    assert v.kind == "not_refined_linear"
    assert v.witness is None and v.coverage is None


def test_classify_not_refined_linear_many_labels():
    rng = np.random.default_rng(7)
    v = classify_structure(random_slab_classifier(rng, k=4), probe_count=12,
                           budget=20_000, seed=0)
    assert v.kind == "not_refined_linear"


def _bisect_boundary(C, pa, pb, la, lb):
    """Scalar reference for one segment of _bisect_boundaries: the former
    sequential bisection, one label_of per step."""
    lo, hi = 0.0, 1.0
    seg = pb - pa
    for _ in range(60):
        if hi - lo <= 1e-14:
            break
        mid = 0.5 * (lo + hi)
        p = pa + mid * seg
        try:
            name = label_of(C, p)
        except (NoLabel, AmbiguousLabel, EvalError):
            name = None
        if name == la:
            lo = mid
        elif name == lb:
            hi = mid
        elif name == REFINEMENT or name is None:
            return p, None
        else:
            return p, name
    return pa + 0.5 * (lo + hi) * seg, None


def _segments(C, rng, la, lb, count):
    pts = sample_box(C.domain_box, rng, 1000)
    names = labels_of(C, pts)
    group_a = [p for p, n in zip(pts, names) if n == la][:count]
    group_b = [p for p, n in zip(pts, names) if n == lb][:count]
    return list(zip(group_a, group_b))


def _assert_lockstep_matches_scalar(C, segments, la, lb):
    got = _bisect_boundaries(C, segments, la, lb)
    want = [_bisect_boundary(C, pa, pb, la, lb) for pa, pb in segments]
    assert len(got) == len(want)
    for (p, other), (q, other_ref) in zip(got, want):
        assert p.tobytes() == q.tobytes() and other == other_ref
    return got


def _record_bisections(monkeypatch) -> list:
    """Patches the structure module so that each _bisect_boundaries call
    appends (segments, la, lb, labels_of calls it made) to the list returned."""
    calls, seen = [0], []

    def counting_labels_of(C, X):
        calls[0] += 1
        return labels_of(C, X)

    def recording(C, segments, la, lb):
        before = calls[0]
        ends = _bisect_boundaries(C, segments, la, lb)
        seen.append((segments, la, lb, calls[0] - before))
        return ends

    monkeypatch.setattr(structure, "labels_of", counting_labels_of)
    monkeypatch.setattr(structure, "_bisect_boundaries", recording)
    return seen


def test_lockstep_bisection_matches_scalar_reference(monkeypatch):
    rng = np.random.default_rng(5)
    for i in range(24):
        n = 2 + i % 4
        a = rng.standard_normal(n)
        b = float(rng.uniform(-3, 3))
        plus, minus = Halfspace(-a, -b, False), Halfspace(a, b, True)
        if i >= 12:  # polytope labels, each with a second row far away
            plus, minus = (HPolytope((h, Halfspace(rng.standard_normal(n), 1e3)))
                           for h in (plus, minus))
        C = Classifier(dimension=n, labels={"plus": plus, "minus": minus})
        ends = _assert_lockstep_matches_scalar(C, _segments(C, rng, "plus", "minus", 9),
                                               "plus", "minus")
        assert all(other is None for _, other in ends)
    # fig1's four analytic labels: segments from E to F cross C or D
    fig1 = load_builtin("fig1.json")
    ends = _assert_lockstep_matches_scalar(fig1, _segments(fig1, rng, "E", "F", 16), "E", "F")
    assert {"C", "D"} & {other for _, other in ends}
    # union labels: fig3's boxes, and the upper half-plane as two quadrants
    for C, la, lb in ((load_builtin("fig3.json"), "M", "N"), (two_quadrant_union(), "A", "B")):
        ends = _assert_lockstep_matches_scalar(C, _segments(C, rng, la, lb, 16), la, lb)
        assert all(other is None for _, other in ends)
    # at seed 2 a midpoint of generalized_linear's fit lands exactly on the
    # ray x2 = 0, a negligible label, where that segment ends
    C = load_builtin("generalized_linear.json")
    seen = _record_bisections(monkeypatch)
    assert classify_structure(C, seed=2).kind == "refined_linear"
    (segments, la, lb, _), = seen
    ends = _assert_lockstep_matches_scalar(C, segments, la, lb)
    on_ray = [p for p, other in ends if other in ("Rplus", "Rminus")]
    assert on_ray and all(p[1] == 0.0 for p in on_ray)


def test_bisection_labels_several_levels_per_call(monkeypatch):
    # fig3 has no third label, so each segment bisects to 1e-14 in 47 steps;
    # one labels_of call per step would make 47
    seen = _record_bisections(monkeypatch)
    classify_structure(load_builtin("fig3.json"), probe_count=8, budget=20_000, seed=0)
    (_, _, _, calls), = seen
    assert calls <= math.ceil(47 / structure.LEVELS) + 1


def test_lockstep_bisection_third_label_on_a_slab():
    # segments from low to high cross the slab, and every one ends on it
    C = random_slab_classifier(np.random.default_rng(2), k=3)
    segments = _segments(C, np.random.default_rng(8), "low", "high", 8)
    ends = _assert_lockstep_matches_scalar(C, segments, "low", "high")
    assert [other for _, other in ends] == ["slab0"] * len(segments)
    # a segment inside one label runs on until it is 1e-14 wide
    segments.insert(0, (segments[0][0], segments[0][0] + 1e-9))
    ends = _assert_lockstep_matches_scalar(C, segments, "low", "high")
    assert ends[0][1] is None and ends[1][1] == "slab0"


def test_classify_thin_slab_names_the_first_segment_that_meets_it():
    # probes miss the thin middle label, so bisection meets it, and the
    # verdict's witness is the first segment's point, as one by one
    u = np.array([0.6, 0.8])
    C = Classifier(dimension=2, labels={
        "L": Halfspace(u, -1e-3, False),
        "M": HPolytope((Halfspace(-u, 1e-3, True), Halfspace(u, 1e-3, False))),
        "R": Halfspace(-u, -1e-3, True)})
    v = classify_structure(C, probe_count=12, budget=2_000, seed=4)
    assert v.kind == "not_refined_linear"
    assert v.reason == "third label 'M' on boundary segment"
    probes = _feature_space_probes(C, 12, np.random.default_rng(4))
    la, lb = dict.fromkeys(n for _, n in probes)
    group_a = [p for p, n in probes if n == la]
    group_b = [p for p, n in probes if n == lb]
    p, other = _bisect_boundary(C, group_a[0], group_b[0], la, lb)
    assert other == "M" and p.tobytes() == v.witness.tobytes()
    assert v.coverage is None  # L and R hold halfspaces, and M has no probe


@pytest.mark.parametrize("seed", range(10))
def test_classify_passes_a_negligible_label_met_on_a_boundary_segment(seed):
    # generalized_linear's ray labels lie on the boundary x2 = 0; a
    # bisection midpoint that lands on one is a boundary point, not a
    # third label
    v = classify_structure(load_builtin("generalized_linear.json"), seed=seed)
    assert v.kind == "refined_linear" and v.label_pair == ("M", "N")
    u, c = v.hyperplane.unit()
    assert u.tolist() == [0.0, 1.0] and c == 0.0


def test_lockstep_bisection_stops_on_refinement_and_unlabelled_points():
    base = Classifier(dimension=2, labels={"up": Halfspace([0.0, -1.0], 0.0, True),
                                           "down": Halfspace([0.0, 1.0], 0.0, False)})
    C = refine_boundary(base)
    gappy = Classifier(dimension=2, labels={"up": Halfspace([0.0, -1.0], 0.5, False),
                                            "down": Halfspace([0.0, 1.0], -0.5, False)})
    segments = [(np.array([0.0, 1.0]), np.array([0.0, -1.0])),  # first midpoint on x2 = 0
                (np.array([-3.0, 4.0]), np.array([1.0, -12.0])),  # second midpoint on it
                (np.array([2.0, 1.7]), np.array([0.5, -3.0]))]
    for clf in (C, gappy):
        ends = _assert_lockstep_matches_scalar(clf, segments, "up", "down")
        assert all(other is None for _, other in ends)
    ends = _bisect_boundaries(C, segments, "up", "down")
    assert ends[0][0].tolist() == [0.0, 0.0] and ends[1][0].tolist() == [-2.0, 0.0]
    assert label_of(C, ends[0][0]) == REFINEMENT
    # x2 = -0.5 has no label in gappy: the first segment stops there
    assert _bisect_boundaries(gappy, segments, "up", "down")[0][0].tolist() == [0.0, -0.5]


def test_classify_recovers_random_hyperplanes():
    rng = np.random.default_rng(12)
    for i in range(20):
        n = 2 + i % 4
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        b = float(rng.uniform(-3, 3))
        gap = HPolytope((Halfspace(a, b), Halfspace(-a, -b)))
        C = Classifier(dimension=n, labels={
            "plus": Halfspace(-a, -b, False),
            "minus": Halfspace(a, b, False),
        }, refinement_set=gap)
        v = classify_structure(C, probe_count=16, budget=10_000, seed=i)
        assert v.kind == "refined_linear", (i, v.kind, v.reason)
        u, c = v.hyperplane.unit()
        uref, cref = Hyperplane(a, b).unit()
        assert _angle(u, uref) < 1e-3
        assert abs(c - cref) < 1e-3 * C.diameter


def _refined_pair(rng, n):
    a = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
    b = float(rng.uniform(-5.0, 5.0) * np.linalg.norm(a))  # cuts the box
    return refine_boundary(Classifier(n, {"P": Halfspace(a, b, False),
                                          "Q": Halfspace(-a, -b, True)}))


def test_refined_linear_verdicts_list_the_positive_side_first():
    cases = []
    for name in SHIPPED:
        cases += [load_builtin(name), refine_boundary(load_builtin(name))]
    rng = np.random.default_rng(5)
    cases += [_refined_pair(rng, n) for n in (2, 3, 4, 5) for _ in range(3)]
    found = 0
    for C in cases:
        d = classify_structure(C, seed=0).to_dict()
        if d["kind"] == "refined_linear":
            u, c = np.array(d["hyperplane"]["a"]), d["hyperplane"]["b"]
            # the points at distance 1 on either side of the printed hyperplane
            assert [label_of(C, (c + s) * u) for s in (1.0, -1.0)] == d["labels"]
            found += 1
    assert found == 18


def _counting_queries(monkeypatch):
    """Patch structure.coverage_at to record the point of every query."""
    points = []

    def counted(C, x, **kw):
        points.append(np.array(x))
        return coverage_at(C, x, **kw)

    monkeypatch.setattr(structure, "coverage_at", counted)
    return points


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_classify_refined_pair_makes_no_coverage_query(monkeypatch, n):
    points = _counting_queries(monkeypatch)
    v = classify_structure(_refined_pair(np.random.default_rng(n), n), seed=n)
    assert v.kind == "refined_linear" and points == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_classify_slab_queries_only_the_middle_label(monkeypatch, n):
    points = _counting_queries(monkeypatch)
    C = random_slab_classifier(np.random.default_rng(n), n=n, k=3)
    v = classify_structure(C, seed=n)
    assert v.kind == "not_refined_linear" and v.coverage.kind == "bounded"
    assert len(points) == 1 and label_of(C, points[0]) == "slab0"
    assert points[0].tobytes() == v.witness.tobytes()


def test_classify_splits_a_pair_with_a_probe_within_the_zero_margin(monkeypatch):
    # (1, -1e-14) lies within the exact route's zero margin of A's facet,
    # where a coverage query answers zero; the rows still show that A and B
    # hold the two sides of x2 = 0, and no query is made
    C = Classifier(2, {"A": Halfspace([0.0, 1.0], 0.0, True),
                       "B": Halfspace([0.0, -1.0], 0.0, False)})
    assert coverage_at(C, [1.0, -1e-14]).kind == "zero"
    batch = np.array([[3.0, -1.0], [1.0, -1e-14], [2.0, 1.0]])
    monkeypatch.setattr(structure, "sample_box", lambda box, rng, count: batch.copy())
    points = _counting_queries(monkeypatch)
    v = classify_structure(C, probe_count=3)
    assert v.kind == "refined_linear" and v.label_pair == ("B", "A")
    assert v.hyperplane.unit()[0].tolist() == [0.0, 1.0] and points == []


def test_classify_queries_only_a_convex_label_without_a_halfspace(monkeypatch):
    # refined pairs are read from their rows with no query; a refined
    # slab's verdict queries only slab0's first probe, the one label that
    # holds no open halfspace. The first probe of a label that holds one
    # answers exact exceeds_cap, so skipping it loses no evidence
    points = _counting_queries(monkeypatch)
    kinds = set()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4, 5):
            for C in (_refined_pair(rng, n),
                      refine_boundary(random_slab_classifier(rng, n=n, k=3))):
                points.clear()
                v = classify_structure(C, seed=seed)
                kinds.add(v.kind)
                probes = _feature_space_probes(C, 30, np.random.default_rng(seed))
                firsts = {n: p for p, n in reversed(probes)}
                if v.kind == "refined_linear":
                    assert points == [] and v.coverage is None
                if "slab0" in firsts:
                    assert [p.tobytes() for p in points] == [firsts["slab0"].tobytes()]
                    assert v.witness.tobytes() == points[0].tobytes()
                    assert (v.coverage.kind, v.coverage.method) == ("bounded", "exact")
                for name in firsts.keys() - {"slab0"}:
                    res = coverage_at(C, firsts[name], cap=v.cap)
                    assert (res.kind, res.method) == ("exceeds_cap", "exact")
    assert kinds == {"refined_linear", "not_refined_linear"}


def test_classify_more_than_two_labels_names_the_third_label_s_probe(monkeypatch):
    # M holds no halfspace, so its first probe is queried, but at cap 2 it
    # exceeds the cap: the witness is then the first probe of R, the third
    # label seen, with no coverage
    e = np.array([1.0, 0.0])
    C = Classifier(2, {"L": Halfspace(e, -15.0, False),
                       "M": HPolytope((Halfspace(-e, 15.0, True), Halfspace(e, 15.0, True))),
                       "R": Halfspace(-e, -15.0, False)},
                   domain_box=[[-20.0, -20.0], [20.0, 20.0]])
    points = _counting_queries(monkeypatch)
    v = classify_structure(C, cap=2.0, seed=0)
    assert v.reason == "more than two labels observed (['M', 'L', 'R'])"
    probes = _feature_space_probes(C, 30, np.random.default_rng(0))
    assert [p.tobytes() for p in points] == [probes[0][0].tobytes()]
    assert coverage_at(C, probes[0][0], cap=2.0).kind == "exceeds_cap"
    i = next(i for i, (_, name) in enumerate(probes) if name == "R")
    assert probes[i][0].tobytes() == v.witness.tobytes() and v.coverage is None


def test_verdicts_hold_no_views_of_larger_arrays():
    # a probe, segment point or fitted normal that is a row view keeps its
    # whole array alive
    fig1 = load_builtin("fig1.json")
    v = classify_structure(fig1, probe_count=8, seed=0)
    assert v.reason == "third label 'D' on boundary segment" and v.witness.base is None
    v = classify_structure(fig1, seed=0)
    assert v.reason.startswith("more than two labels") and v.witness.base is None
    v = classify_structure(random_slab_classifier(np.random.default_rng(3), k=3), seed=0)
    assert v.coverage.kind == "bounded" and v.witness.base is None
    v = classify_structure(load_builtin("refined_linear.json"), seed=0)
    assert v.kind == "refined_linear" and v.hyperplane.a.base is None
    u, _ = structure._held_halfspace(HPolytope((Halfspace([0.0, 2.0], 1.0),)))
    assert u.base is None


# --- negligibility and generalized binary linear ----------------------------

def test_is_negligible_region():
    a = np.array([1.0, 2.0])
    line = HPolytope((Halfspace(a, 3.0), Halfspace(-a, -3.0)))
    assert is_negligible_region(line)
    assert is_negligible_region(Hyperplane(a, 3.0))
    assert not is_negligible_region(Halfspace(a, 3.0))
    slab = HPolytope((Halfspace(a, 3.0), Halfspace(-a, -2.0)))
    assert not is_negligible_region(slab)
    assert is_negligible_region(UnionOfPolytopes((line, line)))
    assert not is_negligible_region(UnionOfPolytopes((line, slab)))


@pytest.mark.parametrize("tilt", [1e-6, 1e-7, 1e-9])
def test_a_thin_wedge_is_not_negligible(tilt):
    # rows `tilt` rad apart are not anti-parallel: (-1, -tilt / 2) lies
    # strictly inside
    wedge = HPolytope((Halfspace([0.0, 1.0], 0.0), Halfspace([tilt, -1.0], 0.0)))
    assert wedge.contains([-1.0, -0.5 * tilt])
    assert not is_negligible_region(wedge)


def test_a_wedge_tilted_by_rounding_alone_is_negligible():
    assert is_negligible_region(HPolytope((Halfspace([0.0, 1.0], 0.0),
                                           Halfspace([1e-13, -1.0], 0.0))))


_EMPTY = HPolytope((Halfspace([1.0, 0.0], 0.0), Halfspace([-1.0, 0.0], -1.0)))  # x1 <= 0, x1 >= 1


def test_generalized_binary_linear_passes_an_empty_label():
    assert is_negligible_region(_EMPTY)
    assert is_negligible_region(UnionOfPolytopes((_EMPTY, _EMPTY)))
    C = Classifier(dimension=2, labels={"up": Halfspace([0.0, -1.0], 0.0, False),
                                        "down": Halfspace([0.0, 1.0], 0.0), "E": _EMPTY})
    v = is_generalized_binary_linear(C, seed=0)
    assert v.is_generalized_binary_linear, v.reason


def test_generalized_binary_linear_passes_a_zero_gap_pair_with_a_strict_row():
    # {x1 < 0, x1 >= 0} is empty, not forced into x1 = 0
    E = HPolytope((Halfspace([1.0, 0.0], 0.0, False), Halfspace([-1.0, 0.0], 0.0)))
    C = Classifier(dimension=2, labels={"up": Halfspace([0.0, -1.0], 0.0, False),
                                        "down": Halfspace([0.0, 1.0], 0.0), "E": E})
    v = is_generalized_binary_linear(C, seed=0)
    assert v.is_generalized_binary_linear, v.reason


@pytest.mark.parametrize("closed", [False, True])
def test_generalized_binary_linear_rejects_a_thin_strip_off_the_boundary(closed):
    # {-1e-10 <= x1 < 0} has a positive gap: a strict row does not make
    # it empty, and within tolerance it is forced into x1 = 0
    E = HPolytope((Halfspace([1.0, 0.0], 0.0, closed), Halfspace([-1.0, 0.0], 1e-10)))
    C = Classifier(dimension=2, labels={"up": Halfspace([0.0, -1.0], 0.0, False),
                                        "down": Halfspace([0.0, 1.0], 0.0), "E": E})
    v = is_generalized_binary_linear(C, seed=0)
    assert not v.is_generalized_binary_linear
    assert v.reason == "negligible label 'E' lies off the separating hyperplane"


@pytest.mark.parametrize("x2_first", [True, False])
def test_generalized_binary_linear_checks_every_forced_hyperplane(x2_first):
    # a line forced into x2 = 0 and x3 = 0 lies in the boundary x3 = 0,
    # whichever pair of rows comes first; one off it in both is rejected
    x1, x2, x3 = np.eye(3)
    pair = {v: [Halfspace(e, 0.0), Halfspace(-e, 0.0)] for v, e in ((1, x1), (2, x2), (3, x3))}
    split = {"P": Halfspace(x3, 0.0, False), "N": Halfspace(-x3, 0.0)}
    line = HPolytope(pair[2] + pair[3] if x2_first else pair[3] + pair[2])
    v = is_generalized_binary_linear(Classifier(3, {**split, "L": line}), seed=0)
    assert v.is_generalized_binary_linear, v.reason
    u, c = v.hyperplane.unit()
    assert np.array_equal(u, x3) and c == 0.0
    off = HPolytope(pair[1] + pair[2] if x2_first else pair[2] + pair[1])
    v = is_generalized_binary_linear(Classifier(3, {**split, "L": off}), seed=0)
    assert not v.is_generalized_binary_linear
    assert v.reason == "negligible label 'L' lies off the separating hyperplane"


def test_generalized_binary_linear_rejects_parallel_boundaries_apart():
    # {x2 < 0} and {x2 >= 1}: each holds a halfspace, one apart
    C = Classifier(dimension=2, labels={"A": Halfspace([0.0, 1.0], 0.0, False),
                                        "B": Halfspace([0.0, -1.0], -1.0)})
    v = is_generalized_binary_linear(C, seed=0)
    assert not v.is_generalized_binary_linear
    assert v.reason == "halfspace boundaries do not coincide"


def test_generalized_binary_linear_verdicts():
    assert is_generalized_binary_linear(load_builtin("linear.json"),
                                        seed=0).is_generalized_binary_linear
    v = is_generalized_binary_linear(load_builtin("generalized_linear.json"), seed=0)
    assert v.is_generalized_binary_linear
    u, c = v.hyperplane.unit()
    assert _angle(u, [0.0, 1.0]) < 1e-3
    v = is_generalized_binary_linear(load_builtin("fig3.json"), seed=0)
    assert not v.is_generalized_binary_linear
    assert v.reason


def test_generalized_binary_linear_rejects_offset_ray():
    # negligible piece living off the separating hyperplane
    up = Halfspace([0.0, -1.0], 0.0, False)      # x2 > 0
    down = Halfspace([0.0, 1.0], 0.0, False)     # x2 < 0
    line = HPolytope((Halfspace([0.0, 1.0], 0.0), Halfspace([0.0, -1.0], 0.0)))
    C = Classifier(dimension=2, labels={"up": up, "down": down, "line": line})
    # shift the negligible label off the boundary: now the partition leaks,
    # but the recognizer must reject structurally regardless
    off_line = HPolytope((Halfspace([0.0, 1.0], 1.0), Halfspace([0.0, -1.0], -1.0)))
    C_bad = Classifier(dimension=2, labels={"up": up, "down": down, "line": off_line})
    assert is_generalized_binary_linear(C, seed=0).is_generalized_binary_linear
    assert not is_generalized_binary_linear(C_bad, seed=0).is_generalized_binary_linear


def test_generalized_binary_linear_rejects_a_thin_wedge():
    # {x2 > 0, x2 > 4e-5 x1} holds no open halfspace: its rows differ, and
    # any halfspace {x2 > c} leaves the tilted row far out along x1
    wedge = HPolytope((Halfspace([0.0, -1.0], 0.0, False),
                       Halfspace([4e-5, -1.0], 0.0, False)))
    C = Classifier(dimension=2, labels={"P": wedge, "N": Halfspace([0.0, 1.0], 0.0)})
    v = is_generalized_binary_linear(C, seed=0)
    assert not v.is_generalized_binary_linear
    assert v.reason == "label 'P' admits no open-halfspace certificate"


def test_generalized_binary_linear_reads_redundant_parallel_rows_exactly():
    # x2 > 1 and x2 >= 3 together are x2 >= 3: the boundary is the lowest row
    P = HPolytope((Halfspace([0.0, -1.0], -1.0, False), Halfspace([0.0, -1.0], -3.0)))
    C = Classifier(dimension=2, labels={"P": P, "N": Halfspace([0.0, 1.0], 3.0, False)})
    v = is_generalized_binary_linear(C, seed=0)
    assert v.is_generalized_binary_linear
    u, c = v.hyperplane.unit()
    assert np.array_equal(u, [0.0, 1.0]) and c == 3.0


def test_generalized_binary_linear_one_row_polytopes_match_halfspaces():
    rng = np.random.default_rng(4)
    pairs = [tuple(load_builtin("linear.json").labels.values())]
    for n in (2, 3, 5):
        a, b = rng.standard_normal(n), float(rng.normal())
        pairs.append((Halfspace(a, b), Halfspace(-a, -b, False)))
    for up, down in pairs:
        found = []
        for pos, neg in ((up, down), (HPolytope((up,)), HPolytope((down,)))):
            C = Classifier(dimension=up.dimension, labels={"pos": pos, "neg": neg})
            v = is_generalized_binary_linear(C, seed=0)
            assert v.is_generalized_binary_linear
            found.append(v.hyperplane.unit())
        (u1, c1), (u2, c2) = found
        assert np.array_equal(u1, u2) and c1 == c2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generalized_binary_linear_estimates_a_union_label_s_halfspace(seed):
    # P = {x2 > 0} u {-1 < x2 <= 0} is a union: its boundary is fitted to
    # bisected boundary points, and its open side checked on samples
    P = UnionOfPolytopes((HPolytope((Halfspace([0.0, -1.0], 0.0, False),)),
                          HPolytope((Halfspace([0.0, -1.0], 1.0, False),
                                     Halfspace([0.0, 1.0], 0.0)))))
    C = Classifier(dimension=2, labels={"P": P, "Q": Halfspace([0.0, 1.0], -1.0)})
    v = is_generalized_binary_linear(C, seed=seed)
    assert v.is_generalized_binary_linear
    u, c = v.hyperplane.unit()
    assert float(np.linalg.norm(u - [0.0, 1.0])) <= 1e-3
    assert abs(c + 1.0) <= 0.01


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generalized_binary_linear_strip_union_reaching_a_small_cap(seed):
    # P = {-5 < x2 < 0} u {0 <= x2 < 5} holds no open halfspace: segments
    # from P to Q = {|x2| >= 5} end on both of its lines, which no one
    # hyperplane fits
    P = UnionOfPolytopes((HPolytope((Halfspace([0.0, 1.0], 0.0, False),
                                     Halfspace([0.0, -1.0], 5.0, False))),
                          HPolytope((Halfspace([0.0, -1.0], 0.0),
                                     Halfspace([0.0, 1.0], 5.0, False)))))
    Q = UnionOfPolytopes((HPolytope((Halfspace([0.0, -1.0], -5.0),)),
                          HPolytope((Halfspace([0.0, 1.0], -5.0),))))
    C = Classifier(dimension=2, labels={"P": P, "Q": Q})
    v = is_generalized_binary_linear(C, seed=seed)
    assert not v.is_generalized_binary_linear
    residual = {0: "4.82", 1: "4.54", 2: "4.74", 3: "4.83"}[seed]
    assert v.reason == f"boundary points not coplanar (residual {residual} > 5.66e-05)"


_BOX = [[-10.0, -10.0], [10.0, 10.0]]


def _orthant(signs):
    # {x3 > 0} with x1 and x2 on the given sides: x_i <= 0 closed, x_i > 0 open
    rows = [Halfspace([0.0, 0.0, -1.0], 0.0, False)]
    for i, sign in enumerate(signs):
        rows.append(Halfspace(np.eye(3)[i] * sign, 0.0, sign > 0))
    return HPolytope(tuple(rows))


_NON_CONVEX_PAIRS = {
    # the upper half-plane written as two quadrants, which touch
    "quadrants": (Classifier(2, {
        "A": UnionOfPolytopes((HPolytope((Halfspace([0.0, -1.0], 0.0, False),
                                          Halfspace([-1.0, 0.0], 0.0, False))),
                               HPolytope((Halfspace([0.0, -1.0], 0.0, False),
                                          Halfspace([1.0, 0.0], 0.0))))),
        "B": Halfspace([0.0, 1.0], 0.0)}, domain_box=_BOX), [0.0, 1.0]),
    "orthants": (Classifier(3, {
        "A": UnionOfPolytopes(tuple(_orthant(s) for s in
                                    ((1, 1), (1, -1), (-1, 1), (-1, -1)))),
        "B": Halfspace([0.0, 0.0, 1.0], 0.0)}), [0.0, 0.0, 1.0]),
    "analytic": (Classifier(2, {"P": analytic("x2 > 0", 2),
                                "N": analytic("x2 <= 0", 2)}, domain_box=_BOX),
                 [0.0, 1.0]),
    "exp": (Classifier(2, {"P": analytic("exp(x2) > 1", 2),
                           "N": analytic("exp(x2) <= 1", 2)}, domain_box=_BOX),
            [0.0, 1.0]),
    "tilted": (Classifier(3, {"P": analytic("x1 + 2*x2 - 3*x3 > 1", 3),
                              "N": analytic("x1 + 2*x2 - 3*x3 <= 1", 3)}),
               [1.0, 2.0, -3.0]),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(_NON_CONVEX_PAIRS))
def test_generalized_binary_linear_fits_a_non_convex_label_s_boundary(case, seed):
    C, normal = _NON_CONVEX_PAIRS[case]
    v = is_generalized_binary_linear(C, seed=seed)
    assert v.is_generalized_binary_linear, v.reason
    assert _angle(v.hyperplane.a, normal) <= 1e-3


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(_NON_CONVEX_PAIRS))
def test_classify_splits_a_non_convex_pair(monkeypatch, case, seed, refine):
    # the split decides from the geometry alone: no label is queried
    C, normal = _NON_CONVEX_PAIRS[case]
    C = refine_boundary(C) if refine else C
    points = _counting_queries(monkeypatch)
    v = classify_structure(C, seed=seed)
    assert v.kind == "refined_linear", v.reason
    assert _angle(v.hyperplane.a, normal) <= 1e-3
    assert points == []


def _lifted_pairs(n: int) -> dict:
    """(classifier, boundary normal or None) on [-10, 10]^n: the quadrant
    union {xn > 0} split at x1 = 0 against {xn <= 0}, an analytic pair
    tilted across every coordinate, and the wedge {xn > 0, xn > 1e-3 x1},
    which holds no halfspace, against its complement."""
    def e(i, scale=1.0):
        v = np.zeros(n)
        v[i] = scale
        return v
    box = [[-10.0] * n, [10.0] * n]
    up = Halfspace(e(n - 1, -1.0), 0.0, False)
    tilt = np.array([(1.0, 2.0, -3.0)[i % 3] for i in range(n)])
    text = " + ".join(f"{a:g}*x{i + 1}" for i, a in enumerate(tilt))
    wedge = HPolytope((up, Halfspace(e(0, 1e-3) - e(n - 1), 0.0, False)))
    rest = UnionOfPolytopes((HPolytope((Halfspace(e(n - 1), 0.0),)),
                             HPolytope((Halfspace(e(n - 1) - e(0, 1e-3), 0.0),))))
    return {
        "quadrants": (Classifier(n, {
            "A": UnionOfPolytopes((HPolytope((up, Halfspace(e(0), 0.0, False))),
                                   HPolytope((up, Halfspace(e(0, -1.0), 0.0))))),
            "B": Halfspace(e(n - 1), 0.0)}, domain_box=box), e(n - 1)),
        "tilted": (Classifier(n, {"P": analytic(f"{text} > 1", n),
                                  "N": analytic(f"{text} <= 1", n)}, domain_box=box), tilt),
        "wedge": (Classifier(n, {"W": wedge, "R": rest}, domain_box=box), None),
    }


@pytest.mark.parametrize("n", [26, 30, 40, 60])
def test_boundary_fit_is_determined_in_high_dimension(n):
    # the fit's ends span the boundary: n + 1 probes per label and segments
    # between distinct pairs of them. With 30 probes, repeated pairs left
    # the fit underdetermined, and its arbitrary normal refuted a label
    start = time.perf_counter()
    for name, (C, normal) in _lifted_pairs(n).items():
        for seed in (0, 1, 2):
            v = classify_structure(C, seed=seed)
            g = is_generalized_binary_linear(C, seed=seed)
            if normal is None:
                assert v.kind == "not_refined_linear", (name, seed)
                assert not g.is_generalized_binary_linear, (name, seed)
                continue
            assert v.kind == "refined_linear", (name, seed, v.reason)
            assert _angle(v.hyperplane.a, normal) <= 1e-3
            assert g.is_generalized_binary_linear, (name, seed, g.reason)
            assert _angle(g.hyperplane.a, normal) <= 1e-3
    assert time.perf_counter() - start < 5.0


def test_boundary_fit_in_a_thin_box_is_inconclusive():
    # the box is 2e-9 thick along x3, so no boundary points spread along
    # it, and a fitted normal would be arbitrary in the x1-x3 plane
    C = Classifier(3, {"P": analytic("x1 > 0", 3), "N": analytic("x1 <= 0", 3)},
                   domain_box=[[-10.0, -10.0, -1e-9], [10.0, 10.0, 1e-9]])
    v = classify_structure(C, seed=0)
    assert v.kind == "inconclusive"
    assert v.reason == "boundary fit underdetermined: rank 1 of 2"
    g = is_generalized_binary_linear(C, seed=0)
    assert not g.is_generalized_binary_linear
    assert g.reason == "boundary fit underdetermined: rank 1 of 2"


def test_classify_query_audit(monkeypatch):
    # the shipped specs, the non-convex pairs (each plain and refined) and
    # 15 seeded slab and quadrant classifiers, at seeds 0-2: no verdict but
    # not_refined_linear queries, and it queries at most once, at a probe
    # of a convex label that holds no halfspace; what it attaches is exact
    shipped = {"fig1.json": "not_refined_linear", "fig3.json": "not_refined_linear",
               "trivial.json": "trivial"}
    cases = [(C, (shipped.get(name, "refined_linear"),) * 3)
             for name in SHIPPED
             for C in (load_builtin(name), refine_boundary(load_builtin(name)))]
    cases += [(C, ("refined_linear",) * 3) for C0, _ in _NON_CONVEX_PAIRS.values()
              for C in (C0, refine_boundary(C0))]
    for i in range(15):
        cases += [(random_slab_classifier(np.random.default_rng(i), n=2 + i % 3),
                   ("not_refined_linear",) * 3),
                  (random_quadrant_classifier(np.random.default_rng(i)),
                   ("not_refined_linear",) * 3)]
    points = _counting_queries(monkeypatch)
    attached = 0
    for C, kinds in cases:
        for seed, kind in enumerate(kinds):
            points.clear()
            v = classify_structure(C, seed=seed)
            assert v.kind == kind
            assert len(points) <= (v.kind == "not_refined_linear")
            for p in points:
                region = C.labels[label_of(C, p)]
                assert isinstance(region, (Halfspace, HPolytope))
                assert structure._held_halfspace(region) is None
            if v.coverage is not None:
                assert v.coverage.method == "exact"
                assert v.coverage.kind in ("zero", "bounded")
                attached += 1
    assert len(cases) * 3 == 156 and attached > 80


def test_a_label_that_cannot_be_sampled_holds_no_side():
    C, _ = _NON_CONVEX_PAIRS["analytic"]
    v = is_generalized_binary_linear(C, seed=0, budget=0)
    assert not v.is_generalized_binary_linear
    assert v.reason == "label 'P' cannot be sampled at budget 0"
    v = classify_structure(C, seed=0, budget=0)
    assert v.kind == "inconclusive"  # N is the first label probed at seed 0
    assert v.reason == "label 'N' cannot be sampled at budget 0"


def test_generalized_binary_linear_answers_unprobed_labels_without_raising():
    v = is_generalized_binary_linear(load_builtin("fig1.json"), seed=0)
    assert not v.is_generalized_binary_linear
    assert v.reason == "4 full-dimensional labels, need exactly 2"
    # an analytic label that no probe lands in may be negligible or not
    C = Classifier(2, {"P": analytic("x2 > 0 and x1 <= 1e6", 2),
                       "N": analytic("x2 <= 0 and x1 <= 1e6", 2),
                       "far": analytic("x1 > 1e6", 2)}, domain_box=_BOX)
    v = is_generalized_binary_linear(C, seed=0)
    assert not v.is_generalized_binary_linear
    assert v.reason == "cannot decide negligibility of label 'far'"
    # a union label above the box has no probe to bisect from
    up = HPolytope((Halfspace([0.0, -1.0], -100.0, False),))
    C = Classifier(2, {"P": UnionOfPolytopes((up, up)),
                       "Q": Halfspace([0.0, 1.0], 100.0)}, domain_box=_BOX)
    v = is_generalized_binary_linear(C, seed=0)
    assert not v.is_generalized_binary_linear
    assert v.reason == "no probe landed in label 'P'"
    with pytest.raises(ValueError, match="budget"):
        is_generalized_binary_linear(load_builtin("linear.json"), budget=-1)


def test_generalized_binary_linear_makes_no_coverage_query(monkeypatch):
    points = _counting_queries(monkeypatch)
    for C, _ in _NON_CONVEX_PAIRS.values():
        for seed in range(3):
            is_generalized_binary_linear(C, seed=seed)
    v = is_generalized_binary_linear(load_builtin("fig3.json"), seed=0)
    assert not v.is_generalized_binary_linear and points == []


def test_generalized_binary_linear_needs_ordinary_classifier():
    with pytest.raises(ValueError):
        is_generalized_binary_linear(load_builtin("refined_linear.json"), seed=0)
