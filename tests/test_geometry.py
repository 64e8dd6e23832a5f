"""Unit tests for the geometric primitives."""

import itertools
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from coverage_lab.errors import DimensionMismatch, EmptyPolytope, ExactUnsupported
from coverage_lab.geometry import (Ball, Halfspace, HPolytope, Hyperplane,
                                   as_polytope, ball_in_region,
                                   halfspace_in_region, project_onto_polytope,
                                   sample_in_ball, sampled_inside,
                                   shrink_polytope)
from coverage_lab.model import analytic


def unit_box(n: int, closed: bool = True) -> HPolytope:
    hs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        hs.append(Halfspace(e, 1.0, closed))
        hs.append(Halfspace(-e, 0.0, closed))
    return HPolytope(tuple(hs))


# --- Ball -------------------------------------------------------------------

def test_ball_is_open():
    b = Ball([0.0, 0.0], 1.0)
    assert b.contains([0.5, 0.0])
    assert not b.contains([1.0, 0.0])  # boundary point excluded
    assert not b.contains([1.5, 0.0])


def test_ball_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Ball([0.0], -1.0)


def test_ball_rejects_an_infinite_radius():
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        Ball([0.0], np.inf)


@pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
@pytest.mark.parametrize("a,b,field", [([1.0, 0.0], np.inf, "offset b"),
                                       ([1.0, 0.0], -np.inf, "offset b"),
                                       ([1.0, 0.0], np.nan, "offset b"),
                                       ([1e200, 1e200], 0.0, "normal a"),
                                       ([0.0, 0.0], 0.0, "normal a")])
def test_halfspace_and_hyperplane_take_finite_numbers_only(cls, a, b, field):
    # a normal whose norm overflows would become a zero unit row
    with pytest.raises(ValueError, match=field):
        cls(a, b)


def test_a_sample_that_is_not_finite_refutes_without_a_witness():
    # only a cap near the float maximum draws such samples
    region = analytic("x2 > 0", 2)
    assert sampled_inside(region, [np.array([[0.0, 1.0], [0.0, np.inf]])]) == (False, None)


def test_ball_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Ball([0.0, 0.0], 1.0).contains([0.0, 0.0, 0.0])


def test_sample_in_ball_stays_inside():
    rng = np.random.default_rng(7)
    b = Ball([3.0, -2.0, 1.0], 2.5)
    for surface in (False, True):
        pts = sample_in_ball(b.center, b.radius, rng, 500, surface=surface)
        d = np.linalg.norm(pts - b.center, axis=1)
        assert np.all(d < b.radius)
        if surface:
            assert np.all(d > 0.99 * b.radius)


def _sample_in_ball_reference(center, radius, rng, m, surface=False):
    """sample_in_ball as first written, each step into a new array."""
    n = center.shape[0]
    d = rng.standard_normal((m, n))
    norms = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True))
    if not norms.all():
        norms[norms == 0.0] = 1.0
    d /= norms
    if surface:
        return center + (radius * (1.0 - 1e-9)) * d
    u = rng.random((m, 1)) ** (1.0 / n)
    return center + (radius * (1.0 - 1e-12)) * u * d


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_sample_in_ball_matches_the_reference(n):
    center = 1.0 + np.arange(n) / n
    for m, surface, seed in itertools.product((1, 2000), (False, True), (0, 1)):
        want = _sample_in_ball_reference(center, 0.75, np.random.default_rng(seed), m, surface)
        got = sample_in_ball(center, 0.75, np.random.default_rng(seed), m, surface)
        assert got.shape == (m, n)
        assert np.array_equal(got, want)


class _ZeroNormals:
    """A generator whose normal draws are all 0."""

    def standard_normal(self, shape):
        return np.zeros(shape)

    def random(self, shape):
        return np.full(shape, 0.5)


@pytest.mark.parametrize("surface", [False, True])
def test_sample_in_ball_zero_direction_gives_the_center(surface):
    center = np.array([3.0, -2.0, 1.0])
    pts = sample_in_ball(center, 2.5, _ZeroNormals(), 4, surface=surface)
    assert np.array_equal(pts, np.tile(center, (4, 1)))
    want = _sample_in_ball_reference(center, 2.5, _ZeroNormals(), 4, surface)
    assert np.array_equal(pts, want)


# --- Halfspace / Hyperplane -------------------------------------------------

def test_halfspace_open_vs_closed():
    a = np.array([1.0, 0.0])
    assert Halfspace(a, 1.0, True).contains([1.0, 5.0])
    assert not Halfspace(a, 1.0, False).contains([1.0, 5.0])
    assert Halfspace(a, 1.0, False).contains([0.999, 5.0])


def test_halfspace_contains_many_matches_scalar():
    rng = np.random.default_rng(0)
    h = Halfspace(rng.standard_normal(3), 0.7, False)
    pts = rng.uniform(-2, 2, (200, 3))
    many = h.contains_many(pts)
    assert all(many[i] == h.contains(pts[i]) for i in range(len(pts)))


def test_hyperplane_unit_canonical_sign():
    h1 = Hyperplane([0.0, 2.0], 6.0)
    h2 = Hyperplane([0.0, -1.0], -3.0)
    u1, c1 = h1.unit()
    u2, c2 = h2.unit()
    assert np.allclose(u1, u2) and abs(c1 - c2) < 1e-12


def test_hyperplane_signed_distance():
    h = Hyperplane([3.0, 0.0], 6.0)  # x1 = 2
    assert abs(h.signed_distance([5.0, 1.0]) - 3.0) < 1e-12
    assert abs(h.signed_distance([-1.0, 9.0]) + 3.0) < 1e-12


# --- HPolytope and shrinking ------------------------------------------------

def test_unit_box_membership():
    P = unit_box(2)
    assert P.contains([0.5, 0.5])
    assert P.contains([1.0, 1.0])  # closed faces
    assert not P.contains([1.1, 0.5])
    open_P = unit_box(2, closed=False)
    assert not open_P.contains([1.0, 0.5])


def test_shrink_polytope_characterizes_ball_containment():
    # B(c, r) in P iff c in shrink(P, r), over random cases
    rng = np.random.default_rng(1)
    P = unit_box(2)
    for _ in range(200):
        c = rng.uniform(-0.2, 1.2, 2)
        r = float(rng.uniform(0.05, 0.6))
        via_shrink = shrink_polytope(P, r).contains(c)
        direct = ball_in_region(Ball(c, r), P, "exact").ok
        # the exact check allows a hair of tangency slack; only demand
        # agreement away from exact tangency
        margin = min((h.b - float(h.a @ c)) / h.norm for h in P.halfspaces) - r
        if abs(margin) > 1e-7:
            assert via_shrink == direct


def test_shrink_rejects_negative_radius():
    with pytest.raises(ValueError):
        shrink_polytope(unit_box(2), -0.1)


# --- tangency convention ----------------------------------------------------

def test_tangent_ball_allowed_even_against_open_halfspace():
    # open ball tangent to the boundary has no interior point on it
    h_open = Halfspace([1.0, 0.0], 1.0, False)
    b = Ball([0.0, 0.0], 1.0)
    assert ball_in_region(b, h_open).ok
    assert not ball_in_region(Ball([0.1, 0.0], 1.0), h_open).ok


def test_ball_in_region_exact_refutation_witness():
    P = unit_box(2)
    cert = ball_in_region(Ball([0.9, 0.5], 0.5), P, "exact")
    assert cert.kind == "refuted"
    assert cert.witness is not None
    # witness lies inside the ball and outside the region
    assert np.linalg.norm(cert.witness - [0.9, 0.5]) < 0.5
    assert not P.contains(cert.witness)


def test_ball_in_region_exact_far_from_the_origin():
    # the slack reads ||c|| without forming c.c, which overflows past 1.3e154:
    # a ball that reaches x2 = -1e160 leaves {x2 > 0}
    U = Halfspace([0.0, -1.0], 0.0, False)
    for height in (1e150, 1e160):
        assert ball_in_region(Ball([0.0, height], 2 * height), U, "exact").kind == "refuted"
        assert ball_in_region(Ball([0.0, height], 0.5 * height), U, "exact").kind == "proven"


def test_ball_in_region_exact_unsupported_kind():
    class Blob:
        pass

    with pytest.raises(ExactUnsupported):
        ball_in_region(Ball([0.0], 1.0), Blob(), "exact")


def _ball_in_rows(B: Ball, hs) -> bool:
    """Per-row reference on the raw rows: a.c <= b - r*||a|| for each."""
    return all(float(h.a @ B.center) <= h.b - B.radius * float(np.linalg.norm(h.a))
               for h in hs)


def test_ball_in_region_exact_matches_per_row_reference():
    # scaled normals, open and closed rows, and one-row Halfspace labels
    rng = np.random.default_rng(11)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        hs = []
        for _ in range(m):
            a = rng.standard_normal(n) * 10 ** rng.uniform(-3, 3)
            hs.append(Halfspace(a, float(np.linalg.norm(a)) * rng.uniform(-2.0, 6.0),
                                bool(rng.integers(2))))
        region = hs[0] if m == 1 else HPolytope(hs)
        B = Ball(rng.uniform(-1.0, 1.0, n), 10 ** rng.uniform(-1, 0.5))
        margins = [(h.b - B.radius * h.norm - float(h.a @ B.center)) / h.norm for h in hs]
        if min(abs(v) for v in margins) < 1e-6:
            continue  # too close to tangency for the reference to settle it
        want = _ball_in_rows(B, hs)
        cert = ball_in_region(B, region, "exact")
        assert cert.ok == want
        verdicts[want] += 1
        if not want:  # the witness lies in the ball and outside the label
            assert B.contains(cert.witness) and not region.contains(cert.witness)
    assert min(verdicts.values()) >= 100


def test_as_polytope():
    h = Halfspace([0.0, 2.0], 4.0, False)
    P = as_polytope(h)
    assert np.allclose(P.A, [[0.0, 1.0]]) and np.allclose(P.b, [2.0])
    assert not P.closed[0] and as_polytope(P) is P
    with pytest.raises(ExactUnsupported):
        as_polytope(Ball([0.0, 0.0], 1.0))


def test_halfspace_in_region_matches_brute_force():
    # H = {p : d.(p - x) > 0} lies in the label exactly when every row is
    # anti-parallel to d and x meets it
    rng = np.random.default_rng(7)
    verdicts = {"proven": 0, "refuted": 0}
    for _ in range(600):
        n = int(rng.integers(2, 5))
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        e = rng.standard_normal(n)
        e -= (e @ d) * d
        e /= np.linalg.norm(e)
        x = rng.standard_normal(n) * 10 ** rng.uniform(-1, 3)
        hs, contained = [], True
        for _ in range(int(rng.integers(1, 4))):
            kind = int(rng.choice(6, p=[0.55, 0.15, 0.1, 0.1, 0.05, 0.05]))
            scale = 10 ** rng.uniform(-3, 3)
            a = scale * [-d, -d, rng.standard_normal(n), d, e, -d + 1e-3 * e][kind]
            # anti-parallel rows: x inside (kind 0, half the time on the
            # boundary, which H never reaches) or just outside (kind 1)
            shift = {0: rng.uniform(0.0, 2.0) * rng.integers(2),
                     1: -10 ** rng.uniform(-7.5, 0.3)}.get(kind, rng.normal())
            hs.append(Halfspace(a, float(a @ x) + shift * scale * (1.0 + np.linalg.norm(x)),
                                bool(rng.integers(2))))
            contained = contained and kind == 0
        region = hs[0] if len(hs) == 1 else HPolytope(hs)
        cert = halfspace_in_region(x, d, region)
        assert cert.kind == ("proven" if contained else "refuted")
        verdicts[cert.kind] += 1
        if not contained:  # the witness lies in H and outside the label
            w = cert.witness
            assert float(d @ (w - x)) > 0 and not region.contains(w)
    assert min(verdicts.values()) >= 100


def test_halfspace_in_region_refutes_slightly_tilted_rows():
    # H = {p : p2 > 0} escapes the row (-d + 4e-5 e1).p <= 0 far out along e1
    d, x = np.array([0.0, 1.0]), np.zeros(2)
    row = Halfspace([4e-5, -1.0], 0.0)
    cert = halfspace_in_region(x, d, row)
    assert cert.kind == "refuted"
    w = cert.witness
    assert float(d @ (w - x)) > 0 and not row.contains(w)
    exact = Halfspace([0.0, -3.0], 0.0)
    assert halfspace_in_region(x, d, exact).kind == "proven"


def test_halfspace_in_region_tilt_witnesses_hold_in_floats():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        e = rng.standard_normal(n)
        e -= (e @ d) * d
        e /= np.linalg.norm(e)
        tilt = 10 ** rng.uniform(-12, 0)
        a = (-np.cos(tilt) * d + np.sin(tilt) * e) * 10 ** rng.uniform(-2, 2)
        x = rng.standard_normal(n) * 10 ** rng.uniform(-1, 3)
        row = Halfspace(a, float(a @ x) + rng.uniform(0.0, 1.0))
        cert = halfspace_in_region(x, d, row)
        assert cert.kind == "refuted", tilt
        w = cert.witness
        assert float(d @ (w - x)) > 0 and not row.contains(w), tilt


def test_ball_in_region_sampled():
    P = unit_box(2)
    good = ball_in_region(Ball([0.5, 0.5], 0.4), P, ("sampled", 2000, 0))
    assert good.kind == "unfalsified"
    assert good.samples == 2000 and good.seed == 0
    bad = ball_in_region(Ball([0.9, 0.5], 0.5), P, ("sampled", 2000, 0))
    assert bad.kind == "refuted"
    assert not P.contains(bad.witness)


def test_sampled_inside_stops_drawing_at_the_first_failing_batch():
    P = unit_box(2)
    drawn = []

    def batches():
        for pts in ([[0.5, 0.5], [0.2, 0.7]], [[0.5, 0.5], [1.5, 0.5], [2.0, 0.5]],
                    [[0.5, 0.5]]):
            drawn.append(pts)
            yield np.array(pts)

    ok, witness = sampled_inside(P, batches())
    assert not ok and np.array_equal(witness, [1.5, 0.5])
    assert len(drawn) == 2  # the third batch is never drawn
    ok, witness = sampled_inside(P, (np.array([[0.5, 0.5]]), np.array([[0.1, 0.9]])))
    assert ok and witness is None


def test_sampled_inside_unevaluable_label_fails_without_witness():
    # exp(x1) overflows at x1 = 800, so the label cannot say whether it holds
    region = analytic("exp(x1) > 1", 2)
    assert sampled_inside(region, (np.array([[3.0, 0.0]]),)) == (True, None)
    assert sampled_inside(region, (np.array([[3.0, 0.0], [800.0, 0.0]]),)) == (False, None)


def test_sampled_inside_empty_batch_passes():
    P = unit_box(2)
    empty = np.empty((0, 2))
    assert sampled_inside(P, (empty,)) == (True, None)
    assert sampled_inside(P, ()) == (True, None)
    ok, witness = sampled_inside(P, (empty, np.array([[3.0, 0.5]])))
    assert not ok and np.array_equal(witness, [3.0, 0.5])


# --- projection -------------------------------------------------------------

def test_projection_inside_is_identity():
    P = unit_box(3)
    x = np.array([0.25, 0.5, 0.75])
    z, d = project_onto_polytope(x, P)
    assert np.allclose(z, x) and d < 1e-9


def test_projection_onto_box_clips_coordinates():
    P = unit_box(3)
    x = np.array([2.0, -1.0, 0.5])
    z, d = project_onto_polytope(x, P)
    assert np.allclose(z, [1.0, 0.0, 0.5], atol=1e-8)
    assert abs(d - np.sqrt(2.0)) < 1e-8


def test_projection_onto_corner():
    P = unit_box(2)
    z, d = project_onto_polytope(np.array([3.0, 3.0]), P)
    assert np.allclose(z, [1.0, 1.0], atol=1e-8)
    assert abs(d - np.sqrt(8.0)) < 1e-8


def test_projection_empty_polytope_raises():
    empty = HPolytope((Halfspace([1.0, 0.0], 0.0), Halfspace([-1.0, 0.0], -1.0)))
    with pytest.raises(EmptyPolytope):
        project_onto_polytope(np.array([0.5, 0.5]), empty)


def test_projection_matches_halfspace_formula_randomly():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal(n)
        b = float(rng.uniform(-2, 2))
        P = HPolytope((Halfspace(a, b),))
        x = rng.uniform(-3, 3, n)
        z, d = project_onto_polytope(x, P)
        expected = max(0.0, (float(a @ x) - b) / np.linalg.norm(a))
        assert abs(d - expected) < 1e-8
        assert P.closure_contains(z, atol=1e-8)


def test_projection_distance_is_minimal_among_samples():
    # no sampled feasible point is closer than the reported projection
    rng = np.random.default_rng(9)
    for _ in range(20):
        hs = [Halfspace(rng.standard_normal(2), float(rng.uniform(0.5, 2.0)))
              for _ in range(4)]
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            hs += [Halfspace(e, 3.0), Halfspace(-e, 3.0)]
        P = HPolytope(tuple(hs))
        x = rng.uniform(-6, 6, 2)
        try:
            z, d = project_onto_polytope(x, P)
        except EmptyPolytope:
            continue
        pts = rng.uniform(-3, 3, (4000, 2))
        feas = P.contains_many(pts)
        if feas.any():
            closest = np.min(np.linalg.norm(pts[feas] - x, axis=1))
            assert d <= closest + 1e-6


# --- least-distance solver ----------------------------------------------------

def _kkt_projection_distance(A: np.ndarray, h: np.ndarray):
    """Brute-force reference for min ||u|| subject to A u <= h (rows of A
    unit): every constraint subset S of size <= n whose KKT multipliers
    lam = -(A_S A_S^T)^-1 h_S are nonnegative and whose point u = -A_S^T lam
    is feasible. Returns the least such ||u|| with the multipliers of its
    subset, zero off it, or None when no subset qualifies, which for
    generic A means the set is empty."""
    m, n = A.shape
    eps = 1e-9 * (1.0 + float(np.max(np.abs(h))))
    if np.all(h >= 0.0):
        return 0.0, np.zeros(m)
    best = None
    for k in range(1, min(m, n) + 1):
        S = np.array(list(itertools.combinations(range(m), k)))
        A_S = A[S]                                   # (subsets, k, n)
        gram = A_S @ A_S.transpose(0, 2, 1)
        lam = np.linalg.solve(gram, -h[S][..., None])[..., 0]
        u = -(A_S.transpose(0, 2, 1) @ lam[..., None])[..., 0]
        ok = np.all(lam >= -eps, axis=1) & np.all(u @ A.T <= h + eps, axis=1)
        if ok.any():
            dist = np.linalg.norm(u, axis=1)
            i = int(np.flatnonzero(ok)[np.argmin(dist[ok])])
            if best is None or dist[i] < best[0]:
                full = np.zeros(m)
                full[S[i]] = lam[i]
                best = float(dist[i]), full
    return best


def _check_farkas(P: HPolytope, x: np.ndarray, w: np.ndarray) -> None:
    """w >= 0 with sum_i w_i a_i = 0 and (b - A x).w < 0 proves P empty."""
    assert w is not None and np.all(w >= 0.0)
    assert np.linalg.norm(P.A.T @ w) <= 1e-9 * w.sum()
    assert float((P.b - P.A @ x) @ w) < 0.0


def test_least_distance_matches_brute_force_on_random_systems():
    rng = np.random.default_rng(20191019)
    verdicts = {"empty": 0, "point": 0}
    for _ in range(320):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n + 1, 3 * n + 1))
        # normals of assorted lengths: the polytope normalises them
        normals = rng.standard_normal((m, n)) * rng.uniform(0.2, 5.0, (m, 1))
        offsets = rng.uniform(-1.0, 1.0, m) * float(rng.choice([1e-3, 1.0, 1e3]))
        P = HPolytope(tuple(Halfspace(a, b) for a, b in zip(normals, offsets)))
        x = rng.standard_normal(n)
        reference = _kkt_projection_distance(P.A, P.b - P.A @ x)
        try:
            projection = project_onto_polytope(x, P)
        except EmptyPolytope as exc:
            verdicts["empty"] += 1
            assert reference is None
            _check_farkas(P, x, exc.farkas)
            continue
        verdicts["point"] += 1
        assert reference is not None
        z, d = projection
        ref_d, ref_lam = reference
        # relative beyond 1: a set far away behind nearly parallel facets is
        # ill-conditioned for both methods (one case here lies at 6.2e5)
        assert abs(d - ref_d) <= 1e-7 * max(1.0, ref_d)
        assert abs(d - float(np.linalg.norm(z - x))) <= 1e-12 * (1.0 + d)
        assert np.max(P.A @ z - P.b) <= 1e-9 * (1.0 + float(np.max(np.abs(P.b))))
        # the multipliers: lam >= 0 and A^T lam = -u, with the sum of the
        # brute force's, which sets how fast the distance grows under a shrink
        lam = projection.multipliers
        assert lam is not None and np.all(lam >= 0.0)
        assert np.linalg.norm(P.A.T @ lam + (z - x)) <= 1e-9 * (1.0 + d + lam.sum())
        assert abs(lam.sum() - ref_lam.sum()) <= 1e-7 * max(1.0, ref_lam.sum())
    # both verdicts are exercised
    assert min(verdicts.values()) >= 50


def _simplex_with_cuts(rng, n: int, m: int, inradius: float) -> HPolytope:
    """A regular simplex with the given inradius around the origin, cut by
    m - n - 1 random halfspaces that keep its inscribed ball inside."""
    centered = np.eye(n + 1) - 1.0 / (n + 1)
    basis = np.linalg.svd(centered)[0][:, :n]        # orthonormal, sum-free
    normals = np.vstack([centered @ basis, rng.standard_normal((m - n - 1, n))])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = inradius + np.concatenate([np.zeros(n + 1),
                                         rng.uniform(0.5, 10.0, m - n - 1)])
    return HPolytope(tuple(Halfspace(a, b) for a, b in zip(normals, offsets)))


@pytest.mark.parametrize("n, m", [(6, 20), (10, 60)])
def test_empty_check_in_high_dimension_is_fast_and_proved(n, m):
    rng = np.random.default_rng(n)
    P = _simplex_with_cuts(rng, n, m, inradius=3.0)
    x = rng.uniform(-1.0, 1.0, n)
    empty = shrink_polytope(P, 3.0 * (1 + 1e-6))
    t0 = time.perf_counter()
    with pytest.raises(EmptyPolytope) as info:
        project_onto_polytope(x, empty)
    assert time.perf_counter() - t0 < 0.1
    _check_farkas(empty, x, info.value.farkas)
    # just inside the inradius the body is the near-point around the origin
    z, d = project_onto_polytope(x, shrink_polytope(P, 3.0 * (1 - 1e-6)))
    assert np.linalg.norm(z) < 1e-4
    assert abs(d - np.linalg.norm(x)) < 1e-4


def test_shrink_polytope_moves_offsets_only():
    P = HPolytope((Halfspace([3.0, 4.0], 10.0, False), Halfspace([-1.0, 0.0], 2.0)))
    Q = shrink_polytope(P, 0.5)
    assert isinstance(Q, HPolytope)
    assert Q.A is P.A and np.array_equal(Q.closed, P.closed)
    assert np.allclose(Q.b, P.b - 0.5)
    assert np.allclose(P.A, [[0.6, 0.8], [-1.0, 0.0]]) and np.allclose(P.b, [2.0, 2.0])
    # the shrunk body still reports its constraints, unit-normalised
    assert np.allclose([h.a for h in Q.halfspaces], P.A)
    assert [h.b for h in Q.halfspaces] == pytest.approx([1.5, 1.5])
    assert not Q.halfspaces[0].closed and Q.halfspaces[1].closed


def test_import_and_query_do_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import coverage_lab as lab\n"
            "C = lab.load_builtin('fig3.json')\n"
            "print(lab.coverage_at(C, [5.0, 0.0], budget=0).describe())\n"
            "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[0].startswith("Bounded(radius=1)")
    assert out[1] == "False"
