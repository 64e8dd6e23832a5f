"""Built-in verification suite.

Ten empirical checks covering the package's core claims: figure-example
coverage values against brute-force oracles, cap-exceeding growth for
halfspace labels, zero boundary coverage, engine/oracle agreement on random
polytopes, downward closure of anchors, direction recovery, structure
verdicts, and report determinism.

All output is deliberately timing-free so that identical seeds produce
byte-identical reports.
"""

from __future__ import annotations

import numpy as np

from .data import load_builtin
from .engine import _feasible_center, coverage_at, coverage_exact_convex, Anchor
from .geometry import Ball, Halfspace, HPolytope, ball_in_region, as_point
from .model import (REFINEMENT, Classifier, UnionOfPolytopes, analytic, label_of,
                    sample_box)
from .oracle import coverage_oracle_polytope
from .structure import classify_structure, estimate_asymptotic_direction, \
    is_generalized_binary_linear, refine_boundary


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _angle(u, v) -> float:
    u = as_point(u) / np.linalg.norm(u)
    v = as_point(v) / np.linalg.norm(v)
    return float(np.arccos(np.clip(abs(u @ v), -1.0, 1.0)))


# --- random generators shared with the test suite --------------------------

def random_polytope_case(rng: np.random.Generator, n: int):
    """Bounded nonempty polytope in [-B, B]^n with a comfortably interior
    query point: box faces plus 1..(10-2n) random cuts kept at distance
    >= 0.15*B from the point. Returns (polytope, point, B)."""
    B = 10.0
    x0 = rng.uniform(-0.5 * B, 0.5 * B, n)
    hs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        hs.append(Halfspace(e, B, True))
        hs.append(Halfspace(-e, B, True))
    total = int(rng.integers(max(4, 2 * n + 1), 11))
    for _ in range(total - 2 * n):
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        margin = rng.uniform(0.15 * B, 0.6 * B)
        hs.append(Halfspace(a, float(a @ x0) + margin, bool(rng.random() < 0.5)))
    return HPolytope(tuple(hs)), x0, B


def random_slab_classifier(rng: np.random.Generator, n: int = 2,
                           k: int | None = None) -> Classifier:
    """k >= 3 full-dimensional labels: parallel slabs along a random
    direction, half-open so they tile space exactly."""
    k = int(rng.integers(3, 6)) if k is None else k
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    cuts = [float(rng.uniform(-6.0, -2.0))]
    for _ in range(k - 2):
        cuts.append(cuts[-1] + float(rng.uniform(2.0, 4.0)))
    labels = {"low": Halfspace(d, cuts[0], False)}
    for i in range(k - 2):
        labels[f"slab{i}"] = HPolytope((Halfspace(-d, -cuts[i], True),
                                        Halfspace(d, cuts[i + 1], False)))
    labels["high"] = Halfspace(-d, -cuts[-1], True)
    return Classifier(dimension=n, labels=labels)


def random_quadrant_classifier(rng: np.random.Generator) -> Classifier:
    """Four full-dimensional labels: rotated quadrants tiling the plane."""
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    u1, u2 = q[0], q[1]
    labels = {
        "q1": HPolytope((Halfspace(-u1, 0, False), Halfspace(-u2, 0, False))),
        "q2": HPolytope((Halfspace(u1, 0, True), Halfspace(-u2, 0, False))),
        "q3": HPolytope((Halfspace(u1, 0, True), Halfspace(u2, 0, True))),
        "q4": HPolytope((Halfspace(-u1, 0, False), Halfspace(u2, 0, True))),
    }
    return Classifier(dimension=2, labels=labels)


def growth_anchor_sequence(h: Halfspace, x, rng: np.random.Generator,
                           count: int = 20):
    """Anchor sequence marching along the inward normal of a halfspace at
    doubling depths, with a fixed lateral offset of a tenth of x's depth
    so the center directions converge to the normal without ever equaling
    it."""
    x = as_point(x)
    u = -h.a / h.norm
    d0 = (h.b - float(h.a @ x)) / h.norm
    if d0 <= 0:
        raise ValueError("query point must be strictly inside the halfspace")
    w = rng.standard_normal(x.shape[0])
    w -= (w @ u) * u
    w /= np.linalg.norm(w)
    eps = 0.1 * d0
    alpha = 0.5 * d0
    anchors = []
    for i in range(1, count + 1):
        t = d0 * (2.0 ** i)
        c = x + t * u + eps * w
        r = float(np.hypot(t, eps)) + alpha
        anchors.append(Anchor(Ball(c, r), x, "label", ball_in_region(Ball(c, r), h, "exact")))
    return anchors, u


# --- criteria ---------------------------------------------------------------

def criterion_1(seed: int):
    """Coverage disparity between the two probe points of the box-grid example."""
    C = load_builtin("fig3.json")
    r1 = coverage_at(C, [5.0, 0.0], budget=20_000, seed=seed)
    r2 = coverage_at(C, [-15.0, 10.0], budget=20_000, seed=seed)
    v1 = r1.radius if r1.kind == "bounded" else float("nan")
    v2 = r2.radius if r2.kind == "bounded" else float("nan")
    ok = (abs(v1 - 1.0) <= 1e-3 and abs(v2 - 6.5) <= 1e-3 and v1 < v2)
    return ok, [f"coverage_at_5_0: {_fmt(v1)}", f"coverage_at_-15_10: {_fmt(v2)}",
                "expected: 1 and 6.5 within 0.001, strictly increasing"]


def criterion_2(seed: int):
    """Every probed point of the refined halfspace-pair classifier exceeds
    caps of 10, 1e3 and 1e6 domain diameters with valid witness chains."""
    C = load_builtin("refined_linear.json")
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < 100:
        p = sample_box(C.domain_box, rng, 1)[0]
        if label_of(C, p) != REFINEMENT:
            pts.append(p)
    failures = 0
    for mult in (10.0, 1e3, 1e6):
        cap = mult * C.diameter
        for p in pts:
            res = coverage_at(C, p, cap=cap, seed=seed)
            good = (res.kind == "exceeds_cap" and len(res.witnesses) >= 3)
            if good:
                radii = [a.ball.radius for a in res.witnesses]
                good = (all(b > a for a, b in zip(radii, radii[1:]))
                        and radii[-1] >= cap
                        and all(a.certificate.ok and a.ball.contains(p)
                                for a in res.witnesses))
            failures += 0 if good else 1
    return failures == 0, ["points: 100", "caps_in_diameters: 10 1000 1e+06",
                           f"failures: {failures}"]


def criterion_3(seed: int):
    """Zero coverage exactly on the closed label's boundary hyperplane of
    the ordinary halfspace-pair classifier, cap-exceeding off it."""
    C = load_builtin("linear.json")
    rng = np.random.default_rng(seed)
    bad_on, bad_off = 0, 0
    for t in rng.uniform(-15, 15, 20):
        res = coverage_at(C, [t, 0.5 * t - 1.0], cap=1000.0, seed=seed)
        bad_on += 0 if res.kind == "zero" else 1
    count = 0
    while count < 20:
        p = sample_box(C.domain_box, rng, 1)[0]
        if abs(0.5 * p[0] - p[1] - 1.0) < 0.5:
            continue
        count += 1
        res = coverage_at(C, p, cap=1000.0, seed=seed)
        bad_off += 0 if res.kind == "exceeds_cap" else 1
    ok = bad_on == 0 and bad_off == 0
    return ok, [f"boundary_points_not_zero: {bad_on}",
                f"interior_points_not_exceeding: {bad_off}"]


def criterion_4(seed: int):
    """Exact convex coverage agrees with the brute-force center-grid oracle
    on 50 random bounded polytopes in 2-3 dimensions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        P, x0, B = random_polytope_case(rng, n)
        tol = 1e-6 * 2 * B * np.sqrt(n)
        res = coverage_exact_convex(x0, P, cap=100.0 * B, tol=tol)
        engine_r = res.radius if res.kind == "bounded" else 0.0
        box = np.stack([-B * np.ones(n), B * np.ones(n)])
        oracle_r = coverage_oracle_polytope(x0, P, box,
                                            per_axis=41 if n == 2 else 25,
                                            rounds=6)
        allowed = max(0.02 * max(engine_r, oracle_r), 2 * tol)
        err = abs(engine_r - oracle_r)
        worst = max(worst, err / max(allowed, 1e-300))
        if err > allowed:
            failures += 1
    return failures == 0, ["cases: 50", f"failures: {failures}",
                           f"worst_error_over_allowance: {_fmt(worst)}"]


def criterion_5(seed: int):
    """Downward closure: shrinking a feasible anchor toward its point stays
    feasible, 1000 random (polytope, point, r1 < r2) cases."""
    rng = np.random.default_rng(seed)
    checked, failures = 0, 0
    while checked < 1000:
        P, x0, B = random_polytope_case(rng, 2 if checked % 2 == 0 else 3)
        tol = 1e-6 * B
        res = coverage_exact_convex(x0, P, cap=100.0 * B, tol=tol)
        sup_r = res.radius if res.kind == "bounded" else B
        for _ in range(20):
            r2 = float(rng.uniform(0.2, 0.9)) * sup_r
            c2 = _feasible_center(x0, P, r2)[0]
            if c2 is None:
                continue
            r1 = float(rng.uniform(0.05, 0.95)) * r2
            c1 = x0 + (r1 / r2) * (c2 - x0)
            inside = ball_in_region(Ball(c1, r1), P, "exact").ok
            contains = float(np.linalg.norm(x0 - c1)) < r1
            checked += 1
            if not (inside and contains):
                failures += 1
            if checked >= 1000:
                break
    return failures == 0, [f"cases: {checked}", f"failures: {failures}"]


def criterion_6(seed: int):
    """Anchor-center directions converge to the true inward normal for 20
    random halfspaces in dimensions 2-5."""
    rng = np.random.default_rng(seed)
    failures = 0
    worst_final = 0.0
    for i in range(20):
        n = 2 + i % 4
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        b = float(rng.uniform(-5, 5))
        h = Halfspace(a, b, False)
        depth = float(rng.uniform(0.5, 3.0))
        x = rng.standard_normal(n)
        x = x + ((b - float(a @ x)) / 1.0 - depth) * a  # place at exact depth
        anchors, u = growth_anchor_sequence(h, x, rng, count=20)
        est = estimate_asymptotic_direction(anchors, x)
        final = _angle(est.direction, u)
        worst_final = max(worst_final, final)
        tail = est.residual_angles[-10:]
        monotone = all(b2 <= a2 + 1e-12 for a2, b2 in zip(tail, tail[1:]))
        if final > 1e-2 or not monotone:
            failures += 1
    return failures == 0, ["cases: 20", f"failures: {failures}",
                           f"worst_final_angle_rad: {_fmt(worst_final)}"]


def two_quadrant_union() -> Classifier:
    """The upper half-plane written as two touching quadrants, a union
    label, against the closed lower half-plane on [-10, 10]^2."""
    up = Halfspace([0.0, -1.0], 0.0, False)
    return Classifier(2, {
        "A": UnionOfPolytopes((HPolytope((up, Halfspace([-1.0, 0.0], 0.0, False))),
                               HPolytope((up, Halfspace([1.0, 0.0], 0.0))))),
        "B": Halfspace([0.0, 1.0], 0.0)}, domain_box=[[-10.0, -10.0], [10.0, 10.0]])


def criterion_7(seed: int):
    """Structure verdicts across the shipped classifiers and the upper
    half-plane written as two touching quadrants."""
    lines, ok = [], True

    def check(name, verdict, want_kind, want_normal=None):
        nonlocal ok
        good = verdict.kind == want_kind
        angle = None
        if good and want_normal is not None:
            angle = _angle(verdict.hyperplane.unit()[0], want_normal)
            good = angle <= 1e-3
        ok = ok and good
        line = f"{name}: {verdict.kind}"
        if angle is not None:
            line += f" angle_err={_fmt(angle)}"
        if verdict.reason:
            line += f" ({verdict.reason})"
        lines.append(line)

    rl = load_builtin("refined_linear.json")
    check("refined_halfspace_pair",
          classify_structure(rl, probe_count=20, budget=20_000, seed=seed),
          "refined_linear", want_normal=[0.0, 1.0])
    refined = refine_boundary(load_builtin("linear.json"))
    check("refined_from_ordinary",
          classify_structure(refined, probe_count=20, budget=20_000, seed=seed),
          "refined_linear", want_normal=[0.5, -1.0])
    check("curved_boundary_example",
          classify_structure(load_builtin("fig1.json"), probe_count=8,
                             budget=20_000, seed=seed),
          "not_refined_linear")
    check("box_grid_example",
          classify_structure(load_builtin("fig3.json"), probe_count=8,
                             budget=20_000, seed=seed),
          "not_refined_linear")
    rng = np.random.default_rng(seed)
    check("random_three_label_slabs",
          classify_structure(random_slab_classifier(rng, k=3), probe_count=12,
                             budget=20_000, seed=seed),
          "not_refined_linear")
    check("single_label",
          classify_structure(load_builtin("trivial.json"), probe_count=8,
                             budget=20_000, seed=seed),
          "trivial")
    check("two_quadrant_union",
          classify_structure(two_quadrant_union(), probe_count=20, budget=20_000, seed=seed),
          "refined_linear", want_normal=[0.0, 1.0])
    return ok, lines


def criterion_8(seed: int):
    """classify_structure never answers refined-linear when three or more
    full-dimensional labels exist (50 random classifiers)."""
    rng = np.random.default_rng(seed)
    failures = 0
    for i in range(50):
        if i % 2 == 0:
            C = random_slab_classifier(rng, n=2 + i % 3)
        else:
            C = random_quadrant_classifier(rng)
        v = classify_structure(C, probe_count=10, budget=10_000,
                               seed=seed * 7 + i)
        if v.kind == "refined_linear":
            failures += 1
    return failures == 0, ["cases: 50", f"refined_linear_verdicts: {failures}"]


def criterion_9(seed: int):
    """Generalized-binary-linear recognition on the shipped examples, on
    the upper half-plane written as two touching quadrants, and on
    exp(x2) > 1 against its complement."""
    exp_pair = Classifier(2, {"P": analytic("exp(x2) > 1", 2),
                              "N": analytic("exp(x2) <= 1", 2)},
                          domain_box=[[-10.0, -10.0], [10.0, 10.0]])
    cases = [(name, load_builtin(name), want)
             for name, want in (("linear.json", True),
                                ("generalized_linear.json", True),
                                ("fig3.json", False))]
    cases += [("two_quadrant_union", two_quadrant_union(), True),
              ("exp_analytic_pair", exp_pair, True)]
    lines, ok = [], True
    for name, C, want in cases:
        v = is_generalized_binary_linear(C, seed=seed, budget=20_000)
        good = v.is_generalized_binary_linear == want
        ok = ok and good
        line = f"{name}: {v.is_generalized_binary_linear} (want {want})"
        if v.reason:
            line += f" reason={v.reason}"
        lines.append(line)
    return ok, lines


_DETERMINISM_SUBSET = (1, 3, 5)


def criterion_10(seed: int):
    """Reports are byte-identical across repeated runs with the same seed."""
    first = run_suite(seed, _DETERMINISM_SUBSET)
    second = run_suite(seed, _DETERMINISM_SUBSET)
    ok = first == second
    return ok, [f"subset: {' '.join(map(str, _DETERMINISM_SUBSET))}",
                f"identical: {str(ok).lower()}"]


CRITERIA = (
    (1, "coverage disparity on the box-grid example", criterion_1),
    (2, "halfspace-pair classifier exceeds every cap", criterion_2),
    (3, "zero coverage on the decision boundary", criterion_3),
    (4, "exact convex coverage matches the brute-force oracle", criterion_4),
    (5, "anchor downward closure", criterion_5),
    (6, "asymptotic direction recovery", criterion_6),
    (7, "structure verdicts on shipped classifiers", criterion_7),
    (8, "no refined-linear verdict with three or more full labels", criterion_8),
    (9, "generalized-binary-linear recognition", criterion_9),
    (10, "report determinism", criterion_10),
)


def run_criterion(number: int, seed: int = 0):
    for num, title, func in CRITERIA:
        if num == number:
            passed, lines = func(seed)
            return passed, title, lines
    raise KeyError(f"no criterion {number}")


def _criterion_block(num: int, title: str, passed: bool, lines) -> list:
    out = [f"criterion: {num}", f"title: {title}",
           f"pass: {str(passed).lower()}"]
    out.extend(f"  {line}" for line in lines)
    return out


def run_suite(seed: int = 0, numbers=None):
    """Run the verification suite; returns (all_passed, report_text).

    The report contains no timestamps or timings, so equal seeds give
    byte-identical text.
    """
    blocks = ["suite: theorems", f"seed: {seed}"]
    all_passed = True
    for num, title, func in CRITERIA:
        if numbers is not None and num not in numbers:
            continue
        passed, lines = func(seed)
        all_passed = all_passed and passed
        blocks.extend(_criterion_block(num, title, passed, lines))
    blocks.append(f"overall: {'pass' if all_passed else 'fail'}")
    return all_passed, "\n".join(blocks) + "\n"
