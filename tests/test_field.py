"""Unit tests for coverage fields, comparison, and export/import."""

import numpy as np
import pytest

from coverage_lab.data import load_builtin
from coverage_lab.engine import coverage_at
from coverage_lab.errors import EvalError, IoError
from coverage_lab.field import (CoverageField, compare_at, compute_field,
                                export_field, field_from_dict, field_to_dict,
                                grid_points, import_field)
from coverage_lab.geometry import Halfspace
from coverage_lab.model import Classifier, analytic
from coverage_lab.structure import refine_boundary


# --- grids ------------------------------------------------------------------

def test_grid_points_shape_and_order():
    box = np.array([[0.0, 10.0], [1.0, 12.0]])
    g = grid_points(box, (3, 2))
    assert g.shape == (6, 2)
    # row-major: first axis varies slowest, endpoints included
    assert np.allclose(g[0], [0.0, 10.0])
    assert np.allclose(g[1], [0.0, 12.0])
    assert np.allclose(g[-1], [1.0, 12.0])


def test_grid_points_bad_counts():
    box = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        grid_points(box, (3,))
    with pytest.raises(ValueError):
        grid_points(box, (3, 0))


# --- compute_field ----------------------------------------------------------

def test_field_fig3_grid():
    C = load_builtin("fig3.json")
    F = compute_field(C, (20, 20), budget=5_000, seed=0)
    assert len(F.points) + len(F.skipped) == 400
    assert len(F.skipped) == 0  # fig3 tiles the box exactly
    for res in F.results:
        assert res.kind in ("zero", "bounded")
        if res.kind == "bounded":
            # no label region of fig3 admits a ball larger than the widest box
            assert res.radius <= 9.5 + 1e-3
    assert F.inf_estimate.order_key() <= F.sup_estimate.order_key()


def test_field_skips_refinement_points():
    C = load_builtin("refined_linear.json")
    pts = np.array([[0.0, 5.0], [3.0, 0.0], [0.0, -5.0]])
    F = compute_field(C, pts, cap=100.0, budget=5_000, seed=0)
    assert len(F.points) == 2
    assert len(F.skipped) == 1
    skipped_point, reason = F.skipped[0]
    assert np.allclose(skipped_point, [3.0, 0.0])
    assert reason == "refinement point"


def test_field_skips_unlabeled_points():
    C = Classifier(dimension=2, labels={
        "a": Halfspace([1.0, 0.0], 0.0, False),
        "b": Halfspace([-1.0, 0.0], -1.0, False),
    })
    F = compute_field(C, np.array([[0.5, 0.0], [-1.0, 0.0]]), budget=1_000, seed=0)
    assert len(F.points) == 1
    assert F.skipped[0][1] == "outside all labels"


def test_field_is_coverage_at_point_by_point():
    # sampled route, so each point's result depends on the seed it gets;
    # [0, -3] lies on x2 = -x1 - 3, in the refinement set, and is skipped
    R = refine_boundary(load_builtin("fig1.json"))
    pts = np.array([[3.0, 0.5], [0.0, -3.0], [-15.0, 10.0], [5.0, 0.0]])
    F = compute_field(R, pts, budget=2_000, seed=4)
    kept = [0, 2, 3]
    expected = [coverage_at(R, pts[i], budget=2_000, seed=4 * 1_000_003 + i)
                for i in kept]
    assert np.array_equal(np.array(F.points), pts[kept])
    assert [r.detail for r in F.results] == [r.detail for r in expected]
    mirror = CoverageField(points=tuple(pts[kept]), results=tuple(expected), cap=F.cap,
                           skipped=((pts[1], "refinement point"),))
    assert field_to_dict(F) == field_to_dict(mirror)


def exp_classifier() -> Classifier:
    # exp(x1) overflows at x1 = 800, so neither label can say whether it
    # holds [800, 0]
    return Classifier(dimension=2, labels={"P": analytic("exp(x1) > 1", 2),
                                           "N": analytic("exp(x1) <= 1", 2)})


def test_field_skips_points_whose_label_cannot_be_evaluated():
    C = exp_classifier()
    with pytest.raises(EvalError):
        coverage_at(C, [800.0, 0.0], budget=1_000)
    F = compute_field(C, [[3.0, 0.0], [800.0, 0.0]], budget=1_000)
    assert len(F.results) == 1 and np.array_equal(F.points[0], [3.0, 0.0])
    assert F.results[0].kind in ("bounded", "exceeds_cap")
    (point, reason), = F.skipped
    assert np.array_equal(point, [800.0, 0.0]) and reason == "label not evaluable"


def test_compare_skips_points_whose_label_cannot_be_evaluated():
    C = exp_classifier()
    rep = compare_at(C, C, [[3.0, 0.0], [800.0, 0.0]], budget=1_000)
    assert len(rep.entries) == 1 and np.array_equal(rep.entries[0][0], [3.0, 0.0])
    (point, reason), = rep.skipped
    assert np.array_equal(point, [800.0, 0.0]) and reason == "label not evaluable"


def test_field_probe_superset_tightens_estimates():
    C = load_builtin("fig3.json")
    few = compute_field(C, np.array([[5.0, 0.0]]), budget=5_000, seed=0)
    more = compute_field(C, np.array([[5.0, 0.0], [-15.0, 10.0], [5.0, 0.5]]),
                         budget=5_000, seed=0)
    # more probes: inf can only drop, sup can only rise
    assert more.inf_estimate.order_key() <= few.inf_estimate.order_key()
    assert more.sup_estimate.order_key() >= few.sup_estimate.order_key()


def test_field_deterministic(tmp_path):
    C = load_builtin("fig3.json")
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    export_field(compute_field(C, (8, 8), budget=5_000, seed=3), p1)
    export_field(compute_field(C, (8, 8), budget=5_000, seed=3), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_field_mismatched_point_shape():
    C = load_builtin("fig3.json")
    with pytest.raises(ValueError):
        compute_field(C, np.zeros((4, 3)), budget=100)


# --- comparison -------------------------------------------------------------

def test_compare_classifier_with_itself_is_equal():
    C = load_builtin("fig3.json")
    pts = np.array([[5.0, 0.0], [-15.0, 10.0], [19.0, -15.0]])
    rep = compare_at(C, C, pts, budget=5_000, seed=0)
    assert len(rep.entries) == 3
    assert all(relation == "equal" for _, _, _, relation in rep.entries)


def test_compare_refined_vs_original_at_slab_point():
    C = load_builtin("fig3.json")
    R = refine_boundary(C)
    rep = compare_at(R, C, np.array([[-15.0, 10.0]]), budget=5_000, seed=0)
    _, r1, r2, relation = rep.entries[0]
    # anchors are open balls with tangency allowed, so moving the closed
    # faces into the refinement set leaves the best anchor unchanged
    assert relation == "equal"
    assert r1.kind == "bounded" and abs(r1.radius - 6.5) < 1e-3


def test_compare_skips_refinement_points():
    C1 = load_builtin("refined_linear.json")
    C2 = load_builtin("linear.json")
    rep = compare_at(C1, C2, np.array([[2.0, 0.0], [0.0, 5.0]]),
                     cap=100.0, budget=5_000, seed=0)
    assert len(rep.entries) == 1
    (point, reason), = rep.skipped
    assert np.array_equal(point, [2.0, 0.0]) and reason == "refinement point"


@pytest.mark.parametrize("limits", [{"budget": -1}, {"cap": 1.0, "tol": 2.0}])
def test_compare_checks_its_limits_before_any_point(limits):
    C = load_builtin("fig1.json")
    with pytest.raises(ValueError):
        compare_at(C, C, np.zeros((0, 2)), **limits)


def test_compare_dimension_mismatch():
    C1 = load_builtin("linear.json")
    C2 = Classifier(dimension=3, labels={"a": analytic("true", 3)})
    with pytest.raises(ValueError):
        compare_at(C1, C2, np.array([[0.0, 0.0]]))


# --- export / import --------------------------------------------------------

def test_csv_export_layout(tmp_path):
    C = load_builtin("trivial.json")
    F = compute_field(C, np.array([[1.0, 2.0]]), cap=50.0, budget=2_000, seed=0)
    path = tmp_path / "field.csv"
    export_field(F, path, format="csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x1,x2,coverage_kind,radius_or_cap,method"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "1" and cells[1] == "2"
    assert cells[2] in ("zero", "bounded", "exceeds_cap")
    assert cells[4] in ("exact", "lower_bound")


def test_structured_round_trip(tmp_path):
    C = load_builtin("fig3.json")
    F = compute_field(C, np.array([[5.0, 0.0], [-15.0, 10.0]]),
                      budget=5_000, seed=0)
    path = tmp_path / "field.json"
    export_field(F, path, format="structured")
    G = import_field(path)
    assert G.cap == F.cap
    assert len(G.points) == len(F.points)
    for f_res, g_res in zip(F.results, G.results):
        assert f_res.kind == g_res.kind and f_res.method == g_res.method
        if f_res.kind == "bounded":
            assert f_res.radius == g_res.radius
        if f_res.witness is not None:
            assert np.array_equal(f_res.witness.ball.center,
                                  g_res.witness.ball.center)
            assert f_res.witness.ball.radius == g_res.witness.ball.radius
    # dict form is stable under a second round trip
    assert field_to_dict(G) == field_to_dict(field_from_dict(field_to_dict(G)))


def test_structured_round_trip_of_cap_witnesses(tmp_path):
    F = compute_field(load_builtin("linear.json"), (2, 2), seed=0)
    assert [r.kind for r in F.results] == ["exceeds_cap"] * 4
    path = tmp_path / "field.json"
    export_field(F, path, format="structured")
    G = import_field(path)
    for f_res, g_res in zip(F.results, G.results):
        assert g_res.kind == "exceeds_cap" and g_res.cap == f_res.cap
        assert len(g_res.witnesses) == len(f_res.witnesses) == 3
        for a, b in zip(f_res.witnesses, g_res.witnesses):
            assert np.array_equal(a.ball.center, b.ball.center)
            assert a.ball.radius == b.ball.radius
            assert np.array_equal(a.anchored_point, b.anchored_point)
            assert a.label == b.label and a.certificate.kind == b.certificate.kind
        assert np.array_equal(g_res.witness.ball.center, f_res.witness.ball.center)


def test_unknown_export_format(tmp_path):
    C = load_builtin("trivial.json")
    F = compute_field(C, np.array([[0.0, 0.0]]), cap=50.0, budget=500, seed=0)
    with pytest.raises(ValueError):
        export_field(F, tmp_path / "x.bin", format="parquet")


def test_export_to_unwritable_path_raises_io_error(tmp_path):
    C = load_builtin("trivial.json")
    F = compute_field(C, np.array([[0.0, 0.0]]), cap=50.0, budget=500, seed=0)
    with pytest.raises(IoError):
        export_field(F, tmp_path / "no" / "such" / "dir" / "f.csv")
    with pytest.raises(IoError):
        import_field(tmp_path / "missing.json")
