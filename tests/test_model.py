"""Unit tests for the classifier model, labeling, validation, serialization."""

import json

import numpy as np
import pytest

from coverage_lab.data import BUILTIN_SPECS, load_builtin
from coverage_lab.errors import (AmbiguousLabel, DimensionMismatch, EvalError,
                                 NoLabel, SchemaError, SpecParseError)
from coverage_lab.geometry import Halfspace, HPolytope
from coverage_lab.model import (REFINEMENT, AnalyticRegion, Classifier,
                                UnionOfPolytopes, analytic,
                                classifier_from_dict, classifier_to_dict,
                                label_of, labels_of, load_spec, sample_box,
                                save_spec, validate_partition)
from coverage_lab.structure import refine_boundary


def binary_linear() -> Classifier:
    return Classifier(dimension=2, labels={
        "pos": Halfspace([0.0, 1.0], 0.0, False),   # x2 < 0 ... normal points up
        "neg": Halfspace([0.0, -1.0], 0.0, True),   # x2 >= 0
    })


# --- construction -----------------------------------------------------------

def test_classifier_requires_labels():
    with pytest.raises(ValueError):
        Classifier(dimension=2, labels={})


def test_classifier_reserves_the_refinement_label_name():
    with pytest.raises(ValueError, match="reserved"):
        Classifier(dimension=2, labels={REFINEMENT: analytic("x2 < 0", 2),
                                        "B": analytic("x2 >= 0", 2)})


def test_classifier_dimension_checks():
    with pytest.raises(DimensionMismatch):
        Classifier(dimension=3, labels={"a": Halfspace([1.0, 0.0], 0.0)})
    with pytest.raises(DimensionMismatch):
        Classifier(dimension=2, labels={"a": Halfspace([1.0, 0.0], 0.0)},
                   refinement_set=Halfspace([1.0, 0.0, 0.0], 0.0))


def test_default_domain_box_and_diameter():
    C = binary_linear()
    assert C.domain_box.shape == (2, 2)
    assert np.allclose(C.domain_box, [[-20, -20], [20, 20]])
    assert abs(C.diameter - np.sqrt(3200.0)) < 1e-12


def test_bad_domain_box():
    with pytest.raises(ValueError):
        Classifier(dimension=2, labels={"a": Halfspace([1.0, 0.0], 0.0)},
                   domain_box=[[0.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("box", [
    [[-np.inf, -1.0], [1.0, 1.0]],
    [[np.nan, -1.0], [1.0, 1.0]],
    [[-1e308, -1.0], [1e308, 1.0]],   # the extent overflows
    [[-1e200, -1.0], [1e200, 1.0]],   # the diameter overflows
])
def test_domain_box_must_have_a_finite_diameter(box):
    # an infinite diameter made the sampled search start at an infinite
    # radius and divide it by 8 forever
    with pytest.raises(ValueError, match="domain_box must have finite bounds"):
        Classifier(dimension=2, labels=binary_linear().labels, domain_box=box)


def test_union_of_polytopes_membership():
    left = HPolytope((Halfspace([1.0, 0.0], 0.0, False),))
    right = HPolytope((Halfspace([-1.0, 0.0], -1.0),))
    u = UnionOfPolytopes((left, right))
    assert u.contains([-1.0, 0.0]) and u.contains([2.0, 0.0])
    assert not u.contains([0.5, 0.0])
    pts = np.array([[-1.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
    assert np.array_equal(u.contains_many(pts), [True, False, True])


def test_union_membership_is_each_polytope_s():
    # polytopes with different row counts share one padded stack of rows
    rng = np.random.default_rng(4)
    polys = tuple(HPolytope(tuple(Halfspace(rng.standard_normal(3), rng.uniform(-1, 2),
                                            bool(rng.integers(2)))
                                  for _ in range(k)))
                  for k in (1, 4, 2))
    u = UnionOfPolytopes(polys)
    X = rng.uniform(-3, 3, (500, 3))
    want = np.zeros(500, dtype=bool)
    for p in polys:
        want |= p.contains_many(X)
    assert 0 < want.sum() < 500
    assert u.contains_many(X).tolist() == want.tolist()
    assert [u.contains(x) for x in X[:20]] == want[:20].tolist()
    assert u.contains_many(np.zeros((0, 3))).shape == (0,)


def test_analytic_region():
    r = analytic("x1 * x1 + x2 * x2 < 1", 2)
    assert isinstance(r, AnalyticRegion)
    assert r.contains([0.5, 0.5]) and not r.contains([1.0, 0.5])


# --- labeling ---------------------------------------------------------------

def test_label_of_unique():
    C = binary_linear()
    assert label_of(C, [0.0, -1.0]) == "pos"
    assert label_of(C, [0.0, 0.0]) == "neg"


def test_label_of_refinement_and_errors():
    strip = HPolytope((Halfspace([0.0, 1.0], 0.0), Halfspace([0.0, -1.0], 0.0)))
    C = Classifier(dimension=2, labels={
        "up": Halfspace([0.0, -1.0], 0.0, False),
        "down": Halfspace([0.0, 1.0], 0.0, False),
    }, refinement_set=strip)
    assert label_of(C, [3.0, 0.0]) == REFINEMENT

    overlapping = Classifier(dimension=2, labels={
        "a": Halfspace([1.0, 0.0], 1.0),
        "b": Halfspace([-1.0, 0.0], 1.0),
    })
    with pytest.raises(AmbiguousLabel):
        label_of(overlapping, [0.0, 0.0])

    gappy = Classifier(dimension=2, labels={
        "a": Halfspace([1.0, 0.0], 0.0, False),
        "b": Halfspace([-1.0, 0.0], -1.0, False),
    })
    with pytest.raises(NoLabel):
        label_of(gappy, [0.5, 0.0])


def test_label_of_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        label_of(binary_linear(), [0.0, 0.0, 0.0])


def _scalar_label(C, x):
    """The former label_of: contains on each region in turn, None where
    label_of raises NoLabel, AmbiguousLabel or EvalError."""
    try:
        claimers = [name for name, region in C.regions() if region.contains(x)]
    except EvalError:
        return None
    return claimers[0] if len(claimers) == 1 else None


def _label_or_none(C, x):
    try:
        return label_of(C, x)
    except (NoLabel, AmbiguousLabel, EvalError):
        return None


def _boundary_points(C, rng, pairs=30):
    """Points on or next to label boundaries: 400 integer points of the
    domain box, and scalar bisection between differently labelled points."""
    lo, hi = C.domain_box
    axes = [np.arange(np.ceil(l), np.floor(h) + 1) for l, h in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, C.dimension)
    grid = grid[rng.choice(grid.shape[0], min(grid.shape[0], 400), replace=False)]
    found = []
    pts = sample_box(C.domain_box, rng, 2 * pairs)
    for pa, pb in zip(pts[:pairs], pts[pairs:]):
        la, lb = _label_or_none(C, pa), _label_or_none(C, pb)
        if la is None or lb is None or la == lb:
            continue
        t0, t1 = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (t0 + t1)
            name = _label_or_none(C, pa + mid * (pb - pa))
            if name != la and name != lb:
                break
            t0, t1 = (mid, t1) if name == la else (t0, mid)
        found.append(pa + mid * (pb - pa))
    return np.vstack([grid] + found) if found else grid


@pytest.mark.parametrize("name", BUILTIN_SPECS)
def test_labels_of_matches_label_of_row_for_row(name):
    rng = np.random.default_rng(11)
    base = load_builtin(name)
    for C in (base, refine_boundary(base)):
        X = np.vstack([sample_box(C.domain_box, rng, 200), _boundary_points(C, rng)])
        got = labels_of(C, X)
        assert len(got) == X.shape[0]
        assert got == [_label_or_none(C, x) for x in X]
        assert got == [_scalar_label(C, x) for x in X]
        # a batch answers each row as that row alone does
        assert got[:7] == [labels_of(C, X[i:i + 1])[0] for i in range(7)]
    if name == "refined_linear.json":
        assert REFINEMENT in got


def test_labels_of_rows_that_cannot_be_evaluated_get_none():
    # exp(x1) overflows past x1 = 709.78, so neither label can be evaluated
    C = Classifier(dimension=2, labels={"up": analytic("exp(x1) > 1", 2),
                                        "down": analytic("exp(x1) <= 1", 2)},
                   domain_box=np.array([[-5.0, -1.0], [900.0, 1.0]]))
    X = np.vstack([sample_box(C.domain_box, np.random.default_rng(3), 300),
                   [[0.0, 0.0], [709.0, 0.0], [710.0, 0.0]]])
    with pytest.raises(EvalError):  # the batch as a whole falls back
        C.labels["up"].contains_many(X)
    got = labels_of(C, X)
    assert got == [_label_or_none(C, x) for x in X]
    assert got[-3:] == ["down", "up", None]
    overflow = X[:, 0] > np.log(np.finfo(float).max)
    assert overflow.any() and not overflow.all()
    assert [g is None for g in got] == overflow.tolist()


def test_labels_of_splits_a_batch_with_a_bad_row_in_halves(monkeypatch):
    # one row of 128 overflows exp: the batch is halved down to that row,
    # one failing and one clean call per level, not labelled row by row
    C = Classifier(dimension=2, labels={"up": analytic("exp(x1) > 1", 2),
                                        "down": analytic("exp(x1) <= 1", 2)})
    X = sample_box(C.domain_box, np.random.default_rng(4), 128)
    X[77, 0] = 710.0
    want = [labels_of(C, X[i:i + 1])[0] for i in range(128)]
    assert want[77] is None and None not in want[:77] + want[78:]
    contains_many = AnalyticRegion.contains_many

    def counting(region, Y):
        calls[region.predicate.source] += 1
        return contains_many(region, Y)

    monkeypatch.setattr(AnalyticRegion, "contains_many", counting)
    calls = {C.labels[name].predicate.source: 0 for name in C.labels}
    assert labels_of(C, X) == want
    assert max(calls.values()) <= 2 * 7 + 1


def test_labels_of_shape_checks_and_claims():
    C = binary_linear()
    assert labels_of(C, np.zeros((0, 2))) == []
    with pytest.raises(DimensionMismatch):
        labels_of(C, np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        labels_of(C, np.zeros(2))
    overlapping = Classifier(dimension=2, labels={
        "a": Halfspace([1.0, 0.0], 1.0),
        "b": Halfspace([-1.0, 0.0], 1.0),
    })
    assert labels_of(overlapping, [[0.0, 0.0], [5.0, 0.0], [-5.0, 0.0]]) == [None, "b", "a"]


# --- partition validation ---------------------------------------------------

def test_validate_partition_clean():
    report = validate_partition(binary_linear(), budget=20_000, seed=0)
    assert report.verdict == "unfalsified"
    assert report.violation_count == 0
    assert report.samples == 20_000


def test_validate_partition_finds_overlap_and_gap():
    overlapping = Classifier(dimension=2, labels={
        "a": Halfspace([1.0, 0.0], 1.0),
        "b": Halfspace([-1.0, 0.0], 1.0),
    })
    rep = validate_partition(overlapping, budget=2000, seed=1)
    assert rep.verdict == "violated"
    point, claimers = rep.violations[0]
    assert set(claimers) == {"a", "b"}

    gappy = Classifier(dimension=2, labels={
        "a": Halfspace([1.0, 0.0], -10.0, False),
        "b": Halfspace([-1.0, 0.0], -10.0, False),
    })
    rep = validate_partition(gappy, budget=2000, seed=1)
    assert rep.verdict == "violated"
    assert any(claimers == () for _, claimers in rep.violations)


def test_validate_partition_includes_probe_points():
    C = Classifier(dimension=2, labels={
        "a": Halfspace([1.0, 0.0], 0.0, False),
        "b": Halfspace([-1.0, 0.0], 0.0, False),  # gap only on the line x1=0
    }, probe_points=[[0.0, 3.0]])
    rep = validate_partition(C, budget=100, seed=0)
    assert rep.verdict == "violated"  # the probe point is unclaimed
    assert rep.samples == 101


def test_validate_partition_shipped_specs_unfalsified():
    for name in BUILTIN_SPECS:
        C = load_builtin(name)
        rep = validate_partition(C, budget=100_000, seed=0)
        assert rep.verdict == "unfalsified", (name, rep.violations[:3])


# --- serialization ----------------------------------------------------------

def test_round_trip_all_region_kinds(tmp_path):
    strip = HPolytope((Halfspace([0.0, 1.0], 1.0), Halfspace([0.0, -1.0], 1.0)))
    C = Classifier(
        dimension=2,
        labels={
            "half": Halfspace([1.0, 2.0], 3.0, False),
            "poly": strip,
            "union": UnionOfPolytopes((strip, HPolytope((Halfspace([1.0, 0.0], -5.0),)))),
            "curve": analytic("10 * sin(0.1 * x1) < x2", 2),
        },
        refinement_set=strip,
        domain_box=[[-30.0, -10.0], [30.0, 10.0]],
        probe_points=[[1.0, 0.5]],
    )
    path = tmp_path / "spec.json"
    save_spec(C, path)
    D = load_spec(path)
    assert classifier_to_dict(D) == classifier_to_dict(C)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-30, 30, (500, 2))
    for name in C.labels:
        assert np.array_equal(C.labels[name].contains_many(pts),
                              D.labels[name].contains_many(pts))


def test_builtin_specs_round_trip(tmp_path):
    for name in BUILTIN_SPECS:
        C = load_builtin(name)
        path = tmp_path / name
        save_spec(C, path)
        D = load_spec(path)
        assert classifier_to_dict(C) == classifier_to_dict(D)


def test_schema_errors():
    with pytest.raises(SchemaError) as exc:
        classifier_from_dict({"labels": {"a": {"halfspace": {"a": [1.0], "b": 0.0}}}})
    assert exc.value.field == "dimension"
    with pytest.raises(SchemaError):
        classifier_from_dict({"dimension": 0, "labels": {}})
    with pytest.raises(SchemaError):
        classifier_from_dict({"dimension": 2, "labels": {}})
    with pytest.raises(SchemaError):
        classifier_from_dict({"dimension": 2,
                              "labels": {"a": {"mystery": {}}}})
    with pytest.raises(SchemaError):
        classifier_from_dict({"dimension": 2,
                              "labels": {"a": {"polytope": {"halfspaces": []}}}})
    with pytest.raises(SchemaError):
        classifier_from_dict({"dimension": 2,
                              "labels": {"a": {"halfspace": {"a": [1, 0]}}}})


def test_spec_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dimension": 2,\n  "labels": }', encoding="utf-8")
    with pytest.raises(SpecParseError) as exc:
        load_spec(path)
    assert "line 2" in str(exc.value)


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        load_builtin("nope.json")


def test_builtin_specs_are_valid_json():
    from coverage_lab.data import builtin_spec_text
    for name in BUILTIN_SPECS:
        data = json.loads(builtin_spec_text(name))
        assert "dimension" in data and "labels" in data
