"""Classifiers as labeled partitions of R^n with an optional refinement set.

A classifier is a named map of label regions plus an optional refinement
set region, claimed to partition space. Disjointness/exhaustiveness cannot
be decided exactly for analytic regions, so validation is sampled
falsification with witnesses.

Spec file format (JSON):

    {
      "dimension": 2,
      "domain_box": [[-20, -20], [20, 20]],          # optional, rows = lows, highs
      "labels": {"M": <region>, ...},                # "refinement" is reserved
      "refinement_set": <region>,                    # optional
      "probe_points": [[0, 0], ...]                  # optional
    }

Region encodings:

    {"halfspace": {"a": [...], "b": r, "closed": bool}}
    {"polytope": {"halfspaces": [<halfspace body>, ...]}}
    {"union": [<polytope body>, ...]}
    {"analytic": "expr string"}
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json

import numpy as np

from . import dsl
from .errors import (AmbiguousLabel, DimensionMismatch, EvalError, NoLabel,
                     SchemaError, SpecParseError)
from .geometry import (Halfspace, HPolytope, _check_dim, _dot_rows, as_point,
                       closures_disjoint)

REFINEMENT = "refinement"

DEFAULT_BOX_HALFWIDTH = 20.0


@dataclasses.dataclass(frozen=True, eq=False)
class UnionOfPolytopes:
    """Union of polytopes. Membership checks the rows of all of them at
    once, each as its polytope would."""

    polytopes: tuple

    def __post_init__(self):
        ps = tuple(self.polytopes)
        if not ps:
            raise ValueError("union must contain at least one polytope")
        if len({p.dimension for p in ps}) != 1:
            raise DimensionMismatch("inconsistent polytope dimensions in union")
        n = ps[0].dimension
        object.__setattr__(self, "polytopes", ps)
        # every polytope's rows, padded to one count with rows 0.x < inf
        k = max(len(p.b) for p in ps)
        rows, strict = np.zeros((len(ps), k, n)), np.full((len(ps), k, 1), np.inf)
        for i, p in enumerate(ps):
            rows[i, :len(p.b)], strict[i, :len(p.b), 0] = p._rows, p._strict
        object.__setattr__(self, "_rows", rows.reshape(-1, n))
        object.__setattr__(self, "_strict", strict)

    @property
    def dimension(self) -> int:
        return self.polytopes[0].dimension

    exact_form = property(lambda self: self)

    @functools.cached_property
    def isolated(self) -> tuple:
        """Per polytope, whether its closure is proven to meet no other
        polytope's closure; computed at the first read, one least-distance
        check per pair not already known to touch on both sides."""
        ps = self.polytopes
        touching = [False] * len(ps)
        for i, j in itertools.combinations(range(len(ps)), 2):
            if not (touching[i] and touching[j]) and not closures_disjoint(ps[i], ps[j]):
                touching[i] = touching[j] = True
        return tuple(not t for t in touching)

    def contains(self, x) -> bool:
        x = as_point(x)
        _check_dim(x, self._rows[0])
        return bool(self.contains_many(x[None, :])[0])

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        v = _dot_rows(self._rows, X).reshape(self._strict.shape[:2] + (X.shape[0],))
        return (v < self._strict).all(axis=1).any(axis=0)


@dataclasses.dataclass(frozen=True, eq=False)
class AnalyticRegion:
    predicate: dsl.Predicate
    exact_form = None  # no rows to read: every check of it is sampled

    @property
    def dimension(self) -> int:
        return self.predicate.dimension

    def contains(self, x) -> bool:
        return self.predicate.evaluate(as_point(x))

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        return self.predicate.evaluate_many(X)


LabelRegion = Halfspace | HPolytope | UnionOfPolytopes | AnalyticRegion


def analytic(text: str, dimension: int) -> AnalyticRegion:
    return AnalyticRegion(dsl.Predicate(dsl.parse(text, dimension), dimension))


@dataclasses.dataclass(frozen=True, eq=False)
class PartitionReport:
    samples: int
    violations: tuple  # of (point, tuple of claiming names; empty tuple = unclaimed)
    violation_count: int

    @property
    def verdict(self) -> str:
        return "unfalsified" if self.violation_count == 0 else "violated"


@dataclasses.dataclass(frozen=True, eq=False)
class Classifier:
    dimension: int
    labels: dict  # name -> LabelRegion, insertion-ordered
    refinement_set: LabelRegion | None = None
    domain_box: np.ndarray | None = None  # shape (2, n): rows are lows, highs
    probe_points: tuple = ()
    diameter: float = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if not self.labels:
            raise ValueError("classifier needs at least one label")
        if REFINEMENT in self.labels:
            raise ValueError(f"label name {REFINEMENT!r} is reserved for the refinement set")
        for name, region in self.labels.items():
            if region.dimension != self.dimension:
                raise DimensionMismatch(
                    f"label {name!r} has dimension {region.dimension}, "
                    f"classifier declares {self.dimension}")
        if self.refinement_set is not None and self.refinement_set.dimension != self.dimension:
            raise DimensionMismatch("refinement set dimension mismatch")
        if self.domain_box is None:
            box = np.array([[-DEFAULT_BOX_HALFWIDTH] * self.dimension,
                            [DEFAULT_BOX_HALFWIDTH] * self.dimension])
        else:
            box = np.asarray(self.domain_box, dtype=float)
            if box.shape != (2, self.dimension) or np.any(box[1] <= box[0]):
                raise ValueError(f"domain_box must be 2x{self.dimension} with lows < highs")
        with np.errstate(over="ignore"):
            diameter = float(np.linalg.norm(box[1] - box[0]))
        if not (np.isfinite(box).all() and diameter < np.inf):
            raise ValueError("domain_box must have finite bounds and a finite diameter")
        object.__setattr__(self, "domain_box", box)
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "probe_points",
                           tuple(as_point(p) for p in self.probe_points))

    @property
    def ordinary(self) -> bool:
        return self.refinement_set is None

    def regions(self):
        """(name, region) pairs including the refinement set."""
        yield from self.labels.items()
        if self.refinement_set is not None:
            yield REFINEMENT, self.refinement_set


def _claims(C: Classifier, X: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Names of C's regions, refinement set last, and the (regions, rows)
    mask of which of them claim each row of X: one contains_many per
    region. Raises EvalError when some row's label cannot be evaluated."""
    names, masks = zip(*((name, region.contains_many(X)) for name, region in C.regions()))
    return names, np.array(masks)


def label_of(C: Classifier, x) -> str:
    """Name of the unique region containing x; REFINEMENT when only the
    refinement set claims it. Raises AmbiguousLabel / NoLabel on malformed
    partitions."""
    x = as_point(x)
    if x.shape[0] != C.dimension:
        raise DimensionMismatch(
            f"point dimension {x.shape[0]} vs classifier dimension {C.dimension}")
    names, masks = _claims(C, x[None, :])
    claimers = [name for name, claims in zip(names, masks[:, 0]) if claims]
    if len(claimers) == 1:
        return claimers[0]
    if not claimers:
        raise NoLabel(x)
    raise AmbiguousLabel(x, claimers)


def labels_of(C: Classifier, X: np.ndarray) -> list:
    """label_of for each row of X, or None where it would raise NoLabel,
    AmbiguousLabel or EvalError. The batch takes one contains_many per
    region; a batch that cannot be evaluated is split in halves, down to
    single rows, so that only the rows at fault get None: one such row in m
    costs each region at most 2 ceil(log2 m) more calls. A row with a
    non-finite coordinate is no point: an analytic label raises EvalError
    on it, so it gets None where C has one."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != C.dimension:
        raise DimensionMismatch(
            f"points of shape {X.shape} vs classifier dimension {C.dimension}")
    try:
        names, masks = _claims(C, X)
    except EvalError:
        if X.shape[0] <= 1:
            return [None] * X.shape[0]
        half = X.shape[0] // 2
        return labels_of(C, X[:half]) + labels_of(C, X[half:])
    unique = masks.sum(axis=0) == 1
    return [names[j] if ok else None
            for j, ok in zip(masks.argmax(axis=0).tolist(), unique.tolist())]


def sample_box(box: np.ndarray, rng: np.random.Generator, m: int) -> np.ndarray:
    lo, hi = box
    return lo + (hi - lo) * rng.random((m, lo.shape[0]))


def validate_partition(C: Classifier, budget: int, seed: int = 0) -> PartitionReport:
    """Sampled partition falsification: every point sampled from the domain
    box (plus any declared probe points) must be claimed by exactly one
    region. The first 20 violations are recorded, and all are counted."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    pts = sample_box(C.domain_box, rng, budget)
    if C.probe_points:
        pts = np.vstack([pts, np.array(C.probe_points)])
    names, masks = _claims(C, pts)
    bad = np.flatnonzero(masks.sum(axis=0) != 1)
    violations = [(pts[idx], tuple(name for name, claims in zip(names, masks[:, idx]) if claims))
                  for idx in bad[:20]]
    return PartitionReport(samples=pts.shape[0], violations=tuple(violations),
                           violation_count=int(bad.size))


# --- serialization ---------------------------------------------------------

def _halfspace_to_dict(h: Halfspace) -> dict:
    return {"a": [float(v) for v in h.a], "b": float(h.b), "closed": bool(h.closed)}


def region_to_dict(region: LabelRegion) -> dict:
    if isinstance(region, Halfspace):
        return {"halfspace": _halfspace_to_dict(region)}
    if isinstance(region, HPolytope):
        return {"polytope": {"halfspaces": [_halfspace_to_dict(h) for h in region.halfspaces]}}
    if isinstance(region, UnionOfPolytopes):
        return {"union": [{"halfspaces": [_halfspace_to_dict(h) for h in p.halfspaces]}
                          for p in region.polytopes]}
    if isinstance(region, AnalyticRegion):
        return {"analytic": region.predicate.source}
    raise TypeError(f"not a region: {region!r}")


def _halfspace_from_dict(body: dict, where: str) -> Halfspace:
    if not isinstance(body, dict) or "a" not in body or "b" not in body:
        raise SchemaError(where, f"halfspace at {where} needs fields 'a' and 'b'")
    return Halfspace(np.asarray(body["a"], dtype=float), float(body["b"]),
                     bool(body.get("closed", True)))


def region_from_dict(body: dict, dimension: int, where: str) -> LabelRegion:
    if not isinstance(body, dict) or len(body) != 1:
        raise SchemaError(where, f"region at {where} must be a single-key object")
    kind, payload = next(iter(body.items()))
    if kind == "halfspace":
        return _halfspace_from_dict(payload, where)
    if kind == "polytope":
        hs = payload.get("halfspaces") if isinstance(payload, dict) else None
        if not hs:
            raise SchemaError(where, f"polytope at {where} needs nonempty 'halfspaces'")
        return HPolytope(tuple(_halfspace_from_dict(h, where) for h in hs))
    if kind == "union":
        if not isinstance(payload, list) or not payload:
            raise SchemaError(where, f"union at {where} must be a nonempty list")
        polys = []
        for p in payload:
            hs = p.get("halfspaces") if isinstance(p, dict) else None
            if not hs:
                raise SchemaError(where, f"union member at {where} needs 'halfspaces'")
            polys.append(HPolytope(tuple(_halfspace_from_dict(h, where) for h in hs)))
        return UnionOfPolytopes(tuple(polys))
    if kind == "analytic":
        if not isinstance(payload, str):
            raise SchemaError(where, f"analytic region at {where} must be a string")
        return analytic(payload, dimension)
    raise SchemaError(where, f"unknown region kind {kind!r} at {where}")


def classifier_to_dict(C: Classifier) -> dict:
    out = {
        "dimension": C.dimension,
        "domain_box": [[float(v) for v in row] for row in C.domain_box],
        "labels": {name: region_to_dict(region) for name, region in C.labels.items()},
    }
    if C.refinement_set is not None:
        out["refinement_set"] = region_to_dict(C.refinement_set)
    if C.probe_points:
        out["probe_points"] = [[float(v) for v in p] for p in C.probe_points]
    return out


def classifier_from_dict(data: dict) -> Classifier:
    if "dimension" not in data:
        raise SchemaError("dimension")
    try:
        dimension = int(data["dimension"])
    except (TypeError, ValueError):
        raise SchemaError("dimension", "field 'dimension' must be an integer")
    if dimension < 1:
        raise SchemaError("dimension", "dimension must be >= 1")
    if "labels" not in data or not isinstance(data["labels"], dict) or not data["labels"]:
        raise SchemaError("labels")
    labels = {name: region_from_dict(body, dimension, f"labels.{name}")
              for name, body in data["labels"].items()}
    refinement = None
    if "refinement_set" in data and data["refinement_set"] is not None:
        refinement = region_from_dict(data["refinement_set"], dimension, "refinement_set")
    box = None
    if "domain_box" in data and data["domain_box"] is not None:
        box = np.asarray(data["domain_box"], dtype=float)
        if box.shape != (2, dimension):
            raise SchemaError("domain_box", f"domain_box must be 2x{dimension}")
    probes = tuple(np.asarray(p, dtype=float) for p in data.get("probe_points", ()))
    return Classifier(dimension=dimension, labels=labels, refinement_set=refinement,
                      domain_box=box, probe_points=probes)


def load_spec(path) -> Classifier:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return classifier_from_dict(data)


def save_spec(C: Classifier, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(classifier_to_dict(C), fh, indent=2)
        fh.write("\n")
