"""Coverage fields: per-point coverage over grids or point sets, inf/sup
estimates under the result ordering, classifier comparison at common points,
and CSV / structured-JSON export.

The inf/sup estimates are over the computed probe points only; the true
aggregates over all of feature space are not computable, and nothing here
claims otherwise.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .engine import (Anchor, CoverageResult, compare_results, coverage_at,
                     default_cap, resolve_limits)
from .errors import EvalError, IoError, PointNotInAnyLabel, RefinementPoint
from .geometry import Ball, Certificate, as_point
from .model import Classifier


@dataclasses.dataclass(frozen=True, eq=False)
class CoverageField:
    """Parallel (points, results) lists plus the probe-set inf/sup estimates."""

    points: tuple  # of np.ndarray
    results: tuple  # of CoverageResult, same length
    cap: float
    skipped: tuple = ()  # of (point, reason string)

    def __post_init__(self):
        if len(self.points) != len(self.results):
            raise ValueError("points and results must have equal length")
        object.__setattr__(self, "points", tuple(as_point(p) for p in self.points))
        object.__setattr__(self, "results", tuple(self.results))

    @property
    def inf_estimate(self) -> CoverageResult | None:
        return min(self.results, key=CoverageResult.order_key, default=None)

    @property
    def sup_estimate(self) -> CoverageResult | None:
        return max(self.results, key=CoverageResult.order_key, default=None)


def grid_points(box: np.ndarray, counts) -> np.ndarray:
    """Row-major grid over the box with the given per-axis point counts,
    endpoints included."""
    box = np.asarray(box, dtype=float)
    counts = tuple(int(c) for c in counts)
    if len(counts) != box.shape[1] or any(c < 1 for c in counts):
        raise ValueError(f"need {box.shape[1]} per-axis counts, all >= 1")
    axes = [np.linspace(lo, hi, c) for lo, hi, c in zip(box[0], box[1], counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _resolve_points(C: Classifier, points) -> np.ndarray:
    if isinstance(points, tuple) and points and all(isinstance(c, int) for c in points):
        return grid_points(C.domain_box, points)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != C.dimension:
        raise ValueError(f"points must have shape (m, {C.dimension})")
    return pts


# why a point is skipped, by the query error that skips it
_SKIP_REASONS = {RefinementPoint: "refinement point",
                 PointNotInAnyLabel: "outside all labels",
                 EvalError: "label not evaluable"}


def _skip_reason(exc: Exception) -> str:
    return next(r for kind, r in _SKIP_REASONS.items() if isinstance(exc, kind))


def compute_field(C: Classifier, points, cap: float | None = None,
                  budget: int = 20_000, seed: int = 0,
                  tol: float | None = None) -> CoverageField:
    """coverage_at at each point of a grid spec (tuple of per-axis counts)
    or an explicit (m, n) point array, in input order; point i gets seed
    `seed * 1_000_003 + i`. Refinement-set points, points outside every
    label and points whose own label cannot be evaluated are skipped and
    recorded, not errors."""
    cap, tol = resolve_limits(C, cap, tol, budget)
    kept, results, skipped = [], [], []
    for i, p in enumerate(_resolve_points(C, points)):
        try:
            results.append(coverage_at(C, p, cap=cap, budget=budget,
                                       seed=seed * 1_000_003 + i, tol=tol))
            kept.append(p)
        except tuple(_SKIP_REASONS) as exc:
            skipped.append((p, _skip_reason(exc)))
    return CoverageField(points=tuple(kept), results=tuple(results),
                         cap=cap, skipped=tuple(skipped))


@dataclasses.dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-point ordered comparison of two classifiers at common points."""

    entries: tuple  # of (point, CoverageResult, CoverageResult, relation string)
    skipped: tuple  # of (point, reason)
    cap: float


def compare_at(C1: Classifier, C2: Classifier, points, cap: float | None = None,
               budget: int = 20_000, seed: int = 0,
               tol: float | None = None) -> ComparisonReport:
    """Coverage of both classifiers at each point plus the order relation
    ('less' | 'equal' | 'greater', C1 relative to C2). No rescaling happens;
    both classifiers are measured on the same raw feature scale."""
    if C1.dimension != C2.dimension:
        raise ValueError("classifiers must share a dimension")
    if cap is None:
        cap = max(default_cap(C1), default_cap(C2))
    cap, cmp_tol = resolve_limits(C1, cap, tol, budget)
    pts = np.asarray(points, dtype=float)
    entries, skipped = [], []
    for i, p in enumerate(pts):
        try:
            r1 = coverage_at(C1, p, cap=cap, budget=budget, seed=seed * 1_000_003 + i, tol=tol)
            r2 = coverage_at(C2, p, cap=cap, budget=budget, seed=seed * 1_000_003 + i, tol=tol)
        except tuple(_SKIP_REASONS) as exc:
            skipped.append((p, _skip_reason(exc)))
            continue
        entries.append((p, r1, r2, compare_results(r1, r2, tol=cmp_tol)))
    return ComparisonReport(entries=tuple(entries), skipped=tuple(skipped), cap=cap)


# --- export / import -------------------------------------------------------

def _radius_or_cap(res: CoverageResult) -> float:
    if res.kind == "bounded":
        return res.radius
    if res.kind == "exceeds_cap":
        return res.cap
    return 0.0


def field_to_csv_lines(F: CoverageField) -> list:
    n = F.points[0].shape[0] if F.points else 0
    header = ",".join([f"x{i + 1}" for i in range(n)]
                      + ["coverage_kind", "radius_or_cap", "method"])
    lines = [header]
    for p, res in zip(F.points, F.results):
        cells = [f"{v:.12g}" for v in p]
        cells += [res.kind, f"{_radius_or_cap(res):.12g}", res.method]
        lines.append(",".join(cells))
    return lines


def _anchor_to_dict(a: Anchor) -> dict:
    return {
        "center": [float(v) for v in a.ball.center],
        "radius": float(a.ball.radius),
        "anchored_point": [float(v) for v in a.anchored_point],
        "label": a.label,
        "certificate": {"kind": a.certificate.kind,
                        "samples": int(a.certificate.samples),
                        "seed": a.certificate.seed},
    }


def _anchor_from_dict(d: dict) -> Anchor:
    cert = d["certificate"]
    return Anchor(Ball(np.asarray(d["center"], dtype=float), d["radius"]),
                  np.asarray(d["anchored_point"], dtype=float), d["label"],
                  Certificate(cert["kind"], samples=cert["samples"], seed=cert["seed"]))


def _result_to_dict(res: CoverageResult) -> dict:
    out = {"kind": res.kind, "method": res.method}
    if res.radius is not None:
        out["radius"] = float(res.radius)
    if res.cap is not None:
        out["cap"] = float(res.cap)
    if res.witness is not None:
        out["witness"] = _anchor_to_dict(res.witness)
    if res.witnesses:
        out["witnesses"] = [_anchor_to_dict(a) for a in res.witnesses]
    return out


def _result_from_dict(d: dict) -> CoverageResult:
    return CoverageResult(
        kind=d["kind"], method=d["method"], radius=d.get("radius"),
        cap=d.get("cap"),
        witness=_anchor_from_dict(d["witness"]) if "witness" in d else None,
        witnesses=tuple(_anchor_from_dict(a) for a in d.get("witnesses", ())))


def field_to_dict(F: CoverageField) -> dict:
    return {
        "cap": float(F.cap),
        "points": [[float(v) for v in p] for p in F.points],
        "results": [_result_to_dict(r) for r in F.results],
        "skipped": [{"point": [float(v) for v in p], "reason": reason}
                    for p, reason in F.skipped],
    }


def field_from_dict(data: dict) -> CoverageField:
    return CoverageField(
        points=tuple(np.asarray(p, dtype=float) for p in data["points"]),
        results=tuple(_result_from_dict(r) for r in data["results"]),
        cap=float(data["cap"]),
        skipped=tuple((np.asarray(s["point"], dtype=float), s["reason"])
                      for s in data.get("skipped", ())))


def export_field(F: CoverageField, path, format: str = "csv") -> None:
    """Write the field as 'csv' (one data row per point) or 'structured'
    (lossless JSON; see field_from_dict / import_field)."""
    try:
        if format == "csv":
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(field_to_csv_lines(F)) + "\n")
        elif format == "structured":
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(field_to_dict(F), fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            raise ValueError(f"unknown export format {format!r}")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def import_field(path) -> CoverageField:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return field_from_dict(json.load(fh))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
