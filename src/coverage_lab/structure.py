"""Structural analysis of classifiers: boundary refinement, asymptotic
direction estimation, halfspace certificates, the refined-linear structure
classifier, negligibility, and generalized-binary-linear recognition.

Coverage is unbounded exactly where a label holds an open halfspace, so
both verdicts ask one question of the geometry (_halfspace_split): do two
labels hold the two open sides of one hyperplane? A convex label's
halfspace is read from its rows; a union or analytic label must hold its
side of the hyperplane _fit_boundary fits to bisected boundary points, on
sampled checks. Yes is refined_linear (or True): the canonical hyperplane
(Hyperplane.unit), the label on its positive side first. classify_structure
also answers not_refined_linear on a third label (on a boundary segment,
one that is not negligible) or a boundary that is not coplanar, trivial
on one label, and inconclusive on no probe, boundary points that do not
determine the fit, or a label budget 0 cannot sample. No coverage answer
decides a verdict. The verdicts rest on finitely many probes and samples:
evidence, not proofs.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import dsl
from .engine import CoverageResult, coverage_at, resolve_limits
from .errors import DegenerateSequence, RefinementPoint, UnsupportedRegion
from .geometry import (Certificate, Halfspace, HPolytope, Hyperplane, _anti_parallel,
                       as_point, as_polytope, convex_form, exact_form,
                       halfspace_in_region, sampled_inside)
from .model import (REFINEMENT, AnalyticRegion, Classifier, UnionOfPolytopes,
                    label_of, labels_of, sample_box)


# --- verdict types ---------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class StructureVerdict:
    """A classify_structure verdict at `cap`. refined_linear carries the
    hyperplane and label_pair, positive side first; not_refined_linear a
    reason, the witness it names if any, and the witness's exact zero or
    bounded coverage if measured; trivial its label; inconclusive a reason."""

    kind: str  # "refined_linear" | "not_refined_linear" | "trivial" | "inconclusive"
    cap: float | None = None
    hyperplane: Hyperplane | None = None
    label_pair: tuple | None = None
    witness: np.ndarray | None = None
    coverage: CoverageResult | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.cap is not None:
            out["cap"] = float(self.cap)
        if self.hyperplane is not None:
            u, c = self.hyperplane.unit()
            out["hyperplane"] = {"a": [float(v) for v in u], "b": float(c)}
        if self.label_pair is not None:
            out["labels"] = list(self.label_pair)
        if self.witness is not None:
            out["witness"] = [float(v) for v in self.witness]
        if self.coverage is not None:
            out["witness_coverage"] = self.coverage.describe()
        if self.reason is not None:
            out["reason"] = self.reason
        return out


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class DirectionEstimate:
    direction: np.ndarray  # unit vector
    residual_angles: tuple  # radians, one per anchor


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class GeneralizedLinearVerdict:
    is_generalized_binary_linear: bool
    hyperplane: Hyperplane | None = None
    reason: str | None = None


# --- boundary refinement ---------------------------------------------------

def _piece_key(p: HPolytope) -> tuple:
    """Canonical key of a boundary piece: its (unit row, offset, closed)
    triples, rounded and sorted, so that one piece written with its rows in
    any order or scale has one key."""
    return tuple(sorted(zip(map(tuple, np.round(p.A, 9).tolist()),
                            np.round(p.b, 9).tolist(), p.closed.tolist())))


def _recompare(e, ops):
    """Predicate e with each comparison's operator replaced by its entry in
    ops, if any: {"<=": "<", ">=": ">"} gives a label's strict version and
    {"<": "<=", ">": ">="} its closure. Raises UnsupportedRegion on an
    equality, a 'not', or a node that is not boolean."""
    if isinstance(e, dsl.Cmp):
        if e.op == "==":
            raise UnsupportedRegion("cannot refine an equality predicate label")
        return dsl.Cmp(ops.get(e.op, e.op), e.left, e.right)
    if isinstance(e, dsl.BoolOp):
        return dsl.BoolOp(e.op, _recompare(e.left, ops), _recompare(e.right, ops))
    if isinstance(e, dsl.Not):
        raise UnsupportedRegion("cannot refine predicates containing 'not'")
    if isinstance(e, dsl.BoolLit):
        return e
    raise UnsupportedRegion(f"cannot refine predicate node {type(e).__name__}")


def _boundary_pieces(P: HPolytope) -> list:
    """Per row of P, the closed piece of its hyperplane {a.x = b} that P's
    other rows, closed, cut out."""
    closed = [Halfspace(h.a, h.b, True) for h in P.halfspaces]
    return [HPolytope([h, Halfspace(-h.a, -h.b, True)] + closed[:i] + closed[i + 1:])
            for i, h in enumerate(closed)]


def refine_boundary(C: Classifier) -> Classifier:
    """Replace each label by its strict-inequality (interior-style) version
    and collect the former boundary pieces into the refinement set.

    label_of agrees with the input everywhere off the new refinement set.
    Pieces are deduped on a canonical key of their rows, so refining an
    already-refined classifier whose refinement set holds the label
    boundaries returns it unchanged, the same object.
    """
    forms = [exact_form(r) for _, r in C.regions()]  # the refinement set's last
    if any(form is None for form in forms):
        if not all(form is None for form in forms):
            raise UnsupportedRegion("cannot mix analytic and polytope regions in refine")
        return _refine_analytic(C)

    new_labels = {}
    pieces = []
    for (name, region), form in zip(C.labels.items(), forms):
        opened = tuple(HPolytope(Halfspace(h.a, h.b, False) for h in p.halfspaces)
                       for p in form.polytopes)
        # each label keeps its kind: a halfspace is its form's one row
        new_labels[name] = (UnionOfPolytopes(opened) if convex_form(region) is None
                            else opened[0] if form is region else opened[0].halfspaces[0])
        for p in form.polytopes:
            pieces.extend(_boundary_pieces(p))

    # dedupe pieces against each other and the existing set, keeping the first
    kept = {}
    for p in () if C.ordinary else forms[-1].polytopes:
        kept.setdefault(_piece_key(p), p)
    n_existing = len(kept)
    for p in pieces:
        kept.setdefault(_piece_key(p), p)
    if n_existing and len(kept) == n_existing:
        return C  # refinement set already covers every boundary piece
    all_pieces = tuple(kept.values())
    refinement = all_pieces[0] if len(all_pieces) == 1 else UnionOfPolytopes(all_pieces)
    return Classifier(dimension=C.dimension, labels=new_labels,
                      refinement_set=refinement, domain_box=C.domain_box,
                      probe_points=C.probe_points)


def _disjuncts(e) -> list:
    """The operands of e's top-level 'or' chain, in order; [e] for another
    node."""
    if isinstance(e, dsl.BoolOp) and e.op == "or":
        return _disjuncts(e.left) + _disjuncts(e.right)
    return [e]


def _refine_analytic(C: Classifier) -> Classifier:
    """refine_boundary on analytic labels: the refinement set is the 'or'
    of the existing one's disjuncts, if any, and each label's boundary term
    (its closure and not its strict version), deduped by equality."""
    disjuncts = [] if C.ordinary else _disjuncts(C.refinement_set.predicate.expr)
    n_existing = len(disjuncts)
    new_labels = {}
    for name, region in C.labels.items():
        expr = region.predicate.expr
        strict = _recompare(expr, {"<=": "<", ">=": ">"})
        new_labels[name] = AnalyticRegion(dsl.Predicate(strict, C.dimension))
        term = dsl.BoolOp("and", _recompare(expr, {"<": "<=", ">": ">="}), dsl.Not(strict))
        if term not in disjuncts:
            disjuncts.append(term)
    if len(disjuncts) == n_existing and all(new_labels[name].predicate == region.predicate
                                            for name, region in C.labels.items()):
        return C  # already refined
    combined = functools.reduce(lambda a, b: dsl.BoolOp("or", a, b), disjuncts)
    return Classifier(dimension=C.dimension, labels=new_labels,
                      refinement_set=AnalyticRegion(dsl.Predicate(combined, C.dimension)),
                      domain_box=C.domain_box, probe_points=C.probe_points)


# --- asymptotic direction --------------------------------------------------

def estimate_asymptotic_direction(anchors, x) -> DirectionEstimate:
    """Unit directions from x to the anchor centers, with residual angles
    against the final direction."""
    x = as_point(x)
    anchors = list(anchors)
    if len(anchors) < 3:
        raise DegenerateSequence(f"need at least 3 anchors, got {len(anchors)}")
    radii = [a.ball.radius for a in anchors]
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("anchor radii must be strictly increasing")
    dirs = []
    for a in anchors:
        if not a.ball.contains(x):
            raise ValueError("every anchor must contain the query point")
        v = a.ball.center - x
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise DegenerateSequence("anchor centered exactly at the query point")
        dirs.append(v / nrm)
    s_star = dirs[-1]
    residuals = tuple(
        float(np.arccos(np.clip(d @ s_star, -1.0, 1.0))) for d in dirs)
    return DirectionEstimate(direction=s_star, residual_angles=residuals)


# --- halfspace certificates ------------------------------------------------

def halfspace_certificate(C: Classifier, x, direction, budget: int = 20_000,
                          seed: int = 0) -> Certificate:
    """Test whether the open halfspace {p : direction.(p - x) > 0} lies
    inside the label region of x: exact for convex labels, sampled (box
    plus far field) otherwise. A direction whose norm is zero or overflows
    raises ValueError."""
    x = as_point(x)
    name = label_of(C, x)
    if name == REFINEMENT:
        raise RefinementPoint("certificate base point lies in the refinement set")
    d = as_point(direction)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(d))
    if not 0.0 < norm < np.inf:
        raise ValueError(f"direction must have a nonzero finite norm, got {norm}")
    return _halfspace_in(C, C.labels[name], x, d / norm, budget, seed)


def _halfspace_in(C: Classifier, region, x, d, budget: int, seed: int) -> Certificate:
    """The open halfspace {p : d.(p - x) > 0} (d unit) inside `region`,
    which need not hold x: exact for convex labels, else sampled from
    budget >= 1 points, of which those in the halfspace are tested and
    counted in `samples`. A sample whose label cannot be evaluated refutes
    without a witness."""
    if convex_form(region) is not None:
        return halfspace_in_region(x, d, region)
    if budget < 1:
        raise ValueError(f"a sampled check needs at least one sample, got {budget}")
    rng = np.random.default_rng(seed)
    diam = C.diameter
    n_box = budget * 9 // 10
    pts = sample_box(C.domain_box, rng, n_box)
    keep = (pts - x) @ d > 0
    pts = pts[keep]
    n_far = budget - n_box  # at least one point, inside the halfspace
    u = rng.standard_normal((n_far, C.dimension))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    sign = np.sign(u @ d)
    sign[sign == 0] = 1.0
    far = x + (10.0 * diam) * (u * sign[:, None])
    ok, witness = sampled_inside(region, (pts, far))
    return Certificate("unfalsified" if ok else "refuted", witness=witness,
                       samples=pts.shape[0] + n_far, seed=seed)


# --- structure classification ----------------------------------------------

def _feature_space_probes(C: Classifier, count: int, rng) -> list:
    """(point, label) pairs for `count` feature-space points, skipping
    refinement-set points. Each drawn batch is labelled by one call."""
    probes = []
    attempts = 0
    while len(probes) < count and attempts < 50 * count + 1000:
        batch = sample_box(C.domain_box, rng, count)
        for p, name in zip(batch, labels_of(C, batch)):
            attempts += 1
            if name is None or name == REFINEMENT:
                continue
            probes.append((p.copy(), name))  # a view would pin the batch
            if len(probes) == count:
                break
    return probes


LEVELS = 4  # bisection steps per labels_of call: 3 to 5 measured alike, 6 slower


def _bisect_boundaries(C: Classifier, segments, la, lb) -> list:
    """Boundary points on the segments (pa, pb) whose endpoints carry labels
    la and lb, bisected in lockstep: each labels_of call labels every
    running segment's dyadic grid of 2**k - 1 points over [lo, hi], and a
    binary search walks each grid (a point's label does not depend on its
    batch, so the points it skips are merely dropped). The segments stay
    equally wide and dyadic, and k is the steps that width needs, at most
    LEVELS: a segment stops once 1e-14 wide, after 47 steps, at the
    midpoint, or at a point of another label. Returns a (point, other) pair
    per segment: other is the third label met there, or None (the
    refinement set or no label ends a segment too, with None)."""
    pa = np.array([s[0] for s in segments])
    seg = np.array([s[1] for s in segments]) - pa
    lo, hi = [0.0] * len(segments), [1.0] * len(segments)
    ends = [None] * len(segments)
    running = list(range(len(segments)))
    while running:
        # width / 1e-14 = 5**14 * 2**(14 - m): its log2 is 0.507 off an integer
        levels = min(LEVELS, math.ceil(math.log2((hi[running[0]] - lo[running[0]]) / 1e-14)))
        width = 2 ** levels
        grid = np.empty((len(running), width + 1))
        grid[:, 0], grid[:, -1] = [lo[i] for i in running], [hi[i] for i in running]
        # each point is 0.5 * (lo + hi) of the interval it halves, to the bit
        for step in (width >> k for k in range(levels)):
            grid[:, step // 2::step] = 0.5 * (grid[:, :-1:step] + grid[:, step::step])
        pts = pa[running, None] + grid[:, 1:-1, None] * seg[running, None]
        names = labels_of(C, pts.reshape(-1, C.dimension))
        for row, (i, g) in enumerate(zip(running, grid.tolist())):
            a, b = 0, width
            while b - a > 1:
                m = (a + b) // 2
                name = names[row * (width - 1) + m - 1]
                if name not in (la, lb):
                    # a view would pin pts in a verdict that keeps the point
                    ends[i] = (pts[row, m - 1].copy(), None if name == REFINEMENT else name)
                    break
                a, b = (m, b) if name == la else (a, m)
            lo[i], hi[i] = g[a], g[b]
        running = [i for i in running if ends[i] is None and hi[i] - lo[i] > 1e-14]
    return [(pa[i] + 0.5 * (lo[i] + hi[i]) * seg[i], None) if end is None else end
            for i, end in enumerate(ends)]


def _fit_boundary(C: Classifier, probes, la, lb, rng):
    """The hyperplane between labels la and lb, fitted to the ends of
    max(n + 1, 8) segments, each between a distinct pair of their probes,
    bisected by _bisect_boundaries to 1e-14 in at most 47 steps. A label
    with fewer than n + 1 probes gets more, drawn from rng. A segment that
    meets a negligible label ends on it, as on the boundary; an analytic
    third label is never negligible here. Returns the Hyperplane, else a
    verdict without a cap: not_refined_linear at the first segment that
    meets a third label that is not negligible (its point the witness), or
    when a label has no probe or the ends are not coplanar; inconclusive
    when the ends spread along fewer than n - 1 directions by more than 10
    times the fit's residual tolerance, where the normal would be
    arbitrary."""
    n = C.dimension
    groups = {la: [p for p, m in probes if m == la], lb: [p for p, m in probes if m == lb]}
    if not (groups[la] and groups[lb]):
        reason = f"no probe landed in label {(lb if groups[la] else la)!r}"
        return StructureVerdict("not_refined_linear", reason=reason)
    for _ in range(8):  # a label that eight draws miss keeps fewer probes
        if min(map(len, groups.values())) > n:
            break
        for p, m in _feature_space_probes(C, n + 1, rng):
            if m in groups:
                groups[m].append(p)
    group_a, group_b = groups[la], groups[lb]
    # the pairs (k mod |A|, k mod |B|) repeat after lcm(|A|, |B|) segments;
    # shifting the second index once per lcm reaches every pair once
    want, (p, q) = max(n + 1, 8), (len(group_a), len(group_b))
    lcm = math.lcm(p, q)
    ends = _bisect_boundaries(C, [(group_a[k % p], group_b[(k + k // lcm) % q])
                                  for k in range(want)], la, lb)
    for pt, other in ends:  # the first segment that meets a third label decides
        if other is not None and (exact_form(C.labels[other]) is None
                                  or not is_negligible_region(C.labels[other])):
            return StructureVerdict("not_refined_linear", witness=pt,
                                    reason=f"third label {other!r} on boundary segment")
    points = np.array([pt for pt, _ in ends])
    centroid = points.mean(axis=0)
    _, svals, vt = np.linalg.svd(points - centroid, full_matrices=True)
    spread = svals / np.sqrt(want)  # want > n points: svals has n entries
    fit_tol = 1e-6 * C.diameter
    rank = int(np.count_nonzero(spread[:n - 1] > 10 * fit_tol))
    if rank < n - 1:
        return StructureVerdict("inconclusive", reason=f"boundary fit underdetermined: "
                                                       f"rank {rank} of {n - 1}")
    if spread[-1] > fit_tol:
        return StructureVerdict("not_refined_linear", reason=(
            f"boundary points not coplanar (residual {spread[-1]:.3g} > {fit_tol:.3g})"))
    normal = vt[-1].copy()  # a view would pin vt
    return Hyperplane(normal, float(normal @ centroid))


def _halfspace_split(C: Classifier, probes, la, lb, budget: int, seed: int, rng,
                     fitted: Hyperplane | None = None) -> StructureVerdict:
    """Whether labels la and lb hold the two open sides of one hyperplane,
    as a verdict without a cap. A convex label's halfspace is read from its
    rows (_held_halfspace); a union or analytic label must hold its first
    probe's side of the hyperplane `fitted` (else fitted here by
    _fit_boundary, with rng) on budget samples (_halfspace_in), or else,
    when budget < 1 cannot sample it, the split is "inconclusive". Read
    boundaries agree to rounding, a fitted one to 1e-3. "refined_linear" carries the
    canonical hyperplane, read where it can be, and la, lb in side order."""
    convex = [convex_form(C.labels[n]) is not None for n in (la, lb)]
    held = []  # per label the (u, beta) of the open halfspace {u.p < beta} it holds
    for name, read in zip((la, lb), convex):
        if read:
            held.append(_held_halfspace(C.labels[name]))
        elif budget < 1:
            reason = f"label {name!r} cannot be sampled at budget {budget}"
            return StructureVerdict("inconclusive", reason=reason)
        else:
            if fitted is None:
                fitted = _fit_boundary(C, probes, la, lb, rng)
                if isinstance(fitted, StructureVerdict):
                    return fitted
            # the fitted normal is a unit vector, and the side is the label's first probe's
            first = next(p for p, n in probes if n == name)
            d = fitted.a if fitted.signed_distance(first) > 0 else -fitted.a
            ok = _halfspace_in(C, C.labels[name], fitted.b * fitted.a, d, budget, seed).ok
            held.append((-d, -fitted.b * float(d @ fitted.a)) if ok else None)
        if held[-1] is None:
            reason = f"label {name!r} admits no open-halfspace certificate"
            return StructureVerdict("not_refined_linear", reason=reason)
    (ua, ba), (ub, bb) = held
    tol = 1e-12 if all(convex) else 1e-3  # rounding, or the fit's
    if not _agree((ua, ba), (-ub, -bb), C.diameter, tol):
        return StructureVerdict("not_refined_linear",
                                reason="halfspace boundaries do not coincide")
    # la lies on the positive side of both {-ua.p = -ba} and {ub.p = bb}
    hyp = Hyperplane(-ua, -ba) if convex == [True, False] else Hyperplane(ub, bb)
    u, c = hyp.unit()
    # adding 0.0 makes a negative zero positive, so that none is printed
    return StructureVerdict("refined_linear", hyperplane=Hyperplane(u + 0.0, c + 0.0),
                            label_pair=(la, lb) if u @ hyp.a > 0 else (lb, la))


def classify_structure(C: Classifier, probe_count: int = 30,
                       cap: float | None = None, budget: int = 20_000,
                       seed: int = 0, tol: float | None = None) -> StructureVerdict:
    """Refined-linear test on probe_count feature-space probes, decided
    from geometry alone. "trivial": they carry one label.
    "not_refined_linear": a third label among them, or one that is not
    negligible on a boundary segment, boundary points that are not
    coplanar, or two labels that fail _halfspace_split. "inconclusive": no
    probe found, or boundary points too few to fit (_fit_boundary). Else
    _halfspace_split's verdict: "refined_linear" or "inconclusive".

    A not_refined_linear witness is the point its reason names, if any,
    unless the first probe of a convex label that holds no open halfspace
    answers an exact zero or bounded coverage: then that probe is the
    witness, with that coverage. It is the one coverage query, bounded by
    cap and tol; budget is the split's sample count."""
    cap, tol = resolve_limits(C, cap, tol, budget)
    rng = np.random.default_rng(seed)
    probes = _feature_space_probes(C, probe_count, rng)
    if not probes:
        return StructureVerdict("inconclusive", cap=cap,
                                reason="no feature-space probes found")
    seen = list(dict.fromkeys(name for _, name in probes))  # in order of first probe
    if len(seen) == 1:
        return StructureVerdict("trivial", cap=cap, label_pair=(seen[0],))
    if len(seen) > 2:
        verdict = StructureVerdict("not_refined_linear",
                                   witness=next(p for p, n in probes if n == seen[2]),
                                   reason=f"more than two labels observed ({seen})")
    else:
        fit = _fit_boundary(C, probes, *seen, rng)
        verdict = (fit if isinstance(fit, StructureVerdict)
                   else _halfspace_split(C, probes, *seen, budget, seed, rng, fitted=fit))
    if verdict.kind == "not_refined_linear":
        # a convex label that holds no open halfspace has bounded coverage
        unheld = {n for n in seen if convex_form(C.labels[n]) is not None
                  and _held_halfspace(C.labels[n]) is None}
        p = next((p for p, n in probes if n in unheld), None)
        if p is not None:
            res = coverage_at(C, p, cap=cap, tol=tol)  # exact: the label is convex
            if res.kind in ("zero", "bounded"):
                verdict = dataclasses.replace(verdict, witness=p, coverage=res)
    return dataclasses.replace(verdict, cap=cap)


# --- negligibility and generalized binary linear ---------------------------

def _forced_hyperplanes(P: HPolytope) -> tuple:
    """(empty, forced) as P's anti-parallel row pairs show it: a pair with
    a negative gap makes P empty, and so does a pair with a strict row and
    no positive gap; each pair with zero gap forces P into its hyperplane
    {a.x = b}. An empty interior that no pair shows, as in a point cut by
    three rows, is not seen (Schrijver 1986, section 7.8)."""
    i, j = np.nonzero(_anti_parallel(P.A[:, None], P.A))
    i, j = i[i < j], j[i < j]
    gaps = (P.b[i] + P.b[j]).tolist()
    shut = P.closed.tolist()
    forced = [Hyperplane(P.A[k], P.b[k]) for k, gap in zip(i.tolist(), gaps)
              if abs(gap) <= 1e-9]
    return any(gap < -1e-9 or (gap <= 0.0 and not (shut[k] and shut[l]))
               for k, l, gap in zip(i.tolist(), j.tolist(), gaps)), forced


def _agree(h1: tuple, h2: tuple, scale: float, tol: float) -> bool:
    """Whether two (unit normal, offset) pairs name one hyperplane: their
    normals within tol, their offsets within max(tol * scale, 1e-9)."""
    (u1, c1), (u2, c2) = h1, h2
    return (float(np.linalg.norm(u1 - u2)) <= tol
            and abs(c1 - c2) <= max(tol * scale, 1e-9))


def is_negligible_region(region) -> bool:
    """True iff every polytope piece is empty or has a forced hyperplane,
    as its anti-parallel row pairs show (_forced_hyperplanes). Raises
    UnsupportedRegion for an analytic region."""
    if isinstance(region, Hyperplane):
        return True
    if (form := exact_form(region)) is None:
        raise UnsupportedRegion(
            f"negligibility undecidable for {type(region).__name__}")
    return all(empty or forced for empty, forced in map(_forced_hyperplanes, form.polytopes))


def _held_halfspace(region):
    """The unit row (u, beta) of the open halfspace {u.p < beta} that a
    convex label holds, or None.

    A convex label holds an open halfspace exactly when all its unit rows
    are one u, and then the halfspace is u.p < its lowest offset; the
    check reads that from the rows."""
    P = as_polytope(region)
    i = int(np.argmin(P.b))
    if halfspace_in_region(P.b[i] * P.A[i], -P.A[i], P).ok:
        return P.A[i].copy(), float(P.b[i])  # a view would pin P.A
    return None


def is_generalized_binary_linear(C: Classifier, probe_count: int = 100,
                                 seed: int = 0,
                                 budget: int = 20_000) -> GeneralizedLinearVerdict:
    """True iff exactly two labels are full-dimensional, each contains a
    maximal open halfspace, the two halfspace boundaries coincide, and all
    negligible labels lie inside that shared hyperplane.

    Convex labels need no probes, and a classifier of them draws none.
    Otherwise probe_count probes are drawn: an analytic label is
    full-dimensional when one lands in it, else the verdict is False. The
    two full labels must pass _halfspace_split, whose reason a False
    verdict gives. No coverage query is made."""
    if not C.ordinary:
        raise ValueError("generalized-binary-linear test expects an ordinary classifier")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    convex = all(convex_form(r) is not None for r in C.labels.values())
    rng = None if convex else np.random.default_rng(seed)  # convex labels draw nothing
    probes = [] if convex else _feature_space_probes(C, probe_count, rng)
    seen = {name for _, name in probes}

    negligible, full = [], []
    for name, region in C.labels.items():
        if exact_form(region) is None:
            if name not in seen:
                return GeneralizedLinearVerdict(
                    False, reason=f"cannot decide negligibility of label {name!r}")
            full.append(name)
        else:
            (negligible if is_negligible_region(region) else full).append(name)
    if len(full) != 2:
        return GeneralizedLinearVerdict(
            False, reason=f"{len(full)} full-dimensional labels, need exactly 2")

    split = _halfspace_split(C, probes, *full, budget, seed, rng)
    if (main := split.hyperplane) is None:  # only a refined_linear split carries one
        return GeneralizedLinearVerdict(False, reason=split.reason)

    for name in negligible:  # each piece is empty, or one hyperplane it is forced into is main
        for empty, forced in map(_forced_hyperplanes, exact_form(C.labels[name]).polytopes):
            if not (empty or any(_agree(h.unit(), main.unit(), C.diameter, 1e-6)
                                 for h in forced)):
                return GeneralizedLinearVerdict(
                    False, reason=f"negligible label {name!r} lies off the "
                                  f"separating hyperplane")
    return GeneralizedLinearVerdict(True, hyperplane=main)
