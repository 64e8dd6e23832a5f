"""Numeric primitives: points, balls, halfspaces, hyperplanes and H-polytopes.

Conventions
-----------
* A halfspace is ``{x : a.x < b}`` (open) or ``{x : a.x <= b}`` (closed).
* Balls are open: membership is ``||x - c|| < r``.
* An open ball is contained in a halfspace exactly when
  ``a.c <= b - r * ||a||``; equality is permitted even against an open
  halfspace, because tangency contributes no interior point.

No feature rescaling happens anywhere in this module; radii and distances
are in raw feature units.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import DimensionMismatch, EmptyPolytope, EvalError, ExactUnsupported


def as_point(x) -> np.ndarray:
    """Coerce to a finite 1-D float vector."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise DimensionMismatch(f"point must be a 1-D vector, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"point has non-finite entries: {p}")
    return p


def _normal_offset(a, b, kind: str) -> tuple[np.ndarray, float]:
    """(a, b) as a vector and a float, with 0 < ||a|| < inf and b finite."""
    a, b = as_point(a), float(b)
    # ||a||^2 in Python floats, which overflow to inf without a warning
    if not 0.0 < sum(v * v for v in a.tolist()) < math.inf:
        raise ValueError(f"{kind} normal a must be nonzero with a finite norm")
    if not math.isfinite(b):
        raise ValueError(f"{kind} offset b must be finite, got {b}")
    return a, b


def _check_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def _dot_rows(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """R @ X.T for rows R (k, n) and points X (m, n), summed term by term in
    coordinate order. Each entry is then the same whatever the other points
    of the batch, which BLAS does not promise, so that a point's label does
    not depend on the points labelled with it."""
    XT = X.T
    out = R[:, :1] * XT[0]
    for j in range(1, R.shape[1]):
        out += R[:, j:j + 1] * XT[j]
    return out


def _margin(x: np.ndarray, r):
    """mu = k (1 + r + ||x||), k = max(1e-14, (n + 3) eps) for eps = 2**-52
    and n = len(x): the rounding that every exact row test forgives at x
    against a radius or offset r (one per row for an array of offsets);
    math.hypot takes ||x|| without overflow. It bounds the rounding of a
    slack b - a.x on a unit row, (n + 1) eps (|b| + ||x||) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 3.1), and
    of a distance d from x or ||x - c|| for c = x + u: forming c and x - c
    rounds each coordinate by at most eps/2 (|x_i| + |u_i|) twice, and a
    norm of n terms reads within (n + 2) eps / 2, relative: a reading near
    r is off by < (n + 3) eps (||x|| + r) <= mu. k is 1e-14 for n <= 42,
    since 45 eps < 1e-14, and (n + 3) eps above."""
    return max(1e-14, (len(x) + 3) * 2.0**-52) * (1.0 + r + math.hypot(*x.tolist()))


def sample_in_ball(center: np.ndarray, radius: float, rng: np.random.Generator,
                   m: int, surface: bool = False) -> np.ndarray:
    """Uniform samples from an open ball, or from just inside its surface.

    Surface samples sit at radius ``r * (1 - 1e-9)`` so they are interior
    points of the open ball; they concentrate checks where containment
    violations of near-tangent balls live.
    """
    n = center.shape[0]
    d = rng.standard_normal((m, n))
    # the sum np.linalg.norm takes, without its wrapper
    norms = np.sqrt(np.add.reduce(d * d, axis=1, keepdims=True))
    if not norms.all():
        norms[norms == 0.0] = 1.0
    d /= norms
    if surface:
        d *= radius * (1.0 - 1e-9)
    else:
        u = rng.random((m, 1)) ** (1.0 / n)
        u *= radius * (1.0 - 1e-12)
        d *= u
    d += center
    return d


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class Ball:
    """Open ball B(center, radius)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def contains(self, x) -> bool:
        x = as_point(x)
        _check_dim(x, self.center)
        v = x - self.center
        return math.sqrt(float(v @ v)) < self.radius


@dataclasses.dataclass(frozen=True, eq=False)
class Halfspace:
    """``{x : a.x < b}`` when open, ``{x : a.x <= b}`` when closed."""

    a: np.ndarray
    b: float
    closed: bool = True

    def __post_init__(self):
        a, b = _normal_offset(self.a, self.b, "halfspace")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        return self.a.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.a))

    def contains(self, x) -> bool:
        x = as_point(x)
        _check_dim(x, self.a)
        return bool(self.contains_many(x[None, :])[0])

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        v = _dot_rows(self.a[None, :], X)[0]
        return v <= self.b if self.closed else v < self.b

    exact_form = functools.cached_property(lambda self: HPolytope((self,)))  # built once


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class Hyperplane:
    """``{x : a.x = b}``."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a, b = _normal_offset(self.a, self.b, "hyperplane")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dimension(self) -> int:
        return self.a.shape[0]

    def unit(self) -> tuple[np.ndarray, float]:
        """Canonical (unit normal, offset) pair with a sign convention.

        The first nonzero coordinate of the unit normal is made positive so
        that equal hyperplanes compare equal regardless of stored sign.
        """
        nrm = float(np.linalg.norm(self.a))
        u = self.a / nrm
        c = self.b / nrm
        nz = np.flatnonzero(np.abs(u) > 1e-12)
        if nz.size and u[nz[0]] < 0:
            u, c = -u, -c
        return u, c

    def signed_distance(self, x) -> float:
        x = as_point(x)
        return (float(self.a @ x) - self.b) / float(np.linalg.norm(self.a))


class HPolytope:
    """Intersection of finitely many halfspaces; may be unbounded or empty.

    Held as arrays computed once: unit normals ``A``, offsets ``b`` (so
    ``b - A x`` are signed distances to the facets) and the ``closed`` mask.
    Membership reads the rows as given, so that it agrees with the
    halfspaces to the last bit.
    """

    def __init__(self, halfspaces):
        hs = tuple(halfspaces)
        if not hs:
            raise ValueError("HPolytope needs at least one halfspace")
        if len({h.dimension for h in hs}) != 1:
            raise DimensionMismatch("inconsistent halfspace dimensions")
        rows, offsets = np.array([h.a for h in hs]), np.array([h.b for h in hs])
        norms = np.linalg.norm(rows, axis=1)
        self._set(rows / norms[:, None], offsets / norms,
                  np.array([h.closed for h in hs]), rows, offsets)
        self._halfspaces = hs

    def _set(self, A, b, closed, rows, offsets):
        self.A, self.b, self.closed, self._rows = A, b, closed, rows
        # a.x <= b exactly when a.x < the next float above b
        self._strict = np.where(closed, np.nextafter(offsets, np.inf), offsets)
        self._halfspaces = None

    @property
    def halfspaces(self) -> tuple:
        if self._halfspaces is None:
            self._halfspaces = tuple(Halfspace(a, b, bool(k))
                                     for a, b, k in zip(self.A, self.b, self.closed))
        return self._halfspaces

    @property
    def dimension(self) -> int:
        return self.A.shape[1]

    exact_form = property(lambda self: self)
    polytopes = property(lambda self: (self,))  # its pieces, as a union's

    def contains(self, x) -> bool:
        x = as_point(x)
        _check_dim(x, self.A[0])
        return bool(self.contains_many(x[None, :])[0])

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        return (_dot_rows(self._rows, X) < self._strict[:, None]).all(axis=0)

    def closure_contains(self, x) -> bool:
        """x in the closure up to rounding: b - A x >= -_margin(x, |b|) per row."""
        x = as_point(x)
        return bool((self.b - self.A @ x >= -_margin(x, np.abs(self.b))).all())

    @functools.cached_property
    def inradius_bracket(self) -> tuple:
        """(lo, hi, center): the inscribed (Chebyshev) radius of P lies in
        [lo, hi], and B(center, lo) lies in P, proven by ball_in_region
        before it is returned; center is None where lo = 0. Computed at the
        first read, with the exact route's own steps: the Farkas vector w of
        A u <= -1 proves hi = b.w / sum(w), since P shrunk by any r > hi is
        empty; then P shrunk by just under hi is probed, and each empty probe
        lowers hi to its own Farkas bound, until a probe holds a center (at
        most one probe per row). A one-row body (no solve), a cone (A u <=
        -1 solvable: P holds balls of every radius) and a solve that proves
        nothing give (0, inf, None), or what was proven so far."""
        A, b = self.A, self.b
        if len(b) < 2:
            return 0.0, math.inf, None
        u, w = least_distance(A, np.full(len(b), -1.0))
        hi = r = math.inf
        for _ in range(len(b)):
            if u is not None or w is None:
                break
            # P shrunk by r, the last probe, is empty, and so is P shrunk past w's bound
            hi = min(r, float(b @ w) / float(w.sum()))
            r = (1.0 - 1e-9) * hi
            if not r > 0.0:
                break
            u, w = least_distance(A, b - r)
            if u is not None:  # in P shrunk by r, to least_distance's slack
                lo = min(r, float(np.min(b - A @ u)))
                if lo > 0.0 and ball_in_region(Ball(u, lo), self, "exact").kind == "proven":
                    return lo, hi, u
        return 0.0, max(hi, 0.0), None


def exact_form(region):
    """A label's `exact_form`: a Halfspace's one-row HPolytope, an HPolytope
    or UnionOfPolytopes itself, or None for an AnalyticRegion; a form's
    pieces are its `polytopes`. Any other object raises ExactUnsupported."""
    try:
        return region.exact_form
    except AttributeError:
        raise ExactUnsupported(f"not a label region: {type(region).__name__}") from None


def convex_form(region) -> HPolytope | None:
    """A label's exact form where that is one polytope, else None."""
    form = exact_form(region)
    return form if isinstance(form, HPolytope) else None


def as_polytope(region) -> HPolytope:
    """convex_form, or ExactUnsupported for a union or an analytic region."""
    if (P := convex_form(region)) is None:
        raise ExactUnsupported(f"exact checks need a Halfspace or HPolytope, "
                               f"got {type(region).__name__}")
    return P


def shrink_polytope(P: HPolytope, r: float) -> HPolytope:
    """Inner parallel body: each a.x <= b becomes a.x <= b - r*||a||.

    B(c, r) lies inside P exactly when c lies in the shrunken polytope
    (tangency against the original boundary allowed).
    """
    if r < 0:
        raise ValueError(f"shrink radius must be nonnegative, got {r}")
    Q = object.__new__(HPolytope)
    Q._set(P.A, P.b - r, P.closed, P.A, P.b - r)
    return Q


def _nnls(E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """argmin ||E w - f|| over w >= 0, by the Lawson-Hanson active-set
    method (Solving Least Squares Problems, 1974, ch. 23)."""
    m = E.shape[1]
    w = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    tiny = 1e-12 * (1.0 + float(np.abs(E).max()))
    for _ in range(3 * m + 3):
        gain = E.T @ (f - E @ w)
        gain[passive] = -np.inf
        j = int(gain.argmax())
        if gain[j] <= tiny:
            break
        passive[j] = True
        while True:
            z = np.zeros(m)
            cols = E[:, passive]
            if cols.shape[1] == 1:
                z[passive] = (cols[:, 0] @ f) / (cols[:, 0] @ cols[:, 0])
            else:
                z[passive] = np.linalg.lstsq(cols, f, rcond=None)[0]
            if (z[passive] > 0.0).all():
                w = z
                break
            if passive[j] and w[j] == 0.0 and z[j] <= 0.0:  # j gains nothing: rounding
                return w
            # step back to the first passive entry that reaches zero
            down = np.flatnonzero(passive & (z <= 0.0))
            ratios = w[down] / (w[down] - z[down])
            k = int(np.argmin(ratios))
            w = w + ratios[k] * (z - w)
            w[down[k]] = 0.0
            passive &= w > 0.0
            w[~passive] = 0.0
    return w


def least_distance(A: np.ndarray, h: np.ndarray):
    """Shortest u with A u <= h (rows of A unit) as ``(u, lam)``, or
    ``(None, w)`` with a Farkas vector w >= 0, A^T w = 0, h.w < 0 proving
    the set empty; ``(None, None)`` when neither answer checks out.

    lam are u's multipliers: lam >= 0, A^T lam = -u, and lam_i = 0 off the
    rows that u meets, so that by the envelope theorem d(||u||^2 / 2) /
    d(shift) = sum(lam) when every h_i moves down by the same shift. lam is
    None when these do not check out to a float-relative slack.

    Its dual is an NNLS problem on ``[-A^T; -h^T / s]``, s = max|h| so
    that a far set's residual is not lost to rounding: a zero residual is
    the Farkas vector, a nonzero one gives the point, and the NNLS weights
    rescaled by s / -residual give its multipliers (Lawson and Hanson,
    Solving Least Squares Problems, 1974, ch. 23).
    """
    m, n = A.shape
    if np.all(h >= 0.0):
        return np.zeros(n), np.zeros(m)
    s = float(np.max(np.abs(h)))
    E = np.vstack([-A.T, -h[None, :] / s])
    f = np.zeros(n + 1)
    f[n] = 1.0
    w = _nnls(E, f)
    v = A.T @ w
    if h @ w < -0.5 * s and math.hypot(*v.tolist()) <= 1e-12 * (1.0 + w.sum()):
        return None, w
    res = E @ w - f
    if res[n] != 0.0:
        u = (-s / res[n]) * res[:n]
        un = math.hypot(*u.tolist())
        slack = 1e-9 * (s + un)
        Au = A @ u
        if np.all(Au <= h + slack):
            lam = (s / -res[n]) * w
            total = float(lam.sum())
            e = A.T @ lam + u
            checks = (np.all(lam >= 0.0)
                      and math.hypot(*e.tolist()) <= 1e-9 * (un + total)
                      and np.all(lam[Au < h - slack] <= 1e-9 * total))
            return u, (lam if checks else None)
    return None, None


def closures_disjoint(P: HPolytope, Q: HPolytope) -> bool:
    """Whether the closures of P and Q are proven disjoint: only a checked
    Farkas vector of their stacked closed rows proves it, so a point of the
    intersection, or no answer that checks out, reads as meeting."""
    u, w = least_distance(np.vstack([P.A, Q.A]), np.concatenate([P.b, Q.b]))
    return u is None and w is not None


@dataclasses.dataclass(frozen=True, slots=True)
class Projection:
    """The nearest point of a polytope's closure to x and its distance,
    which unpack as the pair ``point, distance``, with the multipliers of
    `least_distance` over the polytope's unit rows, or None when they did
    not check out."""

    point: np.ndarray
    distance: float
    multipliers: np.ndarray | None

    def __iter__(self):
        return iter((self.point, self.distance))


def project_onto_polytope(x, P: HPolytope) -> Projection:
    """Nearest point of closure(P) to x and its distance, exact up to
    rounding, with the point's multipliers: by the envelope theorem the
    distance d to P shrunk by r grows at the rate sum(multipliers) / d.
    Raises EmptyPolytope, with its Farkas vector, when the set is empty,
    and without one when the system is too degenerate for either answer to
    check out.
    """
    x = as_point(x)
    _check_dim(x, P.A[0])
    u, lam = least_distance(P.A, P.b - P.A @ x)
    if u is None:
        raise EmptyPolytope("constraint set is empty" if lam is not None else
                            "no verified point or Farkas vector; degenerate set",
                            farkas=lam)
    return Projection(x + u, float(np.linalg.norm(u)), lam)


@dataclasses.dataclass(frozen=True, slots=True)
class Certificate:
    """Outcome of a containment check.

    kind is one of 'proven', 'refuted', 'unfalsified'. A refutation carries
    a witness point, or none when a sample's label could not be evaluated;
    an unfalsified sampled check records (samples, seed).
    """

    kind: str
    witness: np.ndarray | None = None
    samples: int = 0
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return self.kind in ("proven", "unfalsified")


PROVEN = Certificate("proven")


def sampled_inside(region, batches) -> tuple:
    """(True, None) when every point of every batch lies in `region`, else
    (False, the first point outside), or (False, None) when some point's
    label cannot be evaluated. Batches are taken in order and a lazy
    iterable is drawn no further than the first failing batch; an empty
    batch passes."""
    for pts in batches:
        try:
            inside = region.contains_many(pts)
        except EvalError:
            return False, None
        if not inside.all():
            # a copy, so that a witness does not keep its whole batch alive
            return False, pts[int(np.flatnonzero(~inside)[0])].copy()
    return True, None


def ball_in_region(B: Ball, region, method="exact") -> Certificate:
    """Certify B inside `region`.

    method='exact' supports Halfspace and HPolytope only: proven when every
    unit row's slack b - r - a.c reads >= -_margin(c, |b| + r), inside or
    tangent up to rounding, else refuted with a witness in the open ball
    strictly past the first failing row. method=('sampled', m, seed) draws
    m >= 1 uniform interior points (half of them just inside the surface)
    and refutes on the first point outside the region, or when some point's
    label cannot be evaluated; else it returns unfalsified.
    """
    if method == "exact":
        P = as_polytope(region)
        c, r = B.center, B.radius
        slack = P.b - r - P.A @ c
        bad = np.flatnonzero(slack < -_margin(c, np.abs(P.b) + r))
        if bad.size:
            # row i's excess e = -slack > mu: this point is in the ball, >= e/2 past the row
            e = min(-float(slack[bad[0]]), r)
            return Certificate("refuted", witness=c + (r - 0.5 * e) * P.A[bad[0]])
        return PROVEN

    kind, m, seed = method
    if kind != "sampled":
        raise ValueError(f"unknown method {method!r}")
    if m < 1:
        raise ValueError(f"a sampled check needs at least one sample, got {m}")
    rng = np.random.default_rng(seed)
    m_int = m // 2
    ok, witness = sampled_inside(region, (
        sample_in_ball(B.center, B.radius, rng, m_int),
        sample_in_ball(B.center, B.radius, rng, m - m_int, surface=True)))
    return Certificate("unfalsified" if ok else "refuted", witness=witness,
                       samples=m, seed=seed)


def _anti_parallel(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Whether unit rows U and V, broadcast against each other, are
    anti-parallel: |u + v| <= 1e-13, which only rounding reaches. 1 + u.v
    is taken as |u + v|^2 / 2, which stays accurate near -v."""
    return np.square(U + V).sum(axis=-1) <= 1e-26


def halfspace_in_region(x, d, region) -> Certificate:
    """Is the open halfspace H = {p : d.(p - x) > 0} (d unit) inside a
    convex region? Over H, u.p is bounded only when u = -d, and then its
    supremum -d.x is approached but never attained; so H lies inside
    exactly when every unit row is -d and x meets it.

    A row counts as -d when |u + d| <= 1e-13, and x meets it when u.x - b
    <= _margin(x, |b|): only rounding reaches either. Proven or refuted; a
    refutation's witness lies in H and violates the first failing row.
    """
    P = as_polytope(region)
    x, d = as_point(x), as_point(d)
    anti = _anti_parallel(P.A, d)
    gap = P.A @ x - P.b
    bad = np.flatnonzero(~anti | (gap > _margin(x, np.abs(P.b))))
    if not bad.size:
        return PROVEN
    i = int(bad[0])
    if anti[i]:  # x violates row i, and so does x + t d for t < gap
        return Certificate("refuted", witness=x + (0.5 * gap[i]) * d)
    # step k > 2|gap| along d into H, where u.p changes by k u.d; when
    # u.d < 1/2, step on along w, u's part across d, until u.p has grown
    # by 2k more while d.p stays
    k = 1.0 + 2.0 * abs(gap[i]) + abs(P.b[i]) + math.hypot(*x.tolist())
    ud = float(P.A[i] @ d)
    if ud >= 0.5:
        return Certificate("refuted", witness=x + k * d)
    w = P.A[i] - ud * d
    w -= float(w @ d) * d  # the first pass leaves rounding along d
    return Certificate("refuted", witness=x + k * d + (2.0 * k / float(w @ w)) * w)
