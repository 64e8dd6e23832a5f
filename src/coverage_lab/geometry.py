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


def _check_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


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
        scale = radius * (1.0 - 1e-9)
        return center + scale * d
    u = rng.random((m, 1)) ** (1.0 / n)
    return center + (radius * (1.0 - 1e-12)) * u * d


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class Ball:
    """Open ball B(center, radius)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0.0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def contains(self, x) -> bool:
        x = as_point(x)
        _check_dim(x, self.center)
        return float(np.linalg.norm(x - self.center)) < self.radius


@dataclasses.dataclass(frozen=True, eq=False)
class Halfspace:
    """``{x : a.x < b}`` when open, ``{x : a.x <= b}`` when closed."""

    a: np.ndarray
    b: float
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "a", as_point(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not np.linalg.norm(self.a) > 0.0:
            raise ValueError("halfspace normal must be nonzero")

    @property
    def dimension(self) -> int:
        return self.a.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.a))

    def contains(self, x) -> bool:
        x = as_point(x)
        _check_dim(x, self.a)
        v = float(self.a @ x)
        return v <= self.b if self.closed else v < self.b

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        v = X @ self.a
        return v <= self.b if self.closed else v < self.b


@dataclasses.dataclass(frozen=True, eq=False)
class Hyperplane:
    """``{x : a.x = b}``."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_point(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not np.linalg.norm(self.a) > 0.0:
            raise ValueError("hyperplane normal must be nonzero")

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

    def contains(self, x) -> bool:
        x = as_point(x)
        _check_dim(x, self.A[0])
        return bool((self._rows @ x < self._strict).all())

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        return (self._rows @ X.T < self._strict[:, None]).all(axis=0)

    def closure_contains(self, x, atol: float = 0.0) -> bool:
        return bool((self.A @ as_point(x) <= self.b + atol).all())


def as_polytope(region) -> HPolytope:
    """A convex label as an HPolytope: a Halfspace becomes one row, an
    HPolytope is returned as is, and any other region raises
    ExactUnsupported."""
    if isinstance(region, Halfspace):
        return HPolytope((region,))
    if isinstance(region, HPolytope):
        return region
    raise ExactUnsupported(f"exact checks need a Halfspace or HPolytope, "
                           f"got {type(region).__name__}")


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
    """Shortest u with A u <= h (rows of A unit) as ``(u, None)``, or
    ``(None, w)`` with a Farkas vector w >= 0, A^T w = 0, h.w < 0 proving
    the set empty; ``(None, None)`` when neither answer checks out.

    Its dual is an NNLS problem on ``[-A^T; -h^T / s]``, s = max|h| so
    that a far set's residual is not lost to rounding: a zero residual is
    the Farkas vector, a nonzero one gives the point.
    """
    n = A.shape[1]
    if np.all(h >= 0.0):
        return np.zeros(n), None
    s = float(np.max(np.abs(h)))
    E = np.vstack([-A.T, -h[None, :] / s])
    f = np.zeros(n + 1)
    f[n] = 1.0
    w = _nnls(E, f)
    if h @ w < -0.5 * s and np.linalg.norm(A.T @ w) <= 1e-12 * (1.0 + w.sum()):
        return None, w
    res = E @ w - f
    if res[n] != 0.0:
        u = (-s / res[n]) * res[:n]
        if np.all(A @ u <= h + 1e-9 * (s + float(np.linalg.norm(u)))):
            return u, None
    return None, None


def project_onto_polytope(x, P: HPolytope, tol: float):
    """Nearest point of closure(P) to x and its distance, exact up to
    rounding (tol is only checked). Raises EmptyPolytope, with its Farkas
    vector, when the set is empty, and without one when the system is too
    degenerate for either answer to check out.
    """
    x = as_point(x)
    _check_dim(x, P.A[0])
    if tol <= 0:
        raise ValueError("tol must be positive")
    u, w = least_distance(P.A, P.b - P.A @ x)
    if u is None:
        raise EmptyPolytope("constraint set is empty" if w is not None else
                            "no verified point or Farkas vector; degenerate set",
                            farkas=w)
    return x + u, float(np.linalg.norm(u))


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


def ball_in_region(B: Ball, region, method="exact") -> Certificate:
    """Certify B inside `region`.

    method='exact' supports Halfspace and HPolytope only and returns
    proven/refuted: A c <= b - r on the unit rows, up to a float-relative
    slack. method=('sampled', m, seed) draws m uniform interior
    points (half of them just inside the surface) and refutes on the first
    point outside the region, or when some point's label cannot be
    evaluated; else it returns unfalsified.
    """
    if method == "exact":
        P = as_polytope(region)
        c, r = B.center, B.radius
        slack = 1e-9 * (1.0 + np.abs(P.b) + r + float(np.linalg.norm(c)))
        bad = np.flatnonzero(P.A @ c > P.b - r + slack)
        if bad.size:
            # witness just inside the ball, in the violated direction
            return Certificate("refuted", witness=c + (r * (1.0 - 1e-9)) * P.A[bad[0]])
        return PROVEN

    kind, m, seed = method
    if kind != "sampled":
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    m_int = m // 2
    m_surf = m - m_int
    for pts in (sample_in_ball(B.center, B.radius, rng, m_int),
                sample_in_ball(B.center, B.radius, rng, m_surf, surface=True)):
        if pts.shape[0] == 0:
            continue
        try:
            inside = region.contains_many(pts)
        except EvalError:  # some sample's label cannot be evaluated
            return Certificate("refuted", samples=m, seed=seed)
        if not np.all(inside):
            idx = int(np.flatnonzero(~inside)[0])
            return Certificate("refuted", witness=pts[idx], samples=m, seed=seed)
    return Certificate("unfalsified", samples=m, seed=seed)


def halfspace_in_region(x, d, region) -> Certificate:
    """Is the open halfspace H = {p : d.(p - x) > 0} (d unit) inside a
    convex region? Over H, u.p is bounded only when u = -d, and then its
    supremum -d.x is approached but never attained; so H lies inside
    exactly when every unit row is -d and x meets it. A refutation's
    witness lies in H and violates the first failing row.
    """
    P = as_polytope(region)
    x, d = as_point(x), as_point(d)
    ud, gap = P.A @ d, P.A @ x - P.b
    anti = ud <= -1.0 + 1e-9
    bad = np.flatnonzero(~anti | (gap > 1e-9 * (1.0 + np.abs(P.b) + float(np.linalg.norm(x)))))
    if not bad.size:
        return PROVEN
    i = int(bad[0])
    if anti[i]:  # x violates row i, and so does x + t d for t < gap
        return Certificate("refuted", witness=x + (0.5 * gap[i]) * d)
    # along u + d both d.p and u.p grow at the rate 1 + u.d > 0
    t = (1.0 + 2.0 * abs(gap[i]) + abs(P.b[i]) + float(np.linalg.norm(x))) / (1.0 + ud[i])
    return Certificate("refuted", witness=x + t * (P.A[i] + d))
