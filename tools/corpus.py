"""A differential corpus of coverage-lab's outputs, and a diff of two corpora.

    python3 tools/corpus.py --src SRC --out FILE
    python3 tools/corpus.py --diff A B

The first form imports coverage_lab from SRC (default: this checkout's
src/) and writes one JSON line per output, {"key": ..., "out": ...}, with
keys sorted and floats printed by repr. It holds no timings, so two runs
of one commit write byte-identical files, and a corpus written at another
commit (from its own src/) compares key by key. It covers:

- the `verify` report at seeds 0 and 7, one line per report line;
- the structured 20x20 fields of fig1 and fig3 at budgets 0 and 20 000;
- `structure` at seeds 0-2, `refine` and the generalized verdict, on the
  six shipped specs and their refinements;
- `coverage_at` and `coverage_sampled` at 40 seeded points of each of
  eight classifiers (fig1, fig3, the exp(x2) pair, a 5-D ball, the shipped
  refined_linear and linear specs, the two-quadrant union and the union
  {x2 > 0} u {x2 <= 0, x1 > 5}, whose components touch);
- `coverage_at` at near-facet and far points of the halfspace pair
  {x2 > 0}, {x2 <= 0}, at (0, 3) of that union at budgets 0 and 2 000,
  and the exact check of a ball that reaches -1e160 from (0, 1e160);
- the exact checkers against U = {x2 > 0}: `ball_in_region` and
  `certify_anchor` on balls of radius r in {1, 1e3, 5e7, 1e9} inside U,
  tangent to it, grazing out of it by 0.9e-9 r and reaching r/2 out of it;
  `halfspace_in_region` of {p2 > x2} from x1 in {0, 1e9} and x2 in {1e-3,
  0, -1e-10, -0.5}; `closure_contains` at 20 seeded members of closed rows
  through far points; and `coverage_at` at budgets 0 and 2 000 on a far
  point of a closed facet of an isolated union component. A refutation is
  recorded by whether its witness lies in the tested set and outside U;
- the inradius bracket of each polytope label and union component of the
  shipped specs, and `coverage_at` at budgets 0 and 20 000 at a point
  inside and a point outside each bracket's ball, in the same component.

A query that raises records the exception's type and message, and a
float warning is recorded with the output it came with.

The second form prints the keys that moved, were added or were removed,
grouped by the key's first component, and exits 1 when any did.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
import warnings
from pathlib import Path

SPECS = ("fig1.json", "fig3.json", "generalized_linear.json", "linear.json",
         "refined_linear.json", "trivial.json")
POINTS_PER_CLASSIFIER = 40
NEAR_AND_FAR = ((0.0, 1e22), (0.0, 1e150), (0.0, 1e160), (1e6, 1e-6), (1e6, 1e-7),
                (1e6, 1e-8), (1e3, 1e-9), (1e3, 1e-11))
CHECKED_RADII = (1.0, 1e3, 5e7, 1e9)
# ball centers (0, height(r)) against U = {x2 > 0}
BALL_PLACES = (("inside", lambda r: 2.0 * r), ("tangent", lambda r: r),
               ("grazing", lambda r: r - 0.9e-9 * r), ("outside", lambda r: 0.5 * r))
HALFSPACE_BASES = tuple((x1, x2) for x1 in (0.0, 1e9) for x2 in (1e-3, 0.0, -1e-10, -0.5))
CLOSURE_MEMBERS = 20


def _outcome(call):
    """call()'s value, or its exception as {"raised": ...}, with the float
    warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except Exception as exc:  # noqa: BLE001 - every failure is an output
            out = {"raised": f"{type(exc).__name__}: {exc}"}
    if caught:
        out = {"value": out,
               "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}
    return out


def _result(res) -> dict:
    from coverage_lab.field import _result_to_dict
    out = _result_to_dict(res)
    out["detail"] = dict(res.detail)
    return out


def _classifiers():
    import numpy as np
    from coverage_lab.data import load_builtin
    from coverage_lab.geometry import Halfspace, HPolytope
    from coverage_lab.model import Classifier, UnionOfPolytopes, analytic
    from coverage_lab.verify import two_quadrant_union

    ball = " + ".join(f"x{i}*x{i}" for i in range(1, 6))
    up = Halfspace([0.0, -1.0], 0.0, False)
    down = Halfspace([0.0, 1.0], 0.0)
    return {
        "fig1": load_builtin("fig1.json"),
        "fig3": load_builtin("fig3.json"),
        "exp_pair": Classifier(2, {"P": analytic("exp(x2) > 1", 2),
                                   "N": analytic("exp(x2) <= 1", 2)},
                               domain_box=[[-10.0, -10.0], [10.0, 10.0]]),
        "ball5": Classifier(5, {"in": analytic(f"{ball} < 25", 5),
                                "out": analytic(f"{ball} >= 25", 5)},
                            domain_box=np.array([[-8.0] * 5, [8.0] * 5])),
        "refined_linear": load_builtin("refined_linear.json"),
        "linear": load_builtin("linear.json"),
        "two_quadrant_union": two_quadrant_union(),
        # x2 > 0 plus the far corner x2 <= 0, x1 > 5: two touching components
        "corner_union": Classifier(2, {
            "U": UnionOfPolytopes((HPolytope((up,)),
                                   HPolytope((down, Halfspace([-1.0, 0.0], -5.0, False))))),
            "D": HPolytope((down, Halfspace([1.0, 0.0], 5.0)))}),
    }


def records():
    """(key, output) pairs of the whole corpus, in a fixed order."""
    import numpy as np
    from coverage_lab import verify
    from coverage_lab.data import load_builtin
    from coverage_lab.engine import coverage_at, coverage_sampled
    from coverage_lab.field import compute_field, field_to_dict, grid_points
    from coverage_lab.geometry import Ball, Halfspace, ball_in_region
    from coverage_lab.model import Classifier, classifier_to_dict, sample_box
    from coverage_lab.structure import classify_structure, refine_boundary

    for seed in (0, 7):
        criterion = "head"
        counts = collections.Counter()
        for line in verify.run_suite(seed=seed)[1].splitlines():
            if line.startswith("criterion: "):
                criterion = line.split()[1]
            counts[criterion] += 1
            yield f"verify/seed{seed}/{criterion}/{counts[criterion]:02d}", line

    for name in ("fig1", "fig3"):
        C = load_builtin(f"{name}.json")
        for budget in (0, 20_000):
            F = compute_field(C, grid_points(C.domain_box, (20, 20)), budget=budget)
            data = field_to_dict(F)
            yield f"field/{name}/budget{budget}/cap", data["cap"]
            yield f"field/{name}/budget{budget}/skipped", data["skipped"]
            for i, (p, res) in enumerate(zip(data["points"], data["results"])):
                yield f"field/{name}/budget{budget}/{i:03d}", {"point": p, "result": res}

    for spec in SPECS:
        plain = load_builtin(spec)
        refined = _outcome(lambda: refine_boundary(plain))
        yield f"refine/{spec}", (classifier_to_dict(refined)
                                 if isinstance(refined, Classifier) else refined)
        for form, C in (("plain", plain), ("refined", refined)):
            if not isinstance(C, Classifier):
                continue
            for seed in (0, 1, 2):
                yield (f"structure/{spec}/{form}/seed{seed}",
                       _outcome(lambda: classify_structure(C, seed=seed).to_dict()))
                yield (f"generalized/{spec}/{form}/seed{seed}",
                       _outcome(lambda: _generalized(C, seed)))

    classifiers = _classifiers()
    for name, C in classifiers.items():
        points = sample_box(C.domain_box, np.random.default_rng(0), POINTS_PER_CLASSIFIER)
        for i, x in enumerate(points):
            for query in (coverage_at, coverage_sampled):
                res = _outcome(lambda: _result(query(C, x, budget=20_000, seed=i)))
                yield f"{query.__name__}/{name}/{i:02d}", {"point": x.tolist(), "result": res}

    pair = Classifier(2, {"U": Halfspace([0.0, -1.0], 0.0, False),
                          "D": Halfspace([0.0, 1.0], 0.0)})
    for x in NEAR_AND_FAR:
        yield (f"near_far/{x[0]!r},{x[1]!r}",
               _outcome(lambda: _result(coverage_at(pair, list(x), budget=2_000))))
    corner = classifiers["corner_union"]
    for budget in (0, 2_000):
        yield (f"near_far/corner_union/budget{budget}",
               _outcome(lambda: _result(coverage_at(corner, [0.0, 3.0], budget=budget))))
    far = Ball([0.0, 1e160], 2e160)
    yield "near_far/far_ball", _outcome(lambda: ball_in_region(far, pair.labels["U"]).kind)
    yield from _checker_records(pair)
    yield from _bracket_records()


def _checked(cert, inside, region) -> dict:
    """A certificate's kind and, for a refutation, whether its witness lies
    in the tested set (`inside`) and outside `region`; where in that set it
    lies is no output of the check."""
    out = {"kind": cert.kind}
    if cert.kind == "refuted":
        w = cert.witness
        out["witness_valid"] = bool(inside(w) and not region.contains(w))
    return out


def _checker_records(pair):
    """The exact checkers against U = {x2 > 0} of the halfspace pair."""
    import numpy as np
    from coverage_lab.engine import Anchor, certify_anchor, coverage_at
    from coverage_lab.geometry import (PROVEN, Ball, Halfspace, HPolytope,
                                       ball_in_region, halfspace_in_region)
    from coverage_lab.model import Classifier, UnionOfPolytopes

    U = pair.labels["U"]
    for r in CHECKED_RADII:
        for place, height in BALL_PLACES:
            B = Ball([0.0, height(r)], r)
            yield (f"checkers/ball_in_region/{place}/r{r!r}",
                   _outcome(lambda: _checked(ball_in_region(B, U), B.contains, U)))
            A = Anchor(B, B.center, "U", PROVEN)
            yield (f"checkers/certify_anchor/{place}/r{r!r}",
                   _outcome(lambda: _checked(certify_anchor(pair, A), B.contains, U)))
    d = np.array([0.0, 1.0])
    for x1, x2 in HALFSPACE_BASES:
        x = np.array([x1, x2])
        yield (f"checkers/halfspace_in_region/{x1!r},{x2!r}",
               _outcome(lambda: _checked(halfspace_in_region(x, d, U),
                                         lambda p: float(d @ (p - x)) > 0.0, U)))

    # closed rows through points 1e6 to 1e8 from the origin, b = a.x summed
    # as membership sums it
    rng = np.random.default_rng(0)
    for i in range(CLOSURE_MEMBERS):
        a = rng.standard_normal(2)
        x = rng.standard_normal(2) * 10 ** rng.uniform(6.0, 8.0)
        P = HPolytope((Halfspace(a, float(a[0] * x[0] + a[1] * x[1])),))
        yield (f"checkers/closure_contains/{i:02d}",
               _outcome(lambda: {"member": P.contains(x), "closure": P.closure_contains(x)}))

    # U' = {a.p <= b} u {a.p >= b + 1000}, isolated, against the slab
    # between them; x lies on the first component's closed facet
    a = [-5.886684071327974, -1.9363001412680765]
    x = [-252207.61254591608, 1184213.7322787463]
    b = a[0] * x[0] + a[1] * x[1]
    minus_a = [-v for v in a]
    C = Classifier(2, {
        "U": UnionOfPolytopes((HPolytope((Halfspace(a, b),)),
                               HPolytope((Halfspace(minus_a, -b - 1000.0),)))),
        "V": HPolytope((Halfspace(a, b + 1000.0, False), Halfspace(minus_a, -b, False)))})
    for budget in (0, 2_000):
        yield (f"checkers/far_isolated_union/budget{budget}",
               _outcome(lambda: _result(coverage_at(C, x, budget=budget))))


def _bracket_records():
    """Each shipped polytope's inradius bracket, and coverage_at at a point
    of its ball (halfway out along the first axis) and at the first point
    past it, at 1.01 lo along an axis or a diagonal, that its polytope and
    label hold."""
    import itertools

    import numpy as np
    from coverage_lab.data import load_builtin
    from coverage_lab.engine import coverage_at
    from coverage_lab.geometry import HPolytope
    from coverage_lab.model import UnionOfPolytopes, label_of

    for spec in SPECS:
        C = load_builtin(spec)
        for name, region in C.labels.items():
            parts = ({"": region} if isinstance(region, HPolytope) else
                     {f"/{i}": P for i, P in enumerate(region.polytopes)}
                     if isinstance(region, UnionOfPolytopes) else {})
            for part, P in parts.items():
                key = f"bracket/{spec}/{name}{part}"
                lo, hi, center = P.inradius_bracket
                yield key, [lo, hi, center]
                if center is None:
                    continue
                n = C.dimension
                steps = [e * s for e in np.eye(n) for s in (1.0, -1.0)]
                steps += [np.array(s) / np.sqrt(n)
                          for s in itertools.product((1.0, -1.0), repeat=n)]
                past = (center + 1.01 * lo * d for d in steps)
                points = {"inside": center + 0.5 * lo * np.eye(n)[0],
                          "outside": next((p for p in past if P.contains(p)
                                           and label_of(C, p) == name), None)}
                for place, x in points.items():
                    for budget in (0, 20_000):
                        yield (f"{key}/{place}/budget{budget}", None if x is None else
                               {"point": x.tolist(), "result": _outcome(
                                   lambda: _result(coverage_at(C, x, budget=budget)))})


def _generalized(C, seed: int) -> dict:
    from coverage_lab.structure import is_generalized_binary_linear
    v = is_generalized_binary_linear(C, seed=seed)
    out = {"is_generalized_binary_linear": v.is_generalized_binary_linear, "reason": v.reason}
    if v.hyperplane is not None:
        u, c = v.hyperplane.unit()
        out["hyperplane"] = {"a": u.tolist(), "b": float(c)}
    return out


def write(src: str, out: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in records():
            # numpy arrays and scalars become lists and Python numbers
            fh.write(json.dumps({"key": key, "out": value}, sort_keys=True,
                                default=lambda v: v.tolist()) + "\n")


def diff(a: str, b: str) -> int:
    def load(path):
        with open(path, encoding="utf-8") as fh:
            return {(r := json.loads(line))["key"]: r["out"] for line in fh}

    old, new = load(a), load(b)
    moved = collections.defaultdict(list)
    for key in sorted(old.keys() | new.keys()):
        change = ("removed" if key not in new else "added" if key not in old
                  else "moved" if old[key] != new[key] else None)
        if change:
            moved[key.split("/")[0]].append(f"  {change} {key}")
    print(f"keys: {len(old)} -> {len(new)}, moved, added or removed: "
          f"{sum(map(len, moved.values()))}")
    for prefix, lines in moved.items():
        print(f"{prefix}: {len(lines)}")
        print("\n".join(lines))
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the src directory to import coverage_lab from")
    parser.add_argument("--out", help="write the corpus here")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two corpora")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if not args.out:
        parser.error("need --out FILE or --diff A B")
    write(args.src, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
