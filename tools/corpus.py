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
  and the exact check of a ball that reaches -1e160 from (0, 1e160).

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
