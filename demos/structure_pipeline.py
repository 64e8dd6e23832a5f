"""Demo: from an ordinary linear classifier to a refined-linear verdict.

Starts with a binary linear classifier, moves its decision boundary into a
refinement set, and shows that the structure classifier then recognizes the
refined-linear shape and reports the separating hyperplane, with the label
on its positive side first. A curved classifier is shown for contrast: a
third label on a boundary segment, or more than two labels, rules the shape
out.

Run:  python3 demos/structure_pipeline.py
"""

from coverage_lab import classify_structure, load_builtin, refine_boundary


def show(name: str, verdict) -> None:
    print(f"\n{name}: {verdict.kind}")
    if verdict.hyperplane is not None:
        u, c = verdict.hyperplane.unit()
        print(f"  recovered hyperplane: normal={u.round(6).tolist()} offset={c:.6g}")
    if verdict.label_pair:
        print(f"  labels: {verdict.label_pair}")
    if verdict.reason:
        print(f"  reason: {verdict.reason}")
    if verdict.witness is not None:
        print(f"  witness point: {verdict.witness.round(4).tolist()}")


def main() -> None:
    linear = load_builtin("linear.json")
    print("ordinary binary linear classifier: the closed label owns its "
          "boundary, where coverage is zero. Random probes almost never hit "
          "that measure-zero line, so the empirical verdict is the same as "
          "for the refined version")
    show("classify_structure(linear)",
         classify_structure(linear, probe_count=16, budget=10_000, seed=0))

    refined = refine_boundary(linear)
    print("\nafter refine_boundary, the boundary lives in a refinement set "
          "and every remaining point genuinely has cap-exceeding coverage")
    show("classify_structure(refine(linear))",
         classify_structure(refined, probe_count=16, budget=10_000, seed=0))

    curved = load_builtin("fig1.json")
    show("classify_structure(curved sine boundary)",
         classify_structure(curved, probe_count=8, budget=10_000, seed=0))


if __name__ == "__main__":
    main()
