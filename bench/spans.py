"""Spans around coverage_lab's public functions, recorded from outside.

`Tracer.install` replaces each traced function in every module that looks
it up (``engine.project_onto_polytope``, ``field.coverage_at``,
``structure.label_of`` ...), and each traced method on its class, with a
wrapper that records one span per call: id, parent id (per thread), name,
start, end, thread, the exception it raised, and a small per-call count.
Spans stay in memory until `write` and `layer_metrics` read them at the end.

The thread pool inside ``compute_field`` starts its calls with no parent,
so work is attributed to a ``compute_field`` span by time: a call that
starts inside the span's interval belongs to it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

# (module, attribute, span name, note) for every module-level lookup site
FUNCTIONS = [
    ("engine", "project_onto_polytope", "geometry.project", None),
    ("engine", "shrink_polytope", "geometry.shrink", None),
    ("engine", "ball_in_region", "geometry.ball_in_region", None),
    ("engine", "sample_in_ball", "geometry.sample_in_ball", "m"),
    ("geometry", "sample_in_ball", "geometry.sample_in_ball", "m"),
    ("engine", "coverage_exact_convex", "engine.exact_convex", None),
    ("field", "coverage_at", "engine.coverage_at", "coverage"),
    ("structure", "coverage_at", "engine.coverage_at", "coverage"),
    ("cli", "coverage_at", "engine.coverage_at", "coverage"),
    ("engine", "label_of", "model.label_of", None),
    ("structure", "label_of", "model.label_of", None),
    ("cli", "compute_field", "field.compute_field", None),
    ("field", "compute_field", "field.compute_field", None),
    ("cli", "export_field", "field.export", None),
    ("cli", "classify_structure", "structure.classify", None),
    ("structure", "classify_structure", "structure.classify", None),
    ("structure", "is_generalized_binary_linear", "structure.generalized", None),
    ("cli", "refine_boundary", "structure.refine", None),
    ("structure", "refine_boundary", "structure.refine", None),
    ("cli", "main", "cli.main", None),
]

# (module, class, method, span name, note)
METHODS = [
    ("model", "UnionOfPolytopes", "contains_many", "model.contains_many", "rows"),
    ("model", "AnalyticRegion", "contains_many", "model.contains_many", "rows"),
    ("dsl", "Predicate", "evaluate_many", "dsl.evaluate_many", "rows"),
]


def _note(kind, args, kwargs, out):
    if kind == "m":
        return int(kwargs["m"] if "m" in kwargs else args[3])
    if kind == "rows":
        return int(args[1].shape[0])
    if kind == "coverage":
        detail = out.detail
        ran = "component_floor" in detail
        floor = detail.get("component_floor")
        useful = ran and (out.kind == "exceeds_cap"
                          or (out.kind == "bounded" and (floor is None or out.radius > floor)))
        return (int(detail.get("samples_spent", 0)), int(ran), int(useful))
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _wrap(self, original, name, note):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            err, out = None, None
            t0 = clock()
            try:
                out = original(*args, **kwargs)
                return out
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                extra = _note(note, args, kwargs, out) if note and err is None else None
                spans.append((sid, parent, name, t0, t1, threading.get_ident(), err, extra))

        return traced

    def install(self, lab) -> None:
        for module, attr, name, note in FUNCTIONS:
            mod = getattr(lab, module)
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, note))
        for module, cls_name, attr, name, note in METHODS:
            cls = getattr(getattr(lab, module), cls_name)
            setattr(cls, attr, self._wrap(getattr(cls, attr), name, note))

    def write(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "thread",
                                  "error", "note"],
                       "names": names,
                       "spans": [[s[0], s[1], index[s[2]], *s[3:]] for s in self.spans]},
                      fh)

    def layer_metrics(self, rounds: int) -> dict:
        """{name: (value, unit)}: totals divided by the number of traced
        rounds, and two ratios."""
        by_name = defaultdict(list)
        parent_of = {}
        for s in self.spans:
            by_name[s[2]].append(s)
            parent_of[s[0]] = (s[1], s[2])

        def calls(name):
            return len(by_name[name])

        def busy(name):
            return sum(s[4] - s[3] for s in by_name[name])

        def noted(name, pick=lambda e: e):
            return sum(pick(s[7]) for s in by_name[name] if s[7] is not None)

        coverage = by_name["engine.coverage_at"]
        exact_in_coverage = defaultdict(float)
        for s in by_name["engine.exact_convex"]:
            if parent_of.get(s[1], (0, ""))[1] == "engine.coverage_at":
                exact_in_coverage[s[1]] += s[4] - s[3]
        sampled = sum(s[4] - s[3] - exact_in_coverage[s[0]] for s in coverage)

        verdicts = {"structure.classify", "structure.generalized"}

        def in_verdict(sid):
            while sid:
                sid, name = parent_of.get(sid, (0, ""))
                if name in verdicts:
                    return True
            return False

        fields = by_name["field.compute_field"]
        field_wall = sum(f[4] - f[3] for f in fields)
        point_busy = sum(s[4] - s[3] for s in coverage
                         if any(f[3] <= s[3] <= f[4] for f in fields))

        straddle_runs = noted("engine.coverage_at", lambda e: e[1])
        straddle_useful = noted("engine.coverage_at", lambda e: e[2])
        count, seconds = "count", "s"
        per_round = {
            "geometry.project_calls": (calls("geometry.project"), count),
            "geometry.project_s": (busy("geometry.project"), seconds),
            "geometry.project_empty": (sum(1 for s in by_name["geometry.project"]
                                           if s[6] == "EmptyPolytope"), count),
            "geometry.shrink_calls": (calls("geometry.shrink"), count),
            "geometry.ball_in_region_calls": (calls("geometry.ball_in_region"), count),
            "geometry.ball_in_region_s": (busy("geometry.ball_in_region"), seconds),
            "geometry.samples_drawn": (noted("geometry.sample_in_ball"), count),
            "engine.coverage_at_calls": (len(coverage), count),
            "engine.coverage_at_s": (busy("engine.coverage_at"), seconds),
            "engine.exact_convex_calls": (calls("engine.exact_convex"), count),
            "engine.exact_convex_s": (busy("engine.exact_convex"), seconds),
            "engine.sampled_s": (sampled, seconds),
            "engine.samples_spent": (noted("engine.coverage_at", lambda e: e[0]), count),
            "engine.straddle_runs": (straddle_runs, count),
            "engine.straddle_useful": (straddle_useful, count),
            "model.contains_many_calls": (calls("model.contains_many"), count),
            "model.contains_many_points": (noted("model.contains_many"), count),
            "model.contains_many_s": (busy("model.contains_many"), seconds),
            "model.label_of_calls": (calls("model.label_of"), count),
            "model.label_of_s": (busy("model.label_of"), seconds),
            "dsl.evaluate_many_calls": (calls("dsl.evaluate_many"), count),
            "dsl.evaluate_many_points": (noted("dsl.evaluate_many"), count),
            "dsl.evaluate_many_s": (busy("dsl.evaluate_many"), seconds),
            "field.compute_field_s": (field_wall, seconds),
            "field.export_s": (busy("field.export"), seconds),
            "structure.classify_s": (busy("structure.classify"), seconds),
            "structure.generalized_s": (busy("structure.generalized"), seconds),
            "structure.refine_s": (busy("structure.refine"), seconds),
            "structure.coverage_queries": (sum(1 for s in coverage if in_verdict(s[1])),
                                           count),
            "cli.main_s": (busy("cli.main"), seconds),
            "trace.spans": (len(self.spans), count),
        }
        out = {name: (value / rounds, unit) for name, (value, unit) in per_round.items()}
        out["engine.straddle_useful_ratio"] = (
            straddle_useful / straddle_runs if straddle_runs else 0.0, "ratio")
        out["field.thread_overlap"] = (point_busy / field_wall if field_wall else 0.0, "ratio")
        return out
