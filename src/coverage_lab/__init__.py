"""coverage_lab: anchor-based explanation coverage for classifiers that
partition R^n into labeled regions.

The central quantity is the coverage of a classifier at a point: the
supremum of radii of open balls (anchors) that contain the point and stay
inside the point's label region. The package computes it exactly for convex
labels, by certified sampling otherwise, aggregates it over grids, and
empirically tests whether a classifier is a refined linear one (exactly two
open-halfspace labels split by a hyperplane-shaped refinement set).
"""

from .data import BUILTIN_SPECS, load_builtin
from .engine import (Anchor, CoverageResult, certify_anchor, compare_results,
                     coverage_at, coverage_exact_convex, coverage_sampled,
                     default_cap, default_tol)
from .errors import CoverageLabError
from .field import (ComparisonReport, CoverageField, compare_at,
                    compute_field, export_field, grid_points, import_field)
from .geometry import (Ball, Certificate, Halfspace, HPolytope, Hyperplane,
                       ball_in_region, project_onto_polytope, shrink_polytope)
from .model import (REFINEMENT, AnalyticRegion, Classifier, PartitionReport,
                    UnionOfPolytopes, analytic, classifier_from_dict,
                    classifier_to_dict, label_of, labels_of, load_spec,
                    save_spec, validate_partition)
from .structure import (DirectionEstimate, GeneralizedLinearVerdict,
                        StructureVerdict, classify_structure,
                        estimate_asymptotic_direction, halfspace_certificate,
                        is_generalized_binary_linear, is_negligible_region,
                        refine_boundary)
from .verify import run_criterion, run_suite

__version__ = "1.0.0"

__all__ = [
    "Anchor", "AnalyticRegion", "BUILTIN_SPECS", "Ball", "Certificate",
    "Classifier", "ComparisonReport", "CoverageField", "CoverageLabError",
    "CoverageResult", "DirectionEstimate", "GeneralizedLinearVerdict",
    "HPolytope", "Halfspace", "Hyperplane", "PartitionReport", "REFINEMENT",
    "StructureVerdict", "UnionOfPolytopes", "analytic", "ball_in_region",
    "certify_anchor", "classifier_from_dict", "classifier_to_dict",
    "classify_structure", "compare_at", "compare_results", "compute_field",
    "coverage_at", "coverage_exact_convex", "coverage_sampled", "default_cap",
    "default_tol", "estimate_asymptotic_direction", "export_field",
    "grid_points", "halfspace_certificate", "import_field",
    "is_generalized_binary_linear", "is_negligible_region", "label_of",
    "labels_of", "load_builtin", "load_spec", "project_onto_polytope",
    "refine_boundary", "run_criterion", "run_suite", "save_spec",
    "shrink_polytope", "validate_partition",
]
