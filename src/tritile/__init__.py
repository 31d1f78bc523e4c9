"""tritile: exact-arithmetic triangular tilings, their incidence
combinatorics, and the stretch/boundary accounting audits."""

from .geometry import (Orientation, Point, ReflectionKind, Triangle,
                       congruence_check, equal_invariant_apexes, orientation,
                       parse_rational, point_on_segment_interior,
                       reflection_classify, triangle_metrics)
from .radicals import Interval, LengthExpr
from .model import (TilingParseError, TilingPatch, apply_affine, parse_tiling,
                    serialize_tiling, side_length_range)
from .validate import (RegionError, ValidationReport, Violation, derive_region,
                       validate_patch)
from .incidence import EdgeClass, IncidenceGraph, build_incidence, graph_audit
from .stretches import (SideLabel, Stretch, StretchClass, WAudit,
                        composite_sides, decompose_stretches, epsilon2,
                        eq1_audit, neighbor_hops_to_composite,
                        no_shared_side_conditions, shared_side_pairs,
                        side_labels, w_audit)
from .extract import (ExtractionResult, asymptotic_audit, boundary_ring,
                      extract_disk_patch, fill_holes, restrict_to_disk)
from .generators import (GeneratorError, RecursiveSplitSpec, TwoScaleSpec,
                         convex_polygon_on_circle, gen_convex_triangulation,
                         gen_recursive_split, gen_reflected_pair,
                         gen_two_scale_periodic)
from .svg import render_svg

__version__ = "0.1.0"
