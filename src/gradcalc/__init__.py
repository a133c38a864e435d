"""Exact tensor calculus on graded coordinate charts.

The engine works with polynomial coefficient functions over the
rationals, so every identity it asserts is an exact symbolic statement,
never a floating-point approximation.  The main pieces:

* charts with integer weight vectors and the derived chart constructors
  (prolongations, tangent/cotangent and shifted duals);
* sparse polynomials and tensor fields with symmetry tags;
* exterior/Lie calculus and the classical brackets (Lie, Schouten,
  vector-valued-form brackets, Nijenhuis torsion, concomitant);
* lambda-lifts of functions, tensors, distributions and connections to
  prolonged charts;
* decision procedures for weighted structures (Poisson, Nijenhuis,
  contact, distributions) returning reports with witnesses;
* independent oracles for cross-checking the lift and bracket paths.
"""

__version__ = "0.1.0"       # before the submodules: render reads it on import

from .charts import (
    Chart, cotangent_chart, make_chart, phase_shifted_cotangent_chart,
    prolong_chart, shifted_dual_grl_chart, tangent_chart, vb_split,
)
from .errors import ChartMismatchError, DslError, GradcalcError, ValenceError
from .poly import (
    ANY_DEGREE, Poly, degree_of_function, homogeneous_components,
)
from .render import chart_to_json, render_poly, render_tensor, tensor_to_json
from .tensor import (
    TensorField, compose_11, contract, coordinate_one_form,
    coordinate_vector_field, degree_of_tensor, identity_tensor, insert_form,
    insert_multivector, scalar_field, tagged, tensor_product, vector_field,
    wedge, wedge_list, weight_vector_field,
)
from .calculus import (
    concomitant, exterior_derivative, fn_bracket, lie_bracket,
    lie_derivative, nijenhuis_torsion, nr_bracket, schouten_bracket,
    vf_apply,
)
from .lifts import (
    LiftContext, LinearConnection, covariant_derivative, horizontal_fields,
    lift_distribution, lift_function, lift_linear_connection, lift_tensor,
    tangent_connection,
)
from .checkers import (
    BundleMap, CheckReport, Distribution, Section, algebroid_bracket,
    flat_map, is_almost_complex, is_almost_product, is_almost_tangent,
    is_involutive, is_nijenhuis, is_poisson, is_weighted_contact,
    is_weighted_distribution, is_weighted_nijenhuis, is_weighted_pn,
    is_weighted_poisson, is_weighted_tensor, rank_at_point, section_degree,
    sharp_map,
)
from .oracle import (
    SamplePlan, evaluate_tensor_at, identity_spot_check,
    koszul_concomitant_oracle, taylor_lift_oracle,
)

__all__ = [
    "__version__",
    # charts
    "Chart", "make_chart", "prolong_chart", "tangent_chart",
    "cotangent_chart", "phase_shifted_cotangent_chart",
    "shifted_dual_grl_chart", "vb_split",
    # errors
    "GradcalcError", "ChartMismatchError", "ValenceError", "DslError",
    # polynomials
    "Poly", "ANY_DEGREE", "degree_of_function", "homogeneous_components",
    # tensors
    "TensorField", "tensor_product", "wedge", "wedge_list", "contract",
    "insert_multivector", "insert_form", "compose_11", "degree_of_tensor",
    "identity_tensor", "weight_vector_field", "scalar_field", "vector_field",
    "coordinate_vector_field", "coordinate_one_form", "tagged",
    # calculus
    "exterior_derivative", "lie_bracket", "lie_derivative", "vf_apply",
    "schouten_bracket", "fn_bracket", "nr_bracket", "nijenhuis_torsion",
    "concomitant",
    # lifts
    "LiftContext", "lift_function", "lift_tensor", "lift_distribution",
    "LinearConnection", "tangent_connection",
    "lift_linear_connection", "horizontal_fields", "covariant_derivative",
    # checkers
    "CheckReport", "Distribution", "Section", "BundleMap",
    "is_weighted_tensor", "is_poisson", "is_weighted_poisson", "is_nijenhuis",
    "is_weighted_nijenhuis", "is_almost_complex", "is_almost_product",
    "is_almost_tangent", "is_weighted_pn", "sharp_map", "flat_map",
    "rank_at_point", "is_involutive", "is_weighted_distribution",
    "is_weighted_contact", "section_degree", "algebroid_bracket",
    # oracles
    "SamplePlan", "taylor_lift_oracle", "evaluate_tensor_at",
    "identity_spot_check", "koszul_concomitant_oracle",
    # rendering
    "render_poly", "render_tensor", "tensor_to_json", "chart_to_json",
]
