"""Surface pencils sharing a prescribed space curve with a constant
normal/Darboux inner product: construction, synthesis, verification, and
mesh export."""

from . import errors
from .dcurve import (
    DTypeReport,
    DTypeSample,
    TheoremReport,
    check_theorem_conditions,
    feasibility_scan,
    feasible_domain,
    restrict_curve,
    synthesize_feasible,
    synthesize_marching_scale,
    verify_dtype,
)
from .expr import (
    Expression,
    evaluate,
    evaluate_jet3,
    format_expression,
    parse_expression,
)
from .frenet import (
    CurveClass,
    CurveSpec,
    FrenetApparatus,
    classify_curve,
    frenet_at,
)
from .jets import Jet3
from .mesh import SurfaceMesh, sample_grid, write_obj, write_report_csv
from .pencil import (
    GeneralForm,
    MarchingScale,
    MarchingValues,
    ProductForm,
    SurfacePencil,
    TabulatedProductForm,
    marching_values,
)
from .presets import load_preset, preset_names
from .scene import SceneConfig

__version__ = "0.1.0"

__all__ = [
    "CurveClass",
    "CurveSpec",
    "DTypeReport",
    "DTypeSample",
    "Expression",
    "FrenetApparatus",
    "GeneralForm",
    "Jet3",
    "MarchingScale",
    "MarchingValues",
    "ProductForm",
    "SceneConfig",
    "SurfaceMesh",
    "SurfacePencil",
    "TabulatedProductForm",
    "TheoremReport",
    "check_theorem_conditions",
    "classify_curve",
    "errors",
    "evaluate",
    "evaluate_jet3",
    "feasibility_scan",
    "feasible_domain",
    "format_expression",
    "frenet_at",
    "load_preset",
    "marching_values",
    "parse_expression",
    "preset_names",
    "restrict_curve",
    "sample_grid",
    "synthesize_feasible",
    "synthesize_marching_scale",
    "verify_dtype",
    "write_obj",
    "write_report_csv",
]
