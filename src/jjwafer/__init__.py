"""Room-temperature wafer-scale characterization of Al/AlOx/Al tunnel junctions.

The package turns raw wafer probe data (capacitance maps, forward I-V
sweeps, junction resistances, breakdown ramps) into film parameters: oxide
thickness, tunneling decay constant and barrier height, plate and sidewall
area-resistances, critical breakdown field, and oxide defect density.  A
seeded synthetic-wafer generator closes the loop for round-trip validation,
and a small CLI (`jjwafer`) wraps simulation, analysis, and reporting.
"""

from .breakdown import (
    KneeFit,
    WeibullAnalysis,
    critical_defect_density,
    find_transition,
    fit_weibull_shape,
    weibull_transform,
)
from .capacitance import (
    EPS_R_REFERENCE,
    CapacitanceRegression,
    WaferMap,
    WaferStats,
    dielectric_constant_from,
    fit_capacitance_per_area,
    oxide_thickness_from_ca,
    wafer_statistics,
)
from .constants import (
    CONST,
    DEFAULT_BETA,
    DEFAULT_M_REL,
    barrier_height_from_k,
    field_strength,
    tunnel_coefficient,
)
from .dataset import (
    DatasetFile,
    cap_areas,
    cap_maps,
    cap_wafer_map,
    ground_truth,
    iv_curves,
    load_dataset,
    ramp_blocks,
    resistance_records,
    save_dataset,
)
from .errors import (
    AnalysisError,
    DatasetError,
    DatasetFormatError,
    DatasetSchemaError,
    DatasetUnitError,
    DegenerateDataError,
    InsufficientDataError,
    NoBreakdownError,
    NoDTWindowError,
    NoFNWindowError,
    NoKneeError,
    NoRootError,
    UnderflowWarning,
)
from .geometry import DEFAULT_BOTTOM_THICKNESS_UM, JunctionGeometry
from .iv_analysis import (
    Regime,
    RegimeSegmentation,
    barrier_height_from_fn_slope,
    fit_fn_slope,
    fit_k_from_dt,
    fit_msclc_exponent,
    segment_regimes,
)
from .report import (
    STAGES,
    AnalysisConfig,
    WaferReport,
    analyze,
    export_wafer_grid,
    load_wafer_grid,
    render_json,
    render_text,
)
from .resistance import (
    AreaResistances,
    ResistanceRecord,
    decompose_resistances,
    junction_resistance,
    plate_resistance,
)
from .synthetic import (
    PRESET_NAMES,
    SyntheticDataset,
    WaferSpec,
    bimodal_field_sample,
    generate_wafer,
    intrinsic_breakdown_field_sample,
    preset_spec,
)
from .transport import (
    IVCurve,
    OxideModel,
    composite_current,
    composite_didv,
    direct_tunneling_current,
    direct_tunneling_didv,
    fn_scale_for_crossover,
    fowler_nordheim_current,
    fowler_nordheim_didv,
    implied_area_resistance,
    mott_gurney_current,
    mott_gurney_didv,
    power_law_current,
    power_law_didv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # constants and geometry
    "CONST", "DEFAULT_BETA", "DEFAULT_M_REL", "DEFAULT_BOTTOM_THICKNESS_UM",
    "tunnel_coefficient", "barrier_height_from_k", "field_strength",
    "JunctionGeometry",
    # errors
    "AnalysisError", "InsufficientDataError", "DegenerateDataError",
    "NoDTWindowError", "NoFNWindowError", "NoRootError",
    "NoBreakdownError", "NoKneeError", "DatasetError", "DatasetFormatError",
    "DatasetSchemaError", "DatasetUnitError", "UnderflowWarning",
    # transport models
    "OxideModel", "IVCurve", "direct_tunneling_current",
    "direct_tunneling_didv", "mott_gurney_current", "mott_gurney_didv",
    "power_law_current", "power_law_didv", "fowler_nordheim_current",
    "fowler_nordheim_didv", "composite_current", "composite_didv",
    "implied_area_resistance", "fn_scale_for_crossover",
    # sweep analysis
    "Regime", "RegimeSegmentation", "segment_regimes", "fit_k_from_dt",
    "fit_msclc_exponent", "fit_fn_slope", "barrier_height_from_fn_slope",
    # capacitance
    "WaferMap", "WaferStats", "CapacitanceRegression", "wafer_statistics",
    "fit_capacitance_per_area", "oxide_thickness_from_ca",
    "dielectric_constant_from", "EPS_R_REFERENCE",
    # resistance
    "ResistanceRecord", "AreaResistances", "junction_resistance",
    "plate_resistance", "decompose_resistances",
    # breakdown
    "WeibullAnalysis", "KneeFit", "weibull_transform", "fit_weibull_shape",
    "find_transition", "critical_defect_density",
    # synthesis
    "WaferSpec", "SyntheticDataset", "generate_wafer", "preset_spec",
    "PRESET_NAMES", "intrinsic_breakdown_field_sample", "bimodal_field_sample",
    # dataset io
    "DatasetFile", "save_dataset", "load_dataset", "cap_areas",
    "cap_maps", "cap_wafer_map", "iv_curves", "ramp_blocks", "resistance_records",
    "ground_truth",
    # pipeline
    "STAGES", "AnalysisConfig", "WaferReport", "analyze", "render_text",
    "render_json", "export_wafer_grid", "load_wafer_grid",
]
