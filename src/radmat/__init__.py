"""radmat: physics-grounded material identification from FMCW radar.

A radar cube is reduced to range-Doppler and range-angle maps, a gated
target is phase-aligned by a metal sphere's phasors, and a
coherence-weighted vector synthesis yields an enhanced SNR.  Normalizing
the resulting reflectivity by the half-power peak reflection cell area
and by a metal plate reference gives the Fresnel reflection coefficient,
which inverts to the relative dielectric constant -- an intrinsic
material signature.  A reference store matches it to material
candidates, and an uncertainty-gated fusion step arbitrates against
visual candidates.

The package root is the radar chain, matching and fusion.  The visual
branch is not imported here: callers import `radmat.vlm` explicitly, and
its HTTP provider loads the standard library's HTTP client only at the
first HTTP request.
"""

from .calibration import CalibrationProfile, Measurement, calibrate_plate, calibrate_sphere, measure
from .dielectric import EmFeatureVector, dielectric_from_fresnel, extract_features
from .errors import (
    CalibrationError,
    DocumentError,
    DomainError,
    FormatError,
    NoTargetError,
    ProviderError,
    RadmatError,
    SceneError,
)
from .fusion import (
    FusionDecision,
    RadarContext,
    VisualContext,
    decide,
    gate,
    radar_uncertainty,
    visual_uncertainty,
)
from .knowledge import MaterialRecord, MaterialStore, RadarCandidateSet, default_store, load_store, match, prune_visual
from .pipeline import ExtractionResult, PipelineOutcome, extract_from_cube, run_identification
from .prca import PrcaRegion, compute_prca, extract_region, region_area, shoelace_area
from .signal_model import (
    ArrayGeometry,
    ChirpConfig,
    RadarCube,
    SceneTarget,
    beat_frequency,
    default_geometry,
    fresnel_amplitude,
    synthesize_frame,
)
from .spectral import (
    RangeAngleMap,
    RangeDopplerMap,
    TargetDetection,
    detect_target,
    range_angle,
    range_doppler,
)
from .synthesis import SynthesisResult, focus, synthesize

__version__ = "0.1.0"
