"""End-to-end orchestration: cube -> features -> candidates -> decision.

These functions are the programmatic form of the CLI subcommands so that
library users and tests can drive the identical chain.
"""

from dataclasses import dataclass, replace

from .calibration import CalibrationProfile, calibrate_plate, calibrate_sphere, measure
from .dielectric import EmFeatureVector, extract_features
from .errors import CalibrationError
from .fusion import FusionConfig, FusionDecision, RadarContext, VisualContext, decide
from .knowledge import DEFAULT_TOP_K, MaterialStore, RadarCandidateSet, match, prune_visual
from .prca import PrcaRegion
from .signal_model import RadarCube
from .spectral import (
    DEFAULT_THRESHOLD_DB,
    RangeAngleMap,
    RangeDopplerMap,
    TargetDetection,
    detect_target,
    range_angle,
    range_doppler,
)
from .synthesis import SynthesisResult


@dataclass(frozen=True)
class ExtractionResult:
    features: EmFeatureVector
    detection: TargetDetection
    synthesis: SynthesisResult
    region: PrcaRegion
    ra_map: RangeAngleMap


def detect(
    cube: RadarCube, gate_m, threshold_db: float = DEFAULT_THRESHOLD_DB
) -> tuple[RangeDopplerMap, RangeAngleMap, TargetDetection]:
    """Gated range-Doppler map, range-angle map and strongest gated target of one frame."""
    rd_map = range_doppler(cube, gate_m)
    ra_map = range_angle(cube)
    return rd_map, ra_map, detect_target(rd_map, ra_map, gate_m, threshold_db)


def calibrate_from_cubes(
    sphere_cube: RadarCube,
    plate_cube: RadarCube,
    sphere_diameter_m: float,
    noise_power_w: float,
    gate_m,
    threshold_db: float = DEFAULT_THRESHOLD_DB,
) -> CalibrationProfile:
    """Sphere then metal plate calibration, each from one frame."""
    _, _, sphere_det = detect(sphere_cube, gate_m, threshold_db)
    profile = calibrate_sphere(
        sphere_det, sphere_cube.geometry, sphere_cube.config, sphere_diameter_m, noise_power_w
    )
    _, plate_ra, plate_det = detect(plate_cube, gate_m, threshold_db)
    return calibrate_plate(plate_det, plate_ra, plate_cube.geometry, plate_cube.config, profile)


def extract_from_cube(
    cube: RadarCube,
    profile: CalibrationProfile,
    gate_m,
    threshold_db: float = DEFAULT_THRESHOLD_DB,
) -> ExtractionResult:
    """Run the full radar-side chain on one frame."""
    if not profile.is_complete:
        raise CalibrationError("profile lacks the metal plate reference")
    _, ra_map, detection = detect(cube, gate_m, threshold_db)
    m = measure(detection, ra_map, cube.geometry, cube.config, profile)
    features = extract_features(m, profile)
    return ExtractionResult(features, detection, m.synthesis, m.region, ra_map)


@dataclass(frozen=True)
class PipelineOutcome:
    decision: FusionDecision
    features: EmFeatureVector
    radar_candidates: RadarCandidateSet
    visual: VisualContext

    def to_document(self) -> dict:
        doc = self.decision.to_document()
        doc["inputs"] = {
            "features": self.features.to_document(),
            "radar_candidates": self.radar_candidates.to_document(),
            "visual_context": self.visual.to_document(),
        }
        return doc


def run_identification(
    features: EmFeatureVector,
    visual: VisualContext,
    store: MaterialStore,
    *,
    max_distance_m: float = 5.0,
    top_k: int = DEFAULT_TOP_K,
    tolerance_sigma: float = 2.0,
    fusion_config: FusionConfig | None = None,
) -> PipelineOutcome:
    """Match, prune the visual set against the measurement, and fuse."""
    radar_candidates = match(features.dielectric_constant, store, top_k)
    pruned = prune_visual(
        visual.candidates, features.dielectric_constant, store, tolerance_sigma
    )
    pruned_visual = replace(visual, candidates=tuple(pruned))
    radar_ctx = RadarContext(
        snr_linear=features.snr_linear,
        distance_m=features.range_m,
        max_distance_m=max_distance_m,
        incidence_angle_rad=abs(features.angle_rad),
        candidates=radar_candidates,
    )
    decision = decide(pruned_visual, radar_ctx, fusion_config)
    return PipelineOutcome(decision, features, radar_candidates, pruned_visual)
