"""End-to-end orchestration: cube -> features -> candidates -> decision.

These functions are the programmatic form of the CLI subcommands so that
library users and tests can drive the identical chain.
"""

from dataclasses import dataclass, replace

from .calibration import CalibrationProfile, Measurement, calibrate_plate, calibrate_sphere, measure
from .dielectric import EmFeatureVector, extract_features
from .errors import CalibrationError
from .fusion import FusionDecision, RadarContext, VisualContext, decide
from .knowledge import MaterialStore, RadarCandidateSet, match, prune_visual
from .signal_model import RadarCube
from .spectral import (
    RangeAngleMap, RangeDopplerMap, TargetDetection, detect_target, gate_peak,
    range_angle_at_doppler, range_doppler,
)


@dataclass(frozen=True)
class ExtractionResult:
    """The features of one frame with the measurement they were extracted from."""
    features: EmFeatureVector
    measurement: Measurement


def detect(cube: RadarCube, gate_m) -> tuple[RangeDopplerMap, RangeAngleMap, TargetDetection]:
    """Gated range-Doppler map, range-angle map and strongest gated target of one frame.

    Both maps hold the gate's range rows and a margin for the PRCA region;
    the range-angle map is those rows beamformed at the gate peak's Doppler bin.
    """
    rd_map = range_doppler(cube, gate_m)
    ra_map = range_angle_at_doppler(rd_map, gate_peak(rd_map, gate_m)[1])
    return rd_map, ra_map, detect_target(rd_map, ra_map, gate_m)


def calibrate_from_cubes(
    sphere_cube: RadarCube,
    plate_cube: RadarCube,
    sphere_diameter_m: float,
    noise_power_w: float,
    gate_m,
) -> CalibrationProfile:
    """Sphere then metal plate calibration, each from one frame."""
    _, _, sphere_det = detect(sphere_cube, gate_m)
    profile = calibrate_sphere(
        sphere_det, sphere_cube.geometry, sphere_cube.config, sphere_diameter_m, noise_power_w
    )
    _, plate_ra, plate_det = detect(plate_cube, gate_m)
    return calibrate_plate(plate_det, plate_ra, plate_cube.geometry, plate_cube.config, profile)


def extract_from_cube(cube: RadarCube, profile: CalibrationProfile, gate_m) -> ExtractionResult:
    """Run the full radar-side chain on one frame of the profile's radar."""
    if not profile.is_complete:
        raise CalibrationError("profile lacks the metal plate reference")
    profile.check_radar(cube.config, cube.geometry)
    _, ra_map, detection = detect(cube, gate_m)
    m = measure(detection, ra_map, profile)
    return ExtractionResult(extract_features(m, profile), m)


@dataclass(frozen=True)
class PipelineOutcome:
    """The fusion decision of one frame with the inputs it was decided from."""
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
    features: EmFeatureVector, visual: VisualContext, store: MaterialStore
) -> PipelineOutcome:
    """Match, prune the visual set against the measurement, and fuse."""
    radar_candidates = match(features.dielectric_constant, store)
    pruned = prune_visual(visual.candidates, features.dielectric_constant, store)
    pruned_visual = replace(visual, candidates=tuple(pruned))
    radar_ctx = RadarContext(
        snr_linear=features.snr_linear,
        distance_m=features.range_m,
        incidence_angle_rad=abs(features.angle_rad),
        candidates=radar_candidates.candidates,
    )
    decision = decide(pruned_visual, radar_ctx)
    return PipelineOutcome(decision, features, radar_candidates, pruned_visual)
