"""System calibration from a metal sphere and a smooth metal plate.

The sphere (diameter well into the optical scattering region, enforced
as d >= 5*lambda) pins the radar equation by its RCS sigma_c = pi*(d/2)^2,
range R_c and SNR_c, and yields per-antenna phase phasors
C_j = exp(-j*(phi_meas_j - phi_cali_j)) that cancel hardware offsets.
The plate, measured after the sphere, provides the power reflection of a
perfect reflector; material reflectivities are later normalized by it.

`measure` is the one path from a detection to its enhanced (synthesis) SNR,
RCS and PRCA region, for the plate and every target alike; the sphere's SNR
comes from the same focus and synthesis, so every ratio's sides match.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .docio import from_document, to_document
from .errors import CalibrationError, DomainError
from .prca import PrcaRegion, compute_prca
from .signal_model import ArrayGeometry, ChirpConfig, RadarCube
from .spectral import RangeAngleMap, TargetDetection, detection_voxel, median, range_doppler
from .synthesis import SynthesisResult, focus, synthesize

OPTICAL_REGION_FACTOR = 5.0  # minimum sphere diameter in wavelengths
# profile-document keys besides the fields; the retired `system_constant_k` is read and ignored
_EXTRA_KEYS = ("version", "system_constant_k")


@dataclass(frozen=True)
class CalibrationProfile:
    """Sphere and plate calibration of one radar: the sphere reference, phasors and noise."""
    sphere_rcs_m2: float
    sphere_range_m: float
    sphere_snr_linear: float
    phase_phasors: np.ndarray  # complex, unit magnitude, one per antenna
    noise_power_w: float
    metal_plate_rho: float | None = None

    def __post_init__(self):
        scalars = (
            self.sphere_rcs_m2,
            self.sphere_range_m,
            self.sphere_snr_linear,
            self.noise_power_w,
        )
        if not all(math.isfinite(x) and x > 0 for x in scalars):
            raise DomainError("all calibration scalars must be finite and positive")
        phasors = np.asarray(self.phase_phasors, dtype=np.complex128)
        if phasors.ndim != 1 or phasors.size == 0:
            raise DomainError("phase phasors must be a non-empty 1-D array")
        if not np.all(np.abs(np.abs(phasors) - 1.0) <= 1e-9):  # also rejects NaN
            raise DomainError("phase phasors must have unit magnitude")
        rho = self.metal_plate_rho
        if rho is not None and not (math.isfinite(rho) and rho > 0):
            raise DomainError("metal plate reflectivity must be finite and positive")
        object.__setattr__(self, "phase_phasors", phasors)

    @property
    def is_complete(self) -> bool:
        return self.metal_plate_rho is not None

    def to_document(self) -> dict:
        return to_document(self, "calibration_profile", version=1)

    @classmethod
    def from_document(cls, doc: dict) -> "CalibrationProfile":
        return from_document(cls, doc, CalibrationError, "calibration_profile", _EXTRA_KEYS)


def estimate_noise_power(empty_cube: RadarCube) -> float:
    """Per-bin noise power from an empty-scene cube.

    Median of |X|^2 over all range-Doppler bins and antennas, corrected
    by 1/ln(2) (the median of an exponential is ln(2) times its mean), so
    the estimate is unbiased for pure noise yet robust to leakage.
    """
    spectra = range_doppler(empty_cube).per_antenna
    power = np.abs(spectra) ** 2
    estimate = median(power) / math.log(2.0)
    if estimate <= 0:
        raise CalibrationError("empty-scene cube has zero power; cannot estimate noise")
    return estimate


def _synthesis(detection, phasors, geometry, config, noise_power_w) -> SynthesisResult:
    """Focus the gated signal on the detection's voxel and synthesize it."""
    focused = focus(detection, phasors, geometry, config)
    return synthesize(focused, geometry, detection_voxel(detection), noise_power_w)


def calibrate_sphere(
    detection: TargetDetection,
    geometry: ArrayGeometry,
    config: ChirpConfig,
    sphere_diameter_m: float,
    noise_power_w: float,
) -> CalibrationProfile:
    """Build the sphere-referenced part of the calibration profile."""
    lam = config.wavelength_m
    if sphere_diameter_m < OPTICAL_REGION_FACTOR * lam:
        raise CalibrationError(
            f"sphere diameter {sphere_diameter_m * 1e3:.1f} mm is not in the optical "
            f"scattering region (need >= {OPTICAL_REGION_FACTOR * lam * 1e3:.1f} mm)"
        )
    if noise_power_w <= 0:
        raise CalibrationError("noise power must be positive")

    sigma_c = math.pi * (sphere_diameter_m / 2.0) ** 2
    voxel = detection_voxel(detection)
    dists = np.linalg.norm(geometry.element_positions - voxel, axis=1)
    expected_phase = -4.0 * np.pi * dists / lam
    measured_phase = np.angle(detection.gated_signal)
    phasors = np.exp(-1j * (measured_phase - expected_phase))

    # focused signals are real-positive by construction at the sphere voxel
    snr_c = _synthesis(detection, phasors, geometry, config, noise_power_w).enhanced_snr_linear
    if snr_c <= 0:
        raise CalibrationError("sphere signal has zero synthesized power")

    return CalibrationProfile(
        sphere_rcs_m2=sigma_c,
        sphere_range_m=detection.range_m,
        sphere_snr_linear=snr_c,
        phase_phasors=phasors,
        noise_power_w=noise_power_w,
    )


def rcs_from_snr(snr_linear: float, range_m: float, profile: CalibrationProfile) -> float:
    """Distance-independent RCS via the calibrated sphere reference."""
    if snr_linear <= 0 or range_m <= 0:
        raise DomainError("SNR and range must be positive")
    return (
        profile.sphere_rcs_m2
        * (snr_linear / profile.sphere_snr_linear)
        * (range_m / profile.sphere_range_m) ** 4
    )


@dataclass(frozen=True)
class Measurement:
    """A detection with its focused synthesis, RCS and PRCA region."""

    detection: TargetDetection
    synthesis: SynthesisResult
    rcs_m2: float
    region: PrcaRegion


def measure(
    detection: TargetDetection,
    ra_map: RangeAngleMap,
    geometry: ArrayGeometry,
    config: ChirpConfig,
    profile: CalibrationProfile,
) -> Measurement:
    """Focused synthesis, sphere-referenced RCS and PRCA region of a detection."""
    synthesis = _synthesis(detection, profile.phase_phasors, geometry, config, profile.noise_power_w)
    return Measurement(
        detection=detection,
        synthesis=synthesis,
        rcs_m2=rcs_from_snr(synthesis.enhanced_snr_linear, detection.range_m, profile),
        region=compute_prca(ra_map, (detection.range_bin, detection.angle_bin)),
    )


def calibrate_plate(
    detection: TargetDetection,
    ra_map: RangeAngleMap,
    geometry: ArrayGeometry,
    config: ChirpConfig,
    profile: CalibrationProfile | None,
) -> CalibrationProfile:
    """Store the metal plate's power reflection as the unity reference.

    Requires a sphere-calibrated profile; repeating the measurement
    deterministically overwrites any previous plate value.
    """
    if profile is None:
        raise CalibrationError("sphere calibration must run before the plate")
    m = measure(detection, ra_map, geometry, config, profile)
    if m.synthesis.enhanced_snr_linear <= 1.0:
        raise CalibrationError("plate SNR is below the usable threshold")
    return replace(profile, metal_plate_rho=m.rcs_m2 / m.region.area_m2)
