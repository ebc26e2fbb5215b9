"""System calibration from a metal sphere and a smooth metal plate.

The sphere (diameter well into the optical scattering region, enforced
as d >= 5*lambda) is the phase reference: it yields per-antenna phasors
C_j = exp(-j*(phi_meas_j - phi_cali_j)) that cancel hardware offsets.
The plate, measured after the sphere, provides the reflectivity of a
perfect reflector; material reflectivities are later normalized by it.
A radar-equation scale (the sphere's RCS, range and SNR) would multiply
both sides of that ratio alike, so the profile keeps none.

`measure` is the one path from a detection to its enhanced (synthesis) SNR,
reflectivity rho = SNR * R^4 / A and PRCA region, for the plate and every
target alike, so both sides of the ratio are computed the same way.

A profile names the radar it calibrates, by the chirp and array that a
scene document also gives, and refuses a frame of any other radar.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .docio import from_document, to_document
from .errors import CalibrationError, DomainError
from .prca import PrcaRegion, compute_prca
from .signal_model import ArrayGeometry, ChirpConfig, RadarCube
from .spectral import RangeAngleMap, TargetDetection, detection_voxel, median, range_doppler
from .synthesis import SynthesisResult, focus, synthesize

OPTICAL_REGION_FACTOR = 5.0  # minimum sphere diameter in wavelengths
# a profile of any other version holds its plate reference in another unit
PROFILE_VERSION = 2
# the profile's own readers for the radar it names: a scene's `chirp` and `array` objects
_RADAR_READERS = {
    "chirp": lambda doc, _: ChirpConfig.from_document(doc, CalibrationError),
    "array": lambda doc, read: ArrayGeometry.from_document(doc, read["chirp"], CalibrationError),
}


@dataclass(frozen=True)
class CalibrationProfile:
    """Phase and plate calibration of one radar: its settings, phasors, noise and plate reference."""
    chirp: ChirpConfig
    array: ArrayGeometry
    phase_phasors: np.ndarray  # complex, unit magnitude, one per antenna
    noise_power_w: float
    plate_reflectivity: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.noise_power_w) and self.noise_power_w > 0):
            raise DomainError("noise power must be finite and positive")
        phasors = np.asarray(self.phase_phasors, dtype=np.complex128)
        if phasors.shape != (self.array.element_count,):
            raise DomainError("need one phase phasor per antenna")
        if not np.all(np.abs(np.abs(phasors) - 1.0) <= 1e-9):  # also rejects NaN
            raise DomainError("phase phasors must have unit magnitude")
        rho = self.plate_reflectivity
        if rho is not None and not (math.isfinite(rho) and rho > 0):
            raise DomainError("plate reflectivity must be finite and positive")
        object.__setattr__(self, "phase_phasors", phasors)

    @property
    def is_complete(self) -> bool:
        return self.plate_reflectivity is not None

    def check_radar(self, config: ChirpConfig, geometry: ArrayGeometry) -> None:
        """Raise CalibrationError naming the first setting of a frame's radar
        that differs from the calibrated one."""
        for section, calibrated, frame in (("chirp", self.chirp, config), ("array", self.array, geometry)):
            for field in fields(calibrated):
                ours, theirs = getattr(calibrated, field.name), getattr(frame, field.name)
                if ours != theirs:
                    raise CalibrationError(
                        f"the frame's {section} {field.name} {theirs!r} differs from the "
                        f"calibrated radar's {ours!r}"
                    )

    def to_document(self) -> dict:
        return to_document(self, "calibration_profile", version=PROFILE_VERSION)

    @classmethod
    def from_document(cls, doc: dict) -> "CalibrationProfile":
        version = doc.get("version")
        if version != PROFILE_VERSION:
            raise CalibrationError(
                f"calibration profile version {version!r} is not {PROFILE_VERSION}; "
                "run `radmat calibrate` again"
            )
        return from_document(
            cls, doc, CalibrationError, "calibration_profile", ("version",), _RADAR_READERS
        )


def estimate_noise_power(empty_cube: RadarCube) -> float:
    """Per-bin noise power from an empty-scene cube.

    Median of |X|^2 over all range-Doppler bins and antennas, corrected
    by 1/ln(2) (the median of an exponential is ln(2) times its mean), so
    the estimate is unbiased for pure noise yet robust to leakage.
    """
    power = np.abs(range_doppler(empty_cube).per_antenna)
    power **= 2  # in place: the full map is the calibration's largest array
    estimate = median(power) / math.log(2.0)
    if estimate <= 0:
        raise CalibrationError("empty-scene cube has zero power; cannot estimate noise")
    return estimate


def calibrate_sphere(
    detection: TargetDetection,
    geometry: ArrayGeometry,
    config: ChirpConfig,
    sphere_diameter_m: float,
    noise_power_w: float,
) -> CalibrationProfile:
    """The phase part of the calibration profile: the sphere's phasors and the noise floor.

    A sphere at least 5 wavelengths across scatters as a point at its
    voxel, which is what makes its phases a reference.
    """
    lam = config.wavelength_m
    if not OPTICAL_REGION_FACTOR * lam <= sphere_diameter_m < math.inf:  # also rejects NaN
        raise CalibrationError(
            f"sphere diameter {sphere_diameter_m * 1e3:.1f} mm is not a finite diameter in the "
            f"optical scattering region (need >= {OPTICAL_REGION_FACTOR * lam * 1e3:.1f} mm)"
        )
    if noise_power_w <= 0:
        raise CalibrationError("noise power must be positive")

    voxel = detection_voxel(detection)
    dists = np.linalg.norm(geometry.element_positions - voxel, axis=1)
    expected_phase = -4.0 * np.pi * dists / lam
    measured_phase = np.angle(detection.gated_signal)
    phasors = np.exp(-1j * (measured_phase - expected_phase))
    return CalibrationProfile(config, geometry, phasors, noise_power_w)


@dataclass(frozen=True)
class Measurement:
    """A detection with its focused synthesis, reflectivity and PRCA region."""

    detection: TargetDetection
    synthesis: SynthesisResult
    reflectivity: float  # SNR * R^4 / A: the RCS, up to the radar's constant, per unit area
    region: PrcaRegion


def measure(
    detection: TargetDetection, ra_map: RangeAngleMap, profile: CalibrationProfile
) -> Measurement:
    """Focused synthesis, reflectivity and PRCA region of a detection by the profile's radar."""
    focused = focus(detection, profile.phase_phasors, profile.array, profile.chirp)
    synthesis = synthesize(focused, profile.array, detection_voxel(detection), profile.noise_power_w)
    region = compute_prca(ra_map, (detection.range_bin, detection.angle_bin))
    reflectivity = synthesis.enhanced_snr_linear * detection.range_m**4 / region.area_m2
    return Measurement(detection, synthesis, reflectivity, region)


def calibrate_plate(
    detection: TargetDetection,
    ra_map: RangeAngleMap,
    geometry: ArrayGeometry,
    config: ChirpConfig,
    profile: CalibrationProfile | None,
) -> CalibrationProfile:
    """Store the metal plate's reflectivity as the unity reference.

    Requires a sphere-calibrated profile of the plate's radar; repeating
    the measurement deterministically overwrites any previous plate value.
    """
    if profile is None:
        raise CalibrationError("sphere calibration must run before the plate")
    profile.check_radar(config, geometry)
    m = measure(detection, ra_map, profile)
    if m.synthesis.enhanced_snr_linear <= 1.0:
        raise CalibrationError("plate SNR is below the usable threshold")
    return replace(profile, plate_reflectivity=m.reflectivity)
