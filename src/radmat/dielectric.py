"""Dielectric constant extraction from calibrated radar measurements.

The chain starts from a `calibration.Measurement`, whose reflectivity
rho = SNR * R^4 / A is the PRCA-normalized RCS up to the radar's own
constant.  The constant cancels in the Fresnel coefficient
r_p = sqrt(rho / rho_plate), which inverts to the relative
dielectric constant through the p-polarized Fresnel formula.

The inversion is the plus root of

    eps = (r+1)^2 * [1 +/- sqrt(1 - (sin(2t)*(r-1)/(r+1))^2)]
          / (2 * cos(t)^2 * (r-1)^2)

which at normal incidence is q = ((1 + r) / (1 - r))^2 in floating point
too: sin 0 = 0 and cos 0 = 1, so the computed root is exactly q * 2 / 2.

Below 45 deg the plus root is the only root >= 1.  Both roots are >= 1
only for r = 0 from 45 deg on: they are then 1 and tan(t)^2, both
reproduce r = 0, and the plus root, tan(t)^2, is returned.  Measurement
is power-based, so r_p is stored as a magnitude and clamped just below
1 to keep the inverse finite for metal-like reflectors.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields

from .calibration import CalibrationProfile, Measurement
from .docio import from_document, to_document
from .errors import CalibrationError, DomainError, RadmatError

R_P_CEILING = 1.0 - 1e-9
# keys of records written while the reflectivity carried the sphere's m^2 scale, read and ignored
_RETIRED_KEYS = ("rcs_m2", "power_reflection")


@dataclass(frozen=True)
class EmFeatureVector:
    """The seven radar-derived parameters handed to matching and fusion."""

    range_m: float
    velocity_m_s: float
    angle_rad: float
    snr_db: float  # -inf for a zero SNR
    fresnel_coefficient: float
    dielectric_constant: float
    prca_area_m2: float

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) or field.name == "snr_db" and value == -math.inf):
                raise DomainError(f"{field.name} must be finite, not {value}")
        if not 0.0 <= self.fresnel_coefficient < 1.0:
            raise DomainError("fresnel coefficient must lie in [0, 1)")
        if self.dielectric_constant < 1.0:
            raise DomainError("dielectric constant must be >= 1")
        if self.prca_area_m2 <= 0:
            raise DomainError("PRCA area must be positive")

    def to_document(self) -> dict:
        return to_document(self, "em_feature_vector")

    @classmethod
    def from_document(cls, doc: dict) -> "EmFeatureVector":
        return from_document(cls, doc, DomainError, "em_feature_vector", _RETIRED_KEYS)

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


def dielectric_from_fresnel(r_p: float, incidence_angle_rad: float) -> float:
    """Invert the p-polarized Fresnel magnitude to a dielectric constant."""
    if not 0.0 <= r_p < 1.0:
        raise DomainError("r_p must lie in [0, 1)")
    if not 0.0 <= incidence_angle_rad < math.pi / 2:
        raise DomainError("incidence angle must lie in [0, pi/2)")

    theta = incidence_angle_rad
    q = ((1.0 + r_p) / (1.0 - r_p)) ** 2
    # at least 0: (r_p - 1) / (r_p + 1) rounds into [-1, 0) and a sine into [-1, 1]
    discriminant = 1.0 - (math.sin(2.0 * theta) * (r_p - 1.0) / (r_p + 1.0)) ** 2
    # the plus root is at least q >= 1, so only rounding can take it below 1
    eps = q * (1.0 + math.sqrt(discriminant)) / (2.0 * math.cos(theta) ** 2)
    return max(eps, 1.0)


@contextmanager
def _stage(label: str):
    try:
        yield
    except RadmatError as exc:
        raise type(exc)(f"{label}: {exc}") from exc


def extract_features(measurement: Measurement, profile: CalibrationProfile) -> EmFeatureVector:
    """Feature vector of a `calibration.measure` result; errors carry their stage label."""
    detection, area_m2 = measurement.detection, measurement.region.area_m2
    snr = measurement.synthesis.enhanced_snr_linear
    with _stage("reflection"):
        if not profile.is_complete:
            raise CalibrationError("metal plate calibration missing")
        r_p = min(math.sqrt(measurement.reflectivity / profile.plate_reflectivity), R_P_CEILING)
    with _stage("inversion"):
        epsilon = dielectric_from_fresnel(r_p, abs(detection.angle_rad))
    return EmFeatureVector(
        range_m=detection.range_m,
        velocity_m_s=detection.velocity_m_s,
        angle_rad=detection.angle_rad,
        snr_db=10.0 * math.log10(snr) if snr > 0 else -math.inf,
        fresnel_coefficient=r_p,
        dielectric_constant=epsilon,
        prca_area_m2=area_m2,
    )
