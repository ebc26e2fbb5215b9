"""FMCW waveform configuration and synthetic multi-antenna echo generation.

Beat-signal model for a point-like facet at position v with radial
velocity V and relative dielectric constant eps_r:

    x[n, m, j] = A * exp(j*(2*pi*f_b*n/f_s  -  4*pi*V*T_c*m/lambda
                            -  4*pi*||p_j - v||/lambda))

    f_b = 2*R*S/c                      (dechirped beat frequency)
    A   = |r_p(eps_r, psi)| * sqrt(A_facet) * cos(psi)^n_facet / R^2

where psi is the angle between the facet normal and the line of sight,
r_p the p-polarized Fresnel reflection coefficient, and T_c the chirp
duration.  Circular complex white noise of a configured power is added
from a mandatory seed, so frames are bit-reproducible.

The synthesizer acts as the independent oracle for the processing chain:
its amplitude law is the quantity the extraction pipeline is meant to
recover (effective RCS = A_facet * r_p^2 * cos(psi)^(2*n_facet)).

Array convention: boresight is +z, a uniform linear array lies along x.
Per-antenna phases are two-way (4*pi/lambda), i.e. each element is
treated as the phase center of its own round trip.  The array is ideal:
per-antenna hardware phase errors are not simulated; multiplying a cube's
antenna axis by exp(1j * offsets) models them.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SceneError

SPEED_OF_LIGHT = 3.0e8  # m/s, radar convention

# Paper-style 60 GHz production settings used as defaults throughout.
DEFAULT_CARRIER_HZ = 60.0e9
DEFAULT_BANDWIDTH_HZ = 3.96e9
DEFAULT_SLOPE_HZ_PER_S = 66.0e12  # 66 MHz/us
DEFAULT_SAMPLE_RATE_HZ = 10.0e6

# n_facet of the amplitude law: the facet's cos(psi) falloff exponent
FACET_EXPONENT = 2.0

_NOISE_BLOCK_VALUES = 1 << 16  # noise values drawn and added at a time; stays in cache


@dataclass(frozen=True)
class ChirpConfig:
    """Sawtooth FMCW chirp and frame timing parameters."""

    carrier_frequency_hz: float = DEFAULT_CARRIER_HZ
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ
    slope_hz_per_s: float = DEFAULT_SLOPE_HZ_PER_S
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    samples_per_chirp: int = 600
    chirps_per_frame: int = 64

    def __post_init__(self):
        if not (math.isfinite(self.carrier_frequency_hz) and self.carrier_frequency_hz > 0):
            raise DomainError("carrier frequency must be positive and finite")
        rates = (self.bandwidth_hz, self.slope_hz_per_s, self.sample_rate_hz)
        if not all(math.isfinite(x) and x > 0 for x in rates):
            raise DomainError("bandwidth, slope and sample rate must be positive and finite")
        if self.samples_per_chirp < 2 or self.chirps_per_frame < 1:
            raise DomainError("need at least 2 samples per chirp and 1 chirp")
        if self.chirp_duration_s + 1e-15 < self.samples_per_chirp / self.sample_rate_hz:
            raise DomainError(
                "chirp duration B/S is shorter than the sampling window "
                f"({self.chirp_duration_s:.3e} s < "
                f"{self.samples_per_chirp / self.sample_rate_hz:.3e} s)"
            )

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def chirp_duration_s(self) -> float:
        return self.bandwidth_hz / self.slope_hz_per_s

    @property
    def unambiguous_range_m(self) -> float:
        # complex baseband: beat frequencies alias at f_s
        return SPEED_OF_LIGHT * self.sample_rate_hz / (2.0 * self.slope_hz_per_s)


@dataclass(frozen=True)
class ArrayGeometry:
    """Receive array: a uniform linear array along x, centered on the origin."""

    element_count: int
    spacing_m: float

    def __post_init__(self):
        if not (self.element_count >= 2 and math.isfinite(self.spacing_m) and self.spacing_m > 0):
            raise DomainError("array needs at least 2 elements and a finite spacing > 0")

    @functools.cached_property
    def element_positions(self) -> np.ndarray:
        """Element positions in meters, shape (N, 3), read-only."""
        x = (np.arange(self.element_count) - (self.element_count - 1) / 2.0) * self.spacing_m
        pos = np.zeros((self.element_count, 3))
        pos[:, 0] = x
        pos.flags.writeable = False
        return pos


def default_geometry(config: ChirpConfig, element_count: int = 8) -> ArrayGeometry:
    """Quarter-wavelength ULA.

    With two-way per-element phases (4*pi/lambda), lambda/4 spacing keeps
    the full +/-90 deg field of view free of grating lobes.
    """
    return ArrayGeometry(element_count, config.wavelength_m / 4.0)


@dataclass(frozen=True)
class SceneTarget:
    """A material-parameterized point facet in the scene."""

    position_m: np.ndarray
    radial_velocity_m_s: float = 0.0
    dielectric_constant: float = 1.0
    facet_normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -1.0]))
    facet_area_m2: float = 0.01
    label: str = ""

    def __post_init__(self):
        pos = np.asarray(self.position_m, dtype=float)
        nrm = np.asarray(self.facet_normal, dtype=float)
        if pos.shape != (3,) or nrm.shape != (3,):
            raise DomainError("position and facet normal must be 3-vectors")
        scalars = (self.radial_velocity_m_s, self.dielectric_constant, self.facet_area_m2)
        if not (np.all(np.isfinite(pos)) and all(map(math.isfinite, scalars))):
            raise DomainError("position, velocity, dielectric constant and area must be finite")
        if self.dielectric_constant < 1.0:
            raise DomainError("dielectric constant must be >= 1")
        if not abs(np.linalg.norm(nrm) - 1.0) <= 1e-9:  # also rejects NaN
            raise DomainError("facet normal must be a unit vector")
        if self.facet_area_m2 <= 0:
            raise DomainError("facet area must be positive")
        object.__setattr__(self, "position_m", pos)
        object.__setattr__(self, "facet_normal", nrm)

    @property
    def range_m(self) -> float:
        return math.sqrt(np.sum(self.position_m * self.position_m))


@dataclass(frozen=True)
class RadarCube:
    """Complex baseband samples shaped [fast_time, chirp, antenna].

    Storage is antenna-major, the layout of a cube file: `samples` is
    always a view whose `transpose(2, 1, 0)` is a C-contiguous
    [antenna, chirp, fast_time] array, so each antenna's chirps are
    contiguous rows.  Samples in any other layout are copied into it once,
    here; antenna-major samples are kept without a copy.
    """

    samples: np.ndarray
    config: ChirpConfig
    geometry: ArrayGeometry

    def __post_init__(self):
        s = np.asarray(self.samples)
        expected = (
            self.config.samples_per_chirp,
            self.config.chirps_per_frame,
            self.geometry.element_count,
        )
        if s.shape != expected:
            raise DomainError(f"cube shape {s.shape} does not match config {expected}")
        by_antenna = np.ascontiguousarray(s.transpose(2, 1, 0), dtype=np.complex128)
        if not np.all(np.isfinite(by_antenna)):
            raise DomainError("cube contains non-finite samples")
        object.__setattr__(self, "samples", by_antenna.transpose(2, 1, 0))


def beat_frequency(range_m: float, config: ChirpConfig) -> float:
    """Dechirped beat frequency 2*R*S/c for a target at the given range."""
    if range_m <= 0:
        raise DomainError("range must be positive")
    return 2.0 * range_m * config.slope_hz_per_s / SPEED_OF_LIGHT


def fresnel_amplitude(dielectric_constant: float, incidence_angle_rad: float) -> float:
    """p-polarized Fresnel reflection coefficient of a dielectric half-space.

    Returns (eps*cos(t) - sqrt(eps - sin(t)^2)) / (eps*cos(t) + sqrt(eps - sin(t)^2)).
    Positive for eps >= 1 at the incidence angles used here (< 45 deg).
    """
    if dielectric_constant < 1.0:
        raise DomainError("dielectric constant must be >= 1")
    if not 0.0 <= incidence_angle_rad < np.pi / 2:
        raise DomainError("incidence angle must lie in [0, pi/2)")
    eps = dielectric_constant
    cos_t = np.cos(incidence_angle_rad)
    root = np.sqrt(eps - np.sin(incidence_angle_rad) ** 2)
    return float((eps * cos_t - root) / (eps * cos_t + root))


def synthesize_frame(
    scene,
    config: ChirpConfig,
    geometry: ArrayGeometry,
    noise_power_w: float,
    rng_seed: int,
) -> RadarCube:
    """Generate one frame of multi-antenna baseband echoes.

    Each target contributes a beat tone at beat_frequency(R), a per-chirp
    Doppler phase increment, and exact two-way per-antenna geometric
    phases.  Back-facing facets contribute nothing.  Deterministic for a
    fixed seed.

    The antenna-major cube is the only cube-sized allocation.  Antenna
    plane a is built in place: from zero, add each facing target's
    [chirp, fast] plane times its phasor at a, in scene order.  The noise
    is drawn in [fast, chirp, antenna] order, real parts first, in blocks
    of fast-time rows that are added through a transposed view.  The
    bytes, signed zeros included, equal those of the [fast, chirp,
    antenna] construction.
    """
    if not (math.isfinite(noise_power_w) and noise_power_w >= 0):
        raise DomainError(f"noise power must be finite and >= 0, not {noise_power_w}")
    n_fast = config.samples_per_chirp
    n_chirp = config.chirps_per_frame
    positions = geometry.element_positions
    n_ant = geometry.element_count

    lam = config.wavelength_m
    fast_idx = np.arange(n_fast)
    chirp_idx = np.arange(n_chirp)
    planes = []  # ([chirp, fast] plane, antenna phasors) of each facing target

    for index, target in enumerate(scene):
        name = target.label or f"target {index}"
        v = target.position_m
        rng_m = target.range_m
        if rng_m <= 0:
            raise SceneError(f"{name}: position coincides with the radar origin")
        if rng_m >= config.unambiguous_range_m:
            raise SceneError(
                f"{name}: range {rng_m:.3f} m exceeds the unambiguous range "
                f"{config.unambiguous_range_m:.3f} m"
            )
        facing = float(np.sum(target.facet_normal * (-v / rng_m)))
        if facing <= 0:
            continue
        psi = float(np.arccos(np.clip(facing, 0.0, 1.0)))
        amplitude = (
            abs(fresnel_amplitude(target.dielectric_constant, psi))
            * np.sqrt(target.facet_area_m2)
            * facing**FACET_EXPONENT
            / rng_m**2
        )
        f_beat = beat_frequency(rng_m, config)
        fast = np.exp(2j * np.pi * f_beat * fast_idx / config.sample_rate_hz)
        slow = np.exp(
            -4j
            * np.pi
            * target.radial_velocity_m_s
            * config.chirp_duration_s
            * chirp_idx
            / lam
        )
        dists = np.linalg.norm(positions - v, axis=1)
        ant = np.exp(-4j * np.pi * dists / lam)
        planes.append((amplitude * fast[None, :] * slow[:, None], ant))

    cube = np.zeros((n_ant, n_chirp, n_fast), dtype=np.complex128)  # antenna-major
    product = np.empty((n_chirp, n_fast), dtype=np.complex128)
    for a in range(n_ant):
        for plane, ant in planes:
            np.multiply(plane, ant[a], out=product)
            cube[a] += product

    if noise_power_w > 0:
        rng = np.random.default_rng(rng_seed)
        scale = np.sqrt(noise_power_w / 2.0)
        rows = max(1, _NOISE_BLOCK_VALUES // (n_chirp * n_ant))
        block = np.empty((rows, n_chirp * n_ant))
        for part in (cube.real, cube.imag):
            for start in range(0, n_fast, rows):
                draw = block[: min(rows, n_fast - start)]
                rng.standard_normal(out=draw)
                draw *= scale
                # [fast, (chirp, antenna)] -> [antenna, chirp, fast]
                turned = draw.T.reshape(n_chirp, n_ant, len(draw)).transpose(1, 0, 2)
                part[:, :, start : start + len(draw)] += turned

    return RadarCube(cube.transpose(2, 1, 0), config, geometry)
