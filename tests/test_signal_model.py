import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radmat import (
    ArrayGeometry,
    ChirpConfig,
    DomainError,
    RadarCube,
    SceneError,
    SceneTarget,
    beat_frequency,
    default_geometry,
    fresnel_amplitude,
    signal_model,
    synthesize_frame,
)
from conftest import make_plate, padded_range_bin_m

C = 3.0e8


class TestChirpConfig:
    def test_defaults_consistent(self, config):
        assert config.wavelength_m == pytest.approx(0.005)
        assert config.chirp_duration_s == pytest.approx(60e-6)

    def test_rejects_non_positive_parameters(self):
        with pytest.raises(DomainError):
            ChirpConfig(bandwidth_hz=-1.0)
        with pytest.raises(DomainError):
            ChirpConfig(slope_hz_per_s=0.0)

    @pytest.mark.parametrize(
        "field", ["carrier_frequency_hz", "bandwidth_hz", "slope_hz_per_s", "sample_rate_hz"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            ChirpConfig(**{field: value})

    def test_rejects_sampling_window_longer_than_chirp(self):
        # 700 samples at 10 MHz = 70 us > B/S = 60 us
        with pytest.raises(DomainError):
            ChirpConfig(samples_per_chirp=700)


class TestArrayGeometry:
    def test_ula_centered(self):
        geo = ArrayGeometry(4, 0.001)
        assert np.allclose(geo.element_positions[:, 0].sum(), 0.0)
        assert np.allclose(np.diff(geo.element_positions[:, 0]), 0.001)

    def test_rejects_single_element(self):
        with pytest.raises(DomainError):
            ArrayGeometry(1, 0.001)

    @pytest.mark.parametrize("value", [0.0, -0.001])
    def test_rejects_non_positive_spacing(self, value):
        with pytest.raises(DomainError):
            ArrayGeometry(4, value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_spacing(self, value):
        with pytest.raises(DomainError, match="finite"):
            ArrayGeometry(4, value)


class TestBeatFrequency:
    def test_quarter_meter(self, config):
        # hand-computed: 2 * 0.25 * 66e12 / 3e8
        assert beat_frequency(0.25, config) == pytest.approx(110_000.0)

    def test_half_meter_doubles(self, config):
        assert beat_frequency(0.50, config) == pytest.approx(220_000.0)

    def test_zero_range_rejected(self, config):
        with pytest.raises(DomainError):
            beat_frequency(0.0, config)


class TestFresnelAmplitude:
    def test_index_matched_interface(self):
        assert fresnel_amplitude(1.0, 0.0) == 0.0

    def test_normal_incidence_closed_form(self):
        # (sqrt(eps) - 1) / (sqrt(eps) + 1)
        assert fresnel_amplitude(4.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert fresnel_amplitude(9.0, 0.0) == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_epsilon_at_normal_incidence(self):
        values = [fresnel_amplitude(e, 0.0) for e in np.linspace(1.0, 100.0, 200)]
        assert np.all(np.diff(values) > 0)

    @given(
        eps=st.floats(min_value=1.0, max_value=1e9),
        theta=st.floats(min_value=0.0, max_value=np.pi / 2 - 1e-6),
    )
    def test_magnitude_below_one(self, eps, theta):
        assert abs(fresnel_amplitude(eps, theta)) < 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fresnel_amplitude(0.5, 0.0)
        with pytest.raises(DomainError):
            fresnel_amplitude(4.0, np.pi / 2)


class TestSynthesizeFrame:
    def test_empty_scene_zero_noise_all_zero(self, config, geometry):
        cube = synthesize_frame([], config, geometry, 0.0, 7)
        assert np.all(cube.samples == 0)

    def test_dominant_range_bin_matches_beat_oracle(self, config, geometry):
        # oracle: beat-frequency formula plus FFT bin mapping
        target = make_plate([0.0, 0.0, 0.25], 1e6)
        cube = synthesize_frame([target], config, geometry, 0.0, 7)
        n_fft = 1 << (config.samples_per_chirp - 1).bit_length()
        spectrum = np.abs(np.fft.fft(cube.samples[0, 0, :], n_fft))
        expected_bin = round(0.25 / padded_range_bin_m(config))
        assert int(np.argmax(spectrum)) == expected_bin

    def test_zero_noise_ignores_seed(self, config, geometry):
        target = make_plate([0.0, 0.0, 0.25], 1e6)
        a = synthesize_frame([target], config, geometry, 0.0, 1)
        b = synthesize_frame([target], config, geometry, 0.0, 2)
        assert np.array_equal(a.samples, b.samples)

    def test_fixed_seed_bit_identical_with_noise(self, config, geometry):
        target = make_plate([0.0, 0.0, 0.25], 4.0)
        a = synthesize_frame([target], config, geometry, 1e-3, 42)
        b = synthesize_frame([target], config, geometry, 1e-3, 42)
        assert np.array_equal(a.samples, b.samples)

    def test_out_of_range_target_named(self, config, geometry):
        target = make_plate([0.0, 0.0, 23.0], 4.0, label="far plate")
        with pytest.raises(SceneError, match="far plate"):
            synthesize_frame([target], config, geometry, 0.0, 1)

    def test_round_trip_bin_property(self, config, geometry):
        # recovered range from the dominant FFT bin stays within c/(2B)
        n_fft = 1 << (config.samples_per_chirp - 1).bit_length()
        bin_m = padded_range_bin_m(config)
        tolerance = C / (2.0 * config.bandwidth_hz)
        for range_m in np.linspace(0.2, 2.2, 21):
            cube = synthesize_frame(
                [make_plate([0.0, 0.0, range_m], 1e6)], config, geometry, 0.0, 3
            )
            spectrum = np.abs(np.fft.fft(cube.samples[0, 0, :], n_fft))
            recovered = np.argmax(spectrum) * bin_m
            assert abs(recovered - range_m) <= tolerance

    @pytest.mark.parametrize("noise_power_w", [math.nan, math.inf, -1e-3])
    def test_noise_power_must_be_finite_and_non_negative(self, config, geometry, noise_power_w):
        with pytest.raises(DomainError, match="noise power"):
            synthesize_frame([], config, geometry, noise_power_w, 1)

    def test_back_facing_facet_contributes_nothing(self, config, geometry):
        away = make_plate([0.0, 0.0, 0.25], 4.0)
        away = type(away)(
            position_m=away.position_m,
            dielectric_constant=4.0,
            facet_normal=np.array([0.0, 0.0, 1.0]),
            facet_area_m2=0.04,
        )
        cube = synthesize_frame([away], config, geometry, 0.0, 1)
        assert np.all(cube.samples == 0)

    def test_default_geometry_quarter_wave(self, config):
        geo = default_geometry(config, 8)
        spacing = np.diff(geo.element_positions[:, 0])
        assert np.allclose(spacing, config.wavelength_m / 4.0)


def _c_order_frame(scene, config, geometry, noise_power_w, rng_seed):
    """Reference: the [fast, chirp, antenna] C-order construction of the samples."""
    n_fast, n_chirp = config.samples_per_chirp, config.chirps_per_frame
    lam = config.wavelength_m
    cube = np.zeros((n_fast, n_chirp, geometry.element_count), dtype=np.complex128)
    for target in scene:
        v, rng_m = target.position_m, target.range_m
        facing = float(np.sum(target.facet_normal * (-v / rng_m)))
        if facing <= 0:
            continue
        psi = float(np.arccos(np.clip(facing, 0.0, 1.0)))
        amplitude = (
            abs(fresnel_amplitude(target.dielectric_constant, psi))
            * np.sqrt(target.facet_area_m2)
            * facing**2.0
            / rng_m**2
        )
        f_beat = beat_frequency(rng_m, config)
        fast = np.exp(2j * np.pi * f_beat * np.arange(n_fast) / config.sample_rate_hz)
        slow = np.exp(
            -4j * np.pi * target.radial_velocity_m_s * config.chirp_duration_s
            * np.arange(n_chirp) / lam
        )
        ant = np.exp(-4j * np.pi * np.linalg.norm(geometry.element_positions - v, axis=1) / lam)
        cube += amplitude * fast[:, None, None] * slow[None, :, None] * ant[None, None, :]
    if noise_power_w > 0:
        rng = np.random.default_rng(rng_seed)
        scale = np.sqrt(noise_power_w / 2.0)
        cube = cube + scale * (
            rng.standard_normal(cube.shape) + 1j * rng.standard_normal(cube.shape)
        )
    return cube


SHAPES = [
    pytest.param((600, 64, 8), id="600x64x8"),
    pytest.param((256, 128, 12), id="256x128x12"),
    pytest.param((513, 100, 5), id="513x100x5"),
    pytest.param((512, 64, 8), id="512x64x8"),
    pytest.param((256, 2, 8), id="256x2x8"),
    pytest.param((4, 8192, 9), id="4x8192x9"),
]


def _antenna_major(samples) -> bool:
    return samples.dtype == np.complex128 and samples.flags.c_contiguous


def _noise_rows(shape) -> tuple:
    """(rows per noise block, rows in the last block) of a cube shape."""
    n_fast, n_chirp, n_ant = shape
    rows = max(1, signal_model._NOISE_BLOCK_VALUES // (n_chirp * n_ant))
    return rows, n_fast - rows * ((n_fast - 1) // rows)


def _plate(position, epsilon, normal=(0.0, 0.0, -1.0)):
    return SceneTarget(
        position_m=np.asarray(position, dtype=float),
        dielectric_constant=epsilon,
        facet_normal=np.asarray(normal, dtype=float),
        facet_area_m2=0.04,
    )


# a facing plate, a zero-amplitude (eps = 1) boresight plate whose products
# hold signed zeros, a back-facing plate and a slanted mover
REFERENCE_SCENE = [
    _plate([0.05, 0.0, 0.3], 4.0),
    _plate([0.0, 0.0, 0.25], 1.0),
    _plate([0.0, 0.0, 0.4], 3.0, normal=(0.0, 0.0, 1.0)),
    SceneTarget(
        position_m=np.array([-0.1, 0.0, 0.5]),
        radial_velocity_m_s=-1.0,
        dielectric_constant=2.5,
        facet_normal=np.array([0.6, 0.0, -0.8]),
    ),
]

# a 256x128x12 frame, the `scene` benchmark workload's shape, and five plates facing it
SCENE_CONFIG = ChirpConfig(samples_per_chirp=256, chirps_per_frame=128)
SCENE_GEOMETRY = default_geometry(SCENE_CONFIG, element_count=12)
FIVE_FACING = [_plate([0.03 * k - 0.06, 0.0, 0.2 + 0.07 * k], 2.0 + k) for k in range(5)]


class TestAntennaMajorStorage:
    def test_shapes_cover_whole_partial_and_single_row_noise_blocks(self):
        blocks = [_noise_rows(param.values[0]) for param in SHAPES]
        assert any(last < rows for rows, last in blocks)
        assert any(last == rows > 1 for rows, last in blocks)
        assert (1, 1) in blocks

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("noise_power_w", [0.0, 1e-2], ids=["noise-off", "noise-on"])
    @pytest.mark.parametrize("offsets", [False, True], ids=["no-offsets", "phase-offsets"])
    @pytest.mark.parametrize(
        "scene",
        [REFERENCE_SCENE, REFERENCE_SCENE[1:3]],
        ids=["mixed-scene", "zero-amplitude-only"],
    )
    def test_synthesize_frame_matches_c_order_construction(
        self, shape, noise_power_w, offsets, scene
    ):
        n_fast, n_chirp, n_ant = shape
        config = ChirpConfig(samples_per_chirp=n_fast, chirps_per_frame=n_chirp)
        geometry = default_geometry(config, element_count=n_ant)
        cube = synthesize_frame(scene, config, geometry, noise_power_w, 5)
        reference = _c_order_frame(scene, config, geometry, noise_power_w, 5)
        if offsets:
            # hardware phase errors: a rotation of the cube's antenna axis
            turns = np.exp(1j * np.linspace(-2.0, 2.5, n_ant))
            cube = RadarCube(cube.samples * turns[:, None, None], config, geometry)
            reference = reference * turns[None, None, :]
        assert _antenna_major(cube.samples)
        # bytes, not values: -0.0 and +0.0 compare equal as values
        assert cube.samples.tobytes() == reference.transpose(2, 1, 0).tobytes()

    def test_only_cube_sized_allocation_is_the_cube(self):
        tracemalloc.start()
        try:
            cube = synthesize_frame(FIVE_FACING, SCENE_CONFIG, SCENE_GEOMETRY, 1e-2, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * cube.samples.nbytes

    def test_one_target_plane_alive_at_a_time(self):
        synthesize_frame(FIVE_FACING, SCENE_CONFIG, SCENE_GEOMETRY, 1e-2, 3)  # warm-up
        peaks = []
        tracemalloc.start()
        try:
            for scene in (FIVE_FACING[:1], FIVE_FACING):
                tracemalloc.reset_peak()
                synthesize_frame(scene, SCENE_CONFIG, SCENE_GEOMETRY, 1e-2, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        plane_bytes = SCENE_CONFIG.chirps_per_frame * SCENE_CONFIG.samples_per_chirp * 16
        assert peaks[1] - peaks[0] < plane_bytes

    def test_c_ordered_samples_copied_once_into_antenna_major(self, config, geometry):
        shape = (config.samples_per_chirp, config.chirps_per_frame, geometry.element_count)
        samples = (np.random.default_rng(1).standard_normal(shape) + 0j).transpose(2, 1, 0)
        cube = RadarCube(samples, config, geometry)
        assert _antenna_major(cube.samples)
        assert not np.shares_memory(cube.samples, samples)
        np.testing.assert_array_equal(cube.samples, samples)

    def test_antenna_major_samples_kept_without_copy(self, config, geometry):
        shape = (geometry.element_count, config.chirps_per_frame, config.samples_per_chirp)
        by_antenna = np.random.default_rng(2).standard_normal(shape) + 0j
        cube = RadarCube(by_antenna, config, geometry)
        assert np.shares_memory(cube.samples, by_antenna)
        assert _antenna_major(cube.samples)

    def test_non_finite_sample_rejected(self, config, geometry):
        shape = (geometry.element_count, config.chirps_per_frame, config.samples_per_chirp)
        samples = np.zeros(shape, complex)
        samples[1, 2, 3] = complex(0.0, math.nan)
        with pytest.raises(DomainError, match="non-finite"):
            RadarCube(samples, config, geometry)
