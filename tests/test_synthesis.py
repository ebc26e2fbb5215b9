import numpy as np
import pytest

from radmat import (
    ChirpConfig,
    DomainError,
    RadarCube,
    default_geometry,
    focus,
    synthesize,
    synthesize_frame,
)
from radmat.calibration import calibrate_sphere
from radmat.spectral import detect_target, detection_voxel, range_angle, range_doppler
from conftest import GATE_M, make_plate, make_sphere

VOXEL = np.array([0.0, 0.0, 0.35])


@pytest.fixture(scope="module")
def small_geometry():
    return default_geometry(ChirpConfig(), element_count=8)


def _aligned(signals):
    phases = np.angle(signals)
    return np.max(np.abs(np.angle(np.exp(1j * (phases - phases[0]))))) < 1e-6


class TestFocus:
    def test_oracle_target_phases_align(
        self, config, geometry, fixture_position, clean_profile, frame_factory
    ):
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=21, noise_power_w=0.0)
        det = detect_target(range_doppler(cube), range_angle(cube), GATE_M)
        focused = focus(det, clean_profile.phase_phasors, geometry, config)
        assert _aligned(focused)

    def test_injected_offsets_cancelled_by_matching_phasors(
        self, config, geometry, fixture_position, noise_power
    ):
        # per-antenna hardware phase errors, applied to noise-free cubes
        turns = np.exp(1j * np.linspace(-0.8, 1.1, geometry.element_count))
        cube = synthesize_frame([make_sphere(fixture_position)], config, geometry, 0.0, 31)
        sphere_cube = RadarCube(cube.samples * turns, config, geometry)
        det = detect_target(range_doppler(sphere_cube), range_angle(sphere_cube), GATE_M)
        prof = calibrate_sphere(det, geometry, config, 0.063, noise_power)
        # the phasors absorb the offsets (and any offset-induced voxel
        # shift), so focusing a plate with the same hardware errors is as
        # clean as with none
        cube = synthesize_frame([make_plate(fixture_position, 4.0)], config, geometry, 0.0, 32)
        plate_cube = RadarCube(cube.samples * turns, config, geometry)
        pdet = detect_target(range_doppler(plate_cube), range_angle(plate_cube), GATE_M)
        focused = focus(pdet, prof.phase_phasors, geometry, config)
        assert _aligned(focused)

    def test_antenna_count_mismatch_rejected(self, config, geometry, fixture_position, profile, frame_factory):
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=23)
        det = detect_target(range_doppler(cube), range_angle(cube), GATE_M)
        small = default_geometry(config, element_count=4)
        with pytest.raises(DomainError, match="mismatch"):
            focus(det, profile.phase_phasors, small, config)

    def test_focus_is_linear_in_the_gated_signal(
        self, config, geometry, fixture_position, profile, frame_factory
    ):
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=24, noise_power_w=0.0)
        det = detect_target(range_doppler(cube), range_angle(cube), GATE_M)
        from dataclasses import replace

        doubled = replace(det, gated_signal=det.gated_signal * 2.0)
        assert np.allclose(
            focus(doubled, profile.phase_phasors, geometry, config),
            2.0 * focus(det, profile.phase_phasors, geometry, config),
        )


class TestSynthesize:
    def test_identical_signals_perfect_coherence(self, small_geometry):
        signals = np.full(8, 1.5 + 0.5j)
        result = synthesize(signals, small_geometry, VOXEL, 1e-3)
        assert result.coherence_factor == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_coherent_magnitude(self, small_geometry):
        rng = np.random.default_rng(7)
        for _ in range(50):
            signals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            if abs(signals.sum()) < 1e-9:
                continue
            result = synthesize(signals, small_geometry, VOXEL, 1e-3)
            assert result.weights.sum() == pytest.approx(
                abs(result.coherent_sum), rel=1e-9
            )

    def test_random_phase_mean_coherence_near_inverse_n(self, small_geometry):
        # Monte Carlo oracle on the coherence formula: E[c] ~ 1/N
        rng = np.random.default_rng(123)
        n, trials = 8, 10_000
        total = 0.0
        for _ in range(trials):
            phases = rng.uniform(0.0, 2.0 * np.pi, n)
            signals = np.exp(1j * phases)
            total += abs(signals.sum()) ** 2 / (n * n)
        mean_c = total / trials
        assert mean_c == pytest.approx(1.0 / n, rel=0.2)

    def test_symmetric_boresight_weighted_vector_on_axis(self, small_geometry):
        signals = np.full(8, 2.0 + 0.0j)
        result = synthesize(signals, small_geometry, VOXEL, 1e-3)
        assert abs(result.weighted_vector[0]) < 1e-9 * np.linalg.norm(result.weighted_vector)

    def test_coherence_invariant_under_common_scalar(self, small_geometry):
        rng = np.random.default_rng(5)
        signals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a = synthesize(signals, small_geometry, VOXEL, 1e-3).coherence_factor
        b = synthesize(signals * (2.0 - 3.0j), small_geometry, VOXEL, 1e-3).coherence_factor
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_sum_degenerate(self, small_geometry):
        signals = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0], dtype=complex)
        with pytest.raises(DomainError, match="coherent sum"):
            synthesize(signals, small_geometry, VOXEL, 1e-3)

    def test_snr_non_negative(self, small_geometry):
        rng = np.random.default_rng(17)
        for _ in range(100):
            signals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            if abs(signals.sum()) < 1e-9:
                continue
            result = synthesize(signals, small_geometry, VOXEL, 1e-3)
            assert result.enhanced_snr_linear >= 0.0

    def test_enhanced_snr_beats_raw_single_antenna(
        self, config, geometry, fixture_position, profile, frame_factory
    ):
        cube = frame_factory([make_plate(fixture_position, 4.0)], seed=25, noise_power_w=0.0)
        det = detect_target(range_doppler(cube), range_angle(cube), GATE_M)
        focused = focus(det, profile.phase_phasors, geometry, config)
        result = synthesize(focused, geometry, detection_voxel(det), profile.noise_power_w)
        raw = np.max(np.abs(det.gated_signal) ** 2) / profile.noise_power_w
        assert result.enhanced_snr_linear >= raw
