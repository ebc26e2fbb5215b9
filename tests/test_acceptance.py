"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figures when it succeeds.

Criteria and tolerances are fixed here; the simulator is the oracle.
"""

import math
import time

import numpy as np
import pytest

from radmat import (
    RadarContext,
    SceneTarget,
    VisualContext,
    decide,
    default_store,
    dielectric_from_fresnel,
    fresnel_amplitude,
    gate,
    match,
    prune_visual,
    shoelace_area,
    synthesize_frame,
)
from radmat.calibration import measure
from radmat.dielectric import R_P_CEILING, extract_features
from radmat.pipeline import detect, extract_from_cube
from radmat.spectral import detect_target, range_angle, range_doppler
from conftest import GATE_M, METAL_EPSILON, make_plate

C = 3.0e8


def _report(number, title, detail):
    print(f"ACCEPTANCE {number} PASS: {title} ({detail})")


def test_criterion_1_fresnel_round_trip():
    """Inversion recovers the dielectric constant to 1e-6 over the grid."""
    started = time.monotonic()
    worst = 0.0
    for eps in (1.5, 2.0, 3.0, 4.0, 6.0, 9.0, 16.0, 25.0):
        for theta_deg in (0.0, 10.0, 20.0, 30.0):
            theta = math.radians(theta_deg)
            recovered = dielectric_from_fresnel(fresnel_amplitude(eps, theta), theta)
            worst = max(worst, abs(recovered - eps) / eps)
    elapsed = time.monotonic() - started
    assert worst < 1e-6
    assert elapsed < 1.0
    _report(1, "Fresnel round-trip", f"worst rel err {worst:.2e}, {elapsed*1e3:.0f} ms")


def test_criterion_2_simulator_end_to_end(
    config, fixture_position, frame_factory, profile
):
    """Calibrated recovery of eps in {2, 4, 9, 25} within 10%, ordered."""
    started = time.monotonic()
    estimates = []
    for i, eps in enumerate((2.0, 4.0, 9.0, 25.0)):
        cube = frame_factory([make_plate(fixture_position, eps)], seed=200 + i)
        features = extract_from_cube(cube, profile, GATE_M).features
        assert features.snr_db >= 20.0, "fixture SNR must be at least 20 dB"
        assert abs(features.dielectric_constant - eps) / eps < 0.10
        estimates.append(features.dielectric_constant)
    assert all(a < b for a, b in zip(estimates, estimates[1:]))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(
        2,
        "simulator end-to-end",
        "estimates " + ", ".join(f"{e:.3f}" for e in estimates) + f", {elapsed:.1f} s",
    )


def test_out_of_gate_reflector_does_not_take_over_prca(
    fixture_position, frame_factory, profile
):
    """A brighter metal plate beyond the gate leaves eps within 10%.

    The plate at 0.9 m outshines the in-gate board on the range-angle
    map, so a region grown from the global peak measures the clutter.
    """
    clutter_position = np.array([0.3, 0.0, 0.85])
    clutter = SceneTarget(
        position_m=clutter_position,
        dielectric_constant=METAL_EPSILON,
        facet_normal=-clutter_position / np.linalg.norm(clutter_position),
        facet_area_m2=0.5,
        label="out-of-gate metal plate",
    )
    cube = frame_factory([make_plate(fixture_position, 4.0), clutter], seed=56)
    result = extract_from_cube(cube, profile, GATE_M)
    full = range_angle(cube)
    mags = full.magnitudes
    global_peak_range_m = np.unravel_index(int(np.argmax(mags)), mags.shape)[0] * (
        full.range_bin_m
    )
    assert global_peak_range_m > GATE_M[1], "clutter must outshine the gated board"
    eps = result.features.dielectric_constant
    assert abs(eps - 4.0) / 4.0 < 0.10
    detected = (result.detection.range_bin, result.detection.angle_bin)
    assert result.region.peak_index == detected
    _report(
        "2b",
        "out-of-gate clutter",
        f"eps {eps:.3f}, region seeded at {detected}, {len(result.region.cell_indices)} cells",
    )


def test_criterion_3_geometry_invariance(fixture_position, frame_factory, profile):
    """Doubling facet area moves sigma by >= 50% but eps by < 10%.

    sigma is proportional to the measurement's reflectivity times its area."""
    sigmas, epsilons = [], []
    for area in (0.04, 0.08):
        cube = frame_factory(
            [make_plate(fixture_position, 1.2, area_m2=area)], seed=210
        )
        _, ra, det = detect(cube, GATE_M)
        m = measure(det, ra, profile)
        sigmas.append(m.reflectivity * m.region.area_m2)
        epsilons.append(extract_features(m, profile).dielectric_constant)
    sigma_change = abs(sigmas[1] - sigmas[0]) / sigmas[0]
    eps_change = abs(epsilons[1] - epsilons[0]) / epsilons[0]
    assert sigma_change >= 0.50
    assert eps_change < 0.10
    _report(
        3,
        "geometry invariance",
        f"sigma {sigma_change*100:.0f}%, eps {eps_change*100:.1f}%",
    )


def test_criterion_4_synthesis_identities(geometry):
    """Weight sum identity, coherence bounds, and the 1/N Monte Carlo mean."""
    from radmat.synthesis import synthesize

    voxel = np.array([0.0, 0.0, 0.35])
    rng = np.random.default_rng(2024)
    for _ in range(200):
        signals = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        if abs(signals.sum()) < 1e-9:
            continue
        result = synthesize(signals, geometry, voxel, 1e-3)
        assert result.weights.sum() == pytest.approx(abs(result.coherent_sum), rel=1e-9)
        assert 0.0 <= result.coherence_factor <= 1.0
    identical = synthesize(np.full(8, 0.7 + 0.2j), geometry, voxel, 1e-3)
    assert identical.coherence_factor == pytest.approx(1.0, abs=1e-12)
    n, trials, total = 8, 10_000, 0.0
    for _ in range(trials):
        total += abs(np.exp(1j * rng.uniform(0, 2 * np.pi, n)).sum()) ** 2 / n**2
    mean_c = total / trials
    assert mean_c == pytest.approx(1.0 / n, rel=0.20)
    _report(4, "synthesis identities", f"MC mean c = {mean_c:.4f} vs 1/N = {1/n:.4f}")


def test_criterion_5_prca_geometry():
    """Shoelace exactness and the annular-sector comparison under 0.1%."""
    assert shoelace_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == 1.0
    assert shoelace_area([(0, 0), (2, 0), (0, 2)]) == 2.0
    worst = 0.0
    for dtheta_deg in (0.1, 0.25, 0.5, 1.0):
        dtheta = math.radians(dtheta_deg)
        r_lo, r_hi = 1.0, 2.0
        corners = [
            (r_lo * math.sin(-dtheta / 2), r_lo * math.cos(-dtheta / 2)),
            (r_hi * math.sin(-dtheta / 2), r_hi * math.cos(-dtheta / 2)),
            (r_hi * math.sin(dtheta / 2), r_hi * math.cos(dtheta / 2)),
            (r_lo * math.sin(dtheta / 2), r_lo * math.cos(dtheta / 2)),
        ]
        sector = 0.5 * (r_hi**2 - r_lo**2) * dtheta
        worst = max(worst, abs(shoelace_area(corners) - sector) / sector)
    assert worst < 1e-3
    _report(5, "PRCA geometry", f"worst sector mismatch {worst:.2e}")


def test_criterion_6_calibration_round_trip(fixture_position, frame_factory, profile):
    """The plate measured as a target reads exactly the profile's plate reflectivity."""
    # the conftest profile's own plate cube
    cube = frame_factory([make_plate(fixture_position, METAL_EPSILON)], seed=12)
    _, ra, det = detect(cube, GATE_M)
    plate = measure(det, ra, profile)
    assert plate.reflectivity == profile.plate_reflectivity
    assert extract_features(plate, profile).fresnel_coefficient == R_P_CEILING
    _report(6, "calibration round trip", f"plate reflectivity {plate.reflectivity:.6g}")


def test_criterion_7_fusion_fixtures():
    """Intersection and conflict cases land on the expected branches."""
    # agreement: both sets contain glass
    visual = VisualContext(0.8, 0.2, 0.971, (("glass", 0.6), ("plastic", 0.4)))
    radar = RadarContext(1e6, 0.3, 0.0, (("glass", 0.8), ("wood", 0.2)))
    agreement = decide(visual, radar)
    assert agreement.material == "glass" and agreement.mode == "intersection"

    # radar-dominant conflict: branch scores 25% / 75%
    candidates = (("mirror glass", 0.6), ("ceramic", 0.4))
    entropy = -sum(p * math.log(p) for _, p in candidates) / math.log(2.0)
    vis_conflict = VisualContext(0.3, 3.0 * math.log(2.0) - 0.7 - entropy, entropy, candidates)
    rad_strong = RadarContext(1e12, 5e-9, 0.0, (("plastic", 0.9), ("wood", 0.07), ("paper", 0.03)))
    radar_wins = decide(vis_conflict, rad_strong)
    assert radar_wins.mode == "conflict" and radar_wins.material == "plastic"
    share_rad = radar_wins.s_rad / (radar_wins.s_vis + radar_wins.s_rad)
    assert share_rad == pytest.approx(0.75, abs=1e-4)

    # visual-dominant conflict: branch scores 88% / 12%
    candidates = (("wood", 0.88), ("plastic", 0.12))
    entropy = -sum(p * math.log(p) for _, p in candidates) / math.log(2.0)
    vis_sure = VisualContext(0.9, 0.1, entropy, candidates)
    u_vis = (0.1 + 0.1 + entropy) / 3.0
    u_rad = u_vis + math.log(22.0 / 3.0)
    theta = math.pi / 4.0
    inv_snr = 3.0 * u_rad - 0.8**2 - (1.0 - math.cos(theta))
    # 4 m over the 5 m distance ceiling gives the 0.8**2 above
    rad_weak = RadarContext(1.0 / inv_snr, 4.0, theta, (("metal", 0.88), ("mirror glass", 0.12)))
    vision_wins = decide(vis_sure, rad_weak)
    assert vision_wins.mode == "conflict" and vision_wins.material == "wood"
    share_vis = vision_wins.s_vis / (vision_wins.s_vis + vision_wins.s_rad)
    assert share_vis == pytest.approx(0.88, abs=1e-9)

    # gate exactness
    w_eq = gate(1.7, 1.7)
    assert abs(w_eq[0] - 0.5) < 1e-12 and abs(w_eq[1] - 0.5) < 1e-12
    w_ln3 = gate(0.0, math.log(3.0))
    assert abs(w_ln3[0] - 0.75) < 1e-12 and abs(w_ln3[1] - 0.25) < 1e-12
    _report(7, "fusion fixtures", f"shares {share_rad:.4f} rad / {share_vis:.4f} vis")


def test_criterion_8_knowledge_matching():
    """Store matching and dielectric-based pruning reproduce the narratives."""
    store = default_store()
    ranked = match(2.87, store)
    assert ranked.top[0] == "plastic"
    pruned = prune_visual([("frosted glass", 0.55), ("plastic", 0.45)], 6.8, store)
    assert [name for name, _ in pruned] == ["frosted glass"]
    _report(8, "knowledge matching", f"2.87 -> {ranked.top[0]}, prune -> frosted glass")


def test_criterion_9_detection_accuracy(config, geometry):
    """Recovered range within one nominal range bin over 21 ranges."""
    tolerance = C / (2.0 * config.bandwidth_hz)  # ~3.79 cm
    worst = 0.0
    for range_m in np.linspace(0.2, 2.2, 21):
        cube = synthesize_frame(
            [make_plate([0.0, 0.0, range_m], 1e6)], config, geometry, 0.0, 300
        )
        det = detect_target(range_doppler(cube), range_angle(cube), (0.1, 2.5))
        worst = max(worst, abs(det.range_m - range_m))
    assert worst <= tolerance
    _report(9, "detection accuracy", f"worst error {worst*100:.2f} cm <= {tolerance*100:.2f} cm")


def test_criterion_10_determinism(
    tmp_path, config, fixture_position, profile, frame_factory
):
    """The full pipeline is byte-stable for a fixed seed."""
    from radmat.cli import main
    from radmat.docio import write_document
    from test_cli import plate_entry, scene_doc, VLM_FIXTURES

    scene = tmp_path / "scene.json"
    write_document(scene, scene_doc(config, [plate_entry(fixture_position, 9.0)], seed=310))
    profile_path = tmp_path / "profile.json"
    write_document(profile_path, profile.to_document())
    provider = tmp_path / "provider.json"
    write_document(provider, {"mode": "mock", "fixture_path": str(VLM_FIXTURES)})

    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"decision_{run}.json"
        code = main(
            [
                "pipeline",
                "--scene", str(scene),
                "--profile", str(profile_path),
                "--provider", str(provider),
                "--image", "a2_cup",
                "--gate", "0.1", "0.6",
                "-o", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _report(10, "determinism", f"{len(outputs[0])} identical bytes")
