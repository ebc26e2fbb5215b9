import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radmat import (
    DomainError,
    RadarContext,
    VisualContext,
    decide,
    gate,
    radar_uncertainty,
    visual_uncertainty,
)
from radmat.fusion import MAX_DISTANCE_M
from radmat.knowledge import RadarCandidateSet


def _visual(candidates, lum=0.8, cplx=0.2, entropy=None):
    if entropy is None:
        probs = [p for _, p in candidates if p > 0]
        entropy = (
            0.0
            if len(candidates) < 2
            else -sum(p * math.log(p) for p in probs) / math.log(len(candidates))
        )
    return VisualContext(lum, cplx, entropy, tuple(candidates))


def _radar(candidates, snr=1e6, d=0.3, theta=0.0):
    return RadarContext(
        snr_linear=snr, distance_m=d, incidence_angle_rad=theta, candidates=tuple(candidates)
    )


class TestUncertainties:
    def test_ideal_vision_zero(self):
        ctx = _visual([("glass", 1.0)], lum=1.0, cplx=0.0)
        assert visual_uncertainty(ctx) == 0.0

    def test_worst_case_vision_is_one(self):
        ctx = _visual([("glass", 0.5), ("plastic", 0.5)], lum=0.0, cplx=1.0, entropy=1.0)
        assert visual_uncertainty(ctx) == pytest.approx(1.0, rel=1e-12)

    def test_thirds_at_half_inputs(self):
        ctx = _visual([("glass", 0.5), ("plastic", 0.5)], lum=0.5, cplx=0.5, entropy=0.5)
        assert visual_uncertainty(ctx) == pytest.approx(0.5, rel=1e-12)

    def test_ideal_radar_near_zero(self):
        ctx = _radar([("metal", 1.0)], snr=1e12, d=1e-9, theta=0.0)
        assert radar_uncertainty(ctx) == pytest.approx(0.0, abs=1e-9)

    def test_thirds_of_the_direct_sum(self):
        ctx = _radar([("metal", 1.0)], snr=1.0, d=5.0, theta=math.radians(60.0))
        assert radar_uncertainty(ctx) == pytest.approx(2.5 / 3.0, rel=1e-12)

    def test_monotone_in_incidence_angle(self):
        a = radar_uncertainty(_radar([("metal", 1.0)], theta=0.0))
        b = radar_uncertainty(_radar([("metal", 1.0)], theta=math.radians(45.0)))
        assert b > a

    def test_distance_term_saturates_at_the_ceiling(self):
        assert MAX_DISTANCE_M == 5.0
        at_ceiling = radar_uncertainty(_radar([("metal", 1.0)], d=5.0))
        assert radar_uncertainty(_radar([("metal", 1.0)], d=6.0)) == at_ceiling
        assert radar_uncertainty(_radar([("metal", 1.0)], d=4.0)) < at_ceiling


class TestGate:
    def test_equal_uncertainties_split_evenly(self):
        w_vis, w_rad = gate(1.3, 1.3)
        assert abs(w_vis - 0.5) < 1e-12 and abs(w_rad - 0.5) < 1e-12

    def test_log_three_gap(self):
        w_vis, w_rad = gate(0.0, math.log(3.0))
        assert abs(w_vis - 0.75) < 1e-12
        assert abs(w_rad - 0.25) < 1e-12

    def test_shift_invariance(self):
        a = gate(0.4, 1.9)
        b = gate(0.4 + 7.0, 1.9 + 7.0)
        assert a[0] == pytest.approx(b[0], abs=1e-12)

    @given(
        u_vis=st.floats(min_value=-50, max_value=50),
        u_rad=st.floats(min_value=-50, max_value=50),
    )
    def test_weights_in_unit_interval_and_sum_to_one(self, u_vis, u_rad):
        w_vis, w_rad = gate(u_vis, u_rad)
        assert 0.0 < w_vis < 1.0 and 0.0 < w_rad < 1.0
        assert abs(w_vis + w_rad - 1.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            gate(math.inf, 0.0)


class TestDecideIntersection:
    def test_common_element_wins(self):
        visual = _visual([("glass", 0.6), ("plastic", 0.4)])
        radar = _radar([("glass", 0.7), ("wood", 0.3)])
        decision = decide(visual, radar)
        assert decision.material == "glass"
        assert decision.mode == "intersection"

    def test_coincident_tops_win_regardless_of_weights(self):
        visual = _visual([("wood", 0.9), ("plastic", 0.1)], lum=0.01, cplx=0.99)
        radar = _radar([("wood", 0.8), ("metal", 0.2)], snr=1e-3)
        decision = decide(visual, radar)
        assert decision.material == "wood"

    def test_intersection_scores_recorded(self):
        visual = _visual([("glass", 0.6), ("plastic", 0.4)])
        radar = _radar([("plastic", 0.9), ("glass", 0.1)])
        decision = decide(visual, radar)
        assert decision.mode == "intersection"
        assert decision.s_vis + decision.s_rad > 0


class TestDecideConflict:
    def test_radar_dominant_case(self):
        """Conflict where the branch scores land at 25% / 75%."""
        # U_vis - U_rad = ln 2 makes w = (1/3, 2/3); with top probabilities
        # 0.6 and 0.9 the branch scores are 0.2 vs 0.6.
        candidates = (("mirror glass", 0.6), ("ceramic", 0.4))
        entropy = -sum(p * math.log(p) for _, p in candidates) / math.log(2.0)
        i_cplx = 3.0 * math.log(2.0) - 0.7 - entropy  # I_lum = 0.3
        visual = VisualContext(0.3, i_cplx, entropy, candidates)
        radar = _radar(
            [("plastic", 0.9), ("wood", 0.07), ("paper", 0.03)],
            snr=1e12,
            d=5e-9,
            theta=0.0,
        )
        decision = decide(visual, radar)
        assert decision.mode == "conflict"
        assert decision.material == "plastic"
        share = decision.s_vis / (decision.s_vis + decision.s_rad)
        assert share == pytest.approx(0.25, abs=1e-4)

    def test_visual_dominant_case(self):
        """Conflict where the branch scores land at 88% / 12%."""
        # equal top probabilities make the score ratio equal the weight
        # ratio; U_rad - U_vis = ln(22/3) puts w_vis at 88%.
        candidates = (("wood", 0.88), ("plastic", 0.12))
        entropy = -sum(p * math.log(p) for _, p in candidates) / math.log(2.0)
        visual = VisualContext(0.9, 0.1, entropy, candidates)
        u_vis = (0.1 + 0.1 + entropy) / 3.0
        u_rad = u_vis + math.log(22.0 / 3.0)
        theta = math.pi / 4.0
        inv_snr = 3.0 * u_rad - 0.8**2 - (1.0 - math.cos(theta))
        radar = _radar(
            [("metal", 0.88), ("mirror glass", 0.12)],
            snr=1.0 / inv_snr,
            d=4.0,  # d / MAX_DISTANCE_M = 0.8
            theta=theta,
        )
        decision = decide(visual, radar)
        assert decision.mode == "conflict"
        assert decision.material == "wood"
        share = decision.s_vis / (decision.s_vis + decision.s_rad)
        assert share == pytest.approx(0.88, abs=1e-9)

    def test_tie_resolves_toward_radar(self):
        visual = _visual([("wood", 0.5), ("plastic", 0.5)], lum=1.0, cplx=0.0, entropy=0.0)
        radar = _radar([("metal", 0.5), ("ceramic", 0.5)], snr=1e12, d=1e-9, theta=0.0)
        decision = decide(visual, radar)
        assert decision.material == "metal"
        assert "conflict tie S_vis~=S_rad -> radar branch" in decision.trace

    def test_deterministic_decision_and_trace(self):
        visual = _visual([("glass", 0.7), ("plastic", 0.3)])
        radar = _radar([("wood", 0.6), ("paper", 0.4)])
        a = decide(visual, radar)
        b = decide(visual, radar)
        assert a == b

    def test_raising_visual_uncertainty_never_flips_to_visual(self):
        radar = _radar([("metal", 0.9), ("ceramic", 0.1)], snr=100.0)
        base_lum = 0.9
        visual = _visual([("wood", 0.9), ("plastic", 0.1)], lum=base_lum, cplx=0.1)
        baseline = decide(visual, radar)
        assert baseline.material == "metal"  # radar already dominant
        for lum in (0.7, 0.5, 0.3, 0.1, 0.0):
            worse = _visual([("wood", 0.9), ("plastic", 0.1)], lum=lum, cplx=0.1)
            assert decide(worse, radar).material == "metal"


class TestContextsValidation:
    def test_visual_probabilities_must_sum_to_one(self):
        with pytest.raises(DomainError):
            VisualContext(0.5, 0.5, 0.5, (("glass", 0.5), ("plastic", 0.4)))

    def test_visual_scalars_in_unit_interval(self):
        with pytest.raises(DomainError):
            VisualContext(1.5, 0.5, 0.5, (("glass", 1.0),))

    @pytest.mark.parametrize(
        "candidates",
        [(("paper", -0.5), ("metal", 1.5)), (("paper", 0.4), ("metal", 0.6))],
        ids=["outside-0-1", "ascending"],
    )
    def test_visual_candidates_must_be_probabilities_in_descending_order(self, candidates):
        with pytest.raises(DomainError):
            VisualContext(0.5, 0.5, 0.5, candidates)

    def test_radar_candidates_must_be_probabilities(self):
        with pytest.raises(DomainError):
            RadarCandidateSet((("metal", 1.5), ("paper", -0.5)), 5.0)

    def test_candidate_names_must_be_distinct(self):
        # one material split in two would read as an uncertain visual branch
        repeated = (("glass", 0.6), ("glass", 0.4))
        with pytest.raises(DomainError, match="distinct"):
            VisualContext(0.5, 0.5, 0.5, repeated)
        with pytest.raises(DomainError, match="distinct"):
            RadarCandidateSet(repeated, 5.0)
        with pytest.raises(DomainError, match="distinct"):
            _radar(repeated)

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan])
    def test_radar_distances_must_be_positive(self, d):
        with pytest.raises(DomainError, match="must be positive"):
            _radar([("metal", 1.0)], d=d)

    def test_documents_round_trip(self):
        visual = _visual([("glass", 0.6), ("plastic", 0.4)])
        radar = _radar([("glass", 0.7), ("wood", 0.3)])
        assert VisualContext.from_document(visual.to_document()) == visual
        assert RadarContext.from_document(radar.to_document()) == radar

    @pytest.mark.parametrize(
        "stray, message",
        [({"kind": "fusion_decision"}, "kind"), ({"snr_floor": 1e-6}, "snr_floor")],
    )
    def test_radar_document_of_another_kind_or_with_stray_key_rejected(self, stray, message):
        doc = {**_radar([("glass", 1.0)]).to_document(), **stray}
        with pytest.raises(DomainError, match=message):
            RadarContext.from_document(doc)
