"""Uncertainty-gated fusion of visual and radar candidate sets.

Per-branch uncertainties, each coefficient 1/3 (`LAMBDA*`, `GAMMA*`), the
SNR floor 1e-6 (`SNR_FLOOR`) and the distance ceiling d_max = 5 m
(`MAX_DISTANCE_M`):

    U_vis = l1*(1 - I_lum) + l2*I_cplx + l3*H_vlm
    U_rad = g1/max(SNR, floor) + g2*min(d/d_max, 1)^2 + g3*(1 - cos(theta))

mapped to weights through a two-way softmax over negative uncertainties,
w_vis = exp(-U_vis) / (exp(-U_vis) + exp(-U_rad)), w_rad = 1 - w_vis.

When the candidate name sets intersect, the common material with the
highest weighted probability wins.  When they are disjoint, the branch
scores S_vis = w_vis * P_vis(top) and S_rad = w_rad * P_rad(top) are
compared and the stronger branch's top candidate is returned; exact ties
resolve toward radar (it reads intrinsic properties).
"""

import math
from dataclasses import dataclass

from .docio import from_document, to_document
from .errors import DomainError
from .knowledge import check_candidates

LAMBDA1 = LAMBDA2 = LAMBDA3 = 1.0 / 3.0
GAMMA1 = GAMMA2 = GAMMA3 = 1.0 / 3.0
SNR_FLOOR = 1e-6
# the distance past which the radar's distance uncertainty stops growing
MAX_DISTANCE_M = 5.0
# radar-context keys of earlier versions, read and ignored
_LEGACY_RADAR_KEYS = ("max_distance_m", "measured_epsilon")


@dataclass(frozen=True)
class VisualContext:
    """The visual branch's scalars and ranked material candidates."""
    luminance: float
    complexity: float
    vlm_entropy: float
    candidates: tuple  # ((material, probability), ...) descending

    def __post_init__(self):
        for label, value in (
            ("luminance", self.luminance),
            ("complexity", self.complexity),
            ("vlm_entropy", self.vlm_entropy),
        ):
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{label} must lie in [0, 1]")
        object.__setattr__(self, "candidates", check_candidates(self.candidates, "visual candidate"))

    def to_document(self) -> dict:
        return to_document(self, "visual_context")

    @classmethod
    def from_document(cls, doc: dict) -> "VisualContext":
        return from_document(cls, doc, DomainError, "visual_context")


@dataclass(frozen=True)
class RadarContext:
    """The radar branch's SNR, geometry and ranked material candidates."""
    snr_linear: float
    distance_m: float
    incidence_angle_rad: float
    candidates: tuple  # ((material, score), ...) descending

    def __post_init__(self):
        if self.snr_linear <= 0:
            raise DomainError("SNR must be positive")
        if not self.distance_m > 0.0:
            raise DomainError("distance must be positive")
        if not 0.0 <= self.incidence_angle_rad < math.pi / 2:
            raise DomainError("incidence angle must lie in [0, pi/2)")
        object.__setattr__(self, "candidates", check_candidates(self.candidates, "radar candidate"))

    def to_document(self) -> dict:
        return to_document(self, "radar_context")

    @classmethod
    def from_document(cls, doc: dict) -> "RadarContext":
        return from_document(cls, doc, DomainError, "radar_context", _LEGACY_RADAR_KEYS)


@dataclass(frozen=True)
class FusionDecision:
    """The fused material, the branch weights and scores, and how they were reached."""
    material: str
    w_vis: float
    w_rad: float
    s_vis: float
    s_rad: float
    mode: str  # "intersection" | "conflict"
    trace: str

    def __post_init__(self):
        if abs(self.w_vis + self.w_rad - 1.0) > 1e-9:
            raise DomainError("fusion weights must sum to 1")
        if self.mode not in ("intersection", "conflict"):
            raise DomainError("mode must be 'intersection' or 'conflict'")

    def to_document(self) -> dict:
        return to_document(self, "fusion_decision")


def visual_uncertainty(ctx: VisualContext) -> float:
    return (
        LAMBDA1 * (1.0 - ctx.luminance)
        + LAMBDA2 * ctx.complexity
        + LAMBDA3 * ctx.vlm_entropy
    )


def radar_uncertainty(ctx: RadarContext) -> float:
    return (
        GAMMA1 / max(ctx.snr_linear, SNR_FLOOR)
        + GAMMA2 * min(ctx.distance_m / MAX_DISTANCE_M, 1.0) ** 2
        + GAMMA3 * (1.0 - math.cos(ctx.incidence_angle_rad))
    )


def gate(u_vis: float, u_rad: float):
    """Softmax over negative uncertainties; shift-invariant and in (0, 1).

    Weights are kept a machine epsilon away from the interval ends so
    extreme uncertainty gaps cannot saturate a branch to exactly 0 or 1.
    """
    if not (math.isfinite(u_vis) and math.isfinite(u_rad)):
        raise DomainError("uncertainties must be finite")
    w_vis = 1.0 / (1.0 + math.exp(min(max(u_vis - u_rad, -700.0), 700.0)))
    w_vis = min(max(w_vis, 1e-16), 1.0 - 1e-16)
    return w_vis, 1.0 - w_vis


def decide(visual: VisualContext, radar: RadarContext) -> FusionDecision:
    """Arbitrate between branches; the trace records every intermediate."""
    u_vis = visual_uncertainty(visual)
    u_rad = radar_uncertainty(radar)
    w_vis, w_rad = gate(u_vis, u_rad)

    lines = [
        f"U_vis={u_vis!r} U_rad={u_rad!r}",
        f"w_vis={w_vis!r} w_rad={w_rad!r}",
        f"visual candidates: {list(visual.candidates)!r}",
        f"radar candidates: {list(radar.candidates)!r}",
    ]

    p_vis, p_rad = dict(visual.candidates), dict(radar.candidates)
    common = [name for name in p_vis if name in p_rad]
    top_vis_name, top_vis_p = visual.candidates[0]
    top_rad_name, top_rad_p = radar.candidates[0]
    if common:
        combined = {name: w_vis * p_vis[name] + w_rad * p_rad[name] for name in common}
        # exact ties prefer a branch-top candidate, then lexicographic order
        material = max(
            common,
            key=lambda name: (
                combined[name],
                (name == top_vis_name) + (name == top_rad_name),
                name,
            ),
        )
        s_vis = w_vis * p_vis[material]
        s_rad = w_rad * p_rad[material]
        lines.append(f"intersection {sorted(common)!r} -> combined={combined!r}")
        lines.append(f"selected '{material}' by weighted agreement")
        mode = "intersection"
    else:
        s_vis = w_vis * top_vis_p
        s_rad = w_rad * top_rad_p
        if abs(s_vis - s_rad) < 1e-9:
            material = top_rad_name
            lines.append("conflict tie S_vis~=S_rad -> radar branch")
        elif s_vis > s_rad:
            material = top_vis_name
        else:
            material = top_rad_name
        lines.append(
            f"conflict: S_vis={s_vis!r} ('{top_vis_name}') vs S_rad={s_rad!r} ('{top_rad_name}')"
        )
        lines.append(f"selected '{material}' from the dominant branch")
        mode = "conflict"

    return FusionDecision(
        material=material,
        w_vis=w_vis,
        w_rad=w_rad,
        s_vis=s_vis,
        s_rad=s_rad,
        mode=mode,
        trace="\n".join(lines),
    )
