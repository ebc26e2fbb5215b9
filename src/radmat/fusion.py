"""Uncertainty-gated fusion of visual and radar candidate sets.

Per-branch uncertainties, each coefficient 1/3 (`LAMBDA*`, `GAMMA*`) and the
SNR floor 1e-6 (`SNR_FLOOR`):

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

from .docio import check_keys, from_document, malformed, to_document
from .errors import DomainError
from .knowledge import RadarCandidateSet, check_candidates

LAMBDA1 = LAMBDA2 = LAMBDA3 = 1.0 / 3.0
GAMMA1 = GAMMA2 = GAMMA3 = 1.0 / 3.0
SNR_FLOOR = 1e-6


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
        check_candidates(self.candidates, "visual candidate")
        object.__setattr__(self, "candidates", tuple(tuple(c) for c in self.candidates))

    @property
    def names(self) -> tuple:
        return tuple(name for name, _ in self.candidates)

    def probability(self, name: str) -> float:
        for candidate, prob in self.candidates:
            if candidate == name:
                return prob
        return 0.0

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
    max_distance_m: float
    incidence_angle_rad: float
    candidates: RadarCandidateSet

    # the document's scalar keys; its other two come from `candidates`
    _SCALARS = ("snr_linear", "distance_m", "max_distance_m", "incidence_angle_rad")

    def __post_init__(self):
        if self.snr_linear <= 0:
            raise DomainError("SNR must be positive")
        if not (self.distance_m > 0.0 and self.max_distance_m > 0.0):
            raise DomainError("distance and max_distance must be positive")
        if not 0.0 <= self.incidence_angle_rad < math.pi / 2:
            raise DomainError("incidence angle must lie in [0, pi/2)")

    def to_document(self) -> dict:
        return {
            "kind": "radar_context",
            **{key: getattr(self, key) for key in self._SCALARS},
            "measured_epsilon": self.candidates.measured_epsilon,
            "candidates": [[n, float(s)] for n, s in self.candidates.candidates],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "RadarContext":
        with malformed(DomainError, "invalid radar context"):
            check_keys(doc, "radar_context", (*cls._SCALARS, "measured_epsilon", "candidates"))
            return cls(
                **{key: float(doc[key]) for key in cls._SCALARS},
                candidates=RadarCandidateSet(
                    candidates=tuple((str(n), float(s)) for n, s in doc["candidates"]),
                    measured_epsilon=float(doc["measured_epsilon"]),
                ),
            )


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
        + GAMMA2 * min(ctx.distance_m / ctx.max_distance_m, 1.0) ** 2
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
        f"radar candidates: {list(radar.candidates.candidates)!r}",
    ]

    common = [name for name in visual.names if name in radar.candidates.names]
    top_vis_name = visual.candidates[0][0]
    top_rad_name = radar.candidates.top[0]
    if common:
        combined = {
            name: w_vis * visual.probability(name) + w_rad * radar.candidates.probability(name)
            for name in common
        }
        # exact ties prefer a branch-top candidate, then lexicographic order
        material = max(
            common,
            key=lambda name: (
                combined[name],
                (name == top_vis_name) + (name == top_rad_name),
                name,
            ),
        )
        s_vis = w_vis * visual.probability(material)
        s_rad = w_rad * radar.candidates.probability(material)
        lines.append(f"intersection {sorted(common)!r} -> combined={combined!r}")
        lines.append(f"selected '{material}' by weighted agreement")
        mode = "intersection"
    else:
        p_vis = visual.candidates[0][1]
        p_rad = radar.candidates.top[1]
        s_vis = w_vis * p_vis
        s_rad = w_rad * p_rad
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
