"""Weighted vector synthesis of the gated array signal.

Given the calibrated, phase-focused per-antenna signals I_j at a voxel v:

    S        = sum_j I_j                       (coherent sum)
    w_j      = Re(I_j) Re(S) + Im(I_j) Im(S)) / |S|
    u_j      = (p_j - v) / ||p_j - v||
    S_w      = sum_j w_j * u_j                 (reconstructed vector)
    c        = |S|^2 / (N * sum_j |I_j|^2)     (coherence factor)
    SNR      = ||S_w||^2 / P_noise * c

w_j is the projection of I_j onto the direction of S, so sum(w_j) == |S|
exactly; incoherent antennas receive small or negative weights and are
kept as-is.  The magnitude of S_w is the coherent signal strength.
"""

from dataclasses import dataclass

import numpy as np

from .docio import to_document
from .errors import DomainError
from .signal_model import ArrayGeometry, ChirpConfig
from .spectral import TargetDetection, detection_voxel


@dataclass(frozen=True)
class SynthesisResult:
    focused_signals: np.ndarray  # complex, per antenna
    coherent_sum: complex
    weights: np.ndarray  # real, per antenna
    unit_vectors: np.ndarray  # (N, 3)
    weighted_vector: np.ndarray  # (3,)
    coherence_factor: float
    enhanced_snr_linear: float

    def to_document(self) -> dict:
        return to_document(self, "synthesis_result", omit=("unit_vectors",))


def focus(
    detection: TargetDetection,
    phasors: np.ndarray,
    geometry: ArrayGeometry,
    config: ChirpConfig,
) -> np.ndarray:
    """Phase-align the gated signal toward the detection's voxel v.

    I_j = x_j * C_j * exp(j * 4*pi*||p_j - v|| / lambda).  The calibration
    phasors C_j cancel hardware phase offsets; the exponential removes
    the two-way geometric delay, so a true point source at v leaves all
    I_j with a common phase.
    """
    x = detection.gated_signal
    if len(phasors) != geometry.element_count or len(x) != geometry.element_count:
        raise DomainError("antenna count mismatch between detection, phasors and geometry")
    v = detection_voxel(detection)
    dists = np.linalg.norm(geometry.element_positions - v, axis=1)
    return x * phasors * np.exp(4j * np.pi * dists / config.wavelength_m)


def synthesize(
    focused_signals: np.ndarray,
    geometry: ArrayGeometry,
    voxel,
    noise_power_w: float,
) -> SynthesisResult:
    """Coherence-weighted vector reconstruction and enhanced SNR."""
    signals = np.asarray(focused_signals, dtype=np.complex128)
    n = geometry.element_count
    if signals.shape != (n,):
        raise DomainError("need one focused signal per antenna")
    if noise_power_w <= 0:
        raise DomainError("noise power must be positive")

    total = signals.sum()
    magnitude = abs(total)
    if magnitude == 0.0:
        raise DomainError("coherent sum is zero; weights are undefined")

    weights = (signals.real * total.real + signals.imag * total.imag) / magnitude
    v = np.asarray(voxel, dtype=float)
    offsets = geometry.element_positions - v
    norms = np.linalg.norm(offsets, axis=1)
    if np.any(norms == 0):
        raise DomainError("voxel coincides with an antenna position")
    units = offsets / norms[:, None]
    weighted_vector = (weights[:, None] * units).sum(axis=0)

    power = float(np.sum(np.abs(signals) ** 2))
    coherence = float(np.clip(magnitude**2 / (n * power), 0.0, 1.0))
    snr = float(weighted_vector @ weighted_vector) / noise_power_w * coherence

    return SynthesisResult(
        focused_signals=signals,
        coherent_sum=complex(total),
        weights=weights,
        unit_vectors=units,
        weighted_vector=weighted_vector,
        coherence_factor=coherence,
        enhanced_snr_linear=snr,
    )
