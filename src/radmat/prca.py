"""Peak reflection cell area: the half-power region around the detected cell.

The region is the 4-connected component of cells whose amplitude is at
least seed/sqrt(2), grown from the detected cell so isolated sidelobes
and brighter reflectors outside the range gate are excluded.  Each
cell's polar corner coordinates (bin edges) map to a Cartesian
quadrilateral (x = r*sin(theta), y = r*cos(theta)) whose shoelace area
has the closed form 0.5*(r_hi^2 - r_lo^2)*sin(theta_hi - theta_lo).
The region area is the exactly rounded sum (math.fsum) of those
per-cell areas, so it does not depend on the order of the cells, on the
BLAS kernel or on the CPU.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import RangeAngleMap


@dataclass(frozen=True)
class PrcaRegion:
    """The half-power region around the peak cell of a range-angle map, with its area."""
    cell_indices: tuple  # ((range_bin, angle_bin), ...)
    area_m2: float
    peak_index: tuple
    threshold_value: float

    def __post_init__(self):
        if self.area_m2 <= 0:
            raise DomainError("region area must be positive")
        if self.peak_index not in self.cell_indices:
            raise DomainError("region must contain its peak cell")

    def to_document(self) -> dict:
        return {
            "kind": "prca_region",
            "cells": [[int(i), int(j)] for i, j in self.cell_indices],
            "peak_cell": [int(self.peak_index[0]), int(self.peak_index[1])],
            "threshold_value": self.threshold_value,
            "area_m2": self.area_m2,
        }


def extract_region(ra_map: RangeAngleMap, seed):
    """Half-power connected component containing the seed cell.

    Cells are (range bin, angle bin) of the full map; a map that holds
    only some rows is read through its `first_range_bin`, and the region
    stops at its first and last held rows as it does at the map's edges.
    Returns (cells, peak_index, threshold), where peak_index is the seed.
    """
    mags = ra_map.magnitudes
    first = ra_map.first_range_bin
    peak_index = tuple(int(v) for v in seed)
    peak_value = float(mags[peak_index[0] - first, peak_index[1]])
    if peak_value <= 0.0:
        raise DomainError("map has no positive peak")
    threshold = peak_value / np.sqrt(2.0)

    n_r, n_a = mags.shape
    seen = {peak_index}
    queue = deque([peak_index])
    cells = []
    while queue:
        i, j = queue.popleft()
        cells.append((i, j))
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if first <= ni < first + n_r and 0 <= nj < n_a and (ni, nj) not in seen:
                if mags[ni - first, nj] >= threshold:
                    seen.add((ni, nj))
                    queue.append((ni, nj))
    cells.sort()
    return tuple(cells), peak_index, float(threshold)


def shoelace_area(vertices) -> float:
    """Absolute polygon area from an ordered vertex list (>= 3 points)."""
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DomainError("shoelace needs at least 3 ordered 2D vertices")
    x, y = pts[:, 0], pts[:, 1]
    return float(0.5 * abs(np.sum(x * np.roll(y, -1)) - np.sum(np.roll(x, -1) * y)))


# sin(dtheta) of each angle bin of the one grid, built once: the bin edges
# are the midpoints between grid angles and half a step beyond its two ends
_G = RangeAngleMap.angle_grid_rad
_EDGES = np.hstack(
    [_G[0] - (_G[1] - _G[0]) / 2.0, (_G[:-1] + _G[1:]) / 2.0, _G[-1] + (_G[-1] - _G[-2]) / 2.0]
)
_SIN_WIDTHS = [math.sin(width) for width in np.diff(_EDGES).tolist()]


def region_area(cells, ra_map: RangeAngleMap) -> float:
    """Total Cartesian area of the region's polar grid cells.

    Cell (i, j) spans ranges (i - 0.5)*dr .. (i + 0.5)*dr, the inner edge
    clamped at 0, and the angle bin j of `_SIN_WIDTHS`.  Its corner
    quadrilateral has the shoelace area 0.5*(r_hi^2 - r_lo^2)*sin(dtheta):
    i*dr^2*sin(dtheta), or dr^2/8*sin(dtheta) for the clamped range-0 cell.
    The per-cell areas are summed with exact rounding (math.fsum), so the
    result is the same for any cell order and involves no BLAS kernel; the
    only platform routine left is the C library's sin.
    """
    if not cells:
        raise DomainError("region is empty")
    dr2 = ra_map.range_bin_m * ra_map.range_bin_m
    return math.fsum((i if i else 0.125) * dr2 * _SIN_WIDTHS[j] for i, j in cells)


def compute_prca(ra_map: RangeAngleMap, seed) -> PrcaRegion:
    cells, peak_index, threshold = extract_region(ra_map, seed)
    return PrcaRegion(
        cell_indices=cells,
        area_m2=region_area(cells, ra_map),
        peak_index=peak_index,
        threshold_value=threshold,
    )
