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

    Returns (cells, peak_index, threshold), where peak_index is the seed.
    """
    mags = ra_map.magnitudes
    peak_index = tuple(int(v) for v in seed)
    peak_value = float(mags[peak_index])
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
            if 0 <= ni < n_r and 0 <= nj < n_a and (ni, nj) not in seen:
                if mags[ni, nj] >= threshold:
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
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def _angle_edges(grid: np.ndarray) -> np.ndarray:
    mids = (grid[:-1] + grid[1:]) / 2.0
    first = grid[0] - (grid[1] - grid[0]) / 2.0 if grid.size > 1 else grid[0] - 0.5
    last = grid[-1] + (grid[-1] - grid[-2]) / 2.0 if grid.size > 1 else grid[0] + 0.5
    return np.concatenate([[first], mids, [last]])


def region_area(cells, ra_map: RangeAngleMap) -> float:
    """Total Cartesian area of the region's polar grid cells.

    Cell (i, j) spans ranges (i - 0.5)*dr .. (i + 0.5)*dr, the inner edge
    clamped at 0, and the angle bin edges of ``_angle_edges``.  Its corner
    quadrilateral has the shoelace area 0.5*(r_hi^2 - r_lo^2)*sin(dtheta):
    i*dr^2*sin(dtheta), or dr^2/8*sin(dtheta) for the clamped range-0 cell.
    The per-cell areas are summed with exact rounding (math.fsum), so the
    result is the same for any cell order and involves no BLAS kernel; the
    only platform routine left is the C library's sin.
    """
    if not cells:
        raise DomainError("region is empty")
    edges = _angle_edges(ra_map.angle_grid_rad).tolist()
    dr2 = ra_map.range_bin_m * ra_map.range_bin_m
    return math.fsum(
        (i if i else 0.125) * dr2 * math.sin(edges[j + 1] - edges[j]) for i, j in cells
    )


def compute_prca(ra_map: RangeAngleMap, seed) -> PrcaRegion:
    cells, peak_index, threshold = extract_region(ra_map, seed)
    return PrcaRegion(
        cell_indices=cells,
        area_m2=region_area(cells, ra_map),
        peak_index=peak_index,
        threshold_value=threshold,
    )
