import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURE_NOISE_W, GATE_M, METAL_EPSILON, make_plate, padded_range_bin_m
from radmat import (
    ChirpConfig,
    DomainError,
    compute_prca,
    default_geometry,
    extract_region,
    region_area,
    shoelace_area,
    synthesize_frame,
)
from radmat.pipeline import detect
from radmat.spectral import (
    DEFAULT_ANGLE_GRID_RAD,
    RangeAngleMap,
    detect_target,
    range_angle,
    range_doppler,
)


def _map(magnitudes, range_bin_m=0.02, first_range_bin=0, full_range_bins=None):
    """A map over the fixed angle grid with `magnitudes` in its first columns."""
    mags = np.asarray(magnitudes, dtype=float)
    padded = np.zeros((mags.shape[0], DEFAULT_ANGLE_GRID_RAD.size))
    padded[:, : mags.shape[1]] = mags
    return RangeAngleMap(padded, range_bin_m, first_range_bin, full_range_bins or mags.shape[0])


def annular_sector_area(r_lo, r_hi, dtheta):
    return 0.5 * (r_hi**2 - r_lo**2) * dtheta


class TestExtractRegion:
    def test_single_cell_spike(self):
        mags = np.zeros((5, 5))
        mags[2, 3] = 1.0
        cells, peak, threshold = extract_region(_map(mags), (2, 3))
        assert cells == ((2, 3),)
        assert peak == (2, 3)
        assert threshold == pytest.approx(1.0 / np.sqrt(2.0))

    def test_seed_grows_region_from_seed_cell(self):
        mags = np.zeros((7, 7))
        mags[1, 1] = mags[1, 2] = 1.0  # global peak
        mags[5, 4], mags[5, 5], mags[5, 6] = 0.3, 0.5, 0.4
        cells, peak, threshold = extract_region(_map(mags), (5, 5))
        assert peak == (5, 5)
        assert cells == ((5, 5), (5, 6))
        assert threshold == pytest.approx(0.5 / np.sqrt(2.0))
        assert compute_prca(_map(mags), (5, 5)).cell_indices == cells

    def test_zero_seed_cell_rejected(self):
        mags = np.zeros((3, 3))
        mags[1, 1] = 1.0
        with pytest.raises(DomainError):
            extract_region(_map(mags), (0, 0))

    def test_plateau_exactly_at_threshold_included(self):
        level = 1.0 / np.sqrt(2.0)
        mags = np.zeros((3, 5))
        mags[1] = [0.0, level, 1.0, level, 0.0]
        cells, _, _ = extract_region(_map(mags), (1, 2))
        assert cells == ((1, 1), (1, 2), (1, 3))

    def test_all_zero_map_rejected(self):
        with pytest.raises(DomainError):
            extract_region(_map(np.zeros((3, 3))), (1, 1))

    def test_sidelobe_below_threshold_excluded(self):
        mags = np.zeros((3, 7))
        mags[1] = [0.0, 0.5, 0.0, 1.0, 0.9, 0.0, 0.6]
        cells, _, _ = extract_region(_map(mags), (1, 3))
        assert cells == ((1, 3), (1, 4))


    def test_held_rows_keep_full_map_indices(self):
        # rows 10-14 of a 40-row map: the region reads through the offset
        # and stops at the last held row
        mags = np.zeros((5, 5))
        mags[2, 2] = 1.0
        mags[3:, 2] = 0.9
        held = _map(mags, 0.02, 10, 40)
        cells, peak, _ = extract_region(held, (12, 2))
        assert peak == (12, 2)
        assert cells == ((12, 2), (13, 2), (14, 2))
        assert compute_prca(held, (12, 2)).area_m2 == region_area(cells, held)


class TestShoelace:
    def test_unit_square(self):
        assert shoelace_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == 1.0

    def test_triangle(self):
        assert shoelace_area([(0, 0), (2, 0), (0, 2)]) == 2.0

    def test_reversed_orientation(self):
        assert shoelace_area([(0, 1), (1, 1), (1, 0), (0, 0)]) == 1.0

    def test_too_few_vertices(self):
        with pytest.raises(DomainError):
            shoelace_area([(0, 0), (1, 1)])

    @given(
        angle=st.floats(min_value=0.0, max_value=2 * np.pi),
        dx=st.floats(min_value=-5, max_value=5),
        dy=st.floats(min_value=-5, max_value=5),
    )
    def test_rigid_motion_invariance(self, angle, dx, dy):
        square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        moved = square @ rot.T + [dx, dy]
        assert shoelace_area(moved) == pytest.approx(1.0, rel=1e-9)


class TestRegionArea:
    @pytest.mark.parametrize("dtheta_deg", [0.1, 0.5, 1.0])
    def test_quadrilateral_matches_annular_sector(self, dtheta_deg):
        # Cartesian quad of one polar cell vs the exact sector area
        dtheta = np.radians(dtheta_deg)
        r_lo, r_hi = 1.0, 2.0
        corners = [
            (r_lo * np.sin(-dtheta / 2), r_lo * np.cos(-dtheta / 2)),
            (r_hi * np.sin(-dtheta / 2), r_hi * np.cos(-dtheta / 2)),
            (r_hi * np.sin(dtheta / 2), r_hi * np.cos(dtheta / 2)),
            (r_lo * np.sin(dtheta / 2), r_lo * np.cos(dtheta / 2)),
        ]
        quad = shoelace_area(corners)
        sector = annular_sector_area(r_lo, r_hi, dtheta)
        assert quad == pytest.approx(sector, rel=1e-3)

    def test_single_cell_area_matches_sector_formula(self):
        ra = _map(np.zeros((21, 5)), range_bin_m=0.02)
        area = region_area([(10, 2)], ra)
        sector = annular_sector_area(9.5 * 0.02, 10.5 * 0.02, np.radians(1.0))
        assert area == pytest.approx(sector, rel=1e-3)

    def test_additivity_over_disjoint_cells(self):
        ra = _map(np.zeros((21, 5)), range_bin_m=0.02)
        a = region_area([(10, 2)], ra)
        b = region_area([(14, 3)], ra)
        both = region_area([(10, 2), (14, 3)], ra)
        assert both == pytest.approx(a + b, rel=1e-12)

    def test_same_radius_cells_scale_linearly(self):
        ra = _map(np.zeros((21, 7)), range_bin_m=0.02)
        one = region_area([(10, 1)], ra)
        four = region_area([(10, 1), (10, 2), (10, 3), (10, 4)], ra)
        assert four == pytest.approx(4.0 * one, rel=1e-9)

    def test_empty_region_rejected(self):
        ra = _map(np.zeros((5, 5)))
        with pytest.raises(DomainError):
            region_area([], ra)


def exact_region_area(cells, grid_rad, range_bin_m):
    """Exact rational area of the cells' corner quadrilaterals.

    Range edges (i +- 0.5)*dr with the inner edge clamped at 0; angle edges
    are the midpoints between grid angles, and half a step beyond the grid
    at its two ends.  Only the per-cell sines are rounded; everything else
    is exact.
    """
    grid = [float(a) for a in grid_rad]
    edges = [grid[0] - (grid[1] - grid[0]) / 2.0]
    edges += [(a + b) / 2.0 for a, b in zip(grid, grid[1:])]
    edges.append(grid[-1] + (grid[-1] - grid[-2]) / 2.0)
    dr = Fraction(range_bin_m)
    total = Fraction(0)
    for i, j in cells:
        r_lo = max((i - Fraction(1, 2)) * dr, Fraction(0))
        r_hi = (i + Fraction(1, 2)) * dr
        total += (r_hi**2 - r_lo**2) / 2 * Fraction(math.sin(edges[j + 1] - edges[j]))
    return total


B7_CELLS = tuple((16, j) for j in range(84, 97))  # the b7 golden decision's region
BLOCK_CELLS = tuple((i, j) for i in range(10) for j in range(80, 100))  # has the clamped bin 0
# every row of both outer angle bins, whose outer edges lie half a step beyond the grid
OUTER_CELLS = tuple((i, j) for i in range(32) for j in (0, 180))
REGIONS = pytest.mark.parametrize(
    "cells", [B7_CELLS, BLOCK_CELLS, OUTER_CELLS], ids=["b7", "block", "outer"]
)


class TestRegionAreaExact:
    @pytest.fixture()
    def ra(self, config):
        mags = np.zeros((32, DEFAULT_ANGLE_GRID_RAD.size))
        return RangeAngleMap(mags, padded_range_bin_m(config), 0, mags.shape[0])

    @REGIONS
    def test_within_one_ulp_of_exact_reference(self, ra, cells):
        reference = exact_region_area(cells, ra.angle_grid_rad, ra.range_bin_m)
        area = region_area(cells, ra)
        assert abs(Fraction(area) - reference) <= Fraction(math.ulp(float(reference)))

    @REGIONS
    def test_bit_identical_for_any_cell_order(self, ra, cells):
        area = region_area(cells, ra)
        assert region_area(cells[::-1], ra) == area
        for seed in range(5):
            shuffled = list(cells)
            random.Random(seed).shuffle(shuffled)
            assert region_area(shuffled, ra) == area


class TestComputePrca:
    def test_region_object_consistent(self):
        mags = np.zeros((9, 9))
        mags[4, 3:6] = [0.8, 1.0, 0.8]
        region = compute_prca(_map(mags), (4, 4))
        assert region.peak_index == (4, 4)
        assert set(region.cell_indices) == {(4, 3), (4, 4), (4, 5)}
        assert region.area_m2 > 0

    def test_area_invariant_under_uniform_scaling(self):
        mags = np.zeros((9, 9))
        mags[4, 3:6] = [0.8, 1.0, 0.8]
        a = compute_prca(_map(mags), (4, 4)).area_m2
        b = compute_prca(_map(mags * 5.0), (4, 4)).area_m2
        assert a == b


HELD_SHAPES = [
    pytest.param((600, 64, 8), id="600x64x8"),
    pytest.param((256, 128, 12), id="256x128x12"),
]


def _shape_frame(shape, targets):
    n_fast, n_chirp, n_ant = shape
    config = ChirpConfig(samples_per_chirp=n_fast, chirps_per_frame=n_chirp)
    geometry = default_geometry(config, element_count=n_ant)
    return synthesize_frame(targets, config, geometry, FIXTURE_NOISE_W, 5)


def _gate_edge_bins(shape):
    bin_m = padded_range_bin_m(ChirpConfig(samples_per_chirp=shape[0]))
    return bin_m, math.ceil(GATE_M[0] / bin_m), math.floor(GATE_M[1] / bin_m)


class TestHeldRows:
    """A region grown on the gated map's held rows, which `pipeline.detect`
    beamforms at the detected Doppler bin, against one grown on the full
    static `range_angle` map."""

    @pytest.mark.parametrize("shape", HELD_SHAPES)
    @pytest.mark.parametrize("edge", ["first", "last"])
    @pytest.mark.parametrize("offset", [-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75])
    def test_region_at_gate_edge_equals_full_map_region(self, shape, edge, offset):
        bin_m, lo, hi = _gate_edge_bins(shape)
        range_bins = (lo if edge == "first" else hi) + offset
        cube = _shape_frame(shape, [make_plate([0.0, 0.0, range_bins * bin_m], 4.0)])
        _, ra, det = detect(cube, GATE_M)
        held = compute_prca(ra, (det.range_bin, det.angle_bin))
        full_ra = range_angle(cube)
        full_det = detect_target(range_doppler(cube), full_ra, GATE_M)
        full = compute_prca(full_ra, (full_det.range_bin, full_det.angle_bin))
        assert held.cell_indices == full.cell_indices
        assert held.area_m2 == full.area_m2

    @pytest.mark.parametrize("shape", HELD_SHAPES)
    def test_region_is_cut_at_the_held_edge(self, shape):
        # the gate's last-bin board, and a brighter metal plate 1.5 bins
        # beyond it: the full map's region runs on into the plate's rows,
        # the held map's stops at its last row, as any region stops at the
        # map's edge
        bin_m, _, hi = _gate_edge_bins(shape)
        board = make_plate([0.0, 0.0, hi * bin_m], 4.0)
        plate = make_plate([0.0, 0.0, (hi + 1.5) * bin_m], METAL_EPSILON, area_m2=0.16)
        cube = _shape_frame(shape, [board, plate])
        _, ra, det = detect(cube, GATE_M)
        last = ra.first_range_bin + ra.magnitudes.shape[0] - 1
        assert (det.range_bin, last) == (hi, hi + 1)
        seed = (det.range_bin, det.angle_bin)
        held = compute_prca(ra, seed)
        full_ra = range_angle(cube)
        full = compute_prca(full_ra, seed)
        assert max(i for i, _ in full.cell_indices) > last
        cut = tuple(cell for cell in full.cell_indices if cell[0] <= last)
        assert held.cell_indices == cut
        assert held.area_m2 == region_area(cut, full_ra)
