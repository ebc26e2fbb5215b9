import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import padded_range_bin_m
from radmat import DomainError, compute_prca, extract_region, region_area, shoelace_area
from radmat.spectral import DEFAULT_ANGLE_GRID_RAD, RangeAngleMap


def _map(magnitudes, range_bin_m=0.02, grid_deg=None):
    mags = np.asarray(magnitudes, dtype=float)
    if grid_deg is None:
        half = (mags.shape[1] - 1) / 2.0
        grid_deg = np.arange(mags.shape[1]) - half
    return RangeAngleMap(mags, np.radians(np.asarray(grid_deg, float)), range_bin_m)


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
    are the midpoints between grid angles (interior bins only).  Only the
    per-cell sines are rounded; everything else is exact.
    """
    grid = [float(a) for a in grid_rad]
    dr = Fraction(range_bin_m)
    total = Fraction(0)
    for i, j in cells:
        assert 0 < j < len(grid) - 1
        t_lo = (grid[j - 1] + grid[j]) / 2.0
        t_hi = (grid[j] + grid[j + 1]) / 2.0
        r_lo = max((i - Fraction(1, 2)) * dr, Fraction(0))
        r_hi = (i + Fraction(1, 2)) * dr
        total += (r_hi**2 - r_lo**2) / 2 * Fraction(math.sin(t_hi - t_lo))
    return total


B7_CELLS = tuple((16, j) for j in range(84, 97))  # the b7 golden decision's region
BLOCK_CELLS = tuple((i, j) for i in range(10) for j in range(80, 100))  # has the clamped bin 0


class TestRegionAreaExact:
    @pytest.fixture()
    def ra(self, config):
        mags = np.zeros((32, DEFAULT_ANGLE_GRID_RAD.size))
        return RangeAngleMap(mags, DEFAULT_ANGLE_GRID_RAD, padded_range_bin_m(config))

    @pytest.mark.parametrize("cells", [B7_CELLS, BLOCK_CELLS], ids=["b7", "block"])
    def test_within_one_ulp_of_exact_reference(self, ra, cells):
        reference = exact_region_area(cells, ra.angle_grid_rad, ra.range_bin_m)
        area = region_area(cells, ra)
        assert abs(Fraction(area) - reference) <= Fraction(math.ulp(float(reference)))

    @pytest.mark.parametrize("cells", [B7_CELLS, BLOCK_CELLS], ids=["b7", "block"])
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
