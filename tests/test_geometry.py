import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absim.geometry import (Action, AreaSpec, GridState, Position3D, apply_action,
                            cell_center, dist_to_final, pairwise_dist, state_index)

from conftest import make_area


class TestCellCenter:
    def test_paper_scale_origin(self):
        area = AreaSpec(0, 3000, 0, 3000, 30, 100)
        p = cell_center(area, 0)
        assert (p.x, p.y, p.h) == (0.0, 0.0, 100.0)

    def test_one_cell_right(self):
        area = AreaSpec(0, 3000, 0, 3000, 30, 100)
        p = cell_center(area, 1)
        assert (p.x, p.y, p.h) == (100.0, 0.0, 100.0)

    def test_last_cell_small_area(self):
        area = AreaSpec(0, 1000, 0, 1000, 10, 100)
        p = cell_center(area, 99)
        # direct evaluation: x_min + (x_max - x_min)/M * (k - 1)
        assert (p.x, p.y, p.h) == (900.0, 900.0, 100.0)

    def test_invalid_index_rejected(self):
        area = make_area(4)
        with pytest.raises(ValueError):
            cell_center(area, -1)
        with pytest.raises(ValueError):
            cell_center(area, 16)


class TestApplyAction:
    # on the 4x4 grid, cell (k1, k2) has index (k2 - 1) * 4 + (k1 - 1)
    def test_moves(self, area4):
        s = 5  # (2, 2)
        assert apply_action(area4, s, Action.RIGHT) == 6
        assert apply_action(area4, s, Action.LEFT) == 4
        assert apply_action(area4, s, Action.FORWARD) == 9
        assert apply_action(area4, s, Action.BACKWARD) == 1

    def test_boundary_absorbed(self, area4):
        assert apply_action(area4, 4, Action.LEFT) == 4  # (1, 2)
        assert apply_action(area4, 7, Action.RIGHT) == 7  # (4, 2)
        assert apply_action(area4, 13, Action.FORWARD) == 13  # (2, 4)
        assert apply_action(area4, 1, Action.BACKWARD) == 1  # (2, 1)

    def test_grid_closure_exhaustive(self):
        area = make_area(5)
        for s in range(25):
            for a in Action:
                assert 0 <= apply_action(area, s, a) < 25

    def test_reachable_states_count(self):
        area = make_area(4)
        seen = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for a in Action:
                nxt = apply_action(area, s, a)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert len(seen) == area.n_states == 16

    def test_invalid_index_and_action_rejected(self, area4):
        with pytest.raises(ValueError):
            apply_action(area4, 16, Action.LEFT)
        with pytest.raises(ValueError):
            apply_action(area4, -1, Action.RIGHT)
        with pytest.raises(ValueError):
            apply_action(area4, 5, 4)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

# each move's step along (k1, k2)
MOVES = {Action.LEFT: (-1, 0), Action.RIGHT: (1, 0),
         Action.FORWARD: (0, 1), Action.BACKWARD: (0, -1)}


class TestIndexGeometryProperties:
    @PROPERTY_SETTINGS
    @given(st.integers(2, 12))
    def test_moves_one_cell_or_absorb_at_matching_edge(self, m):
        area = make_area(m)
        for s in range(m * m):
            k1, k2 = s % m, s // m
            for a, (d1, d2) in MOVES.items():
                out = apply_action(area, s, a)
                assert 0 <= out < m * m
                inside = 0 <= k1 + d1 < m and 0 <= k2 + d2 < m
                assert (out % m, out // m) == ((k1 + d1, k2 + d2) if inside else (k1, k2))

    @PROPERTY_SETTINGS
    @given(st.integers(2, 12))
    def test_center_moves_one_cell_width_or_stays(self, m):
        area = AreaSpec(-50.0, 350.0, 10.0, 130.0, m, 100.0)
        for s in range(m * m):
            here = cell_center(area, s)
            for a in Action:
                out = apply_action(area, s, a)
                there = cell_center(area, out)
                step = (abs(there.x - here.x), abs(there.y - here.y))
                if out == s:
                    assert step == (0.0, 0.0)
                elif a in (Action.LEFT, Action.RIGHT):
                    assert step[1] == 0.0
                    assert step[0] == pytest.approx(area.cell_width_x, rel=1e-12)
                else:
                    assert step[0] == 0.0
                    assert step[1] == pytest.approx(area.cell_width_y, rel=1e-12)
                assert there.h == here.h == area.altitude


class TestStateIndex:
    @pytest.mark.parametrize("m", [2, 6, 12])
    def test_formula_every_cell(self, m):
        area = make_area(m)
        indices = [state_index(area, GridState(k1, k2))
                   for k2 in range(1, m + 1) for k1 in range(1, m + 1)]
        assert indices == [(k2 - 1) * m + (k1 - 1)
                           for k2 in range(1, m + 1) for k1 in range(1, m + 1)]
        assert indices == list(range(m * m))

    @pytest.mark.parametrize("k1, k2", [(0, 1), (1, 0), (7, 1), (1, 7), (-1, -1)])
    def test_out_of_grid_rejected(self, k1, k2):
        with pytest.raises(ValueError):
            state_index(make_area(6), GridState(k1, k2))


class TestDistances:
    def test_identity(self):
        p = Position3D(0, 0, 100)
        assert dist_to_final(p, p, 1) == 0.0
        assert pairwise_dist(p, p) == 0.0

    def test_345_triangle(self):
        assert dist_to_final(Position3D(300, 400, 100), Position3D(0, 0, 100), 1) == 500.0
        assert pairwise_dist(Position3D(0, 0, 100), Position3D(3, 4, 100)) == 5.0

    def test_axis_aligned(self):
        assert dist_to_final(Position3D(100, 0, 100), Position3D(0, 0, 100), 1) == 100.0

    def test_collision_threshold(self):
        # coincident stations violate any positive separation threshold
        d = pairwise_dist(Position3D(0, 0, 100), Position3D(0, 0, 100))
        assert d < 5.0

    def test_squared_variant(self):
        p1 = Position3D(300, 400, 100)
        p2 = Position3D(0, 0, 100)
        assert dist_to_final(p1, p2, exponent=2) == 250000.0
        with pytest.raises(ValueError):
            dist_to_final(p1, p2, exponent=3)

    def test_metric_properties_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c = (Position3D(*rng.uniform(-1000, 1000, 2), 100.0)
                       for _ in range(3))
            dab = pairwise_dist(a, b)
            dba = pairwise_dist(b, a)
            assert dab == dba
            assert dab >= 0.0
            assert pairwise_dist(a, c) <= dab + pairwise_dist(b, c) + 1e-9

    def test_zero_iff_coincident(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = Position3D(*rng.uniform(0, 100, 2), 100.0)
            b = Position3D(a.x + rng.uniform(0.001, 1), a.y, 100.0)
            assert pairwise_dist(a, b) > 0.0


class TestAreaSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(x_min=10, x_max=10, y_min=0, y_max=10, cells_per_axis=2, altitude=10),
        dict(x_min=0, x_max=10, y_min=5, y_max=4, cells_per_axis=2, altitude=10),
        dict(x_min=0, x_max=10, y_min=0, y_max=10, cells_per_axis=1, altitude=10),
        dict(x_min=0, x_max=10, y_min=0, y_max=10, cells_per_axis=2, altitude=0),
    ])
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AreaSpec(**kwargs)
