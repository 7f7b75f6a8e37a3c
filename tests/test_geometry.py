import numpy as np
import pytest

from absim.geometry import (Action, AreaSpec, GridState, Position3D, apply_action,
                            cell_center, dist_to_final, pairwise_dist, state_from_index,
                            state_index)

from conftest import make_area


class TestCellCenter:
    def test_paper_scale_origin(self):
        area = AreaSpec(0, 3000, 0, 3000, 30, 100)
        p = cell_center(area, GridState(1, 1))
        assert (p.x, p.y, p.h) == (0.0, 0.0, 100.0)

    def test_one_cell_right(self):
        area = AreaSpec(0, 3000, 0, 3000, 30, 100)
        p = cell_center(area, GridState(2, 1))
        assert (p.x, p.y, p.h) == (100.0, 0.0, 100.0)

    def test_last_cell_small_area(self):
        area = AreaSpec(0, 1000, 0, 1000, 10, 100)
        p = cell_center(area, GridState(10, 10))
        # direct evaluation: x_min + (x_max - x_min)/M * (k - 1)
        assert (p.x, p.y, p.h) == (900.0, 900.0, 100.0)

    def test_invalid_index_rejected(self):
        area = make_area(4)
        with pytest.raises(ValueError):
            cell_center(area, GridState(0, 1))
        with pytest.raises(ValueError):
            cell_center(area, GridState(1, 5))


class TestApplyAction:
    def test_moves(self, area4):
        s = GridState(2, 2)
        assert apply_action(area4, s, Action.RIGHT) == GridState(3, 2)
        assert apply_action(area4, s, Action.LEFT) == GridState(1, 2)
        assert apply_action(area4, s, Action.FORWARD) == GridState(2, 3)
        assert apply_action(area4, s, Action.BACKWARD) == GridState(2, 1)

    def test_boundary_absorbed(self, area4):
        assert apply_action(area4, GridState(1, 2), Action.LEFT) == GridState(1, 2)
        assert apply_action(area4, GridState(4, 2), Action.RIGHT) == GridState(4, 2)
        assert apply_action(area4, GridState(2, 4), Action.FORWARD) == GridState(2, 4)
        assert apply_action(area4, GridState(2, 1), Action.BACKWARD) == GridState(2, 1)

    def test_grid_closure_exhaustive(self):
        area = make_area(5)
        for k1 in range(1, 6):
            for k2 in range(1, 6):
                for a in Action:
                    out = apply_action(area, GridState(k1, k2), a)
                    assert 1 <= out.k1 <= 5 and 1 <= out.k2 <= 5

    def test_reachable_states_count(self):
        area = make_area(4)
        seen = {GridState(1, 1)}
        frontier = [GridState(1, 1)]
        while frontier:
            s = frontier.pop()
            for a in Action:
                nxt = apply_action(area, s, a)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert len(seen) == area.n_states == 16


class TestDistances:
    def test_identity(self):
        p = Position3D(0, 0, 100)
        assert dist_to_final(p, p) == 0.0
        assert pairwise_dist(p, p) == 0.0

    def test_345_triangle(self):
        assert dist_to_final(Position3D(300, 400, 100), Position3D(0, 0, 100)) == 500.0
        assert pairwise_dist(Position3D(0, 0, 100), Position3D(3, 4, 100)) == 5.0

    def test_axis_aligned(self):
        assert dist_to_final(Position3D(100, 0, 100), Position3D(0, 0, 100)) == 100.0

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

    def test_state_index_roundtrip(self):
        area = make_area(6)
        for idx in range(36):
            assert state_index(area, state_from_index(area, idx)) == idx
        with pytest.raises(ValueError):
            state_from_index(area, 36)
