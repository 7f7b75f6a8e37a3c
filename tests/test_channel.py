import math
from dataclasses import replace

import numpy as np
import pytest

from channel_reference import (average_path_loss, elevation_angle, interference,
                               interference_table)
from conftest import DEFAULT_CONFIG
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from absim.channel import (FADING_MODES, ChannelRealization, draw_realization,
                           free_space_path_loss, los_probability, path_loss_to_users)
from absim.environment import interference_for_abs
from absim.geometry import Position3D

PARAMS = DEFAULT_CONFIG.propagation


class TestElevationAngle:
    def test_45_degrees(self):
        assert elevation_angle(Position3D(100, 0, 100), (0.0, 0.0)) == pytest.approx(45.0)

    def test_overhead_is_90(self):
        assert elevation_angle(Position3D(5, 5, 100), (5.0, 5.0)) == 90.0

    def test_30_degrees(self):
        theta = elevation_angle(Position3D(100 * math.sqrt(3), 0, 100), (0.0, 0.0))
        assert theta == pytest.approx(30.0, abs=1e-9)


class TestLosProbability:
    def test_at_theta_equal_a(self):
        # exponent vanishes, leaving 1 / (1 + a)
        assert abs(los_probability(5.0, PARAMS) - 1.0 / 6.0) < 1e-12

    def test_at_zenith(self):
        expected = 1.0 / (1.0 + 5.0 * math.exp(-0.5 * 85.0))
        assert abs(los_probability(90.0, PARAMS) - expected) < 1e-15
        assert abs(los_probability(90.0, PARAMS) - 1.0) < 1e-12

    def test_at_horizon(self):
        expected = 1.0 / (1.0 + 5.0 * math.exp(2.5))
        assert abs(los_probability(0.0, PARAMS) - expected) < 1e-15
        assert los_probability(0.0, PARAMS) == pytest.approx(0.016151, abs=1e-6)

    @pytest.mark.parametrize("params, expected", [
        # exp(-b (theta - a)) overflows below theta = a and vanishes above it
        (replace(DEFAULT_CONFIG.propagation, b=4.4e82), [0.0, 1.0]),
        (replace(DEFAULT_CONFIG.propagation, a=1e300), [0.0, 0.0]),
    ])
    def test_overflowing_exp_gives_the_limit(self, params, expected):
        # an overflow warning would fail this test, as pytest turns warnings into errors
        assert los_probability(np.array([0.0, 90.0]), params).tolist() == expected

    def test_exp_from_libm(self):
        # per element through math.exp, so the bits do not depend on the SIMD
        # kernel numpy picks for the CPU
        grid = np.linspace(0.0, 90.0, 1000)
        expected = [1.0 / (1.0 + PARAMS.a * math.exp(-PARAMS.b * (t - PARAMS.a)))
                    for t in grid.tolist()]
        assert los_probability(grid, PARAMS).tolist() == expected

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 90.0, 1000)
        values = los_probability(grid, PARAMS)
        diffs = np.diff(values)
        assert np.all(diffs >= 0)
        # strictly increasing until the value saturates to 1 in float64
        unsaturated = values[:-1] < 1.0 - 1e-12
        assert np.all(diffs[unsaturated] > 0)
        assert np.all((values > 0) & (values <= 1))


class TestFreeSpacePathLoss:
    def test_unit_distance(self):
        d = PARAMS.speed_of_light / (4 * math.pi * PARAMS.carrier_freq)
        assert free_space_path_loss(d, PARAMS, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value_log_domain(self):
        # independent evaluation through logarithms
        expected = math.exp(2.0 * (math.log(4 * math.pi * 2.0e9 * 100.0)
                                   - math.log(PARAMS.speed_of_light)))
        got = free_space_path_loss(100.0, PARAMS, 1.0)
        assert abs(got - expected) / expected < 1e-9

    def test_square_law(self):
        assert free_space_path_loss(200.0, PARAMS, 1.0) == \
            pytest.approx(4.0 * free_space_path_loss(100.0, PARAMS, 1.0), rel=1e-12)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            free_space_path_loss(0.0, PARAMS, 1.0)

    def test_excess_factor(self):
        assert free_space_path_loss(50.0, PARAMS, excess=20.0) == \
            pytest.approx(20.0 * free_space_path_loss(50.0, PARAMS, 1.0), rel=1e-12)


class TestAveragePathLoss:
    def test_equal_excess_collapses_to_free_space(self):
        params = replace(DEFAULT_CONFIG.propagation, eta_los=3.0, eta_nlos=3.0)
        pos = Position3D(120, 40, 100)
        user = (0.0, 0.0)
        d3 = math.sqrt(120 ** 2 + 40 ** 2 + 100 ** 2)
        assert average_path_loss(pos, user, params) == \
            pytest.approx(free_space_path_loss(d3, params, 3.0), rel=1e-12)

    def test_zenith_limit_is_los_loss(self):
        pos = Position3D(0, 0, 100)
        user = (0.0, 0.0)
        los_only = free_space_path_loss(100.0, PARAMS, PARAMS.eta_los)
        assert average_path_loss(pos, user, PARAMS) == pytest.approx(los_only, rel=1e-9)

    def test_mixture_composition(self):
        # compose the mixture from its parts at a 45 degree elevation
        pos = Position3D(100, 0, 100)
        user = (0.0, 0.0)
        d3 = 100.0 * math.sqrt(2.0)
        pr = los_probability(45.0, PARAMS)
        expected = pr * free_space_path_loss(d3, PARAMS, 1.0) + \
            (1 - pr) * free_space_path_loss(d3, PARAMS, 20.0)
        assert average_path_loss(pos, user, PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_increasing_along_fixed_elevation_ray(self):
        # scale altitude and horizontal offset together: theta fixed, d grows
        scales = np.linspace(1.0, 30.0, 1000)
        losses = [average_path_loss(Position3D(60 * c, 0, 80 * c), (0.0, 0.0), PARAMS)
                  for c in scales]
        assert np.all(np.diff(losses) > 0)

    def test_coincident_rejected(self):
        ground = DEFAULT_CONFIG.propagation
        with pytest.raises(ValueError):
            average_path_loss(Position3D(0, 0, 0.0), (0.0, 0.0), ground)
        with pytest.raises(ValueError, match="singular at zero distance"):
            path_loss_to_users(Position3D(0, 0, 0.0), np.array([[5.0, 5.0], [0.0, 0.0]]),
                               ground)

    def test_vectorized_matches_scalar(self):
        users = np.array([[0.0, 0.0], [250.0, -80.0], [999.0, 1500.0]])
        pos = Position3D(100, 200, 100)
        rows = path_loss_to_users(pos, users, PARAMS)
        for k, user in enumerate(users):
            assert rows[k] == pytest.approx(average_path_loss(pos, tuple(user), PARAMS),
                                            rel=1e-12)


class TestPropagationParams:
    @pytest.mark.parametrize("kwargs", [
        dict(a=0.0),
        dict(b=-1.0),
        dict(eta_los=2.0, eta_nlos=1.5),
        dict(eta_los=0.5),
        dict(carrier_freq=0.0),
        dict(noise_power=0.0),
        # NaN passes a "<= 0" test; the config path rejects non-finite
        # numbers first, so a library caller is the one who meets these
        dict(a=math.nan),
        dict(b=math.nan),
        dict(a=math.inf),
        dict(b=math.inf),
        dict(carrier_freq=math.nan),
        dict(speed_of_light=math.nan),
        dict(noise_power=math.nan),
    ])
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            replace(DEFAULT_CONFIG.propagation, **kwargs)


class TestGbsSpec:
    # the config path rejects a non-boolean before GbsSpec sees it; this is
    # the check a library caller meets
    def test_string_enabled_rejected(self):
        with pytest.raises(ValueError, match="enabled must be true or false, got 'false'"):
            replace(DEFAULT_CONFIG.gbs, enabled="false")

    # a disabled transmitter's fields are written to the run's manifest too
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("field", ["x", "y", "height", "power_per_subchannel"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, enabled, field, value):
        gbs = replace(DEFAULT_CONFIG.gbs, enabled=enabled, height=10.0)
        with pytest.raises(ValueError, match="GBS x, y, height and power must be finite"):
            replace(gbs, **{field: value})


class TestDrawRealization:
    def setup_method(self):
        self.positions = [Position3D(100, 100, 100), Position3D(300, 300, 100)]
        self.users = np.array([[0.0, 0.0], [200.0, 100.0], [400.0, 0.0]])
        self.pl = np.stack([path_loss_to_users(p, self.users, PARAMS)
                            for p in self.positions])

    def test_no_fading_flat_across_subchannels(self):
        rng = np.random.default_rng(0)
        real = draw_realization(self.pl, "none", rng, 4, None)
        assert real.gains.shape == (2, 3, 4)
        for j in range(2):
            pl = path_loss_to_users(self.positions[j], self.users, PARAMS)
            for n in range(4):
                np.testing.assert_allclose(real.gains[j, :, n], 1.0 / pl, rtol=1e-12)

    def test_same_seed_same_realization(self):
        real1 = draw_realization(self.pl, "rayleigh", np.random.default_rng(42),
                                 4, None)
        real2 = draw_realization(self.pl, "rayleigh", np.random.default_rng(42),
                                 4, None)
        np.testing.assert_array_equal(real1.gains, real2.gains)

    def test_rayleigh_unit_mean(self):
        rng = np.random.default_rng(7)
        users = np.array([[0.0, 0.0]])
        pl = path_loss_to_users(Position3D(0, 0, 100), users, PARAMS)[0]
        real = draw_realization(np.array([[pl]]), "rayleigh", rng, 200_000, None)
        mean_rho2 = float(np.mean(real.gains[0, 0] * pl))
        assert 0.98 < mean_rho2 < 1.02

    def test_gains_positive_finite(self):
        rng = np.random.default_rng(1)
        real = draw_realization(self.pl, "rayleigh", rng, 8, None)
        assert np.all(np.isfinite(real.gains))
        assert np.all(real.gains > 0)

    # one bad path-loss entry, of a station's row or of the ground row: a
    # negative loss gives a negative gain, NaN a NaN gain, 0.0 an infinite
    # one and an infinite loss a zero gain
    @pytest.mark.parametrize("row", ["station", "ground"])
    @pytest.mark.parametrize("fading", FADING_MODES)
    @pytest.mark.parametrize("loss", [-1e8, math.nan, 0.0, math.inf],
                             ids=["negative_gain", "nan_gain", "inf_gain", "zero_gain"])
    def test_bad_gain_rejected(self, row, fading, loss):
        pl, gbs_pl = self.pl.copy(), self.pl[1].copy()
        (pl[1] if row == "station" else gbs_pl)[2] = loss
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="gains"):
            draw_realization(pl, fading, np.random.default_rng(0), 4, gbs_pl)

    @pytest.mark.parametrize("row", ["station", "ground"])
    def test_zero_fading_draw_rejected(self, row):
        # a fading draw of exactly 0.0 is too rare to meet by seeding; a stub
        # stream draws it at one (user, sub-channel) of the chosen row and
        # 1.0 elsewhere
        class Stream:
            calls = 0

            def standard_exponential(self, shape):
                self.calls += 1
                draw = np.ones(shape)
                if self.calls == (1 if row == "station" else 2):
                    draw[..., 2, 3] = 0.0
                return draw

        with pytest.raises(ValueError, match="gains"):
            draw_realization(self.pl, "rayleigh", Stream(), 4, self.pl[1].copy())

    def test_gbs_disabled_by_default(self):
        rng = np.random.default_rng(2)
        real = draw_realization(self.pl, "none", rng, 2, None)
        assert real.gbs_gains is None

    @pytest.mark.parametrize("fading", ["rayleigh", "none"],
                             ids=["RAYLEIGH", "NONE"])
    def test_gbs_row_drawn_after_station_fading(self, fading):
        # Rayleigh: one (J, K, N) draw for the stations, then one (K, N)
        # draw for the ground transmitter, from the same stream; no fading
        # draws nothing
        gbs_pl = path_loss_to_users(Position3D(200, 50, 10), self.users, PARAMS)
        stream = np.random.default_rng(3)
        real = draw_realization(self.pl, fading, stream, 4, gbs_pl)
        rng = np.random.default_rng(3)
        if fading == "rayleigh":
            rho2 = rng.exponential(1.0, size=(2, 3, 4))
            gbs_rho2 = rng.exponential(1.0, size=(3, 4))
        else:
            rho2, gbs_rho2 = np.ones((2, 3, 4)), np.ones((3, 4))
        np.testing.assert_array_equal(real.gains, rho2 * (1.0 / self.pl[:, :, None]))
        np.testing.assert_array_equal(real.gbs_gains, gbs_rho2 * (1.0 / gbs_pl[:, None]))
        assert stream.bit_generator.state == rng.bit_generator.state


class TestInterference:
    def make_real(self, gains, gbs_gains=None):
        return ChannelRealization(gains=np.asarray(gains, dtype=float), gbs_gains=gbs_gains)

    @staticmethod
    def shared_terms(real, powers, gbs_power=None):
        # step_all's field and ground term, before it gathers them by station
        ground = None if real.gbs_gains is None else gbs_power * real.gbs_gains
        return np.einsum("jn,jkn->kn", powers, real.gains), ground

    def test_single_station_no_gbs_is_zero(self):
        real = self.make_real(np.ones((1, 1, 2)))
        powers = np.array([[0.1, 0.1]])
        assert interference(real, powers, 0, 0, 0) == 0.0

    def test_single_cross_term(self):
        gains = np.zeros((2, 1, 1))
        gains[1, 0, 0] = 1e-8
        real = self.make_real(gains)
        powers = np.array([[0.05], [0.1]])
        assert interference(real, powers, 0, 0, 0) == pytest.approx(1e-9, rel=1e-12)

    def test_station_plus_gbs(self):
        gains = np.zeros((2, 1, 1))
        gains[1, 0, 0] = 2e-9
        gbs_gains = np.full((1, 1), 5e-10)
        real = self.make_real(gains, gbs_gains=gbs_gains)
        powers = np.array([[0.05], [0.1]])
        expected = 0.1 * 2e-9 + 0.4 * 5e-10
        assert interference(real, powers, 0, 0, 0, 0.4) == pytest.approx(expected, rel=1e-12)

    def test_linear_in_each_power(self):
        rng = np.random.default_rng(5)
        gains = rng.uniform(1e-10, 1e-8, size=(3, 2, 4))
        real = self.make_real(gains)
        powers = rng.uniform(0.0, 0.1, size=(3, 4))
        base = interference(real, powers, 0, 1, 2)
        scaled = powers.copy()
        scaled[1] *= 3.0
        term = powers[1, 2] * gains[1, 1, 2]
        assert interference(real, scaled, 0, 1, 2) == pytest.approx(base + 2.0 * term,
                                                                    rel=1e-12)

    def test_table_matches_scalar(self):
        rng = np.random.default_rng(6)
        gains = rng.uniform(1e-10, 1e-8, size=(3, 4, 2))
        gbs_gains = rng.uniform(1e-11, 1e-9, size=(4, 2))
        real = self.make_real(gains, gbs_gains=gbs_gains)
        powers = rng.uniform(0.0, 0.1, size=(3, 2))
        field, ground = self.shared_terms(real, powers, 0.2)
        for j in range(3):
            table = interference_for_abs(field, powers[j], gains[j], ground)
            for k in range(4):
                for n in range(2):
                    assert table[k, n] == pytest.approx(
                        interference(real, powers, j, k, n, 0.2), rel=1e-9)

    def test_table_nonnegative(self):
        rng = np.random.default_rng(8)
        gains = rng.uniform(1e-12, 1e-6, size=(2, 3, 4))
        real = self.make_real(gains)
        powers = rng.uniform(0.0, 0.2, size=(2, 4))
        field, _ = self.shared_terms(real, powers)
        for j in range(2):
            assert np.all(interference_for_abs(field, powers[j], gains[j], None) >= 0.0)

    def test_field_one_ulp_below_own_term_reads_zero(self):
        # field - own rounds below zero when the other stations add next to
        # nothing to a row; interference is never negative
        rng = np.random.default_rng(10)
        gains = rng.uniform(1e-12, 1e-6, size=(3, 4))
        powers = rng.uniform(0.01, 0.2, size=4)
        field = np.nextafter(powers * gains, 0.0)
        table = interference_for_abs(field, powers, gains, None)
        assert not (table < 0.0).any()
        assert table.tolist() == np.zeros((3, 4)).tolist()

    @pytest.mark.parametrize("with_ground", [False, True], ids=["no ground", "ground"])
    def test_inputs_unchanged(self, with_ground):
        # step_all hands each station views of the step's shared field,
        # gains, ground term and powers: none of them may be written to
        rng = np.random.default_rng(9)
        gains = rng.uniform(1e-12, 1e-6, size=(3, 6, 4))
        real = self.make_real(gains)
        if with_ground:
            real = self.make_real(gains, gbs_gains=rng.uniform(1e-12, 1e-9, size=(6, 4)))
        powers = rng.uniform(0.0, 0.2, size=(3, 4))
        field, ground = self.shared_terms(real, powers, 0.3)
        inputs = [field, powers, gains] + ([] if ground is None else [ground])
        before = [a.tobytes() for a in inputs]
        for j, rows in enumerate((slice(0, 2), slice(2, 3), slice(3, 6))):
            interference_for_abs(field[rows], powers[j], gains[j][rows],
                                 None if ground is None else ground[rows])
        assert [a.tobytes() for a in inputs] == before

    @settings(max_examples=80)
    @given(st.data())
    def test_per_station_path_matches_whole_table(self, data):
        # the once-per-step field gathered per station reproduces, bit for
        # bit, the whole-table formula it replaced
        j_count = data.draw(st.integers(1, 5), label="J")
        k = data.draw(st.integers(1, 8), label="K")
        n = data.draw(st.integers(1, 10), label="N")
        exps = hnp.arrays(float, (j_count, k, n), elements=st.floats(-12.0, -6.0))
        real = self.make_real(10.0 ** data.draw(exps, label="gain exponents"))
        gbs_power = None
        if data.draw(st.booleans(), label="ground transmitter"):
            gbs = data.draw(hnp.arrays(float, (k, n), elements=st.floats(-12.0, -6.0)))
            real = self.make_real(real.gains, gbs_gains=10.0 ** gbs)
            gbs_power = data.draw(st.floats(0.0, 1.0))
        powers = data.draw(hnp.arrays(float, (j_count, n), elements=st.floats(0.0, 0.5)),
                           label="previous powers")
        for j in data.draw(st.sets(st.integers(0, j_count - 1)), label="parked"):
            powers[j] = 0.0
        association = np.array(data.draw(
            st.lists(st.integers(0, j_count - 1), min_size=k, max_size=k),
            label="association"))
        field, ground = self.shared_terms(real, powers, gbs_power)
        for j in range(j_count):
            users = np.flatnonzero(association == j)
            table = interference_for_abs(field[users], powers[j], real.gains[j][users],
                                         None if ground is None else ground[users])
            assert table.tolist() == interference_table(real, powers, j, users,
                                                        gbs_power).tolist()
