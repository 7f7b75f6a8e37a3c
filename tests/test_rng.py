import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from absim.rng import Draws, derive_stream


def _state(bitgen):
    """A bit generator's whole state as plain, comparable values, its
    half-word buffer (has_uint32, uinteger) included."""
    state = bitgen.state
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in {**state.pop("state"), **state}.items()}


# n for integers(n): the learner's action and tie counts, and any n up to 2**32,
# with the boundaries and the ranges past 2**31 where numpy's rejection loop runs
BOUNDS = st.one_of(st.integers(1, 8), st.integers(1, 2 ** 32),
                   st.sampled_from([2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32]))
CALLS = st.lists(st.one_of(st.just(("random",)),
                           st.tuples(st.just("integers"), BOUNDS),
                           st.tuples(st.just("standard_exponential"), st.integers(0, 5))),
                 max_size=60)


class TestDraws:
    @settings(max_examples=300)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           kind=st.sampled_from([np.random.Philox, np.random.PCG64, np.random.SFC64,
                                 np.random.MT19937]),
           calls=CALLS)
    def test_matches_generator_value_for_value(self, seed, kind, calls):
        """Draws over one Generator gives the values a twin Generator gives,
        with standard_exponential called on the shared Generator in between,
        and leaves it in the twin's whole state, half-word buffer included.

        Lemire's method rejects a 32-bit half with probability
        (2**32 % n) / 2**32, under n / 2**32: for the learner's n <= 4
        no sampled stream reaches the rejection loop, so only the n above
        2**31, where it runs about half the time, exercise it here.
        """
        rng, twin = np.random.Generator(kind(seed)), np.random.Generator(kind(seed))
        draws = Draws(rng)
        for name, *args in calls:
            if name == "random":
                assert draws.random() == twin.random()
            elif name == "integers":
                got, want = draws.integers(*args), twin.integers(*args)
                assert type(got) is int and got == want
            else:
                shape = (args[0], 2)
                assert (rng.standard_exponential(shape).tolist()
                        == twin.standard_exponential(shape).tolist())
        assert _state(rng.bit_generator) == _state(twin.bit_generator)

    def test_starts_from_a_kept_half(self):
        # a Generator that already holds a high half hands it to Draws first
        rng, twin = derive_stream(3, 2, 1), derive_stream(3, 2, 1)
        rng.integers(7), twin.integers(7)
        assert rng.bit_generator.state["has_uint32"] == 1
        draws = Draws(rng)
        assert [draws.integers(5) for _ in range(9)] == twin.integers(5, size=9).tolist()
        assert _state(rng.bit_generator) == _state(twin.bit_generator)
