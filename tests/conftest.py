from dataclasses import replace

import numpy as np
import pytest

from absim.channel import FadingMode
from absim.geometry import AreaSpec, GridState
from absim.simcli import load_config

# The default scenario and learning values. Config defaults are written only
# in simcli._FIELDS, and the library's constructors take every value, so a
# test starts from these and changes fields with dataclasses.replace.
DEFAULT_CONFIG, DEFAULT_LEARNING = load_config()


def make_area(m=4, width=100.0, altitude=100.0):
    return AreaSpec(0.0, m * width, 0.0, m * width, m, altitude)


def make_scenario(m=4, n_agents=1, n_subchannels=2, beta1=0.0, beta3=0.0,
                  fading=FadingMode.NONE, users=None, assoc=None, initial=None,
                  final=None, **changes):
    """Small scenario for unit tests: the default config on an m x m grid of
    100 m cells, without fading or rate and proximity weights, with one
    user per station unless users are given; changes sets other fields."""
    area = make_area(m)
    if initial is None:
        initial = [GridState(1, 1), GridState(m, 1)][:n_agents]
    if final is None:
        final = [GridState(m, m), GridState(1, m)][:n_agents]
    if users is None:
        # one user per agent, placed asymmetrically inside the area
        users = np.array([[area.x_max * 0.3 * (j + 1), area.y_max * 0.4]
                          for j in range(n_agents)])
    users = np.asarray(users, dtype=float)
    if assoc is None:
        assoc = np.array([min(i, n_agents - 1) for i in range(users.shape[0])])
    return replace(DEFAULT_CONFIG, area=area, initial_states=tuple(initial),
                   final_states=tuple(final), users_xy=users,
                   association=np.asarray(assoc), n_subchannels=n_subchannels,
                   beta1=beta1, beta3=beta3, fading=fading, **changes)


@pytest.fixture
def area4():
    return make_area(4)
