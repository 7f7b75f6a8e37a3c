"""Seeded simulator for aerial base station trajectory learning.

UAV-mounted base stations move on a discretized service area, learning
where to fly with distributed tabular Q-learning while a per-station power
and sub-channel allocator turns every move into a sum-rate reward over a
probabilistic air-to-ground channel.
"""

__version__ = "0.1.0"

from .geometry import Action, AreaSpec, GridState, Position3D
from .channel import GbsSpec, PropagationParams
from .qlearning import LearningParams, QTable
from .environment import Environment, ScenarioConfig

__all__ = [
    "Action",
    "AreaSpec",
    "Environment",
    "GbsSpec",
    "GridState",
    "LearningParams",
    "Position3D",
    "PropagationParams",
    "QTable",
    "ScenarioConfig",
    "__version__",
]
