from pathlib import Path

import numpy as np
import pytest

from lacmas.config import load_config
from lacmas.objectives import make_spec
from lacmas.topology import build_ring

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def ring4():
    return build_ring(4)


@pytest.fixture
def sphere_small():
    """Homogeneous 4-agent, 3-dim sphere instance for fast engine runs."""
    return make_spec("sphere", num_agents=4, dim=3, hetero_sigma=0.0, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def load_preset():
    """Load configs/<name>.json, the one definition of an experiment instance."""
    return lambda name: load_config(REPO / "configs" / f"{name}.json")
