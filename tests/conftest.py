import math

import numpy as np
import pytest

from entroflow import systems

# log of the larger cat-map eigenvalue (3 + sqrt 5) / 2
LOG_LAMBDA = math.log((3.0 + math.sqrt(5.0)) / 2.0)


@pytest.fixture(scope="session")
def cat():
    return systems.cat_map()


@pytest.fixture(scope="session")
def doubling():
    return systems.circle_doubling()


@pytest.fixture(scope="session")
def flow_const():
    return systems.SuspensionFlow(
        systems.ToralMapHandle([[2, 1], [1, 1]]), systems.Roof(1.0)
    )


@pytest.fixture(scope="session")
def flow_trig():
    return systems.SuspensionFlow(
        systems.ToralMapHandle([[2, 1], [1, 1]]),
        systems.Roof(1.0, [((1, 0), 0.2)]),
    )


@pytest.fixture(scope="session")
def time1(flow_const):
    return systems.TimeTMapHandle(flow_const, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(2026)
