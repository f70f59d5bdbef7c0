import pytest
from hypothesis import settings

from domcore import enumerate_connected

# property tests draw the same examples on every run and keep no state
# between runs, so a failure reproduces and a pass means the same thing
settings.register_profile("domcore", derandomize=True, deadline=None, database=None)
settings.load_profile("domcore")


@pytest.fixture(scope="session")
def corpus6():
    """All connected graphs with up to six vertices, as (n, graph) pairs."""
    out = []
    for n in range(1, 7):
        out.extend((n, g) for g in enumerate_connected(n))
    return out


@pytest.fixture(scope="session")
def corpus7(corpus6):
    """All connected graphs with up to seven vertices."""
    return corpus6 + [(7, g) for g in enumerate_connected(7)]
