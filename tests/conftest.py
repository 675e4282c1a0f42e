from pathlib import Path

import pytest
from hypothesis import settings

import igp.uncertainty as uncertainty
from helpers import build_miniworld

_TESTS = Path(__file__).parent

# More examples and no per-example deadline, for CI: pytest --hypothesis-profile ci
settings.register_profile("ci", max_examples=500, deadline=None)


def pytest_collection_modifyitems(items):
    """A file or socket a test leaves open fails that test: the
    ResourceWarning, raised from a finalizer, reaches pytest as an
    unraisable exception, so both are errors."""
    for item in items:
        if item.path.is_relative_to(_TESTS):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )


@pytest.fixture(scope="session")
def miniworld(tmp_path_factory):
    """Shared read-only end-to-end fixture; see helpers.build_miniworld."""
    return build_miniworld(tmp_path_factory.mktemp("miniworld"))


@pytest.fixture
def nu_computations(monkeypatch):
    """One (k, mt) entry per NU the uncertainty math really computes."""
    computed = []
    real = uncertainty.nu_from_steps

    def counting(*args, **kwargs):
        computed.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(uncertainty, "nu_from_steps", counting)
    return computed
