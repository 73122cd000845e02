"""Shared pytest configuration; also anchors sys.path for `import oracles`."""

import pytest
from hypothesis.configuration import set_hypothesis_home_dir


@pytest.fixture
def hypothesis_home(tmp_path):
    """Hypothesis files (its constants cache) go here, not into ./.hypothesis."""
    set_hypothesis_home_dir(tmp_path / "hypothesis")
    yield
    set_hypothesis_home_dir(None)
