"""Fixtures shared by more than one test module."""

import pytest

from jjwafer.synthetic import PRESET_NAMES, generate_wafer, preset_spec


@pytest.fixture(scope="session", params=PRESET_NAMES)
def preset_corpus(request):
    """(preset, its datasets for seeds 0-59): each preset is generated once
    for every test that reads the corpus, and one preset is held at a time."""
    preset = request.param
    return preset, [generate_wafer(preset_spec(preset, seed)).dataset for seed in range(60)]
