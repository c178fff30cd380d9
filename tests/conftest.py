"""Fixtures shared by more than one test module."""

import pytest

from kirbycalc import scenarios


@pytest.fixture
def cold_models():
    """Both closed-model memos start empty and are emptied again afterwards,
    so a test that patches an input of a builder sees a fresh build, and no
    model built on a patch outlives the test."""
    for memo in (scenarios._x0_model, scenarios.build_genus_model):
        memo.cache_clear()
    yield
    for memo in (scenarios._x0_model, scenarios.build_genus_model):
        memo.cache_clear()
