"""The service's ``/metrics`` sections are read from the process-global
obs registry, so each test starts from an empty one."""

from __future__ import annotations

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _fresh_registry():
    obs.registry().clear()
    yield
    obs.registry().clear()
