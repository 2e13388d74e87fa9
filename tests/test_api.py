import importlib

import pytest


@pytest.mark.parametrize(
    "name", ["mesh", "fem", "flowfield", "sensing", "filters", "experiment"])
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"plumetrace.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"plumetrace.{name}.__all__ names missing {missing}"
