import ast
import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "name", ["mesh", "fem", "flowfield", "sensing", "filters", "experiment"])
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"plumetrace.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"plumetrace.{name}.__all__ names missing {missing}"


def test_every_package_import_is_a_public_name():
    # the names plumetrace/__init__.py imports from its modules
    path = Path(importlib.import_module("plumetrace").__file__)
    imports = [node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)


def test_the_kalman_probe_names_stay_public():
    # the benchmark's covariance probe steps a GaussianBelief with
    # kf_predict and kf_update, and its runner catches FilterError; its
    # tracer times the filter functions it finds in __all__
    filters = importlib.import_module("plumetrace.filters")
    assert {"GaussianBelief", "kf_predict", "kf_update", "FilterError",
            "rbpf_step", "enkf_step", "enkf_update", "normalise_weights",
            "multinomial_resample",
            "latent_transition_logpdf"} <= set(filters.__all__)
