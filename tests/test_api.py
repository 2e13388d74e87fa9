import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("mesh", "fem", "flowfield", "sensing", "filters", "experiment")


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"plumetrace.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"plumetrace.{name}.__all__ names missing {missing}"


def test_the_package_binds_its_modules_and_no_names_of_theirs():
    # one binding per public name: a function patched on its module (as the
    # benchmark's tracer and the tests' recorders do) has no second
    # binding on the package; a fresh interpreter sees only what
    # ``import plumetrace`` itself binds
    src = Path(importlib.import_module("plumetrace").__file__).parents[1]
    script = ("import json, plumetrace; print(json.dumps({name: "
              "type(value).__name__ for name, value in vars(plumetrace).items()"
              " if not name.startswith('__') or name == '__version__'}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == {
        "__version__": "str", **{name: "module" for name in MODULES}}


def test_the_kalman_probe_names_stay_public():
    # the benchmark's covariance probe steps a GaussianBelief with
    # kf_predict and kf_update, and its runner catches FilterError; its
    # tracer times the filter functions it finds in __all__
    filters = importlib.import_module("plumetrace.filters")
    assert {"GaussianBelief", "kf_predict", "kf_update", "FilterError",
            "rbpf_step", "enkf_step", "enkf_update", "normalise_weights",
            "multinomial_resample",
            "latent_transition_logpdf"} <= set(filters.__all__)
