"""The demos that write no files run to completion; demo 04 evaluates
with the config demo 03 trained with."""

import dataclasses
import importlib.util
import os
import subprocess
import sys

import pytest

from siamcaps import RunConfig, make_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["01_autodiff_basics.py",
                                  "02_capsules_and_routing.py",
                                  "05_gradient_audit.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []


def _load_demo(name):
    spec = importlib.util.spec_from_file_location(
        "demo_" + name[:2], os.path.join(ROOT, "demos", name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Stop(Exception):
    pass


def _config_passed_to(module, attr, call, monkeypatch):
    """The RunConfig `call()` hands to module.<attr>, which is stubbed."""
    seen = []

    def stub(*args):
        seen.append(args[-1])
        raise _Stop

    monkeypatch.setattr(module, attr, stub)
    with pytest.raises(_Stop):
        call()
    return seen[0]


def test_verify_demo_evaluates_with_training_config(monkeypatch):
    train_demo = _load_demo("03_train_synthetic.py")
    verify_demo = _load_demo("04_verify_pairs.py")
    monkeypatch.setattr(verify_demo.train_demo, "main", lambda: None)
    trained = _config_passed_to(train_demo, "train_run", train_demo.main,
                                monkeypatch)
    evaluated = _config_passed_to(verify_demo, "eval_run", verify_demo.main,
                                  monkeypatch)
    for f in dataclasses.fields(RunConfig):
        if f.name != "output_dir":
            assert getattr(evaluated, f.name) == getattr(trained, f.name), \
                f.name


def test_committed_demo_config_loads_as_the_demo_config():
    # the config.txt that demo 03 wrote is a loadable config of the same run
    train_demo = _load_demo("03_train_synthetic.py")
    loaded = make_config(os.path.join(ROOT, "demos", "runs",
                                      "synthetic_demo", "config.txt"))
    want = train_demo.CFG.finalize()
    for f in dataclasses.fields(RunConfig):
        if f.name != "output_dir":
            assert getattr(loaded, f.name) == getattr(want, f.name), f.name
