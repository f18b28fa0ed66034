"""The demos that write no files run to completion; demo 04 evaluates
with the config demo 03 trained with, and the outputs committed under
demos/runs are what demos 03 and 04 write."""

import dataclasses
import importlib.util
import math
import os
import subprocess
import sys

import pytest

from siamcaps import RunConfig, eval_run, make_config, train_run

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


# the committed demo outputs reproduce to this relative tolerance: BLAS
# builds on other hosts moved their losses by up to 2.4e-11
RTOL = 1e-9
# columns compared exactly; wall_ms is a timing and is skipped
EXACT = {"epoch", "test_accuracy", "accuracy", "match_count",
         "nonmatch_count"}


def _assert_csv_matches(got_path, want_path):
    with open(got_path, encoding="utf-8") as fh:
        got = [line.split(",") for line in fh.read().splitlines()]
    with open(want_path, encoding="utf-8") as fh:
        want = [line.split(",") for line in fh.read().splitlines()]
    assert got[0] == want[0] and len(got) == len(want), want_path
    for row, (g, w) in enumerate(zip(got[1:], want[1:]), 1):
        for col, a, b in zip(want[0], g, w):
            where = (want_path, row, col)
            if col in EXACT:
                assert a == b, where
            elif col != "wall_ms":
                assert math.isclose(float(a), float(b), rel_tol=RTOL,
                                    abs_tol=0.0), where


def test_committed_demo_outputs_reproduce(monkeypatch, tmp_path):
    # demo 03's config trains again, and demo 04's config evaluates its
    # final.ckpt; the files committed under demos/runs are what they write
    train_demo = _load_demo("03_train_synthetic.py")
    verify_demo = _load_demo("04_verify_pairs.py")
    monkeypatch.setattr(verify_demo.train_demo, "main", lambda: None)
    eval_cfg = _config_passed_to(verify_demo, "eval_run", verify_demo.main,
                                 monkeypatch)
    train_dir, verify_dir = tmp_path / "synthetic_demo", tmp_path / "verify"
    train_run(dataclasses.replace(train_demo.CFG, output_dir=str(train_dir)))
    eval_run(str(train_dir / "final.ckpt"),
             dataclasses.replace(eval_cfg, output_dir=str(verify_dir)))

    runs = os.path.join(ROOT, "demos", "runs")
    for name in ("config.txt", "audit.txt"):
        with open(os.path.join(runs, "synthetic_demo", name), "rb") as fh:
            assert (train_dir / name).read_bytes() == fh.read(), name
    _assert_csv_matches(train_dir / "metrics.csv",
                        os.path.join(runs, "synthetic_demo", "metrics.csv"))
    for name in ("eval.csv", "density.csv"):
        _assert_csv_matches(verify_dir / name,
                            os.path.join(runs, "verify_demo", name))
