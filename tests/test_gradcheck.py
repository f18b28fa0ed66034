"""The bundled layer-by-layer gradient verification suite."""

import numpy as np
import pytest

from siamcaps import autodiff as ad
from siamcaps import gradcheck as gc


EXPECTED_NAMES = [
    "conv2d", "batchnorm", "dense", "squash", "dynamic_routing",
    "capsule_layer_tanh", "contrastive_loss", "double_margin_loss",
    "concrete_dropout",
]


def test_suite_lists_each_layer_once():
    names = [name for name, _ in gc.CHECKS]
    assert names == EXPECTED_NAMES
    assert len(set(names)) == len(names)


def test_suite_all_below_threshold():
    results = gc.run_suite(seed=0)
    assert [n for n, _ in results] == EXPECTED_NAMES
    for name, err in results:
        assert np.isfinite(err), name
        assert err < gc.THRESHOLD, f"{name}: {err}"
    assert gc.suite_passes(results)


def test_suite_deterministic():
    a = gc.run_suite(seed=7)
    b = gc.run_suite(seed=7)
    assert a == b


def test_report_format():
    results = gc.run_suite(seed=0)
    report = gc.format_report(results)
    lines = report.splitlines()
    assert len(lines) == len(EXPECTED_NAMES) + 1
    for name, line in zip(EXPECTED_NAMES, lines):
        assert line.startswith(name)
        assert "max_rel_err=" in line and line.rstrip().endswith("ok")
    assert lines[-1].startswith("overall") and lines[-1].endswith("PASS")


def test_corrupted_tanh_backward_fails_suite(monkeypatch):
    """Negative control: a broken vjp must be caught, not masked."""
    real_kernel = ad.tanh_kernel

    def bad_kernel(x):
        out, vjp = real_kernel(x)
        return out, lambda g: vjp(g) * 1.01

    # the one tanh derivative, shared by the primitive and routing
    monkeypatch.setattr(ad, "tanh_kernel", bad_kernel)
    results = gc.run_suite(seed=0)
    failed = [name for name, err in results if err >= gc.THRESHOLD]
    assert "capsule_layer_tanh" in failed
    assert not gc.suite_passes(results)
    report = gc.format_report(results)
    assert report.splitlines()[-1].endswith("FAIL")


def test_suite_fast_enough():
    import time
    t0 = time.monotonic()
    gc.run_suite(seed=1)
    assert time.monotonic() - t0 < 60.0
