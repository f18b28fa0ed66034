"""Tests of the benchmark itself, on a tiny model so they run in seconds.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = dict(conv_channels=4, primary_types=2, primary_d=4, face_caps=3,
            face_d=4, routing_iters=2, input_size=36, embed_dim=6)
TINY_TRAIN = workloads.Workload("tiny_train", "train", TINY, pairs_per_op=4,
                                episode_ops=3, min_ops=3, setups=2,
                                min_free_mb=0)
# 20 pairs: one full chunk of 16 and a short one
TINY_EVAL = workloads.Workload("tiny_eval", "eval", TINY, pairs_per_op=20,
                               episode_ops=1, min_ops=3, setups=2,
                               min_free_mb=0)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(w, traced, tmp_path, seed=3):
    work = tmp_path / f"{w.name}-{int(traced)}-{seed}"
    work.mkdir()
    return workloads.run_workload(w, seed, 0.3, traced, str(work))


@pytest.mark.parametrize("w", [TINY_TRAIN, TINY_EVAL], ids=lambda w: w.name)
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_printed_with_its_unit(w, traced, tmp_path, capsys):
    res = _run(w, traced, tmp_path)
    run.print_result(w.name, res, workloads.environment(), 3)
    lines = capsys.readouterr().out.splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    for m in spec:
        assert any(line.startswith(f"metric {m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    if not traced:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_layer_map_names_every_per_layer_metric():
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    mapped = [n for entry in layer_map["layers"] for n in entry["per_layer"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    assert set(layer_map["end_to_end"]) == {
        m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(workloads.WORKLOADS)
    for entry in layer_map["layers"]:
        for wls in entry["moves"].values():
            assert set(wls) <= names
        assert set(entry["unchanged"]) <= names


COUNTS = ("capsules.primary.tape_nodes", "capsules.primary.tape_bytes",
          "capsules.routing.tape_nodes", "capsules.routing.tape_bytes",
          "autodiff.tape_nodes", "autodiff.tape_bytes", "checkpoint.bytes",
          "data.images")


def test_counts_repeat_exactly(tmp_path):
    for w in (TINY_TRAIN, TINY_EVAL):
        first = _run(w, True, tmp_path, seed=5).metrics
        second = _run(w, True, tmp_path, seed=7).metrics
        for name in COUNTS:
            assert first[name] == second[name], (w.name, name)
        assert first["data.images"][0] == 400
        if w.kind == "train":
            assert first["autodiff.tape_nodes"][0] > 0
            assert first["checkpoint.bytes"][0] == 0
        else:
            assert first["autodiff.tape_nodes"][0] == 0
            assert first["checkpoint.bytes"][0] > 0


def test_self_times_add_up_to_the_traced_step(tmp_path):
    for w in (TINY_TRAIN, TINY_EVAL):
        m = {k: v for k, (v, _) in _run(w, True, tmp_path).metrics.items()}
        parts = [v for k, v in m.items()
                 if k.endswith((".fwd_ms", ".bwd_ms"))]
        parts += [m["autodiff.backward_self_ms"], m["optim.amsgrad_ms"],
                  m["trace.unattributed_ms"]]
        assert sum(parts) == pytest.approx(m["trace.op_ms"], rel=1e-9)
        assert m["trace.unattributed_ms"] >= 0.0


def test_checks_count_failed_ops(tmp_path):
    """A step whose loss leaves the reference trajectory is a failed op."""
    w = TINY_TRAIN
    root = str(tmp_path / "orl")
    workloads.inputs.write_orl_tree(root, 1)
    ids = workloads.inputs.pair_ids(1, 1, w.pairs_per_op * w.episode_ops)
    cfg = workloads.harness.RunConfig(dataset="att", seed=0,
                                      **w.model).finalize()
    loop = workloads.TrainLoop(w, cfg, workloads.setup(w, cfg, root, ids,
                                                       ""))
    loop.warm_up()
    # records the reference
    assert workloads.measure(loop, 0.0, w.min_ops).failed == 0
    assert len(loop.reference) == w.episode_ops
    loop.reference[1] += 1e-15
    phase = workloads.measure(loop, 0.0, w.min_ops)
    assert phase.failed == 1 and len(phase.times) == w.min_ops


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in ("a", "b"):
        workloads.inputs.write_orl_tree(str(tmp_path / name), 9)
    for rel in ("s1/1.pgm", "s40/10.pgm"):
        assert (tmp_path / "a" / rel).read_bytes() == \
            (tmp_path / "b" / rel).read_bytes()
    ids = workloads.inputs.pair_ids(9, 1, 6)
    assert ids == workloads.inputs.pair_ids(9, 1, 6)
    assert [y for _, _, y in ids] == [0, 1, 0, 1, 0, 1]
    assert ids != workloads.inputs.pair_ids(10, 1, 6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk_train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
