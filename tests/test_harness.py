"""Training harness: config parsing, training artifacts, determinism,
evaluation outputs, grid search, and SVG plots (micro-scale runs)."""

import dataclasses
import os

import numpy as np
import pytest

from siamcaps import autodiff as ad
from siamcaps import harness as hz
from siamcaps.autodiff import Tensor
from siamcaps.checkpoint import CheckpointError, load_checkpoint
from siamcaps.data import PairBatch, synth_dataset


def micro_cfg(out_dir, **kw):
    base = dict(dataset="synthetic", model="scn", epochs=2,
                pairs_per_epoch=6, batch_size=3, eval_pairs=6, holdout=2,
                synth_subjects=6, synth_per_subject=3, input_size=37,
                conv_channels=4, primary_types=3, primary_d=4, face_caps=4,
                face_d=4, embed_dim=5, routing_iters=2, alpha=0.01,
                output_dir=str(out_dir))
    base.update(kw)
    return hz.RunConfig(**base)


# ---------------------------------------------------------------------------
# config plumbing

def test_finalize_defaults_att_vs_lfw():
    att = hz.RunConfig(dataset="att").finalize()
    assert att.m == 2.0 and att.routing_iters == 4
    lfw = hz.RunConfig(dataset="lfw").finalize()
    assert lfw.m == 0.2 and lfw.routing_iters == 6
    explicit = hz.RunConfig(dataset="att", m=0.7, routing_iters=3).finalize()
    assert explicit.m == 0.7 and explicit.routing_iters == 3


@pytest.mark.parametrize("bad", [
    dict(model="resnet"), dict(dataset="mnist"), dict(loss="triplet"),
    dict(metric="hamming"), dict(m=-1.0), dict(m_n=0.5, m_p=0.2),
    dict(epochs=0), dict(batch_size=0), dict(alpha=0.0),
    dict(holdout=-1), dict(kfold_k=1), dict(metric="manhattan_exp", m=2.0),
    dict(stop_below=-0.1), dict(routing_iters=0), dict(max_subjects=-1),
])
def test_validate_rejects(bad):
    cfg = dataclasses.replace(hz.RunConfig(), **bad).finalize()
    with pytest.raises(ValueError):
        cfg.validate()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# a comment
model = standard
epochs = 7       # trailing comment
alpha = 0.02
fixed_pairs = true
dataset = att
""")
    cfg = hz.make_config(str(path))
    assert cfg.model == "standard" and cfg.epochs == 7
    assert cfg.alpha == 0.02 and cfg.fixed_pairs is True
    assert cfg.dataset == "att"


def test_cli_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 7\nalpha = 0.02\n")
    cfg = hz.make_config(str(path), {"epochs": 3})
    assert cfg.epochs == 3 and cfg.alpha == 0.02


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        hz.make_config(str(path))
    with pytest.raises(ValueError, match="unknown config key"):
        hz.make_config(None, {"nope": 1})


# keys that older configs carry; their values are now fixed by the code
REMOVED_KEYS = {"pos_ratio": "0.5", "detach_routing": "False",
                "concrete_t": "0.1", "standard_concrete": "False",
                "threshold_points": "101", "dropout_rate": "0.0"}


@pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
def test_removed_config_key_rejected_by_name(key, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"epochs = 3\n{key} = {REMOVED_KEYS[key]}\n")
    assert not hasattr(hz.RunConfig(), key)
    with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
        hz.make_config(str(path))
    with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
        hz.make_config(None, {key: REMOVED_KEYS[key]})


def test_config_file_syntax_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs 7\n")
    with pytest.raises(ValueError, match="expected key = value"):
        hz.make_config(str(path))


def test_coerce_bool_and_errors():
    assert hz.coerce_value("fixed_pairs", "TRUE") is True
    assert hz.coerce_value("fixed_pairs", "0") is False
    with pytest.raises(ValueError, match="bad boolean"):
        hz.coerce_value("fixed_pairs", "maybe")
    assert hz.coerce_value("alpha", "1e-3") == 1e-3
    assert hz.coerce_value("epochs", "12") == 12
    assert hz.coerce_value("activation", " relu ") == "relu"
    assert hz.coerce_value("m", "0.5") == 0.5
    assert hz.coerce_value("routing_iters", "3") == 3
    with pytest.raises(ValueError, match="bad number for 'm'"):
        hz.coerce_value("m", "wide")
    with pytest.raises(ValueError, match="bad integer for 'routing_iters'"):
        hz.coerce_value("routing_iters", "2.5")


def test_missing_data_dir_fails_before_model(tmp_path, monkeypatch):
    monkeypatch.delenv("SCN_DATA_DIR", raising=False)
    cfg = micro_cfg(tmp_path / "r", dataset="att")
    with pytest.raises(FileNotFoundError, match="SCN_DATA_DIR"):
        hz.train_run(cfg)


def test_env_data_dir_used(tmp_path, monkeypatch):
    from siamcaps.data import export_orl_layout
    root = tmp_path / "data" / "att"
    export_orl_layout(synth_dataset(4, 3, seed=5, size=37), str(root))
    monkeypatch.setenv("SCN_DATA_DIR", str(tmp_path / "data"))
    cfg = micro_cfg(tmp_path / "r", dataset="att", epochs=1, holdout=2,
                    eval_pairs=4, pairs_per_epoch=4)
    res = hz.train_run(cfg)
    assert len(res.rows) == 1


# ---------------------------------------------------------------------------
# training artifacts

def test_train_run_artifacts(tmp_path):
    res = hz.train_run(micro_cfg(tmp_path / "run"))
    files = set(os.listdir(res.run_dir))
    assert {"metrics.csv", "config.txt", "final.ckpt", "best.ckpt",
            "audit.txt"} <= files

    lines = open(os.path.join(res.run_dir, "metrics.csv")).read().splitlines()
    assert lines[0] == "epoch,train_loss,test_loss,test_accuracy,wall_ms"
    assert len(lines) == 3
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        assert int(cells[0]) == i
        float(cells[1]), float(cells[2]), float(cells[3])
        assert int(cells[4]) >= 0

    echo = open(os.path.join(res.run_dir, "config.txt")).read()
    assert "model = scn" in echo and "seed = 0" in echo
    # finalized values are echoed, not the None placeholders
    assert "routing_iters = 2" in echo


def test_train_rows_match_file(tmp_path):
    res = hz.train_run(micro_cfg(tmp_path / "run"))
    rows = hz.read_metrics(os.path.join(res.run_dir, "metrics.csv"))
    assert [r["epoch"] for r in rows] == [1, 2]
    for got, want in zip(rows, res.rows):
        assert got["train_loss"] == want["train_loss"]
        assert got["test_loss"] == want["test_loss"]
        assert got["test_accuracy"] == want["test_accuracy"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_loss_stops_before_the_update(tmp_path, monkeypatch, bad):
    cfg = micro_cfg(tmp_path).finalize()
    enc = hz.build_run_encoder(cfg)
    r = np.random.default_rng(3)
    size = (3, 1, cfg.input_size, cfg.input_size)
    batch = PairBatch(Tensor(r.uniform(size=size)),
                      Tensor(r.uniform(size=size)), np.array([0.0, 1.0, 0.0]))
    state = hz.OptimState()
    hz._train_step(enc, state, batch, cfg, None)  # moments worth keeping
    weights = [p.data.copy() for _, p in enc.named_parameters()]
    buffers = [b.copy() for _, b in enc.named_buffers()]
    assert len(buffers) == 2  # bn1's running mean and variance
    moments = [{k: a.copy() for k, a in d.items()}
               for d in (state.m, state.v, state.v_hat)]
    real = hz._loss_of
    monkeypatch.setattr(hz, "_loss_of",
                        lambda d, y, c: ad.mul_scalar(real(d, y, c), bad))
    with pytest.raises(FloatingPointError,
                       match=f"non-finite training loss {bad!r}"):
        hz._train_step(enc, state, batch, cfg, None)
    assert state.t == 1
    for (_, p), w in zip(enc.named_parameters(), weights):
        assert np.array_equal(p.data, w)
    for d, want in zip((state.m, state.v, state.v_hat), moments):
        assert d.keys() == want.keys()
        assert all(np.array_equal(d[k], want[k]) for k in d)
    for (_, b), want in zip(enc.named_buffers(), buffers):
        assert np.array_equal(b, want)


def test_nan_activation_stops_the_step(tmp_path):
    # relu passes a NaN on: a NaN in one of bn1's channels reaches the loss,
    # and the step refuses it instead of training on zeroed activations
    cfg = micro_cfg(tmp_path).finalize()
    enc = hz.build_run_encoder(cfg)
    enc.bn1.beta.data[0] = np.nan
    r = np.random.default_rng(5)
    size = (3, 1, cfg.input_size, cfg.input_size)
    batch = PairBatch(Tensor(r.uniform(size=size)),
                      Tensor(r.uniform(size=size)), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(FloatingPointError, match="non-finite training loss"):
        hz._train_step(enc, hz.OptimState(), batch, cfg, None)


def test_every_gradient_contiguous_after_desk_step(monkeypatch):
    # the criterion-8 desk model: no parameter gradient is a strided view,
    # so the optimizer copies none of them.  The gradients are read where
    # the optimizer reads them: it releases each one it applies
    cfg = hz.RunConfig(conv_channels=32, primary_types=8, primary_d=8,
                       face_caps=16, face_d=8, routing_iters=2,
                       input_size=64).finalize()
    enc = hz.build_run_encoder(cfg)
    r = np.random.default_rng(4)
    size = (8, 1, cfg.input_size, cfg.input_size)
    batch = PairBatch(Tensor(r.uniform(size=size)),
                      Tensor(r.uniform(size=size)),
                      np.array([0.0, 1.0] * 4))
    real, seen = hz.amsgrad_step, []

    def spy(params, *args, **kwargs):
        seen.extend((name, p.grad) for name, p in params)
        return real(params, *args, **kwargs)

    monkeypatch.setattr(hz, "amsgrad_step", spy)
    hz._train_step(enc, hz.OptimState(), batch, cfg, None)
    assert [name for name, _ in seen] == \
        [name for name, _ in enc.named_parameters()]
    for name, g in seen:
        assert g is not None and g.flags.c_contiguous, name


def test_fresh_state_moments_exist_before_the_first_forward(monkeypatch):
    # a fresh OptimState gets every parameter's zeroed moments before the
    # step's forward, so they lie below the step's transients in the heap;
    # the update then finds them and the step's loss is the lazy one's
    cfg = hz.RunConfig(conv_channels=32, primary_types=8, primary_d=8,
                       face_caps=16, face_d=8, routing_iters=2,
                       input_size=64).finalize()
    r = np.random.default_rng(6)
    size = (4, 1, cfg.input_size, cfg.input_size)
    batch = PairBatch(Tensor(r.uniform(size=size)),
                      Tensor(r.uniform(size=size)),
                      np.array([0.0, 1.0] * 2))
    enc, state = hz.build_run_encoder(cfg), hz.OptimState()
    real, seen = hz.pair_distances, []

    def spy(*args, **kwargs):
        seen.append([{k: (a.shape, a.any()) for k, a in d.items()}
                     for d in (state.m, state.v, state.v_hat)])
        return real(*args, **kwargs)

    monkeypatch.setattr(hz, "pair_distances", spy)
    loss = hz._train_step(enc, state, batch, cfg, None)
    assert seen == [[{name: (p.shape, False)
                      for name, p in enc.named_parameters()}] * 3]
    monkeypatch.setattr(hz, "pair_distances", real)
    lazy = hz.build_run_encoder(cfg)
    with ad.Graph():
        d = hz.pair_distances(lazy, batch, cfg, training=True, rng=None)
        want = hz._loss_of(d, batch.labels, cfg)
        ad.backward(want)
        hz.amsgrad_step(lazy.named_parameters(), hz.OptimState(),
                        alpha=cfg.alpha, flat_lr=cfg.flat_lr)
    assert loss == want.item()
    for (_, p), (_, q) in zip(enc.named_parameters(),
                              lazy.named_parameters()):
        assert p.data.tobytes() == q.data.tobytes()


def test_full_size_train_step_traced_peak():
    # the paper's 13,729,044-parameter encoder at 4 pairs, a step after the
    # first (AMSGrad's moments exist): the step's traced high point above
    # its start is the primary convolution vjp's copy-out of gx (176 MB);
    # with the capsule layer as two tape nodes and the convolution vjp in
    # blocks of s kernel rows it was that vjp's 205 MB
    import tracemalloc
    cfg = hz.RunConfig(routing_iters=4).finalize()
    enc = hz.build_run_encoder(cfg)
    r = np.random.default_rng(5)
    size = (4, 1, cfg.input_size, cfg.input_size)
    batch = PairBatch(Tensor(r.uniform(size=size)),
                      Tensor(r.uniform(size=size)),
                      np.array([0.0, 1.0] * 2))
    state = hz.OptimState()
    hz._train_step(enc, state, batch, cfg, None)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        hz._train_step(enc, state, batch, cfg, None)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 185e6


def test_determinism_bitwise_except_wall_ms(tmp_path):
    a = hz.train_run(micro_cfg(tmp_path / "a"))
    b = hz.train_run(micro_cfg(tmp_path / "b"))

    def strip(path):
        lines = open(os.path.join(path, "metrics.csv")).read().splitlines()
        return [",".join(l.split(",")[:4]) for l in lines]

    assert strip(a.run_dir) == strip(b.run_dir)
    ck_a = load_checkpoint(os.path.join(a.run_dir, "final.ckpt"))
    ck_b = load_checkpoint(os.path.join(b.run_dir, "final.ckpt"))
    assert sorted(ck_a) == sorted(ck_b)
    for name in ck_a:
        assert ck_a[name].tobytes() == ck_b[name].tobytes(), name
    # the run directories differ, and config.txt does not name them
    config_a, config_b = (open(os.path.join(r.run_dir, "config.txt"),
                               "rb").read() for r in (a, b))
    assert a.run_dir != b.run_dir
    assert config_a == config_b


def test_seed_changes_results(tmp_path):
    a = hz.train_run(micro_cfg(tmp_path / "a", seed=0))
    b = hz.train_run(micro_cfg(tmp_path / "b", seed=1))
    assert a.rows[-1]["train_loss"] != b.rows[-1]["train_loss"]


def test_zero_shot_audit(tmp_path):
    res = hz.train_run(micro_cfg(tmp_path / "run"))
    assert res.audit["zero_shot_disjoint"] is True
    train_ids = set(res.audit["train_pair_subjects"])
    test_ids = set(res.audit["test_pair_subjects"])
    assert train_ids <= set(res.audit["train_subjects"])
    assert test_ids <= set(res.audit["test_subjects"])
    assert not train_ids & test_ids
    text = open(os.path.join(res.run_dir, "audit.txt")).read()
    assert "zero_shot_disjoint: true" in text


def test_fixed_pairs_overfit_and_early_stop(tmp_path):
    cfg = micro_cfg(tmp_path / "run", fixed_pairs=True, epochs=60,
                    pairs_per_epoch=4, batch_size=4, eval_pairs=4,
                    holdout=0, alpha=0.02, stop_below=0.05)
    res = hz.train_run(cfg)
    assert res.rows[-1]["train_loss"] < 0.05
    assert len(res.rows) < 60  # early stop triggered
    first = res.rows[0]["train_loss"]
    assert res.rows[-1]["train_loss"] < first


def test_holdout_zero_tests_on_train_subjects(tmp_path):
    res = hz.train_run(micro_cfg(tmp_path / "run", holdout=0))
    assert res.audit["train_subjects"] == res.audit["test_subjects"]
    assert res.audit["zero_shot_disjoint"] is False


def test_best_checkpoint_tracks_lowest_validation_loss(tmp_path, monkeypatch):
    # the epochs' validation losses have their minimum at epoch 3 and their
    # test losses at epoch 2; best.ckpt is saved at each new validation low
    val_losses, test_losses = iter([2.0, 3.0, 1.0]), iter([3.0, 1.0, 2.0])
    real_score, real_save, saves = hz.score, hz.save_checkpoint, []

    def score(*args):
        return dataclasses.replace(real_score(*args), loss=next(test_losses),
                                   val_loss=next(val_losses))

    def save_checkpoint(encoder, state, path):
        saves.append((os.path.basename(path), state.t))
        real_save(encoder, state, path)

    monkeypatch.setattr(hz, "score", score)
    monkeypatch.setattr(hz, "save_checkpoint", save_checkpoint)
    res = hz.train_run(micro_cfg(tmp_path / "run", epochs=3))
    assert [r["test_loss"] for r in res.rows] == [3.0, 1.0, 2.0]
    # 2 steps per epoch
    assert saves == [("best.ckpt", 2), ("best.ckpt", 6), ("final.ckpt", 6)]
    best = load_checkpoint(os.path.join(res.run_dir, "best.ckpt"))
    assert int(best["optim/t"][0]) == 6


def test_standard_model_trains(tmp_path):
    res = hz.train_run(micro_cfg(tmp_path / "run", model="standard"))
    assert len(res.rows) == 2
    assert np.isfinite(res.rows[-1]["train_loss"])


def test_sdropcapnet_trains_and_clamps(tmp_path):
    res = hz.train_run(micro_cfg(tmp_path / "run", model="sdropcapnet",
                                 epochs=1))
    p = res.encoder.dropout_p.data
    assert np.all((p >= 0.01) & (p <= 0.99))


def test_double_margin_loss_config(tmp_path):
    res = hz.train_run(micro_cfg(tmp_path / "run", loss="double_margin",
                                 epochs=1))
    assert np.isfinite(res.rows[-1]["train_loss"])


@pytest.mark.parametrize("metric,margin", [("manhattan_exp", 0.8),
                                           ("cosine", 1.0)])
def test_other_metrics_train(tmp_path, metric, margin):
    res = hz.train_run(micro_cfg(tmp_path / "run", metric=metric, m=margin,
                                 epochs=1))
    assert np.isfinite(res.rows[-1]["train_loss"])
    assert 0.0 <= res.rows[-1]["test_accuracy"] <= 1.0


def test_kfold_training(tmp_path):
    cfg = micro_cfg(tmp_path / "run", kfold_k=3, epochs=1, holdout=5)
    hz.train_run(cfg)
    for i in range(3):
        assert os.path.isfile(os.path.join(cfg.output_dir, f"fold{i}",
                                           "metrics.csv"))
    lines = open(os.path.join(cfg.output_dir,
                              "summary.csv")).read().splitlines()
    assert lines[0] == "fold,test_loss,test_accuracy"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2", "mean", "std", "min",
                                    "max"]
    folds = np.array([[float(v) for v in r[1:]] for r in rows[:3]])
    stats = {r[0]: [float(v) for v in r[1:]] for r in rows[3:]}
    for name, fn in (("mean", np.mean), ("std", np.std), ("min", np.min),
                     ("max", np.max)):
        np.testing.assert_allclose(stats[name], fn(folds, axis=0),
                                   rtol=1e-12, atol=1e-15, err_msg=name)


# ---------------------------------------------------------------------------
# evaluation

def test_eval_run_outputs(tmp_path):
    cfg = micro_cfg(tmp_path / "run")
    hz.train_run(cfg)
    eval_cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "eval"))
    res = hz.eval_run(os.path.join(cfg.output_dir, "final.ckpt"), eval_cfg)
    lines = open(os.path.join(eval_cfg.output_dir,
                              "eval.csv")).read().splitlines()
    assert lines[0] == "loss,accuracy,threshold"
    cells = lines[1].split(",")
    assert float(cells[0]) == res.loss
    dens = open(os.path.join(eval_cfg.output_dir,
                             "density.csv")).read().splitlines()
    assert dens[0] == "bin_lo,bin_hi,match_count,nonmatch_count"
    assert len(dens) == 51
    match_total = sum(int(l.split(",")[2]) for l in dens[1:])
    nonmatch_total = sum(int(l.split(",")[3]) for l in dens[1:])
    assert match_total == 3 and nonmatch_total == 3  # 6 pairs, ratio 0.5


@pytest.mark.parametrize("fixed_pairs", [True, False])
def test_evaluate_reproduces_last_epoch_bitwise(tmp_path, fixed_pairs):
    """Training and eval score with one protocol: both fit the threshold on
    the run's validation pairs and score the same test pairs."""
    cfg = micro_cfg(tmp_path / "run", fixed_pairs=fixed_pairs).finalize()
    res = hz.train_run(cfg)
    ds = hz.load_dataset(cfg)
    got = hz.evaluate(res.encoder, ds, hz.make_split(ds, cfg), cfg)
    last = hz.read_metrics(os.path.join(res.run_dir, "metrics.csv"))[-1]
    assert got.loss == last["test_loss"]
    assert got.accuracy == last["test_accuracy"]
    assert got.threshold == res.threshold


def test_validation_pairs_fixed_balanced_and_of_train_subjects(
        tmp_path, monkeypatch):
    cfg = micro_cfg(tmp_path / "run", epochs=3, pairs_per_epoch=50,
                    batch_size=25).finalize()
    ds = hz.load_dataset(cfg)
    split = hz.make_split(ds, cfg)
    val = hz.validation_pairs(ds, split, cfg)
    assert len(val) == 5
    assert int((val.labels == 0).sum()) == round(5 / 2)
    subjects = {ds.images[i][0] for pair in val.index_pairs for i in pair}
    assert subjects <= set(split.train_subjects)

    seen = []
    score = hz.score

    def recorded(encoder, val_pairs, test_pairs, cfg):
        seen.append(val_pairs.index_pairs)
        return score(encoder, val_pairs, test_pairs, cfg)

    monkeypatch.setattr(hz, "score", recorded)
    res = hz.train_run(cfg)
    hz.evaluate(res.encoder, ds, split, cfg)
    assert len(seen) == 4  # three epochs, then evaluate
    assert all(s == val.index_pairs for s in seen)


def test_validation_pairs_hold_both_labels_at_every_size(tmp_path):
    # a tenth of an epoch rounds down to one pair, or none, below 20 pairs
    # per epoch; the set never fits a threshold on one label
    cfg = micro_cfg(tmp_path).finalize()
    ds = hz.load_dataset(cfg)
    split = hz.make_split(ds, cfg)
    for n in range(1, 41):
        val = hz.validation_pairs(
            ds, split, dataclasses.replace(cfg, pairs_per_epoch=n))
        assert len(val) == max(2, n // 10), n
        assert set(val.labels.tolist()) == {0.0, 1.0}, n


def test_evaluate_draws_no_training_pairs(tmp_path, monkeypatch):
    cfg = micro_cfg(tmp_path / "run").finalize()
    ds = hz.load_dataset(cfg)

    def refuse(*args):
        raise AssertionError("evaluate drew training pairs")

    monkeypatch.setattr(hz, "train_pairs", refuse)
    res = hz.evaluate(hz.build_run_encoder(cfg), ds, hz.make_split(ds, cfg),
                      cfg)
    assert 0.0 <= res.accuracy <= 1.0


def test_eval_shape_mismatch_names_tensor(tmp_path):
    cfg = micro_cfg(tmp_path / "run", epochs=1)
    hz.train_run(cfg)
    bad_cfg = dataclasses.replace(cfg, embed_dim=7,
                                  output_dir=str(tmp_path / "eval"))
    with pytest.raises(CheckpointError, match="shape mismatch for"):
        hz.eval_run(os.path.join(cfg.output_dir, "final.ckpt"), bad_cfg)


def test_score_takes_a_cosine_threshold_below_zero(monkeypatch):
    # the best rule on these validation pairs matches nothing, and its
    # smallest cosine distance rounded below 0: the sweep returns that
    # distance, and the test pairs are scored by the same rule
    def pairs(labels):
        img = Tensor(np.zeros((len(labels), 1, 1, 1)))
        return PairBatch(img, img, np.array(labels, dtype=np.float64))

    val, test = pairs([1, 1, 1]), pairs([0, 1, 0, 1])
    dists = {3: np.array([-1.1e-16, 0.5, 0.6]),
             4: np.array([-2e-16, 0.3, 0.7, 0.2])}
    monkeypatch.setattr(hz, "eval_distances",
                        lambda enc, p, cfg: (dists[len(p)], p.labels))
    cfg = micro_cfg(".", metric="cosine").finalize()
    res = hz.score(None, val, test, cfg)
    assert res.threshold == -1.1e-16
    assert res.accuracy == 0.75  # only the pair at -2e-16 is called a match


def test_histogram_counts_and_overlap():
    rng = np.random.default_rng(3)
    d = np.concatenate([rng.normal(0.2, 0.05, 300),
                        rng.normal(1.4, 0.05, 200)])
    y = np.concatenate([np.zeros(300), np.ones(200)])
    edges, mc, nc = hz.density_histogram(d, y)
    assert len(edges) == 51 and mc.sum() == 300 and nc.sum() == 200
    assert not np.any((mc > 0) & (nc > 0))  # well separated: no shared bin


# ---------------------------------------------------------------------------
# grid search

def test_grid_combos_skip_invalid():
    combos = hz.grid_combos()
    assert (2.0, "manhattan_exp") not in combos
    assert (1.0, "manhattan_exp") in combos
    assert (2.0, "euclidean_sq") in combos
    assert (2.0, "cosine") in combos
    assert len(combos) == 11  # 4 margins x 3 metrics minus manhattan at 2.0


def test_gridsearch_run(tmp_path):
    cfg = micro_cfg(tmp_path / "gs", epochs=1, pairs_per_epoch=4,
                    batch_size=4, eval_pairs=4)
    rows = hz.gridsearch_run(cfg)
    assert len(rows) == 11
    lines = open(os.path.join(cfg.output_dir,
                              "gridsearch.csv")).read().splitlines()
    assert lines[0] == "margin,metric,train_loss,test_loss,test_accuracy"
    assert len(lines) == 12
    assert not any("m2_manhattan" in l for l in lines)


def test_gridsearch_kfold_rows_are_the_summary_means(tmp_path, monkeypatch):
    # with kfold_k >= 2 a gridsearch.csv row is its combination's k-fold
    # result: the mean row of its summary.csv, and the folds' mean final
    # train loss; not the last fold's last metrics row
    monkeypatch.setattr(hz, "GRID_MARGINS", (0.2,))
    cfg = micro_cfg(tmp_path / "gs", epochs=1, pairs_per_epoch=4,
                    batch_size=4, eval_pairs=4, kfold_k=3)
    rows = hz.gridsearch_run(cfg)
    lines = open(os.path.join(cfg.output_dir,
                              "gridsearch.csv")).read().splitlines()[1:]
    assert len(lines) == len(rows) == 3
    for line in lines:
        m, metric, train, test, acc = line.split(",")
        sub = os.path.join(cfg.output_dir,
                           f"gs_m{float(m):g}_{metric}".replace(".", "p"))
        summary = open(os.path.join(sub, "summary.csv")).read().splitlines()
        assert summary[4] == f"mean,{test},{acc}"
        last = [hz.read_metrics(os.path.join(sub, f"fold{i}",
                                             "metrics.csv"))[-1]
                for i in range(3)]
        assert float(train) == float(np.mean([r["train_loss"]
                                              for r in last]))


# ---------------------------------------------------------------------------
# plots

def _write_metrics(path, rows):
    with open(path, "w") as fh:
        fh.write(hz.METRICS_HEADER + "\n")
        for r in rows:
            fh.write(",".join(str(c) for c in r) + "\n")


def test_plot_deterministic(tmp_path):
    path = str(tmp_path / "m.csv")
    _write_metrics(path, [(1, 0.9, 1.0, 0.5, 12), (2, 0.5, 0.7, 0.7, 11),
                          (3, 0.3, 0.6, 0.8, 13)])
    out1, out2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    hz.emit_plot(path, out1)
    hz.emit_plot(path, out2)
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2
    assert b1.startswith(b"<svg")


def test_plot_single_row(tmp_path):
    path = str(tmp_path / "m.csv")
    _write_metrics(path, [(1, 0.9, 1.0, 0.5, 12)])
    out = str(tmp_path / "one.svg")
    hz.emit_plot(path, out)
    svg = open(out).read()
    assert svg.count("<polyline") == 2
    assert "<circle" in svg


def test_plot_axis_ranges_cover_data(tmp_path):
    path = str(tmp_path / "m.csv")
    _write_metrics(path, [(1, 0.25, 1.75, 0.5, 1), (5, 0.125, 0.5, 0.9, 1)])
    out = str(tmp_path / "r.svg")
    hz.emit_plot(path, out)
    svg = open(out).read()
    for label in ("0.125", "1.75", ">1<", ">5<"):
        assert label in svg
    assert "T" not in svg.replace("Times", "").split("<svg")[0]  # no dates


def test_plot_empty_csv_errors(tmp_path):
    path = str(tmp_path / "m.csv")
    _write_metrics(path, [])
    with pytest.raises(ValueError, match="empty metrics"):
        hz.emit_plot(path, str(tmp_path / "x.svg"))
    bad = str(tmp_path / "bad.csv")
    open(bad, "w").write("nope\n")
    with pytest.raises(ValueError, match="bad metrics header"):
        hz.emit_plot(bad, str(tmp_path / "y.svg"))


def test_plot_no_timestamps(tmp_path):
    import re
    path = str(tmp_path / "m.csv")
    _write_metrics(path, [(1, 0.9, 1.0, 0.5, 12), (2, 0.5, 0.7, 0.7, 11)])
    out = str(tmp_path / "t.svg")
    hz.emit_plot(path, out)
    svg = open(out).read()
    assert not re.search(r"\d{4}-\d{2}-\d{2}", svg)
    assert "date" not in svg.lower()
