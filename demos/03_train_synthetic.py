"""Train a small siamese capsule verifier on the synthetic face set.

The synthetic set renders two Gaussian blobs per subject with per-instance
jitter, so "same subject" pairs look alike and "different subject" pairs
don't.  Training minimizes the contrastive loss over pair distances; the
run directory collects metrics.csv, checkpoints, a config echo, a
zero-shot audit, and an SVG loss curve.
"""

import os

from siamcaps import RunConfig, emit_plot, train_run

OUT = os.path.join(os.path.dirname(__file__), "runs", "synthetic_demo")

# Demo 04 evaluates the checkpoint this config trains, so it imports CFG.
CFG = RunConfig(
    dataset="synthetic",       # generated on the fly from the seed
    model="scn",               # capsule encoder with dynamic routing
    loss="contrastive",
    metric="euclidean_sq",
    m=2.0,                     # non-matching pairs pushed past sqrt(2)
    epochs=12,
    pairs_per_epoch=64,
    batch_size=8,
    eval_pairs=100,
    holdout=2,                 # two subjects never seen in training
    synth_subjects=10,
    synth_per_subject=4,
    # desk-scale widths keep this demo under a minute
    input_size=37, conv_channels=8, primary_types=4, primary_d=4,
    face_caps=8, face_d=8, embed_dim=10, routing_iters=3,
    alpha=0.003,
    seed=7,
    output_dir=OUT,
)


def main():
    res = train_run(CFG)

    print(f"run directory: {res.run_dir}")
    print("epoch  train_loss  test_loss  test_acc")
    for r in res.rows:
        print(f"{r['epoch']:>5}  {r['train_loss']:>10.4f}  "
              f"{r['test_loss']:>9.4f}  {r['test_accuracy']:>8.2f}")
    print("zero-shot audit disjoint:", res.audit["zero_shot_disjoint"])

    svg = os.path.join(OUT, "loss.svg")
    emit_plot(os.path.join(OUT, "metrics.csv"), svg)
    print("loss curve:", svg)


if __name__ == "__main__":
    main()
