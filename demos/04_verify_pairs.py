"""Pair verification: distances, threshold selection, and densities.

Runs the trained checkpoint from demo 03 (training it first if needed),
then shows how match/non-match decisions work: embed both images with the
tied-weight encoder, take the distance, and call the pair a match when it
is below a threshold fit on the run's validation pairs.  An untrained
encoder on the same pairs shows what training adds.
"""

import dataclasses
import os

from siamcaps import eval_run
from siamcaps.harness import (build_run_encoder, evaluate, load_dataset,
                              make_split)

import importlib.util

_spec = importlib.util.spec_from_file_location(
    "train_demo", os.path.join(os.path.dirname(__file__),
                               "03_train_synthetic.py"))
train_demo = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(train_demo)


def main():
    ckpt = os.path.join(train_demo.OUT, "final.ckpt")
    if not os.path.isfile(ckpt):
        print("no checkpoint yet - running the training demo first\n")
        train_demo.main()
        print()

    # Reuse the training configuration, point the outputs elsewhere.
    cfg = dataclasses.replace(train_demo.CFG, output_dir=os.path.join(
        os.path.dirname(__file__), "runs", "verify_demo"))

    res = eval_run(ckpt, cfg)

    # Compare against an untrained encoder on the same split.
    fin = cfg.finalize()
    ds = load_dataset(fin)
    split = make_split(ds, fin)
    untrained = evaluate(build_run_encoder(fin), ds, split, fin)

    print("zero-shot test pairs    trained  untrained")
    print(f"  loss                 {res.loss:8.4f}  {untrained.loss:9.4f}")
    print(f"  accuracy             {res.accuracy:8.2f}  "
          f"{untrained.accuracy:9.2f}")
    print(f"  decision threshold   {res.threshold:8.4f}  "
          f"{untrained.threshold:9.4f}")
    # the run's fixed validation pairs, a tenth as many as an epoch's, are
    # of training subjects, so a threshold fit on them need not suit the
    # unseen test subjects
    print("  (both thresholds are fit exactly, at the most accurate cut of\n"
          "   the same validation pairs, half of them matching, all of\n"
          "   subjects seen in training)")
    print("density.csv written :",
          os.path.join(cfg.output_dir, "density.csv"))

    _ascii_density(res)


def _ascii_density(res):
    print("\ndistance densities (#=match, o=non-match):")
    peak = max(res.match_counts.max(), res.nonmatch_counts.max(), 1)
    for i in range(0, len(res.match_counts), 5):
        lo = res.bin_edges[i]
        m = int(round(res.match_counts[i:i + 5].sum() * 30 / (peak * 5)))
        n = int(round(res.nonmatch_counts[i:i + 5].sum() * 30 / (peak * 5)))
        print(f"  D={lo:6.3f} | {'#' * m}{'o' * n}")


if __name__ == "__main__":
    main()
