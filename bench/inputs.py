"""Benchmark inputs, generated from the workload seed alone.

The program under test only receives what this module writes or builds:

- an ORL-layout tree ``s<K>/<J>.pgm`` of binary 8-bit PGM faces, so the
  program's own PGM decode and bilinear resize (``data.load_att``) run inside
  the measured set-up;
- a label-interleaved pair list (match, non-match, match, ...) over
  (subject, image) ids.  It is drawn here, not by ``data.sample_pairs``, so a
  change to the program's pair sampling cannot shift the benchmark's inputs.

The same seed gives byte-identical files and the same pair list.
"""

from __future__ import annotations

import os

import numpy as np

# ORL geometry: 40 subjects, 10 images each, 92 wide by 112 high
ORL_SUBJECTS = 40
ORL_PER_SUBJECT = 10
ORL_HW = (112, 92)


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, *tags])


def _face(hw: tuple, template: np.ndarray, shift: np.ndarray,
          gain: float, noise: np.ndarray) -> np.ndarray:
    """Sum of Gaussian blobs (rows of cy, cx, sigma, amplitude) in [0, 1]."""
    h, w = hw
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    img = np.full((h, w), 0.15)
    for cy, cx, sigma, amp in template:
        cy, cx = cy * h + shift[0], cx * w + shift[1]
        img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2)
                            / (2.0 * (sigma * w) ** 2))
    return np.clip(img * gain + noise, 0.0, 1.0)


def write_orl_tree(root: str, seed: int) -> None:
    """Write ``root/s<K>/<J>.pgm`` (K, J from 1) as binary 8-bit PGM."""
    h, w = ORL_HW
    for k in range(1, ORL_SUBJECTS + 1):
        r = _rng(seed, 1, k)
        # head, two eyes, nose, mouth; positions are fractions of the frame
        base = np.array([[0.50, 0.50, 0.28, 0.45],
                         [0.40, 0.35, 0.06, -0.30],
                         [0.40, 0.65, 0.06, -0.30],
                         [0.55, 0.50, 0.05, 0.20],
                         [0.72, 0.50, 0.08, -0.25]])
        template = base + r.uniform(-1.0, 1.0, base.shape) * np.array(
            [0.04, 0.04, 0.015, 0.08])
        sdir = os.path.join(root, f"s{k}")
        os.makedirs(sdir, exist_ok=True)
        for j in range(1, ORL_PER_SUBJECT + 1):
            ri = _rng(seed, 2, k, j)
            img = _face(ORL_HW, template, ri.uniform(-3.0, 3.0, 2),
                        ri.uniform(0.9, 1.1), ri.uniform(-0.03, 0.03, (h, w)))
            q = np.rint(img * 255.0).astype(np.uint8)
            with open(os.path.join(sdir, f"{j}.pgm"), "wb") as fh:
                fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
                fh.write(q.tobytes())


def pair_ids(seed: int, tag: int, n_pairs: int) -> list:
    """Label-interleaved pairs ((subject, image), (subject, image), label).

    Even positions are matching pairs (label 0: two distinct images of one
    subject), odd positions non-matching (label 1: two distinct subjects).
    Ids count from 1, as in the ORL file names.
    """
    r = _rng(seed, 3, tag)
    out = []
    for i in range(n_pairs):
        if i % 2 == 0:
            s = int(r.integers(1, ORL_SUBJECTS + 1))
            a, b = r.choice(ORL_PER_SUBJECT, size=2, replace=False) + 1
            out.append(((s, int(a)), (s, int(b)), 0))
        else:
            sa, sb = r.choice(ORL_SUBJECTS, size=2, replace=False) + 1
            a, b = r.integers(1, ORL_PER_SUBJECT + 1, size=2)
            out.append(((int(sa), int(a)), (int(sb), int(b)), 1))
    return out
