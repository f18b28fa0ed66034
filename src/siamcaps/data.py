"""Image ingestion, preprocessing, subject-holdout protocol, pair sampling.

Subjects are the unit of splitting everywhere: a verification model must be
tested on identities it never saw, so train/test sets partition subject ids,
never images.  All sampling is keyed by explicit seeds.
"""

from __future__ import annotations

import os
import re
from typing import Optional

import numpy as np

from .autodiff import Tensor
from .rng import SplitMix64, derive_seed


class PgmError(ValueError):
    """PGM parse failure; .code is one of bad-magic / truncated / bad-maxval."""

    def __init__(self, code: str, msg: str):
        super().__init__(msg)
        self.code = code


_WS = b" \t\r\n\x0b\x0c"


class _ByteCursor:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def skip_ws_and_comments(self) -> None:
        while self.pos < len(self.buf):
            ch = self.buf[self.pos:self.pos + 1]
            if ch in (b"#",):
                nl = self.buf.find(b"\n", self.pos)
                self.pos = len(self.buf) if nl < 0 else nl + 1
            elif ch in _WS:
                self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self.skip_ws_and_comments()
        if self.pos >= len(self.buf):
            raise PgmError("truncated", "unexpected end of header")
        start = self.pos
        while self.pos < len(self.buf) and \
                self.buf[self.pos:self.pos + 1] not in _WS and \
                self.buf[self.pos:self.pos + 1] != b"#":
            self.pos += 1
        return self.buf[start:self.pos]


def _int_token(cur: _ByteCursor, what: str) -> int:
    tok = cur.token()
    if not re.fullmatch(rb"\d+", tok):
        raise PgmError("truncated", f"malformed {what}: {tok[:16]!r}")
    return int(tok)


def load_pgm(raw: bytes) -> Tensor:
    """Parse P2 (ASCII) or P5 (binary) PGM bytes to a [1,H,W] tensor in [0,1].

    Binary samples are 1 byte, or 2 bytes big-endian when maxval > 255.
    """
    cur = _ByteCursor(raw)
    magic = cur.token() if raw[:1] == b"P" else raw[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmError("bad-magic", f"bad magic {raw[:2]!r}, expected P2/P5")
    width = _int_token(cur, "width")
    height = _int_token(cur, "height")
    maxval = _int_token(cur, "maxval")
    if maxval < 1 or maxval > 65535:
        raise PgmError("bad-maxval", f"maxval {maxval} out of range [1,65535]")
    n = width * height
    if magic == b"P5":
        cur.pos += 1  # the single whitespace byte that ends the header
        per = 2 if maxval > 255 else 1
        payload = raw[cur.pos:cur.pos + n * per]
        if len(payload) < n * per:
            raise PgmError("truncated", "unexpected end of pixel data")
        dt = ">u2" if per == 2 else np.uint8
        vals = np.frombuffer(payload, dtype=dt, count=n).astype(np.float64)
    else:
        vals = np.empty(n)
        for i in range(n):
            try:
                vals[i] = _int_token(cur, "pixel")
            except PgmError:
                raise PgmError("truncated", "unexpected end of pixel data")
    img = vals.reshape(height, width) / float(maxval)
    return Tensor(img[None, :, :])


def save_pgm(image, maxval: int = 255, binary: bool = True) -> bytes:
    """Encode a [1,H,W] or [H,W] array in [0,1] as PGM bytes."""
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    if arr.ndim == 3:
        arr = arr[0]
    q = np.clip(np.rint(arr * maxval), 0, maxval).astype(np.int64)
    h, w = q.shape
    if binary:
        head = f"P5\n{w} {h}\n{maxval}\n".encode()
        if maxval > 255:
            return head + q.astype(">u2").tobytes()
        return head + q.astype(np.uint8).tobytes()
    body = "\n".join(" ".join(str(v) for v in row) for row in q)
    return f"P2\n{w} {h}\n{maxval}\n{body}\n".encode()


def to_grayscale(arr: np.ndarray) -> np.ndarray:
    """[3,H,W] RGB -> [H,W] luma; [1,H,W]/[H,W] pass through."""
    if arr.ndim == 3 and arr.shape[0] == 3:
        return (0.299 * arr[0] + 0.587 * arr[1] + 0.114 * arr[2])
    if arr.ndim == 3 and arr.shape[0] == 1:
        return arr[0]
    if arr.ndim == 2:
        return arr
    raise ValueError(f"expected [H,W], [1,H,W] or [3,H,W], got {arr.shape}")


def _resize_axis_coords(n_src: int, n_dst: int):
    # half-pixel-centers convention; source coords clamped to the frame
    scale = n_src / n_dst
    src = (np.arange(n_dst) + 0.5) * scale - 0.5
    src = np.clip(src, 0.0, n_src - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_src - 1)
    return i0, i1, src - i0


def preprocess(image, target: int = 100) -> Tensor:
    """Grayscale + bilinear resize to [1,target,target].

    A target-sized grayscale input passes through bitwise unchanged.
    """
    arr = image.data if isinstance(image, Tensor) else np.asarray(
        image, dtype=np.float64)
    gray = to_grayscale(arr)
    h, w = gray.shape
    if h < 2 or w < 2:
        raise ValueError(f"image too small to resize: {h}x{w}")
    if (h, w) == (target, target):
        return Tensor(gray[None, :, :].copy())
    r0, r1, wy = _resize_axis_coords(h, target)
    c0, c1, wx = _resize_axis_coords(w, target)
    wy = wy[:, None]
    wx = wx[None, :]
    top = gray[np.ix_(r0, c0)] * (1 - wx) + gray[np.ix_(r0, c1)] * wx
    bot = gray[np.ix_(r1, c0)] * (1 - wx) + gray[np.ix_(r1, c1)] * wx
    out = top * (1 - wy) + bot * wy
    return Tensor(out[None, :, :])


class FaceDataset:
    """(subject_id, [1,H,W] image) records plus a source tag."""

    def __init__(self, images: list, source: str):
        self.images = images
        self.source = source

    def subjects(self) -> list:
        return sorted({sid for sid, _ in self.images})

    def by_subject(self) -> dict:
        out: dict[int, list] = {}
        for i, (sid, _) in enumerate(self.images):
            out.setdefault(sid, []).append(i)
        return out

    def __len__(self) -> int:
        return len(self.images)


class SplitSpec:
    """Train/test subject-id sets: disjoint (zero-shot at test time), or
    identical for the no-holdout protocol that tests on the training
    subjects.  A partial overlap is refused.
    """

    def __init__(self, train_subjects, test_subjects, seed: int):
        self.train_subjects = frozenset(train_subjects)
        self.test_subjects = frozenset(test_subjects)
        self.seed = seed
        if self.train_subjects & self.test_subjects and \
                self.train_subjects != self.test_subjects:
            raise ValueError("train and test subjects overlap")


class PairBatch:
    """left/right [N,1,S,S] with labels y (0 = same subject)."""

    def __init__(self, left: Tensor, right: Tensor, labels: np.ndarray,
                 index_pairs: Optional[list] = None):
        if left.shape != right.shape or left.shape[0] != labels.shape[0]:
            raise ValueError(f"pair batch shapes disagree: {left.shape} "
                             f"{right.shape} {labels.shape}")
        self.left = left
        self.right = right
        self.labels = labels
        self.index_pairs = index_pairs or []

    def __len__(self) -> int:
        return self.labels.shape[0]

    def slice(self, lo: int, hi: int) -> "PairBatch":
        return PairBatch(Tensor(self.left.data[lo:hi]),
                         Tensor(self.right.data[lo:hi]),
                         self.labels[lo:hi],
                         self.index_pairs[lo:hi])


# ---------------------------------------------------------------------------
# loaders

_SUBJECT_DIR = re.compile(r"^s(\d+)$")
_PGM_FILE = re.compile(r"^(\d+)\.pgm$")


def load_att(root: str, target: int = 100) -> FaceDataset:
    """Load an ORL-layout directory tree s<K>/<J>.pgm."""
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root {root!r} does not exist")
    records = []
    for entry in sorted(os.listdir(root)):
        m = _SUBJECT_DIR.match(entry)
        if not m:
            continue
        sid = int(m.group(1))
        sdir = os.path.join(root, entry)
        files = []
        for fname in os.listdir(sdir):
            fm = _PGM_FILE.match(fname)
            if fm:
                files.append((int(fm.group(1)), fname))
        for _, fname in sorted(files):
            path = os.path.join(sdir, fname)
            with open(path, "rb") as fh:
                try:
                    img = load_pgm(fh.read())
                except PgmError as exc:
                    raise PgmError(exc.code, f"{path}: {exc}") from None
            records.append((sid, preprocess(img, target)))
    if not records:
        raise FileNotFoundError(f"no s<K>/<J>.pgm images under {root!r}")
    records.sort(key=lambda r: r[0])
    return FaceDataset(records, "att")


def load_lfw(root: str, target: int = 100,
             max_subjects: Optional[int] = None) -> FaceDataset:
    """Load a directory-of-directories face set (JPEG via Pillow, or PGM).

    Every immediate subdirectory is one subject; subjects with fewer than
    two usable images are dropped (pair sampling needs two).
    """
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root {root!r} does not exist")
    subject_dirs = sorted(d for d in os.listdir(root)
                          if os.path.isdir(os.path.join(root, d)))
    if max_subjects is not None:
        subject_dirs = subject_dirs[:max_subjects]
    records = []
    for sid, dname in enumerate(subject_dirs):
        sdir = os.path.join(root, dname)
        imgs = []
        for fname in sorted(os.listdir(sdir)):
            path = os.path.join(sdir, fname)
            low = fname.lower()
            if low.endswith(".pgm"):
                with open(path, "rb") as fh:
                    try:
                        img = load_pgm(fh.read())
                    except PgmError as exc:
                        raise PgmError(exc.code,
                                       f"{path}: {exc}") from None
                imgs.append(preprocess(img, target))
            elif low.endswith((".jpg", ".jpeg", ".png")):
                try:
                    from PIL import Image
                except ImportError as exc:
                    raise ImportError(
                        "JPEG decoding needs the optional Pillow dependency "
                        "(install extra 'jpeg'), or pre-convert to PGM"
                    ) from exc
                with Image.open(path) as im:
                    rgb = np.asarray(im.convert("RGB"),
                                     dtype=np.float64) / 255.0
                imgs.append(preprocess(rgb.transpose(2, 0, 1), target))
        if len(imgs) >= 2:
            records.extend((sid, img) for img in imgs)
    if not records:
        raise FileNotFoundError(f"no usable subjects under {root!r}")
    return FaceDataset(records, "lfw")


# ---------------------------------------------------------------------------
# protocol

def split_subjects(ds: FaceDataset, n_holdout: int, seed: int) -> SplitSpec:
    subjects = ds.subjects()
    if n_holdout >= len(subjects):
        raise ValueError(f"cannot hold out {n_holdout} of "
                         f"{len(subjects)} subjects")
    order = list(subjects)
    SplitMix64(derive_seed(seed, 11)).shuffle(order)
    test = order[:n_holdout]
    train = order[n_holdout:]
    return SplitSpec(train, test, seed)


def kfold(ds: FaceDataset, k: int, seed: int) -> list:
    """Subject-level folds; fold i holds out its own subjects for testing."""
    if k < 2:
        raise ValueError("k must be >= 2")
    subjects = ds.subjects()
    if k > len(subjects):
        raise ValueError(f"k={k} exceeds {len(subjects)} subjects")
    order = list(subjects)
    SplitMix64(derive_seed(seed, 13)).shuffle(order)
    base, extra = divmod(len(order), k)
    folds, pos = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(order[pos:pos + size])
        pos += size
    return [SplitSpec([s for f in folds[:i] + folds[i + 1:] for s in f],
                      folds[i], seed) for i in range(k)]


def sample_pairs(ds: FaceDataset, subjects, n_pairs: int, pos_ratio: float,
                 seed: int) -> PairBatch:
    """Sample matching/non-matching pairs among the given subject ids.

    round(n_pairs*pos_ratio) pairs are two distinct images of one subject
    (label 0); the rest pair images of two distinct subjects (label 1).
    """
    if not 0.0 <= pos_ratio <= 1.0:
        raise ValueError(f"pos_ratio must be in [0,1], got {pos_ratio}")
    subjects = sorted(set(subjects))
    by_subject = {s: idxs for s, idxs in ds.by_subject().items()
                  if s in subjects}
    if not by_subject:
        raise ValueError("no images for the requested subjects")
    rng = SplitMix64(derive_seed(seed, 17))
    n_pos = int(round(n_pairs * pos_ratio))
    n_neg = n_pairs - n_pos
    rich = [s for s in subjects if len(by_subject.get(s, ())) >= 2]
    if n_pos > 0 and not rich:
        raise ValueError("no subject has two images for a matching pair")
    if n_neg > 0 and len(by_subject) < 2:
        raise ValueError("need two subjects for non-matching pairs")

    lefts, rights, labels, pairs = [], [], [], []
    for _ in range(n_pos):
        s = rich[rng.randrange(len(rich))]
        idxs = by_subject[s]
        a = rng.randrange(len(idxs))
        b = rng.randrange(len(idxs) - 1)
        if b >= a:
            b += 1
        pairs.append((idxs[a], idxs[b]))
        labels.append(0.0)
    all_s = sorted(by_subject)
    for _ in range(n_neg):
        i_sa = rng.randrange(len(all_s))
        i_sb = rng.randrange(len(all_s) - 1)
        if i_sb >= i_sa:
            i_sb += 1
        sa, sb = all_s[i_sa], all_s[i_sb]
        ia = by_subject[sa][rng.randrange(len(by_subject[sa]))]
        ib = by_subject[sb][rng.randrange(len(by_subject[sb]))]
        pairs.append((ia, ib))
        labels.append(1.0)

    left = np.stack([ds.images[i][1].data for i, _ in pairs])
    right = np.stack([ds.images[j][1].data for _, j in pairs])
    return PairBatch(Tensor(left), Tensor(right),
                     np.asarray(labels), pairs)


# ---------------------------------------------------------------------------
# synthetic faces: two Gaussian blobs per subject, jittered per instance

def _render_blobs(size, centers, sigmas, amps):
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.zeros((size, size))
    for (cy, cx), s, a in zip(centers, sigmas, amps):
        img += a * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * s * s))
    return np.clip(img, 0.0, 1.0)


def synth_subject_template(seed: int, subject: int, size: int = 100):
    rng = SplitMix64(derive_seed(seed, 23, subject))
    lo, hi = 0.22 * size, 0.78 * size
    centers = rng.uniform(4, lo, hi).reshape(2, 2)
    sigmas = rng.uniform(2, 0.06 * size, 0.14 * size)
    amps = rng.uniform(2, 0.6, 1.0)
    return centers, sigmas, amps


def synth_instance(seed: int, subject: int, instance: int,
                   size: int = 100, jitter: float = 1.0) -> Tensor:
    """Template blobs moved by <=3*jitter px and <=10*jitter degrees.

    Blobs are isotropic, so rotating their centers about the image middle
    is exactly a rotation of the rendered image.  jitter scales how much
    pose varies between same-subject instances.
    """
    centers, sigmas, amps = synth_subject_template(seed, subject, size)
    rng = SplitMix64(derive_seed(seed, 29, subject, instance))
    if instance > 0:  # instance 0 is the unjittered template
        dy, dx = rng.uniform(2, -3.0 * jitter, 3.0 * jitter)
        theta = rng.uniform(1, -np.deg2rad(10.0 * jitter),
                            np.deg2rad(10.0 * jitter))[0]
        mid = (size - 1) / 2.0
        rel = centers - mid
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        centers = rel @ rot.T + mid + np.array([dy, dx])
    return Tensor(_render_blobs(size, centers, sigmas, amps)[None])


def synth_dataset(n_subjects: int, n_per_subject: int, seed: int,
                  size: int = 100, jitter: float = 1.0) -> FaceDataset:
    records = []
    for s in range(n_subjects):
        for i in range(n_per_subject):
            records.append((s, synth_instance(seed, s, i, size, jitter)))
    return FaceDataset(records, "synthetic")


def export_orl_layout(ds: FaceDataset, root: str) -> None:
    """Write the dataset as s<K+1>/<J+1>.pgm so the att loader can read it."""
    os.makedirs(root, exist_ok=True)
    counters: dict[int, int] = {}
    for sid, img in ds.images:
        counters[sid] = counters.get(sid, 0) + 1
        sdir = os.path.join(root, f"s{sid + 1}")
        os.makedirs(sdir, exist_ok=True)
        with open(os.path.join(sdir, f"{counters[sid]}.pgm"), "wb") as fh:
            fh.write(save_pgm(img))
