"""Dataset I/O, synthetic scene generation and augmentation.

A dataset directory holds four parallel subdirectories:

    im1/<stem>.ppm  im2/<stem>.ppm  label1/<stem>.pgm  label2/<stem>.pgm

Images are binary PPM (P6), labels binary PGM (P5), both with maxval 255.
Label value 0 means "unchanged", values 1..N name the semantic class after
(label2) or before (label1) the change.  The two label maps of a pair are
expected to share their zero set; real data sometimes violates that, so it
is reported as a warning rather than an error.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .tensor import Tensor

SUBDIRS = ("im1", "im2", "label1", "label2")


# ---------------------------------------------------------------------------
# netpbm


def _next_token(f, path):
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise DataError(f"{path}: unexpected end of file in header")
        if ch == b"#":
            while ch not in (b"", b"\n", b"\r"):
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _read_netpbm(path, magic, channels):
    path = Path(path)
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataError(f"{path}: missing or unreadable ({e.strerror})") from None
    with f:
        if _next_token(f, path) != magic:
            raise DataError(f"{path}: not a binary {magic.decode()} file")
        try:
            w = int(_next_token(f, path))
            h = int(_next_token(f, path))
            maxval = int(_next_token(f, path))
        except ValueError as e:
            raise DataError(f"{path}: malformed header ({e})") from None
        if w < 1 or h < 1:
            raise DataError(f"{path}: bad dimensions {w}x{h}")
        if maxval != 255:
            raise DataError(f"{path}: maxval {maxval} unsupported, expected 255")
        need = w * h * channels
        left = os.fstat(f.fileno()).st_size - f.tell()
        if need > left:  # checked before reading, so a huge header allocates nothing
            raise DataError(f"{path}: raster truncated ({left} of {need} bytes)")
        image = np.empty((channels, h, w), dtype=np.uint8)
        # PPM bytes are interleaved, so they land in a buffer made after the
        # image: freed, it leaves no hole below the images a caller keeps
        raster = image if channels == 1 else np.empty((h, w, channels), dtype=np.uint8)
        got = f.readinto(raster)
        if got != need:
            raise DataError(f"{path}: raster truncated ({got} of {need} bytes)")
    if channels == 1:
        return image[0]
    image[...] = raster.transpose(2, 0, 1)
    return image


def read_pgm(path):
    """Load a binary PGM (P5, maxval 255) as an (h, w) uint8 array."""
    return _read_netpbm(path, b"P5", 1)


def read_ppm(path):
    """Load a binary PPM (P6, maxval 255) as a (3, h, w) uint8 array."""
    return _read_netpbm(path, b"P6", 3)


def _as_uint8(arr, who):
    """The raster as uint8; a value outside 0..255 (or NaN) or a non-integer
    dtype raises instead of wrapping or truncating."""
    if arr.size and not (arr.min() >= 0 and arr.max() <= 255):
        raise DataError(f"{who}: values must lie in 0..255, found {arr.min()}..{arr.max()}")
    if arr.dtype != np.bool_ and not np.issubdtype(arr.dtype, np.integer):
        raise DataError(f"{who}: values must be integers, got dtype {arr.dtype}")
    return arr.astype(np.uint8)


def write_pgm(path, arr):
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise DimensionError(f"write_pgm: expected an (h, w) array, got shape {arr.shape}")
    data = _as_uint8(arr, "write_pgm")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(data).tobytes())


def write_ppm(path, arr):
    arr = np.asarray(arr)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DimensionError(f"write_ppm: expected a (3, h, w) array, got shape {arr.shape}")
    data = _as_uint8(arr, "write_ppm")
    _, h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(data.transpose(1, 2, 0)).tobytes())


# ---------------------------------------------------------------------------
# sample pairs


@dataclass
class SamplePair:
    """One bi-temporal sample: two images plus the two semantic change maps."""

    stem: str
    image1: np.ndarray
    image2: np.ndarray
    label1: np.ndarray
    label2: np.ndarray

    @property
    def height(self):
        return self.label1.shape[0]

    @property
    def width(self):
        return self.label1.shape[1]

    @property
    def change_map(self):
        return (self.label1 != 0).astype(np.uint8)


def read_sample(root, stem, n_classes=None):
    root = Path(root)
    paths = {
        "image1": root / "im1" / f"{stem}.ppm",
        "image2": root / "im2" / f"{stem}.ppm",
        "label1": root / "label1" / f"{stem}.pgm",
        "label2": root / "label2" / f"{stem}.pgm",
    }
    pair = SamplePair(stem,
                      read_ppm(paths["image1"]), read_ppm(paths["image2"]),
                      read_pgm(paths["label1"]), read_pgm(paths["label2"]))
    shape = pair.label1.shape
    if pair.label2.shape != shape or pair.image1.shape[1:] != shape or pair.image2.shape[1:] != shape:
        raise DataError(f"{stem}: raster dimensions disagree across the four files")
    if n_classes is not None:
        for name, lab in (("label1", paths["label1"]), ("label2", paths["label2"])):
            arr = getattr(pair, name)
            if arr.max(initial=0) > n_classes:
                raise DataError(f"{lab}: label {int(arr.max())} exceeds class count {n_classes}")
    if ((pair.label1 == 0) != (pair.label2 == 0)).any():
        warnings.warn(f"{stem}: label maps disagree on which pixels changed", stacklevel=2)
    return pair


def write_sample(root, pair):
    root = Path(root)
    for sub in SUBDIRS:
        (root / sub).mkdir(parents=True, exist_ok=True)
    write_ppm(root / "im1" / f"{pair.stem}.ppm", pair.image1)
    write_ppm(root / "im2" / f"{pair.stem}.ppm", pair.image2)
    write_pgm(root / "label1" / f"{pair.stem}.pgm", pair.label1)
    write_pgm(root / "label2" / f"{pair.stem}.pgm", pair.label2)


def write_prediction(root, stem, s1, s2):
    root = Path(root)
    for sub in ("label1", "label2"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    write_pgm(root / "label1" / f"{stem}.pgm", s1)
    write_pgm(root / "label2" / f"{stem}.pgm", s2)


def read_prediction(root, stem):
    root = Path(root)
    return read_pgm(root / "label1" / f"{stem}.pgm"), read_pgm(root / "label2" / f"{stem}.pgm")


def list_stems(root):
    """Sorted sample stems, taken from whichever labelled subdirectory exists."""
    root = Path(root)
    for sub in ("im1", "label1"):
        d = root / sub
        if d.is_dir():
            stems = sorted(p.stem for p in d.iterdir()
                           if p.suffix in (".ppm", ".pgm") and p.is_file())
            if stems:
                return stems
    raise DataError(f"{root}: no samples found (expected im1/ or label1/ with files)")


def load_dataset(root, n_classes=None):
    return [read_sample(root, stem, n_classes) for stem in list_stems(root)]


def image_to_tensor(image):
    """Scale a (3, h, w) uint8 image to a centered float tensor in [-0.5, 0.5]."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DimensionError(f"image_to_tensor: expected a (3, h, w) image, got shape {arr.shape}")
    return Tensor(arr.astype(np.float64) / 255.0 - 0.5)


def pair_tensors(pair):
    return image_to_tensor(pair.image1), image_to_tensor(pair.image2)


# ---------------------------------------------------------------------------
# augmentation

# index: 0 identity, 1 horizontal flip, 2 vertical flip, 3/4/5 rotations by
# 90/180/270 degrees.  Rotations other than 180 need square rasters.
AUGMENT_COUNT = 6


def _orient(arr, k):
    if k == 0:
        return arr.copy()
    if k == 1:
        return np.ascontiguousarray(np.flip(arr, axis=-1))
    if k == 2:
        return np.ascontiguousarray(np.flip(arr, axis=-2))
    return np.ascontiguousarray(np.rot90(arr, k - 2, axes=(-2, -1)))


def augment(pair, seed):
    """Apply one randomly chosen flip/rotation to all four rasters identically.

    `seed` may be an integer or a numpy Generator.  Non-square pairs only
    draw from the shape-preserving transforms (flips and the 180 rotation).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if pair.height == pair.width:
        k = int(rng.integers(AUGMENT_COUNT))
    else:
        k = int(rng.choice((0, 1, 2, 4)))
    return SamplePair(pair.stem,
                      _orient(pair.image1, k), _orient(pair.image2, k),
                      _orient(pair.label1, k), _orient(pair.label2, k))


# ---------------------------------------------------------------------------
# synthetic scenes

# up to 8 semantic classes, loosely "ground, tree, low vegetation, water,
# building, playground, soil, pavement"
PALETTE = np.array([
    [150, 110, 70],
    [35, 95, 45],
    [120, 185, 85],
    [45, 95, 185],
    [128, 128, 128],
    [200, 65, 60],
    [175, 140, 100],
    [210, 205, 195],
], dtype=np.float64)


def _region_mask(rng, h, w):
    kind = rng.integers(2)
    rh = int(rng.integers(max(3, h // 8), max(4, h // 3) + 1))
    rw = int(rng.integers(max(3, w // 8), max(4, w // 3) + 1))
    cy = int(rng.integers(h))
    cx = int(rng.integers(w))
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    if kind == 0:
        return (abs(ys - cy) <= rh // 2) & (abs(xs - cx) <= rw // 2)
    ry = max(rh / 2.0, 1.5)
    rx = max(rw / 2.0, 1.5)
    return ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0


def _render(class_map, rng):
    img = PALETTE[class_map - 1].transpose(2, 0, 1)
    img = img + rng.normal(0.0, 2.5)  # global illumination shift
    img = img + rng.normal(0.0, 9.0, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def make_pair(stem, seed, height, width, n_classes, change_fraction):
    """Build one synthetic pair: class regions over a ground plane, a subset
    of which switches class between the two dates."""
    if not 2 <= n_classes <= len(PALETTE):
        raise ConfigError(f"synthetic scenes support 2..{len(PALETTE)} classes, got {n_classes}")
    if not 0.0 < change_fraction < 1.0:
        raise ConfigError(f"changed fraction must lie in (0, 1), got {change_fraction}")
    if height < 1 or width < 1:
        raise ConfigError(f"synthetic pair size must be >= 1, got {height}x{width}")
    if np.min(seed) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    regions = []
    for _ in range(int(rng.integers(10, 16))):
        mask = _region_mask(rng, height, width)
        if mask.any():
            regions.append((mask, 1 + int(rng.integers(n_classes))))

    # paint scene one, then flip region classes until enough pixels changed
    before = np.ones((height, width), dtype=np.int64)
    for mask, cls in regions:
        before[mask] = cls
    after_classes = [cls for _, cls in regions]
    after = before.copy()
    target = round(change_fraction * height * width)
    for idx in rng.permutation(len(regions)):
        if int((after != before).sum()) >= target:
            break
        mask, cls = regions[idx]
        candidates = [c for c in range(1, n_classes + 1) if c != cls]
        after_classes[idx] = candidates[int(rng.integers(len(candidates)))]
        after = before.copy()
        for (m, _), c in zip(regions, after_classes):
            after[m] = c

    diff = before != after
    label1 = np.where(diff, before, 0).astype(np.uint8)
    label2 = np.where(diff, after, 0).astype(np.uint8)
    return SamplePair(stem, _render(before, rng), _render(after, rng), label1, label2)


def generate_synthetic(root, seed=0, count=20, height=32, width=32, n_classes=4,
                       change_fraction=0.2):
    """Write `count` deterministic synthetic pairs under `root`; returns stems."""
    if count < 1:
        raise ConfigError(f"pair count must be >= 1, got {count}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    root = Path(root)
    stems = []
    for i in range(count):
        pair = make_pair(f"{i:06d}", [int(seed), i], height, width, n_classes,
                         change_fraction)
        write_sample(root, pair)
        stems.append(pair.stem)
    return stems
