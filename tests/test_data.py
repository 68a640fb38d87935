"""Raster I/O round trips, augmentation identities, generator contracts."""

import numpy as np
import pytest

from scdkit.data import (AUGMENT_COUNT, SamplePair, _orient, augment, generate_synthetic,
                         image_to_tensor, list_stems, load_dataset, make_pair,
                         read_pgm, read_ppm, read_prediction, read_sample,
                         write_pgm, write_ppm, write_prediction, write_sample)
from scdkit.errors import ConfigError, DataError, DimensionError


# ---------------------------------------------------------------------------
# netpbm


def test_pgm_roundtrip(tmp_path):
    arr = np.random.default_rng(0).integers(0, 256, size=(5, 7)).astype(np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(path, arr)
    np.testing.assert_array_equal(read_pgm(path), arr)


def test_ppm_roundtrip(tmp_path):
    arr = np.random.default_rng(1).integers(0, 256, size=(3, 4, 6)).astype(np.uint8)
    path = tmp_path / "x.ppm"
    write_ppm(path, arr)
    np.testing.assert_array_equal(read_ppm(path), arr)


def test_readers_return_writable_c_contiguous_bytes(tmp_path):
    write_pgm(tmp_path / "x.pgm", np.arange(12).reshape(3, 4))
    write_ppm(tmp_path / "x.ppm", np.arange(36).reshape(3, 3, 4))
    for arr in (read_pgm(tmp_path / "x.pgm"), read_ppm(tmp_path / "x.ppm")):
        assert arr.dtype == np.uint8
        assert arr.flags.c_contiguous and arr.flags.writeable
        arr[0, 0] = 9  # callers may edit what they read


@pytest.mark.parametrize("reader", [read_pgm, read_ppm])
def test_missing_or_unreadable_file_is_data_error(tmp_path, reader):
    for path in (tmp_path / "absent.pnm", tmp_path):  # no file; a directory
        with pytest.raises(DataError, match="missing") as info:
            reader(path)
        assert str(path) in str(info.value)


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    raster = bytes(range(6))
    path.write_bytes(b"P5 # format\n# a comment line\n 3\t2 # dims\n255\n" + raster)
    arr = read_pgm(path)
    assert arr.shape == (2, 3)
    assert arr.tobytes() == raster


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(DataError, match="P5"):
        read_pgm(path)


def test_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n127\n" + bytes(4))
    with pytest.raises(DataError, match="maxval"):
        read_pgm(path)


def test_rejects_truncated_raster(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))  # needs 12
    with pytest.raises(DataError, match="truncated"):
        read_ppm(path)


@pytest.mark.parametrize("magic,reader", [(b"P5", read_pgm), (b"P6", read_ppm)])
def test_oversized_header_is_data_error(tmp_path, magic, reader):
    path = tmp_path / "huge.pnm"
    path.write_bytes(magic + b" 4000000000 4000000000 255\n" + bytes(4))
    with pytest.raises(DataError, match="truncated"):
        reader(path)


def test_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\ntwo 2\n255\n" + bytes(4))
    with pytest.raises(DataError, match="header"):
        read_pgm(path)
    path.write_bytes(b"P5\n2")
    with pytest.raises(DataError, match="end of file"):
        read_pgm(path)


def test_write_shape_validation(tmp_path):
    with pytest.raises(DimensionError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))
    with pytest.raises(DimensionError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 2, 2)))


@pytest.mark.parametrize("writer,arr", [
    (write_pgm, [[256, -1], [3, 300]]),  # stored as 0, 255, 3, 44 if cast
    (write_pgm, np.array([[0, 1], [2, 256]])),
    (write_pgm, np.array([[0.0, np.nan]])),
    (write_ppm, np.full((3, 2, 2), -1)),
    (write_ppm, np.full((3, 2, 2), 256)),
])
def test_write_rejects_values_outside_a_byte(tmp_path, writer, arr):
    path = tmp_path / "x.pnm"
    with pytest.raises(DataError, match="0..255"):
        writer(path, arr)
    assert not path.exists()


@pytest.mark.parametrize("writer,arr", [
    (write_pgm, [[1.5, 2]]),  # stored as 1 and 2 if cast
    (write_pgm, np.zeros((2, 2))),  # integral values, still a float map
    (write_ppm, np.full((3, 2, 2), 7.9, dtype=np.float32)),
])
def test_write_rejects_non_integer_dtypes(tmp_path, writer, arr):
    path = tmp_path / "x.pnm"
    with pytest.raises(DataError, match="integers"):
        writer(path, arr)
    assert not path.exists()


def test_write_accepts_bool_maps(tmp_path):
    path = tmp_path / "x.pgm"
    write_pgm(path, np.array([[True, False]]))
    np.testing.assert_array_equal(read_pgm(path), [[1, 0]])


# ---------------------------------------------------------------------------
# sample pairs


def sample(stem="s0", h=8, w=8, cls=2):
    label = np.zeros((h, w), dtype=np.uint8)
    label[1:3, 1:3] = cls
    label2 = label.copy()
    label2[label > 0] = 1
    img = np.full((3, h, w), 100, dtype=np.uint8)
    return SamplePair(stem, img, img.copy(), label, label2)


def test_write_read_sample_roundtrip(tmp_path):
    pair = sample()
    write_sample(tmp_path, pair)
    back = read_sample(tmp_path, "s0", n_classes=2)
    np.testing.assert_array_equal(back.image1, pair.image1)
    np.testing.assert_array_equal(back.label2, pair.label2)
    assert back.change_map.sum() == 4


def test_read_sample_missing_file(tmp_path):
    write_sample(tmp_path, sample())
    (tmp_path / "im2" / "s0.ppm").unlink()
    with pytest.raises(DataError, match="missing"):
        read_sample(tmp_path, "s0")


def test_read_sample_label_above_class_count(tmp_path):
    write_sample(tmp_path, sample(cls=5))
    with pytest.raises(DataError, match="exceeds"):
        read_sample(tmp_path, "s0", n_classes=2)
    read_sample(tmp_path, "s0", n_classes=5)  # fine with enough classes


def test_zero_set_mismatch_warns_but_loads(tmp_path):
    pair = sample()
    pair.label2[0, 0] = 1  # changed in label2 only
    write_sample(tmp_path, pair)
    with pytest.warns(UserWarning, match="disagree"):
        back = read_sample(tmp_path, "s0")
    assert back.label2[0, 0] == 1


def test_dimension_disagreement_rejected(tmp_path):
    pair = sample()
    write_sample(tmp_path, pair)
    write_pgm(tmp_path / "label2" / "s0.pgm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(DataError, match="dimensions"):
        read_sample(tmp_path, "s0")


def test_list_stems_sorted(tmp_path):
    for stem in ("b", "a", "c"):
        write_sample(tmp_path, sample(stem=stem))
    assert list_stems(tmp_path) == ["a", "b", "c"]
    with pytest.raises(DataError):
        list_stems(tmp_path / "nowhere")


def test_predictions_roundtrip(tmp_path):
    s1 = np.array([[0, 1], [2, 0]], dtype=np.uint8)
    s2 = np.array([[0, 2], [1, 0]], dtype=np.uint8)
    write_prediction(tmp_path, "p", s1, s2)
    r1, r2 = read_prediction(tmp_path, "p")
    np.testing.assert_array_equal(r1, s1)
    np.testing.assert_array_equal(r2, s2)


def test_image_to_tensor_range():
    t = image_to_tensor(np.array([[[0]], [[128]], [[255]]], dtype=np.uint8))
    assert t.data.dtype == np.float64
    assert t.data[0, 0, 0] == -0.5
    assert t.data[2, 0, 0] == 0.5
    with pytest.raises(DimensionError):
        image_to_tensor(np.zeros((8, 8)))


# ---------------------------------------------------------------------------
# augmentation


def marker_pair(h=6, w=6):
    """A pair with one distinct hot pixel per raster, for tracking transforms."""
    im1 = np.zeros((3, h, w), dtype=np.uint8)
    im2 = np.zeros((3, h, w), dtype=np.uint8)
    l1 = np.zeros((h, w), dtype=np.uint8)
    l2 = np.zeros((h, w), dtype=np.uint8)
    im1[0, 0, 1] = 201
    im2[1, 0, 1] = 202
    l1[0, 1] = 1
    l2[0, 1] = 2
    return SamplePair("m", im1, im2, l1, l2)


def test_augment_moves_all_rasters_identically():
    for k in range(100):  # enough draws to hit every transform
        aug = augment(marker_pair(), k)
        pos_im1 = np.argwhere(aug.image1[0] == 201)
        pos_l1 = np.argwhere(aug.label1 == 1)
        pos_l2 = np.argwhere(aug.label2 == 2)
        np.testing.assert_array_equal(pos_im1, pos_l1)
        np.testing.assert_array_equal(pos_l1, pos_l2)
        assert np.argwhere(aug.image2[1] == 202).tolist() == pos_l1.tolist()


def test_augment_square_reaches_all_orientations():
    seen = set()
    base = marker_pair()
    for k in range(200):
        aug = augment(base, k)
        seen.add(tuple(np.argwhere(aug.label1 == 1)[0]))
    assert len(seen) >= 4  # corner marker has 4 distinct images under the group
    assert len(seen) == len({tuple(map(int, s)) for s in seen})


def test_augment_nonsquare_preserves_shape():
    base = marker_pair(h=4, w=6)
    for k in range(50):
        aug = augment(base, k)
        assert aug.label1.shape == (4, 6)
        assert aug.image1.shape == (3, 4, 6)


def test_augment_deterministic_per_seed():
    a = augment(marker_pair(), 11)
    b = augment(marker_pair(), 11)
    np.testing.assert_array_equal(a.image1, b.image1)
    np.testing.assert_array_equal(a.label2, b.label2)


def test_augment_does_not_mutate_input():
    base = marker_pair()
    before = base.label1.copy()
    augment(base, 3)
    np.testing.assert_array_equal(base.label1, before)


def test_augment_count_is_six():
    assert AUGMENT_COUNT == 6


def position_pair(h, w):
    """A pair whose four rasters each encode every pixel's position in their
    own way; at most 64 pixels, so every code fits a byte."""
    pos = np.arange(h * w, dtype=np.uint8).reshape(h, w)
    return SamplePair("p", np.stack([pos, pos + 64, pos + 128]),
                      np.stack([255 - pos, 191 - pos, 127 - pos]), pos.copy(), 63 - pos)


def positions(pair):
    """The source position of every pixel, read from all four rasters; each
    read must agree, or the rasters did not move together."""
    im1, im2 = pair.image1.astype(np.int64), pair.image2.astype(np.int64)
    reads = [pair.label1.astype(np.int64), 63 - pair.label2.astype(np.int64),
             im1[0], im1[1] - 64, im1[2] - 128, 255 - im2[0], 191 - im2[1], 127 - im2[2]]
    for read in reads[1:]:
        np.testing.assert_array_equal(read, reads[0])
    return reads[0].tobytes()


def symmetries(h, w):
    """Position maps of the symmetries of an h*w raster, from index
    arithmetic alone: the four of a rectangle (flips of either axis), and
    for a square also the four that swap the axes."""
    i, j = np.indices((h, w))
    maps = set()
    for a, b in ((i, j), (j, i)) if h == w else ((i, j),):
        for r in (a, h - 1 - a):
            for c in (b, w - 1 - b):
                maps.add((r * w + c).tobytes())
    return maps


def orient(pair, k):
    return SamplePair(pair.stem, *(_orient(r, k) for r in
                                   (pair.image1, pair.image2, pair.label1, pair.label2)))


def raster_shapes(st):
    side = st.integers(1, 8)
    return st.one_of(side.map(lambda n: (n, n)),
                     st.tuples(side, side).filter(lambda hw: hw[0] != hw[1]))


def test_augment_orientations_obey_the_dihedral_laws():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.given(raster_shapes(hypothesis.strategies))
    def check(shape):
        h, w = shape
        base = position_pair(h, w)
        ks = range(AUGMENT_COUNT) if h == w else (0, 1, 2, 4)  # what augment draws from
        at = {k: positions(orient(base, k)) for k in ks}
        identity = positions(base)
        # identity: orientation 0 is a copy that moves nothing, on either side
        assert at[0] == identity
        assert orient(base, 0).label1 is not base.label1
        for k in ks:
            assert positions(orient(orient(base, 0), k)) == at[k]
            assert positions(orient(orient(base, k), 0)) == at[k]
        # closure: two orientations compose to a symmetry of the raster, and
        # they reach every one (a square's axis swaps too); the shape-preserving
        # four of an oblong raster compose among themselves
        composed = {positions(orient(orient(base, a), b)) for a in ks for b in ks}
        assert set(at.values()) <= symmetries(h, w)
        assert composed == symmetries(h, w)
        if h != w:
            assert composed == set(at.values())
        # inverses: flips and the half turn undo themselves, quarter turns each other
        for k in ks:
            assert positions(orient(orient(base, k), {3: 5, 5: 3}.get(k, k))) == identity
        # rotations: four quarter turns are the identity, two a half turn
        if h == w:
            turned = [base]
            for _ in range(4):
                turned.append(orient(turned[-1], 3))
            assert [positions(t) for t in turned] == [identity, at[3], at[4], at[5], identity]

    check()


def test_augment_moves_all_four_rasters_by_one_symmetry():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seeds = st.integers(0, 2**32 - 1)

    @hypothesis.given(raster_shapes(st), seeds, seeds)
    def check(shape, s1, s2):
        h, w = shape
        base = position_pair(h, w)
        once = augment(base, s1)
        twice = augment(once, s2)
        ks = range(AUGMENT_COUNT) if h == w else (0, 1, 2, 4)
        assert positions(once) in {positions(orient(base, k)) for k in ks}
        assert positions(twice) in symmetries(h, w)

    check()


# ---------------------------------------------------------------------------
# synthetic generator


def test_make_pair_contracts():
    pair = make_pair("t", 0, 32, 32, 4, 0.2)
    assert pair.image1.shape == (3, 32, 32)
    assert pair.label1.shape == (32, 32)
    assert pair.label1.max() <= 4 and pair.label2.max() <= 4
    # labels mark the same pixels on both dates, with the before/after class
    np.testing.assert_array_equal(pair.label1 == 0, pair.label2 == 0)
    changed = pair.label1 != 0
    assert (pair.label1[changed] != pair.label2[changed]).all()


def test_make_pair_deterministic():
    a = make_pair("t", 5, 16, 16, 3, 0.2)
    b = make_pair("t", 5, 16, 16, 3, 0.2)
    np.testing.assert_array_equal(a.image1, b.image1)
    np.testing.assert_array_equal(a.label1, b.label1)


def test_make_pair_changed_fraction_tracks_target():
    fractions = [
        (make_pair("t", [9, i], 32, 32, 4, 0.2).label1 != 0).mean()
        for i in range(40)
    ]
    mean = float(np.mean(fractions))
    assert 0.15 <= mean <= 0.35
    assert all(f > 0 for f in fractions)


def test_make_pair_argument_validation():
    with pytest.raises(ConfigError):
        make_pair("t", 0, 16, 16, 1, 0.2)
    with pytest.raises(ConfigError):
        make_pair("t", 0, 16, 16, 9, 0.2)
    with pytest.raises(ConfigError):
        make_pair("t", 0, 16, 16, 4, 0.0)


def test_generate_synthetic_writes_loadable_dataset(tmp_path):
    stems = generate_synthetic(tmp_path, seed=1, count=4, height=16, width=16,
                               n_classes=3)
    assert stems == ["000000", "000001", "000002", "000003"]
    samples = load_dataset(tmp_path, n_classes=3)
    assert len(samples) == 4
    for s in samples:
        assert s.label1.shape == (16, 16)
        assert (s.label1 != 0).any()


def test_generate_synthetic_deterministic(tmp_path):
    generate_synthetic(tmp_path / "a", seed=2, count=2, height=16, width=16)
    generate_synthetic(tmp_path / "b", seed=2, count=2, height=16, width=16)
    for sub in ("im1", "im2", "label1", "label2"):
        for stem in ("000000", "000001"):
            suffix = "ppm" if sub.startswith("im") else "pgm"
            fa = (tmp_path / "a" / sub / f"{stem}.{suffix}").read_bytes()
            fb = (tmp_path / "b" / sub / f"{stem}.{suffix}").read_bytes()
            assert fa == fb


def test_generate_synthetic_seeds_differ(tmp_path):
    generate_synthetic(tmp_path / "a", seed=3, count=1, height=16, width=16)
    generate_synthetic(tmp_path / "b", seed=4, count=1, height=16, width=16)
    fa = (tmp_path / "a" / "im1" / "000000.ppm").read_bytes()
    fb = (tmp_path / "b" / "im1" / "000000.ppm").read_bytes()
    assert fa != fb
