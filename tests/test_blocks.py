"""Block semantics: identities, parameter layout, cost model, checkpoints."""

import struct

import numpy as np
import pytest

from scdkit.blocks import (CDBlock, CotSR, Encoder, EncoderConfig,
                           PixelClassifier, ResidualUnit, SiamSR,
                           he_weights, load_checkpoint, restore_checkpoint,
                           save_checkpoint, zero_weights)
from scdkit.errors import ConfigError, DataError, DimensionError
from scdkit.tensor import Tensor, macs


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# residual unit


def test_residual_unit_zero_convs_is_relu():
    unit = ResidualUnit(3, rng())
    unit.conv1 = zero_weights(unit.conv1.shape)
    unit.conv2 = zero_weights(unit.conv2.shape)
    x = rng(1).normal(size=(3, 5, 5))
    out = unit(Tensor(x)).data
    np.testing.assert_array_equal(out, np.maximum(x, 0.0))


def test_residual_unit_param_count_and_macs():
    unit = ResidualUnit(4, rng())
    named = unit.named_params("u")
    assert [n for n, _ in named] == ["u.conv1", "u.conv2"]
    assert sum(t.size for _, t in named) == 2 * 9 * 4 * 4
    assert macs(unit(Tensor(np.zeros((4, 5, 7))))) == 2 * 9 * 4 * 4 * 5 * 7


def test_residual_unit_channel_check():
    unit = ResidualUnit(3, rng())
    with pytest.raises(DimensionError):
        unit(Tensor(np.zeros((4, 5, 5))))


def test_residual_unit_affine_params():
    unit = ResidualUnit(3, rng(), norm="affine")
    names = [n for n, _ in unit.named_params("u")]
    assert "u.affine1.gamma" in names and "u.affine2.beta" in names


# ---------------------------------------------------------------------------
# encoder


def test_encoder_config_rejects_wrong_stride_product():
    with pytest.raises(ConfigError):
        EncoderConfig(strides=(2, 2, 2, 2)).validate()
    with pytest.raises(ConfigError):
        EncoderConfig(strides=(2, 2)).validate()  # length mismatch
    with pytest.raises(ConfigError):
        EncoderConfig(norm="batch").validate()
    EncoderConfig().validate()


def test_encoder_output_at_eighth_resolution():
    enc = Encoder(EncoderConfig(3, (4, 5, 6), (2, 2, 2), (1, 0, 1)), rng())
    out = enc(Tensor(rng(2).normal(size=(3, 16, 24))))
    assert out.shape == (6, 2, 3)
    assert enc.out_channels == 6


def test_encoder_rejects_indivisible_input():
    enc = Encoder(EncoderConfig(3, (4, 4, 4), (2, 2, 2), (0, 0, 0)), rng())
    with pytest.raises(DimensionError):
        enc(Tensor(np.zeros((3, 12, 16))))


def test_encoder_macs_hand_computed():
    enc = Encoder(EncoderConfig(3, (4, 6), (4, 2), (0, 1)), rng())
    # input 8x8: stride-4 conv lands on (8+2-3)//4+1 = 2, so 2x2
    stage0 = 9 * 3 * 4 * 2 * 2
    # stride-2 conv on 2x2 lands on (2+2-3)//2+1 = 1, plus one unit there
    stage1 = 9 * 4 * 6 * 1 * 1 + 2 * 9 * 6 * 6 * 1 * 1
    assert macs(enc(Tensor(np.zeros((3, 8, 8))))) == stage0 + stage1


def test_encoder_named_params_layout():
    enc = Encoder(EncoderConfig(3, (4, 4), (4, 2), (1, 0)), rng())
    names = [n for n, _ in enc.named_params("enc")]
    assert names == ["enc.stage0.conv", "enc.stage0.unit0.conv1",
                     "enc.stage0.unit0.conv2", "enc.stage1.conv"]


# ---------------------------------------------------------------------------
# change trunk


def test_cd_block_shapes_and_symmetric_input():
    cd = CDBlock(4, 3, 2, rng())
    x = Tensor(rng(3).normal(size=(4, 6, 6)))
    out = cd(x, x)
    assert out.shape == (3, 6, 6)
    assert np.isfinite(out.data).all()


def test_cd_block_rejects_mismatched_branches():
    cd = CDBlock(4, 3, 0, rng())
    with pytest.raises(DimensionError):
        cd(Tensor(np.zeros((4, 6, 6))), Tensor(np.zeros((4, 5, 6))))


def test_cd_block_macs():
    cd = CDBlock(4, 3, 1, rng())
    x = Tensor(np.zeros((4, 2, 2)))
    assert macs(cd(x, x)) == 2 * 4 * 3 * 4 + 2 * 9 * 3 * 3 * 4


# ---------------------------------------------------------------------------
# attention


def test_attention_rows_sum_to_one():
    sr = SiamSR(4, 2, rng())
    x = Tensor(rng(4).normal(size=(4, 3, 3)))
    from scdkit.tensor import reshape
    att = sr.proj.attention(reshape(x, (4, 9))).data
    assert att.shape == (9, 9)
    np.testing.assert_allclose(att.sum(axis=1), np.ones(9), rtol=1e-13)
    assert (att >= 0).all()


def test_siam_sr_zero_value_is_identity():
    sr = SiamSR(6, 2, rng())
    x = rng(5).normal(size=(6, 4, 4))
    out = sr(Tensor(x)).data
    np.testing.assert_array_equal(out, x)  # bit-for-bit, value starts at zero


def test_siam_sr_nonzero_value_moves_output():
    sr = SiamSR(4, 2, rng())
    sr.proj.value.data = rng(6).normal(size=sr.proj.value.shape)
    x = rng(7).normal(size=(4, 3, 3))
    assert np.abs(sr(Tensor(x)).data - x).max() > 1e-6


def test_attention_reduction_must_divide():
    with pytest.raises(ConfigError):
        SiamSR(6, 4, rng())


def test_siam_sr_params_and_macs():
    sr = SiamSR(8, 2, rng())
    named = sr.named_params("sr")
    assert sum(t.size for _, t in named) == 2 * 4 * 8 + 8 * 8
    p = 5 * 5  # positions
    assert macs(sr(Tensor(np.zeros((8, 5, 5))))) == (2 * 4 + 8) * 8 * p + 4 * p * p + 8 * p * p


def test_cot_sr_zero_value_is_identity():
    cot = CotSR(4, 2, rng())
    x1 = rng(8).normal(size=(4, 3, 3))
    x2 = rng(9).normal(size=(4, 3, 3))
    y1, y2 = cot(Tensor(x1), Tensor(x2))
    np.testing.assert_array_equal(y1.data, x1)
    np.testing.assert_array_equal(y2.data, x2)


def test_cot_sr_shared_branches_swap_with_inputs():
    # with shared projections the block is symmetric: swapping the inputs
    # swaps the outputs exactly
    cot = CotSR(4, 2, rng(10), shared=True)
    cot.branch1.value.data = rng(11).normal(size=(4, 4))
    a = Tensor(rng(12).normal(size=(4, 3, 3)))
    b = Tensor(rng(13).normal(size=(4, 3, 3)))
    y1, y2 = cot(a, b)
    z1, z2 = cot(b, a)
    np.testing.assert_array_equal(y1.data, z2.data)
    np.testing.assert_array_equal(y2.data, z1.data)
    assert cot.branch2 is cot.branch1


def test_cot_sr_unshared_has_twice_the_params():
    shared = CotSR(4, 2, rng(14), shared=True)
    split = CotSR(4, 2, rng(14), shared=False)
    count = lambda c: sum(t.size for _, t in c.named_params("c"))
    assert count(split) == 2 * count(shared)
    assert split.branch2 is not split.branch1


def test_cot_sr_identical_inputs_identical_outputs_when_shared():
    cot = CotSR(4, 2, rng(15), shared=True)
    cot.branch1.value.data = rng(16).normal(size=(4, 4))
    x = Tensor(rng(17).normal(size=(4, 3, 3)))
    y1, y2 = cot(x, x)
    np.testing.assert_array_equal(y1.data, y2.data)


# ---------------------------------------------------------------------------
# classifier head


def test_pixel_classifier_identity_weights():
    head = PixelClassifier(3, 3, rng())
    head.weight.data = np.eye(3)
    head.bias.data = np.zeros(3)
    x = rng(18).normal(size=(3, 4, 4))
    np.testing.assert_array_equal(head(Tensor(x)).data, x)


def test_pixel_classifier_bias_shifts_channel():
    head = PixelClassifier(2, 2, rng())
    head.weight.data = np.zeros((2, 2))
    head.bias.data = np.array([1.5, -0.5])
    out = head(Tensor(np.zeros((2, 3, 3)))).data
    np.testing.assert_array_equal(out[0], np.full((3, 3), 1.5))
    np.testing.assert_array_equal(out[1], np.full((3, 3), -0.5))


def test_he_weights_scale():
    w = he_weights(rng(19), (2000,), fan_in=50)
    assert abs(w.data.std() - np.sqrt(2.0 / 50)) < 0.02
    assert w.requires_grad


# ---------------------------------------------------------------------------
# checkpoints


def make_params(seed=0):
    r = rng(seed)
    return [("a.w", Tensor(r.normal(size=(3, 4)), requires_grad=True)),
            ("a.b", Tensor(r.normal(size=4), requires_grad=True)),
            ("b.k", Tensor(r.normal(size=(2, 3, 3, 3)), requires_grad=True))]


def test_checkpoint_roundtrip_exact(tmp_path):
    path = tmp_path / "ck.bin"
    params = make_params()
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert [n for n, _ in loaded] == [n for n, _ in params]
    for (_, got), (_, t) in zip(loaded, params):
        np.testing.assert_array_equal(got, t.data)


def test_checkpoint_restore_into_fresh_tensors(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, make_params(seed=1))
    fresh = make_params(seed=2)
    restore_checkpoint(path, fresh)
    expect = make_params(seed=1)
    for (_, got), (_, t) in zip(fresh, expect):
        np.testing.assert_array_equal(got.data, t.data)


def test_checkpoint_save_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, make_params())
    save_checkpoint(p2, make_params())
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, make_params())
    whole = path.read_bytes()
    path.write_bytes(whole[:-5])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, make_params())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(path)


def checkpoint_bytes(name, shape):
    """One-entry checkpoint header (format of save_checkpoint) with no values."""
    head = b"SCDK" + struct.pack("<BI", 1, 1) + struct.pack("<H", len(name)) + name
    return head + struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)


def test_checkpoint_oversized_shape_is_data_error(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(checkpoint_bytes(b"w", (4_000_000_000,) * 3))
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_too_many_dimensions_is_data_error(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(checkpoint_bytes(b"w", (0,) * 70))  # no values to read
    with pytest.raises(DataError, match="unsupported shape"):
        load_checkpoint(path)


def test_checkpoint_name_not_utf8_is_data_error(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(checkpoint_bytes(b"\xff\xfe", (1,)) + bytes(8))
    with pytest.raises(DataError, match="UTF-8"):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, make_params())
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path)


def test_checkpoint_restore_missing_param(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, make_params()[:2])
    with pytest.raises(DataError, match="missing"):
        restore_checkpoint(path, make_params())


def test_checkpoint_restore_unknown_param(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, make_params())
    with pytest.raises(DataError, match="unknown"):
        restore_checkpoint(path, make_params()[:2])


def test_checkpoint_restore_shape_mismatch(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, [("a.w", Tensor(np.zeros((2, 2))))])
    with pytest.raises(DataError, match="shape"):
        restore_checkpoint(path, [("a.w", Tensor(np.zeros((3, 2))))])
