"""Family wiring: output contracts, masking, parameter and FLOP structure."""

import numpy as np
import pytest

from scdkit.blocks import EncoderConfig
from scdkit.errors import ConfigError, DimensionError
from scdkit.networks import (FAMILIES, Network, build, mask_disagreement,
                             mask_semantic, normalize_family)
from scdkit.tensor import Tensor

TINY = dict(num_classes=3, encoder=None, cd_width=4, cd_units=1, reduction=2)


def tiny_encoder():
    return EncoderConfig(3, (4, 4, 8), (2, 2, 2), (1, 0, 0))


def tiny(family, seed=0, **over):
    kwargs = dict(TINY, encoder=tiny_encoder(), seed=seed)
    kwargs.update(over)
    return build(family, **kwargs)


def random_images(seed, size=16):
    r = np.random.default_rng(seed)
    return (Tensor(r.uniform(-0.5, 0.5, size=(3, size, size))),
            Tensor(r.uniform(-0.5, 0.5, size=(3, size, size))))


def test_normalize_family():
    assert normalize_family(" Bi-SRNet ") == "bisrnet"
    assert normalize_family("bisr-net") == "bisrnet"
    assert normalize_family("SSCD-L") == "sscd-l"
    with pytest.raises(ConfigError):
        normalize_family("resnet34")


@pytest.mark.parametrize("family", FAMILIES)
def test_forward_output_contract(family):
    net = tiny(family)
    i1, i2 = random_images(0)
    out = net.forward(i1, i2)
    n = net.num_classes
    if family.startswith("dscd"):
        assert out.p1.shape == (n + 1, 16, 16)
        assert out.c is None
    else:
        assert out.p1.shape == (n, 16, 16)
        assert out.c.shape == (1, 16, 16)
    assert out.p2.shape == out.p1.shape
    for s in (out.s1, out.s2):
        assert s.shape == (16, 16)
        assert s.dtype == np.int64
        assert 0 <= s.min() and s.max() <= n


@pytest.mark.parametrize("family", ("sscd-e", "sscd-l", "bisrnet"))
def test_zero_sets_agree_by_construction(family):
    net = tiny(family)
    for seed in range(10):
        out = net.forward(*random_images(seed))
        np.testing.assert_array_equal(out.s1 == 0, out.s2 == 0)
        assert mask_disagreement(out.s1, out.s2) == 0.0


def test_mask_semantic_threshold():
    p1 = np.zeros((2, 1, 3))
    p1[1] = 1.0  # class index 1 wins everywhere
    p2 = np.zeros((2, 1, 3))
    c = np.array([[[-50.0, 0.0, 50.0]]])
    s1, s2 = mask_semantic(p1, p2, c, threshold=0.5)
    # sigmoid(-50) ~ 0 stays unchanged; sigmoid(0) = 0.5 meets the threshold
    np.testing.assert_array_equal(s1, [[0, 2, 2]])
    np.testing.assert_array_equal(s2, [[0, 1, 1]])


def test_mask_semantic_extreme_threshold():
    p = np.zeros((2, 2, 2))
    c = np.zeros((1, 2, 2))
    s1, _ = mask_semantic(p, p, c, threshold=0.0)
    assert (s1 != 0).all()
    s1, _ = mask_semantic(p, p, c, threshold=1.0)
    assert (s1 == 0).all()


def test_mask_disagreement_counts_status_flips():
    a = np.array([[0, 1], [2, 0]])
    b = np.array([[0, 0], [2, 3]])
    assert mask_disagreement(a, b) == 0.5
    assert mask_disagreement(a, a) == 0.0


def test_dscd_families_may_disagree():
    # nothing couples the two heads, so the zero sets are free to differ
    net = tiny("dscd-e")
    for s in range(5):
        out = net.forward(*random_images(s))
        assert 0.0 <= mask_disagreement(out.s1, out.s2) <= 1.0


LAYOUT = {
    "dscd-e": ["encoder", "head.s1", "head.s2"],
    "dscd-l": ["encoder", "cd", "head.s1", "head.s2"],
    "sscd-e": ["encoder", "change_encoder", "head.p1", "head.p2", "head.c"],
    "sscd-l": ["encoder", "cd", "head.p1", "head.p2", "head.c"],
    "bisrnet": ["encoder", "sr", "cotsr", "cd", "head.p1", "head.p2", "head.c"],
}


@pytest.mark.parametrize("family", FAMILIES)
def test_parameter_layout_per_family(family):
    # checkpoints store parameters by name in this order
    net = tiny(family)
    prefixes = []
    for name, _ in net.named_parameters():
        prefix = ".".join(name.split(".")[:2]) if name.startswith("head.") else name.split(".")[0]
        if not prefixes or prefixes[-1] != prefix:
            prefixes.append(prefix)
    assert prefixes == LAYOUT[family]
    n = net.num_classes
    widths = {key: head.weight.shape[0] for key, head in net.heads.items()}
    if family.startswith("dscd"):
        assert widths == {"s1": n + 1, "s2": n + 1}
    else:
        assert widths == {"p1": n, "p2": n, "c": 1}


def test_param_count_closed_form_sscd_l():
    net = tiny("sscd-l")
    encoder = (4 * 3 * 9 + 2 * 9 * 4 * 4) + 4 * 4 * 9 + 8 * 4 * 9
    cd = 4 * 16 + 2 * 9 * 4 * 4
    # p heads read the 8-channel features, the change head the 4-channel trunk
    heads = 2 * (3 * 8 + 3) + (1 * 4 + 1)
    assert net.count_params() == encoder + cd + heads


def test_param_diff_bisrnet_minus_sscd_l_is_attention():
    bi = tiny("bisrnet")
    ss = tiny("sscd-l")
    per_block = 2 * 4 * 8 + 8 * 8  # q + k at c/r, v at full width, c = 8
    assert bi.count_params() - ss.count_params() == 2 * per_block


def test_shared_components_bit_identical_across_families():
    bi = tiny("bisrnet", seed=7)
    ss = tiny("sscd-l", seed=7)
    b = dict(bi.named_parameters())
    s = dict(ss.named_parameters())
    for name, t in s.items():
        np.testing.assert_array_equal(b[name].data, t.data)


def test_bisrnet_forward_equals_sscd_l_at_init():
    # zero value projections make both attention blocks identities
    bi = tiny("bisrnet", seed=3)
    ss = tiny("sscd-l", seed=3)
    i1, i2 = random_images(3)
    a = bi.forward(i1, i2)
    b = ss.forward(i1, i2)
    np.testing.assert_array_equal(a.p1.data, b.p1.data)
    np.testing.assert_array_equal(a.p2.data, b.p2.data)
    np.testing.assert_array_equal(a.c.data, b.c.data)
    np.testing.assert_array_equal(a.s1, b.s1)


def test_flop_ordering_default_config():
    nets = {f: build(f, num_classes=3) for f in FAMILIES}
    flops = {f: n.estimate_flops(32, 32) for f, n in nets.items()}
    assert flops["dscd-e"] < flops["dscd-l"] <= flops["sscd-l"] < flops["sscd-e"]


def test_flops_closed_form_dscd_e():
    net = tiny("dscd-e")
    # 6-channel encoder once at 16x16 plus two (n+1)-class heads at 2x2
    enc = (9 * 6 * 4 * 8 * 8 + 2 * 9 * 4 * 4 * 8 * 8) + 9 * 4 * 4 * 4 * 4 + 9 * 4 * 8 * 2 * 2
    heads = 2 * (8 * 4 * 2 * 2)
    assert net.estimate_flops(16, 16) == 2 * (enc + heads)


def test_flops_count_sr_per_branch():
    bi = tiny("bisrnet")
    ss = tiny("sscd-l")
    # 8 channels, queries and keys reduced to 4, 2x2 positions at 1/8 of 16x16
    c, r, p = 8, 4, 2 * 2
    per_branch = (2 * r + c) * c * p + r * p * p + c * p * p
    # SiamSR runs once per image and CotSR once per branch: four branch passes
    assert bi.estimate_flops(16, 16) - ss.estimate_flops(16, 16) == 2 * (4 * per_branch)


def test_estimate_flops_does_not_call_forward(monkeypatch):
    # a tracer may call estimate_flops from inside a wrapped forward
    expected = tiny("bisrnet").estimate_flops(16, 16)

    def forward(self, i1, i2):
        raise AssertionError("estimate_flops went through the public forward")

    monkeypatch.setattr(Network, "forward", forward)
    # a fresh network: the first one keeps its count and would not count again
    assert tiny("bisrnet").estimate_flops(16, 16) == expected


def test_estimate_flops_rejects_indivisible():
    with pytest.raises(DimensionError):
        tiny("sscd-l").estimate_flops(20, 20)


def test_build_validation():
    with pytest.raises(ConfigError):
        build("bisrnet", num_classes=1)
    with pytest.raises(ConfigError):
        build("bisrnet", threshold=1.5)
    with pytest.raises(ConfigError):
        build("bisrnet", upsample="cubic")
    with pytest.raises(ConfigError):
        build("bisrnet", encoder=EncoderConfig(in_channels=4))


def test_forward_input_checks():
    net = tiny("sscd-l")
    i1, _ = random_images(0)
    with pytest.raises(DimensionError):
        net.forward(i1, Tensor(np.zeros((3, 24, 24))))
    with pytest.raises(DimensionError):
        net.forward(i1.data, i1.data)


def test_nearest_upsampling_gives_constant_blocks():
    net = tiny("sscd-l")
    out = net.forward(*random_images(1))
    block = out.p1.data[:, :8, :8]
    assert (block == block[:, :1, :1]).all()


def test_bilinear_upsampling_differs():
    near = tiny("bisrnet", upsample="nearest")
    bil = tiny("bisrnet", upsample="bilinear")
    i1, i2 = random_images(2)
    a = near.forward(i1, i2).p1.data
    b = bil.forward(i1, i2).p1.data
    assert np.abs(a - b).max() > 1e-9


def test_deterministic_build():
    a = tiny("bisrnet", seed=5)
    b = tiny("bisrnet", seed=5)
    for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
