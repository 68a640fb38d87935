"""Property tests for the file parsers: damaged input raises only scdkit errors.

Each valid file (PGM, PPM, checkpoint, config) is truncated at a random
length or has one random byte flipped.  The parser must then either return a
result or raise the error type of its module, which the CLI maps to exit
code 1; any other exception fails the test.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from scdkit.blocks import load_checkpoint, save_checkpoint  # noqa: E402
from scdkit.config import parse_config  # noqa: E402
from scdkit.data import read_pgm, read_ppm, write_pgm, write_ppm  # noqa: E402
from scdkit.errors import ConfigError, DataError  # noqa: E402
from scdkit.tensor import Tensor  # noqa: E402

CONFIG = b"""# a run
family = bisrnet
classes = 3
encoder.channels = 4, 4 8
cotsr.shared = yes
train.lr = 0.05
"""


def damaged(valid):
    """Truncations and single-byte flips of `valid`."""
    n = len(valid)
    cut = st.integers(0, n - 1).map(lambda i: valid[:i])
    flip = st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(
        lambda t: valid[:t[0]] + bytes([valid[t[0]] ^ t[1]]) + valid[t[0] + 1:])
    return st.one_of(cut, flip)


def valid_bytes(directory, name, write):
    path = directory / name
    write(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers")


@pytest.fixture(scope="module")
def files(workdir):
    rng = np.random.default_rng(0)
    pgm = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
    ppm = rng.integers(0, 256, size=(3, 4, 6)).astype(np.uint8)
    params = [("a.w", Tensor(rng.normal(size=(3, 4)))), ("a.b", Tensor(np.zeros(4))),
              ("b.k", Tensor(rng.normal(size=(2, 3, 3, 3))))]
    return {
        "pgm": valid_bytes(workdir, "v.pgm", lambda p: write_pgm(p, pgm)),
        "ppm": valid_bytes(workdir, "v.ppm", lambda p: write_ppm(p, ppm)),
        "ckpt": valid_bytes(workdir, "v.ckpt", lambda p: save_checkpoint(p, params)),
        "cfg": CONFIG,
    }


CASES = [("pgm", read_pgm, DataError), ("ppm", read_ppm, DataError),
         ("ckpt", load_checkpoint, DataError), ("cfg", parse_config, ConfigError)]


@pytest.mark.parametrize("kind,parse,error", CASES, ids=[c[0] for c in CASES])
def test_valid_file_parses(files, workdir, kind, parse, error):
    path = workdir / f"ok.{kind}"
    path.write_bytes(files[kind])
    parse(path)


@pytest.mark.parametrize("kind,parse,error", CASES, ids=[c[0] for c in CASES])
def test_damaged_file_parses_or_raises_its_error(files, workdir, kind, parse, error):
    path = workdir / f"damaged.{kind}"

    @given(damaged(files[kind]))
    def check(raw):
        path.write_bytes(raw)
        try:
            parse(path)
        except error:
            pass

    check()
