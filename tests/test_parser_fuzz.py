"""Parsers meet arbitrary bytes: each may fail only with an HdkgError subclass.

Covers the text triple files, the dataset cache, the checkpoint and the config
file.  Inputs are arbitrary bytes, arbitrary bytes behind a valid prefix (a
magic and version, or the start of a config or triple line, to get past the
first check), and valid files with one byte changed, truncated or extended.
Each of the three triple split files gets its own draw.  Header counts that
exceed the file are caught before any read, so no example asks for more
memory than the file holds (the checkpoint's regenerated base matrix is
capped at MAX_BASE_CELLS).  A checkpoint whose bias or parameters hold a
NaN or an infinity must fail, as a format error.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import graph_from_triples
from hdkg.checkpoint import load_checkpoint, save_checkpoint
from hdkg.config import build_config
from hdkg.errors import CheckpointFormatError, HdkgError
from hdkg.kg import (CACHE_MAGIC, CACHE_VERSION, SPLIT_FILES, load_cache,
                     load_dataset, save_cache)
from hdkg.model import ModelState
from hdkg import checkpoint

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _variants(valid: bytes, prefix: bytes):
    """Arbitrary bytes, bytes behind ``prefix``, and edits of a valid file."""
    edited = st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
        lambda edit: valid[:edit[0]] + bytes([edit[1]]) + valid[edit[0] + 1:])
    return st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda tail: prefix + tail),
        edited,
        st.integers(0, len(valid)).map(lambda n: valid[:n]),
        st.binary(min_size=1, max_size=20).map(lambda tail: valid + tail),
    )


def _fails_cleanly(load, path, blob):
    path.write_bytes(blob)
    try:
        load(path)
    except HdkgError:
        pass


def _valid_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "graph.hdkg"
    save_cache(graph_from_triples([(0, 0, 1), (1, 1, 2), (2, 0, 0), (0, 1, 2)], 3, 2,
                                  n_valid=1, n_test=1), path)
    return path.read_bytes()


def _valid_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.hdck"
    save_checkpoint(path, ModelState.create(3, 2, d=2, D=8, seed=1), seed=1,
                    config_hash=bytes(32))
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid_blobs(tmp_path_factory):
    return _valid_cache(tmp_path_factory), _valid_checkpoint(tmp_path_factory)


@FUZZ
@given(data=st.data())
def test_load_cache(valid_blobs, tmp_path, data):
    blob = data.draw(_variants(valid_blobs[0],
                               CACHE_MAGIC + struct.pack("<I", CACHE_VERSION)))
    _fails_cleanly(load_cache, tmp_path / "fuzz.hdkg", blob)


@FUZZ
@given(data=st.data())
def test_load_checkpoint(valid_blobs, tmp_path, data):
    blob = data.draw(_variants(valid_blobs[1],
                               checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION)))
    _fails_cleanly(load_checkpoint, tmp_path / "fuzz.hdck", blob)


@FUZZ
@given(slot=st.integers(0, 10), bits=st.sampled_from([
    0x7FF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000,  # nan, inf, -inf
    0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]))                   # other NaN payloads
def test_load_checkpoint_rejects_non_finite_parameters(valid_blobs, tmp_path, slot, bits):
    # The bias and the (3 + 2) x 2 parameter cells are the file's last 11 f8 slots.
    blob = bytearray(valid_blobs[1])
    struct.pack_into("<Q", blob, len(blob) - 8 * (11 - slot), bits)
    path = tmp_path / "fuzz.hdck"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="non-finite value"):
        load_checkpoint(path)


VALID_CONFIG = b"d = 8\nD = 32\nmode = hardware\nlr = 0.5  # comment\nsweep_capacities = 4,8\n"


@FUZZ
@given(data=st.data())
def test_config_file(tmp_path, data):
    blob = data.draw(_variants(VALID_CONFIG, b"d = "))
    _fails_cleanly(lambda path: build_config(config_path=path), tmp_path / "fuzz.cfg", blob)


# Multi-byte UTF-8 names, so edits and truncations can split a character.
VALID_TRIPLES = "a\tr\t\u00e9\n\u00e9\ts\tb\nb\tr\ta\n".encode("utf-8")


@FUZZ
@given(data=st.data())
def test_load_dataset(tmp_path, data):
    for name in SPLIT_FILES:
        (tmp_path / name).write_bytes(data.draw(_variants(VALID_TRIPLES, b"a\tr\t")))
    try:
        load_dataset(tmp_path)
    except HdkgError:
        pass
