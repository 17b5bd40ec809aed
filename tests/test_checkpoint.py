"""Checkpoint format: roundtrips, flags, and corruption handling."""

import hashlib
import struct

import numpy as np
import pytest

from conftest import make_graph
from hdkg.checkpoint import load_checkpoint, save_checkpoint
from hdkg.errors import CheckpointFormatError
from hdkg.model import ModelState


def some_state(seed=9, **kwargs):
    return ModelState.create(11, 3, d=4, D=16, seed=seed, **kwargs)


DIGEST = hashlib.sha256(b"run identity").digest()
FLAGS_OFFSET = 40   # the u32 flags word follows magic, version, d, D and three u64s


def flags_word(path) -> int:
    return struct.unpack_from("<I", path.read_bytes(), FLAGS_OFFSET)[0]


def set_flag_bits(path, *bits) -> None:
    blob = bytearray(path.read_bytes())
    word = struct.unpack_from("<I", blob, FLAGS_OFFSET)[0]
    for bit in bits:
        word |= 1 << bit
    struct.pack_into("<I", blob, FLAGS_OFFSET, word)
    path.write_bytes(bytes(blob))


class TestRoundtrip:
    def test_parameters_survive_exactly(self, tmp_path):
        state = some_state()
        state.bias = -1.25
        path = tmp_path / "model.hdck"
        save_checkpoint(path, state, seed=9, config_hash=DIGEST)
        back, meta = load_checkpoint(path)
        np.testing.assert_array_equal(back.e_v, state.e_v)
        np.testing.assert_array_equal(back.e_r, state.e_r)
        assert back.bias == -1.25
        assert meta["seed"] == 9
        assert meta["config_hash"] == DIGEST.hex()
        assert meta["prng"] == "np-pcg64"

    def test_base_matrix_rebuilt_from_seed(self, tmp_path):
        state = some_state(seed=21)
        path = tmp_path / "model.hdck"
        save_checkpoint(path, state, seed=21, config_hash=DIGEST)
        back, _ = load_checkpoint(path)
        np.testing.assert_array_equal(back.base.data, state.base.data)

    def test_loaded_state_scores_identically(self, tmp_path):
        from hdkg.kg import tail_index
        from hdkg.ranking import ScoringView, rank_queries
        kg = make_graph(11, 3, 33, seed=9)
        state = some_state().refresh(kg)
        path = tmp_path / "model.hdck"
        save_checkpoint(path, state, seed=9, config_hash=DIGEST)
        back, _ = load_checkpoint(path)
        back.refresh(kg)
        index = tail_index(kg.train)
        a = rank_queries(ScoringView.from_state(state), kg.train, index)
        b = rank_queries(ScoringView.from_state(back), kg.train, index)
        np.testing.assert_array_equal(a, b)

    def test_byte_identical_rewrites(self, tmp_path):
        state = some_state()
        p1, p2 = tmp_path / "a.hdck", tmp_path / "b.hdck"
        save_checkpoint(p1, state, seed=9, config_hash=DIGEST)
        save_checkpoint(p2, state, seed=9, config_hash=DIGEST)
        assert p1.read_bytes() == p2.read_bytes()


class TestFlags:
    def test_training_metadata_roundtrip(self, tmp_path):
        path = tmp_path / "model.hdck"
        save_checkpoint(path, some_state(), seed=1, config_hash=DIGEST,
                        mode="hardware", lr=0.5, momentum=0.9,
                        label_smoothing=0.0, bias_trainable=False,
                        adaptive=True)
        assert flags_word(path) == 0b11001   # bits 0, 3 and 4; never bits 1 or 2
        _, meta = load_checkpoint(path)
        assert meta["optimizer"] == "sgd"
        assert meta["mode"] == "hardware"
        assert meta["lr"] == 0.5
        assert meta["momentum"] == 0.9
        assert meta["label_smoothing"] == 0.0
        assert meta["bias_trainable"] is False
        assert meta["adaptive"] is True

    def test_defaults_roundtrip(self, tmp_path):
        path = tmp_path / "model.hdck"
        save_checkpoint(path, some_state(), seed=1, config_hash=DIGEST)
        assert flags_word(path) == 0
        _, meta = load_checkpoint(path)
        assert meta["mode"] == "reference"
        assert meta["bias_trainable"] is True and meta["adaptive"] is False

    def test_retired_sign_bit_rejected(self, tmp_path):
        path = tmp_path / "model.hdck"
        save_checkpoint(path, some_state(), seed=1, config_hash=DIGEST)
        set_flag_bits(path, 1)
        with pytest.raises(CheckpointFormatError, match="flag bit 1 .* no longer supports"):
            load_checkpoint(path)

    def test_retired_linear_encoder_bit_rejected(self, tmp_path):
        path = tmp_path / "model.hdck"
        save_checkpoint(path, some_state(), seed=1, config_hash=DIGEST)
        set_flag_bits(path, 2)
        with pytest.raises(CheckpointFormatError,
                           match="flag bit 2 .* without tanh.* no longer supports"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bits, named", [((9,), "bits 9$"), ((6, 31), "bits 6, 31$")])
    def test_unknown_flag_bits_rejected(self, tmp_path, bits, named):
        path = tmp_path / "model.hdck"
        save_checkpoint(path, some_state(), seed=1, config_hash=DIGEST,
                        mode="hardware")
        set_flag_bits(path, *bits)
        with pytest.raises(CheckpointFormatError, match=f"unknown flag {named}"):
            load_checkpoint(path)

    def test_float32_parameters(self, tmp_path):
        state = some_state(dtype=np.float32)
        path = tmp_path / "model.hdck"
        save_checkpoint(path, state, seed=1, config_hash=DIGEST)
        back, _ = load_checkpoint(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back.e_v, state.e_v)


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointFormatError, match="not found"):
            load_checkpoint(tmp_path / "absent.hdck")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.hdck"
        path.write_bytes(b"WHAT" + b"\0" * 200)
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.hdck"
        path.write_bytes(b"HDCK\x01")
        with pytest.raises(CheckpointFormatError, match="truncated header"):
            load_checkpoint(path)

    def test_truncated_parameters(self, tmp_path):
        state = some_state()
        path = tmp_path / "model.hdck"
        save_checkpoint(path, state, seed=9, config_hash=DIGEST)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 17])
        with pytest.raises(CheckpointFormatError, match="truncated parameter"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        state = some_state()
        path = tmp_path / "model.hdck"
        save_checkpoint(path, state, seed=9, config_hash=DIGEST)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # version field follows the 4-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset, fmt, value, message", [
        (16, "<Q", 2 ** 62, "truncated parameter"),   # n_entities overflows a read
        (24, "<Q", 2 ** 40, "truncated parameter"),   # n_relations exceeds the file
        (8, "<I", 0, "base matrix"),                  # d = 0
        (12, "<I", 2 ** 31, "base matrix"),           # D past MAX_BASE_CELLS
        (72, "<4s", b"\xff\xfe\xfd\xfc", "ascii"),    # generator tag
    ])
    def test_corrupt_header_field(self, tmp_path, offset, fmt, value, message):
        path = tmp_path / "model.hdck"
        save_checkpoint(path, some_state(), seed=9, config_hash=DIGEST)
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match=message):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.hdck"
        save_checkpoint(path, some_state(), seed=9, config_hash=DIGEST)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CheckpointFormatError, match="trailing bytes"):
            load_checkpoint(path)

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "model.hdck"
        save_checkpoint(path, some_state(), seed=9, config_hash=DIGEST)
        before = path.read_bytes()
        broken = some_state(seed=3)
        broken.e_r = np.array([["not a number"]], dtype=object)  # fails after the header
        with pytest.raises(ValueError):
            save_checkpoint(path, broken, seed=3, config_hash=DIGEST)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.hdck"]

    def test_short_digest_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="32 bytes"):
            save_checkpoint(tmp_path / "x.hdck", some_state(), seed=0,
                            config_hash=b"short")
