"""Tensor container format tests: header layout, round trips, validation."""

import math
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from msconv import msct

# file names a manifest or labels.txt may not use: each leaves the directory
# of the list naming it, or names no file
NOT_PLAIN_NAMES = ("../outside.msct", "sub/w.msct", "/abs/w.msct", "..", ".")


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestEncodeDecode:
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4), (2, 3, 4, 5)])
    def test_round_trip_ranks(self, shape):
        x = rand(shape, seed=len(shape)).astype(np.float32)
        got = msct.tensor_from_bytes(msct.tensor_bytes(x))
        assert got.shape == shape
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, x)

    def test_float64_input_rounds_to_float32(self):
        x = np.array([1.0 + 1e-12])
        got = msct.tensor_from_bytes(msct.tensor_bytes(x))
        np.testing.assert_array_equal(got, x.astype(np.float32))

    def test_scalar_stored_as_rank_one(self):
        got = msct.tensor_from_bytes(msct.tensor_bytes(np.float64(3.5)))
        assert got.shape == (1,)
        assert got[0] == np.float32(3.5)

    def test_header_layout(self):
        """magic, little-endian u32 rank, u32 dims, then float32 payload."""
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        raw = msct.tensor_bytes(x)
        assert raw[:4] == b"MSCT"
        rank, d0, d1 = struct.unpack("<III", raw[4:16])
        assert (rank, d0, d1) == (2, 2, 3)
        payload = np.frombuffer(raw[16:], dtype="<f4").reshape(2, 3)
        np.testing.assert_array_equal(payload, x)
        assert len(raw) == 16 + 6 * 4

    def test_row_major_payload_order(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        raw = msct.tensor_bytes(x)
        vals = struct.unpack("<4f", raw[8 + 8:])
        assert vals == (1.0, 2.0, 3.0, 4.0)

    def test_deterministic_bytes(self):
        x = rand((3, 3), seed=7)
        assert msct.tensor_bytes(x) == msct.tensor_bytes(x.copy())

    def test_non_contiguous_input(self):
        x = rand((4, 6), seed=8)[::2, ::3]
        got = msct.tensor_from_bytes(msct.tensor_bytes(x))
        np.testing.assert_array_equal(got, x.astype(np.float32))


class TestValidation:
    def test_bad_magic(self):
        raw = b"XSCT" + msct.tensor_bytes(np.ones(2))[4:]
        with pytest.raises(msct.FormatError):
            msct.tensor_from_bytes(raw)

    def test_truncated_header(self):
        with pytest.raises(msct.FormatError):
            msct.tensor_from_bytes(b"MSCT\x01")

    def test_truncated_dimension_list(self):
        raw = b"MSCT" + struct.pack("<I", 3) + struct.pack("<I", 2)
        with pytest.raises(msct.FormatError):
            msct.tensor_from_bytes(raw)

    def test_truncated_payload(self):
        raw = msct.tensor_bytes(np.ones(4))
        with pytest.raises(msct.FormatError):
            msct.tensor_from_bytes(raw[:-4])

    def test_trailing_garbage(self):
        raw = msct.tensor_bytes(np.ones(4)) + b"\x00"
        with pytest.raises(msct.FormatError):
            msct.tensor_from_bytes(raw)

    def test_header_payload_length_mismatch(self):
        raw = b"MSCT" + struct.pack("<I", 0)
        with pytest.raises(msct.FormatError):
            msct.tensor_from_bytes(raw)

    @pytest.mark.parametrize("dims", [(0, 2**32 - 1, 2**32 - 1),
                                      (2**32 - 1, 2**32 - 1, 0),
                                      (0, 2**31, 2**30)])
    def test_empty_shape_too_large_to_address(self, dims):
        """A zero dimension empties the payload, but numpy still refuses a
        shape whose other dimensions overflow an index."""
        raw = b"MSCT" + struct.pack("<I", 3) + struct.pack("<3I", *dims)
        with pytest.raises(msct.FormatError, match=re.escape(str(dims))):
            msct.tensor_from_bytes(raw)

    def test_empty_shape_within_addressable_size(self):
        raw = b"MSCT" + struct.pack("<I", 3) + struct.pack("<3I", 0, 2**30, 2**30)
        assert msct.tensor_from_bytes(raw).shape == (0, 2**30, 2**30)

    @pytest.mark.parametrize("rank", [65, 200])
    def test_rank_past_numpy_rejected(self, rank):
        """A header of more dimensions than numpy holds is a FormatError,
        not numpy's ValueError."""
        raw = (b"MSCT" + struct.pack("<I", rank)
               + struct.pack(f"<{rank}I", *[1] * rank) + b"\x00" * 4)
        with pytest.raises(msct.FormatError, match=f"rank {rank} "):
            msct.tensor_from_bytes(raw)

    def test_rank_numpy_holds_accepted(self):
        raw = (b"MSCT" + struct.pack("<I", 32) + struct.pack("<32I", *[1] * 32)
               + b"\x00" * 4)
        assert msct.tensor_from_bytes(raw).shape == (1,) * 32

    def test_non_finite_roundtrips(self):
        """Serialization is storage, not policy: inf and nan survive."""
        x = np.array([np.inf, -np.inf, np.nan], dtype=np.float32)
        got = msct.tensor_from_bytes(msct.tensor_bytes(x))
        assert np.isposinf(got[0]) and np.isneginf(got[1]) and np.isnan(got[2])


class TestFiles:
    def test_write_read_file(self, tmp_path):
        x = rand((2, 3, 4), seed=1)
        p = tmp_path / "t.msct"
        msct.write_tensor(p, x)
        np.testing.assert_array_equal(msct.read_tensor(p),
                                      x.astype(np.float32))

    def test_read_error_names_the_file(self, tmp_path):
        p = tmp_path / "t.msct"
        p.write_bytes(msct.tensor_bytes(np.ones((2, 3)))[:-4])
        with pytest.raises(msct.FormatError, match=re.escape(
                f"{p}: payload length 36 != expected 40")):
            msct.read_tensor(p)

    def test_save_load_named_set(self, tmp_path):
        tensors = {"stem/w": rand((3, 3, 2, 4), 2), "fc.b": rand((5,), 3)}
        msct.save_tensors(tmp_path, tensors)
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "stem/w=stem_w.msct" in manifest
        got = msct.load_tensors(tmp_path)
        assert set(got) == set(tensors)
        for name, x in tensors.items():
            np.testing.assert_array_equal(got[name], x.astype(np.float32))

    def test_separators_sanitized_in_filenames(self, tmp_path):
        msct.save_tensors(tmp_path, {"a/b.c": np.ones(1)})
        files = {p.name for p in tmp_path.iterdir()}
        assert "a_b_c.msct" in files

    def test_manifest_round_trip(self, tmp_path):
        entries = {"x": "x.msct", "y/z": "y_z.msct"}
        p = tmp_path / "manifest.txt"
        msct.write_manifest(p, entries)
        assert msct.read_manifest(p) == entries

    def test_manifest_bad_line(self, tmp_path):
        p = tmp_path / "manifest.txt"
        p.write_text("no separator here\n")
        with pytest.raises(msct.FormatError):
            msct.read_manifest(p)

    def test_manifest_repeated_name(self, tmp_path):
        """A name listed twice is a FormatError naming both lines, not a
        silent load of the later file."""
        p = tmp_path / "manifest.txt"
        p.write_text("a=a.msct\nb=b.msct\n\na=b.msct\n")
        with pytest.raises(msct.FormatError, match=re.escape(
                f"{p}:4: 'a' is already listed on line 1")):
            msct.read_manifest(p)

    def test_manifest_non_ascii_byte(self, tmp_path):
        """A byte outside ASCII is a FormatError naming path:line, not a
        UnicodeDecodeError."""
        p = tmp_path / "manifest.txt"
        p.write_bytes(b"a=a.msct\nst\xe9m=stem.msct\n")
        with pytest.raises(msct.FormatError, match=re.escape(f"{p}:2: "
                                                             "non-ASCII byte 0xe9")):
            msct.read_manifest(p)

    @pytest.mark.parametrize("filename", NOT_PLAIN_NAMES)
    def test_manifest_filename_must_be_plain(self, tmp_path, filename):
        """A manifest cannot point outside its own directory."""
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        msct.write_tensor(tmp_path / "outside.msct", np.ones(2))
        (ckpt / "manifest.txt").write_text(f"w={filename}\n")
        with pytest.raises(msct.FormatError, match="not a plain file name"):
            msct.load_tensors(ckpt)

    @pytest.mark.parametrize("filename", NOT_PLAIN_NAMES + ("",))
    def test_check_plain_name_rejects(self, filename):
        message = f"list.txt:3: filename {filename!r} is not a plain file name"
        with pytest.raises(msct.FormatError, match=re.escape(message)):
            msct.check_plain_name(filename, "list.txt:3")

    @pytest.mark.parametrize("filename", ["w.msct", "img00001.msct", "a..b",
                                          "...", ".hidden"])
    def test_check_plain_name_accepts(self, filename):
        assert msct.check_plain_name(filename, "list.txt:3") == filename

    def test_colliding_names_rejected(self, tmp_path):
        """Names that sanitize to one file raise before anything is written."""
        with pytest.raises(ValueError, match="'a/b' and 'a_b'"):
            msct.save_tensors(tmp_path / "ckpt", {"a_b": np.ones(1),
                                                  "a/b": np.zeros(1)})
        assert not (tmp_path / "ckpt").exists()

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(OSError):
            msct.load_tensors(tmp_path / "nope")


# -- mutated inputs -----------------------------------------------------------

@st.composite
def valid_blobs(draw):
    """The bytes of a small float32 tensor of rank 1 to 4."""
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    values = np.arange(math.prod(shape), dtype=np.float32).reshape(shape)
    return bytearray(msct.tensor_bytes(values))


U32 = st.one_of(st.integers(0, 80), st.sampled_from([2**31, 2**32 - 1]),
                st.integers(0, 2**32 - 1))


@st.composite
def mutated_blobs(draw):
    """A valid blob truncated, bit-flipped, or with its rank or one
    dimension replaced by any u32."""
    blob = draw(valid_blobs())
    how = draw(st.sampled_from(["truncate", "flip", "rank", "dimension"]))
    if how == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    if how == "flip":
        for bit in draw(st.lists(st.integers(0, 8 * len(blob) - 1),
                                 min_size=1, max_size=8)):
            blob[bit // 8] ^= 1 << bit % 8
    elif how == "rank":
        blob[4:8] = struct.pack("<I", draw(U32))
    else:
        (rank,) = struct.unpack_from("<I", blob, 4)
        k = draw(st.integers(0, rank - 1))
        blob[8 + 4 * k:12 + 4 * k] = struct.pack("<I", draw(U32))
    return bytes(blob)


MANIFEST_LINES = ["stem=stem.msct", "s0b0/w1=s0b0_w1.msct",
                  "w_embed=w_embed.msct", "b_embed=b_embed.msct"]


@st.composite
def mutated_manifests(draw):
    """A valid manifest with lines deleted, repeated, moved or replaced by
    arbitrary bytes."""
    lines = [line.encode() for line in MANIFEST_LINES]
    for _ in range(draw(st.integers(1, 4))):
        how = draw(st.sampled_from(["delete", "repeat", "move", "replace"]))
        k = draw(st.integers(0, len(lines) - 1)) if lines else None
        if k is None:
            lines.append(draw(st.binary(max_size=24)).replace(b"\n", b""))
        elif how == "delete":
            del lines[k]
        elif how == "repeat":
            lines.insert(k, lines[k])
        elif how == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(k))
        else:
            lines[k] = draw(st.one_of(
                st.binary(max_size=24),
                st.text("ab=/._\\ \t\r\x00\xe9", max_size=24).map(
                    lambda t: t.encode("latin-1")))).replace(b"\n", b"")
    return b"".join(line + b"\n" for line in lines)


class TestMutatedInputs:
    """Every mutation of a valid input returns a value or raises
    FormatError, and nothing else."""

    @given(blob=mutated_blobs())
    def test_tensor_from_bytes(self, blob):
        try:
            got = msct.tensor_from_bytes(blob)
        except msct.FormatError:
            return
        assert got.dtype == np.float32
        assert len(blob) == 8 + 4 * got.ndim + 4 * got.size

    @given(text=mutated_manifests())
    def test_read_manifest(self, text):
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "manifest.txt")
            with open(path, "wb") as f:
                f.write(text)
            try:
                entries = msct.read_manifest(path)
            except msct.FormatError:
                return
        for filename in entries.values():
            assert msct.check_plain_name(filename, path) == filename
