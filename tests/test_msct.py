"""Tensor container format tests: header layout, round trips, validation."""

import re
import struct

import numpy as np
import pytest

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
