"""Feature-map dumps: grayscale conversion, PGM files and channel ranking.

Rendered maps are checked against recomputed forward-pass intermediates so
the files on disk always match what the network actually produced.
"""

import numpy as np
import pytest

from msconv import msct
from msconv.autograd import Tape
from msconv.model import StageSpec, TinyNetConfig, init_params, tinynet_forward
from msconv.viz import (MAP_OPS, to_gray, top_channels, visualize_features,
                        write_pgm)
from oracles import read_pgm


def small_setup(seed=0):
    """One-block backbone plus a random 8x8 two-channel image."""
    cfg = TinyNetConfig(in_channels=2, stem_channels=3,
                        stages=(StageSpec(blocks=1, channels=4, stride=2),),
                        embed_dim=3, min_width=2)
    params = init_params(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    image = rng.normal(size=(8, 8, 2))
    return cfg, params, image


def forward_trace(cfg, params, image):
    """Re-run the backbone and return the collected block traces."""
    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in params.items()}
    traces = []
    tinynet_forward(tape, tape.leaf(image[None]), leaves, cfg, traces=traces)
    return traces


class TestToGray:
    """Min-max normalization of a 2-D map onto the uint8 range."""

    def test_constant_map_is_mid_gray(self):
        """A flat map has no range to stretch and renders as 128."""
        gray = to_gray(np.full((4, 6), 3.7))
        assert gray.dtype == np.uint8
        np.testing.assert_array_equal(gray, np.full((4, 6), 128, np.uint8))

    def test_extremes_hit_0_and_255(self):
        """The minimum maps to 0 and the maximum to 255."""
        rng = np.random.default_rng(0)
        gray = to_gray(rng.normal(size=(5, 5)))
        assert gray.min() == 0
        assert gray.max() == 255

    def test_linear_ramp_values(self):
        """Evenly spaced inputs land on the exactly scaled gray levels."""
        gray = to_gray(np.array([[0.0, 1.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(
            gray, np.array([[0, 85], [170, 255]], dtype=np.uint8))

    def test_rounds_to_nearest_level(self):
        """Fractional levels round instead of truncating."""
        gray = to_gray(np.array([[0.0, 1.0, 4.0]]))
        # 1/4 of the range is 63.75, which rounds up to 64
        np.testing.assert_array_equal(
            gray, np.array([[0, 64, 255]], dtype=np.uint8))

    def test_affine_invariance(self):
        """Positive rescaling and shifts do not change the rendering."""
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(to_gray(arr), to_gray(3.0 * arr - 7.0))

    def test_shape_preserved(self):
        """Output shape equals input shape."""
        assert to_gray(np.zeros((3, 9))).shape == (3, 9)


class TestPgmIO:
    """Binary PGM writing, read back by the tests' own reader."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 2)])
    def test_round_trip(self, tmp_path, shape):
        """Arbitrary uint8 maps survive a write/read cycle bit for bit."""
        rng = np.random.default_rng(0)
        gray = rng.integers(0, 256, size=shape, dtype=np.uint8)
        path = tmp_path / "map.pgm"
        write_pgm(path, gray)
        np.testing.assert_array_equal(read_pgm(path), gray)

    def test_newline_bytes_in_payload_survive(self, tmp_path):
        """Pixel value 10 (ASCII newline) does not break the parser."""
        gray = np.full((2, 3), 10, dtype=np.uint8)
        path = tmp_path / "map.pgm"
        write_pgm(path, gray)
        np.testing.assert_array_equal(read_pgm(path), gray)

    def test_header_layout(self, tmp_path):
        """Header is magic, width-then-height, maxval, one per line."""
        gray = np.arange(6, dtype=np.uint8).reshape(2, 3)
        path = tmp_path / "map.pgm"
        write_pgm(path, gray)
        blob = path.read_bytes()
        assert blob == b"P5\n3 2\n255\n" + gray.tobytes()

    def test_rejects_non_uint8(self, tmp_path):
        """Float maps must be converted before writing."""
        with pytest.raises(ValueError, match="2-D uint8"):
            write_pgm(tmp_path / "bad.pgm", np.zeros((2, 2)))

    def test_rejects_non_2d(self, tmp_path):
        """Only single-channel 2-D maps are valid PGM payloads."""
        with pytest.raises(ValueError, match="2-D uint8"):
            write_pgm(tmp_path / "bad.pgm", np.zeros((2, 2, 3), np.uint8))

    def test_read_rejects_bad_magic(self, tmp_path):
        """ASCII (P2) images are not accepted."""
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
        with pytest.raises(ValueError, match="binary PGM"):
            read_pgm(path)

    def test_read_rejects_other_maxval(self, tmp_path):
        """Only maxval 255 is supported."""
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="binary PGM"):
            read_pgm(path)

    def test_read_rejects_truncated_pixels(self, tmp_path):
        """Fewer payload bytes than width*height is an error."""
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n3 3\n255\n" + bytes(5))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_read_rejects_header_only(self, tmp_path):
        """A file that ends inside the header is rejected."""
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2")
        with pytest.raises(ValueError, match="binary PGM"):
            read_pgm(path)


class TestTopChannels:
    """Ranking channels by summed squared activation over both branches."""

    def test_hand_ranked_energies(self):
        """Energies 1, 9, 4 rank the channels as 1, 2, 0."""
        u1 = np.array([[[1.0, 3.0, 2.0]]])
        u2 = np.zeros((1, 1, 3))
        assert top_channels(u1, u2, 3) == [1, 2, 0]

    def test_both_branches_contribute(self):
        """Energy is summed across branches, not taken from one."""
        u1 = np.array([[[2.0, 0.0]]])
        u2 = np.array([[[0.0, 3.0]]])
        # energies are 4 and 9, so channel 1 wins despite a silent u1
        assert top_channels(u1, u2, 2) == [1, 0]

    def test_ties_keep_channel_order(self):
        """Equal energies fall back to ascending channel index."""
        u1 = np.ones((2, 2, 4))
        u2 = np.ones((2, 2, 4))
        assert top_channels(u1, u2, 4) == [0, 1, 2, 3]

    def test_k_truncates(self):
        """Only the k most energetic channels are returned."""
        u1 = np.array([[[1.0, 3.0, 2.0, 5.0]]])
        u2 = np.zeros((1, 1, 4))
        assert top_channels(u1, u2, 2) == [3, 1]

    def test_k_beyond_channel_count(self):
        """Asking for more channels than exist returns them all."""
        u1 = np.array([[[1.0, 2.0]]])
        u2 = np.zeros((1, 1, 2))
        assert top_channels(u1, u2, 10) == [1, 0]


class TestVisualizeFeatures:
    """End-to-end rendering of one block's branch maps."""

    def test_written_files_and_return_value(self, tmp_path):
        """Two raw dumps plus one PGM per map op per top channel."""
        cfg, params, image = small_setup()
        written = visualize_features(params, cfg, image, 0, tmp_path, top_k=2)
        assert len(written) == 2 + 2 * len(MAP_OPS)
        assert [w.split("/")[-1] for w in written[:2]] == ["u1.msct", "u2.msct"]
        for path in written:
            assert path.startswith(str(tmp_path))
            with open(path, "rb"):
                pass

    def test_raw_dumps_match_forward_pass(self, tmp_path):
        """u1.msct and u2.msct hold the branch outputs in float32."""
        cfg, params, image = small_setup()
        visualize_features(params, cfg, image, 0, tmp_path, top_k=1)
        _, trace = forward_trace(cfg, params, image)[0]
        np.testing.assert_array_equal(
            msct.read_tensor(tmp_path / "u1.msct"),
            trace["u1"].value[0].astype(np.float32))
        np.testing.assert_array_equal(
            msct.read_tensor(tmp_path / "u2.msct"),
            trace["u2"].value[0].astype(np.float32))

    def test_pgms_match_recomputed_maps(self, tmp_path):
        """Every written PGM equals to_gray of the recomputed map slice."""
        cfg, params, image = small_setup()
        visualize_features(params, cfg, image, 0, tmp_path, top_k=2)
        name, trace = forward_trace(cfg, params, image)[0]
        u1 = trace["u1"].value[0]
        u2 = trace["u2"].value[0]
        maps = {"u1": u1, "u2": u2, "add": u1 + u2, "mul": u1 * u2,
                "sub": u1 - u2}
        for ch in top_channels(u1, u2, 2):
            for op in MAP_OPS:
                path = tmp_path / f"{name}_{op}_c{ch:03d}.pgm"
                np.testing.assert_array_equal(
                    read_pgm(path), to_gray(maps[op][:, :, ch]))

    def test_batch_axis_optional(self, tmp_path):
        """(h, w, c) and (1, h, w, c) inputs produce identical files."""
        cfg, params, image = small_setup()
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        paths_a = visualize_features(params, cfg, image, 0, dir_a, top_k=2)
        paths_b = visualize_features(params, cfg, image[None], 0, dir_b,
                                     top_k=2)
        assert len(paths_a) == len(paths_b)
        for pa, pb in zip(paths_a, paths_b):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()

    def test_top_k_clipped_to_channel_count(self, tmp_path):
        """top_k beyond the channel count renders every channel once."""
        cfg, params, image = small_setup()
        written = visualize_features(params, cfg, image, 0, tmp_path, top_k=9)
        channels = cfg.stages[0].channels
        assert len(written) == 2 + channels * len(MAP_OPS)

    def test_class_centers_are_ignored(self, tmp_path):
        """A checkpoint's centers matrix is not part of the backbone."""
        cfg, params, image = small_setup()
        with_centers = dict(params)
        with_centers["centers"] = np.random.default_rng(9).normal(size=(3, 3))
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        paths_a = visualize_features(params, cfg, image, 0, dir_a, top_k=1)
        paths_b = visualize_features(with_centers, cfg, image, 0, dir_b,
                                     top_k=1)
        assert [p.split("/")[-1] for p in paths_a] == \
            [p.split("/")[-1] for p in paths_b]

    def test_layer_out_of_range(self, tmp_path):
        """A one-block network only has layer 0."""
        cfg, params, image = small_setup()
        with pytest.raises(ValueError, match=r"out of range \[0, 1\)"):
            visualize_features(params, cfg, image, 1, tmp_path)

    def test_rejects_image_batches(self, tmp_path):
        """Only a single image may be rendered per call."""
        cfg, params, _ = small_setup()
        batch = np.zeros((2, 8, 8, 2))
        with pytest.raises(ValueError, match="one"):
            visualize_features(params, cfg, batch, 0, tmp_path)

    def test_rejects_2d_image(self, tmp_path):
        """A grayscale matrix without a channel axis is not accepted."""
        cfg, params, _ = small_setup()
        with pytest.raises(ValueError, match="one"):
            visualize_features(params, cfg, np.zeros((8, 8)), 0, tmp_path)
