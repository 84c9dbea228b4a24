"""Synthetic data generator and verification metric tests.

Metric results are cross-checked against brute-force threshold sweeps in
oracles.py that share no code with the implementation.
"""

import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from msconv import msct
from msconv.data import (PATCH, LabeledImages, SyntheticSpec, base_pattern,
                         gen_synthetic, load_dataset, make_pairs, read_pairs,
                         save_dataset, write_pairs)
from msconv.metrics import (VerificationSet, pair_accuracy, pair_scores,
                            tar_at_far)
from oracles import (cosine_loops, stacked_load_dataset, sweep_accuracy,
                     sweep_tar)
from test_msct import NOT_PLAIN_NAMES


def small_spec(**kw):
    defaults = dict(identity_count=3, samples_per_identity=4, height=8,
                    width=8, channels=2, noise_sigma=0.1, shift_range=2,
                    seed=0)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


class TestSyntheticData:
    def test_shapes_and_identity_major_labels(self):
        ds = gen_synthetic(small_spec())
        assert ds.images.shape == (12, 8, 8, 2)
        np.testing.assert_array_equal(ds.labels, np.repeat(np.arange(3), 4))

    def test_regeneration_bit_identical(self):
        a = gen_synthetic(small_spec())
        b = gen_synthetic(small_spec())
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_desk_bytes_pinned(self):
        """sha256 of the desk ``SyntheticSpec()`` images and labels, taken
        before the pair sampler was vectorized: its edits to ``data.py``
        leave the training data alone."""
        ds = gen_synthetic(SyntheticSpec())
        assert (ds.images.shape, ds.images.dtype) == ((500, 32, 32, 3),
                                                      np.float64)
        assert hashlib.sha256(ds.images.tobytes()).hexdigest() == (
            "2d0a9b61128bcf00d6d123afd54ed736f99ef274f3ec082848bd1ee2c8467099")
        assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == (
            "ba00b684429f2175128ed64579f6d29618e7ac1b7c7f8ce8ce1189b38908a239")

    def test_values_clamped(self):
        ds = gen_synthetic(small_spec(noise_sigma=2.0))
        assert ds.images.min() >= -1.0 and ds.images.max() <= 1.0

    def test_no_jitter_reproduces_base_pattern(self):
        spec = small_spec(noise_sigma=0.0, shift_range=0)
        ds = gen_synthetic(spec)
        for identity in range(3):
            base = base_pattern(spec, identity)
            for k in range(4):
                np.testing.assert_array_equal(ds.images[identity * 4 + k],
                                              base)

    def test_base_pattern_coarse_blocks(self):
        """Patterns are drawn at 1/PATCH resolution: 4x4 cells are constant."""
        base = base_pattern(small_spec(), 0)
        cell = base[:PATCH, :PATCH, 0]
        assert np.all(cell == cell[0, 0])

    def test_identities_distinct(self):
        spec = small_spec()
        a, b = base_pattern(spec, 0), base_pattern(spec, 1)
        assert np.abs(a - b).max() > 0.01

    def test_noiseless_samples_are_shifts_of_base(self):
        spec = small_spec(noise_sigma=0.0, shift_range=2)
        ds = gen_synthetic(spec)
        base = base_pattern(spec, 0)
        rolls = [np.roll(base, (dy, dx), axis=(0, 1))
                 for dy in range(-2, 3) for dx in range(-2, 3)]
        for k in range(4):
            assert any(np.array_equal(ds.images[k], r) for r in rolls)

    def test_seed_changes_content(self):
        a = gen_synthetic(small_spec(seed=0))
        b = gen_synthetic(small_spec(seed=1))
        assert np.abs(a.images - b.images).max() > 0.01

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(identity_count=0)
        with pytest.raises(ValueError):
            small_spec(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            small_spec(height=0)
        with pytest.raises(ValueError):
            small_spec(seed=-1)
        assert small_spec().total == 12

    def test_labeled_images_shape_guard(self):
        with pytest.raises(ValueError):
            LabeledImages(np.zeros((2, 4, 4, 1)), np.zeros(3, dtype=np.int64))


DATASET_DEFECTS = ("no images", "unequal shapes", "rank 2", "non-finite",
                   "truncated")


def corrupt_dataset(directory, defect):
    """Apply one of DATASET_DEFECTS to a saved dataset directory; returns
    the file the error must name and the message that follows it."""
    labels = os.path.join(directory, "labels.txt")
    with open(labels) as fh:
        names = [line.split(",")[0] for line in fh.read().split()]
    paths = [os.path.join(directory, name) for name in names]
    first = msct.read_tensor(paths[0])
    if defect == "no images":
        open(labels, "w").close()
        return labels, "lists no images"
    if defect == "unequal shapes":
        msct.write_tensor(paths[1], first[1:])
        return paths[1], (f"shape {first[1:].shape} differs from "
                          f"{first.shape} of {names[0]}")
    if defect == "rank 2":
        for path in paths:
            msct.write_tensor(path, msct.read_tensor(path)[..., 0])
        return paths[0], f"shape {first.shape[:2]} is not a non-empty"
    if defect == "truncated":
        # keep the header (magic, rank and three dimensions), drop the values
        with open(paths[1], "r+b") as f:
            f.truncate(20)
        return paths[1], f"payload length 20 != expected {20 + 4 * first.size}"
    bad = msct.read_tensor(paths[2])
    bad[1, 1, 0] = np.nan
    msct.write_tensor(paths[2], bad)
    return paths[2], "non-finite pixel values"


class TestDatasetIO:
    @pytest.mark.parametrize("defect", DATASET_DEFECTS)
    def test_defect_names_the_file(self, tmp_path, defect):
        save_dataset(tmp_path, gen_synthetic(small_spec()))
        path, message = corrupt_dataset(tmp_path, defect)
        with pytest.raises(msct.FormatError,
                           match=re.escape(f"{path}: {message}")):
            load_dataset(tmp_path)

    def test_round_trip(self, tmp_path):
        ds = gen_synthetic(small_spec())
        save_dataset(tmp_path, ds)
        loaded = load_dataset(tmp_path)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.images,
                                      ds.images.astype(np.float32))

    def test_bad_labels_line(self, tmp_path):
        ds = gen_synthetic(small_spec(identity_count=2,
                                      samples_per_identity=1))
        save_dataset(tmp_path, ds)
        (tmp_path / "labels.txt").write_text("img00000.msct\n")
        with pytest.raises(msct.FormatError):
            load_dataset(tmp_path)

    def test_non_ascii_labels_line(self, tmp_path):
        save_dataset(tmp_path, gen_synthetic(small_spec()))
        labels = tmp_path / "labels.txt"
        labels.write_bytes(labels.read_bytes().replace(b"img00001", b"img\xff0001"))
        with pytest.raises(msct.FormatError, match=re.escape(
                f"{labels}:2: non-ASCII byte 0xff")):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("label", ["x", "-1", "1.5", "0x3", "+2"])
    def test_non_integer_label(self, tmp_path, label):
        save_dataset(tmp_path, gen_synthetic(small_spec()))
        labels = tmp_path / "labels.txt"
        labels.write_text(labels.read_text().replace(",0\n", f",{label}\n", 1))
        with pytest.raises(msct.FormatError, match=re.escape(
                f"{labels}:1: label {label!r} is not a non-negative integer")):
            load_dataset(tmp_path)

    def test_repeated_name_rejected(self, tmp_path):
        """A file name listed twice names both lines of labels.txt."""
        save_dataset(tmp_path, gen_synthetic(small_spec()))
        labels = tmp_path / "labels.txt"
        lineno = labels.read_text().count("\n") + 1
        labels.write_text(labels.read_text() + "img00000.msct,2\n")
        with pytest.raises(msct.FormatError, match=re.escape(
                f"{labels}:{lineno}: 'img00000.msct' is already listed on "
                "line 1")):
            load_dataset(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "absent")

    @pytest.mark.parametrize("name", NOT_PLAIN_NAMES)
    def test_labels_name_must_be_plain(self, tmp_path, name):
        """labels.txt cannot name a file outside the dataset directory."""
        data_dir = tmp_path / "data"
        save_dataset(data_dir, gen_synthetic(small_spec()))
        msct.write_tensor(tmp_path / "outside.msct", np.zeros((8, 8, 2)))
        labels = data_dir / "labels.txt"
        lines = labels.read_text().splitlines()
        lines[2] = f"{name},0"
        labels.write_text("\n".join(lines) + "\n")
        with pytest.raises(msct.FormatError, match=re.escape(
                f"{labels}:3: filename {name!r} is not a plain file name")):
            load_dataset(data_dir)

    def test_labels_checked_before_any_image(self, tmp_path):
        """A bad labels.txt line is reported even when an image listed
        before it is broken too."""
        save_dataset(tmp_path, gen_synthetic(small_spec()))
        (tmp_path / "img00000.msct").write_bytes(b"junk")
        labels = tmp_path / "labels.txt"
        labels.write_text(labels.read_text() + "img00001.msct\n")
        lineno = labels.read_text().count("\n")
        with pytest.raises(msct.FormatError, match=re.escape(
                f"{labels}:{lineno}: bad labels line")):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("size,count", [(8, 12), (64, 9)])
    def test_bytes_match_stacked_reference(self, tmp_path, size, count):
        """Casting each image into its row gives the bytes of stacking the
        float32 images and casting the stack."""
        spec = small_spec(identity_count=3, samples_per_identity=count // 3,
                          height=size, width=size, channels=3)
        save_dataset(tmp_path, gen_synthetic(spec))
        loaded = load_dataset(tmp_path)
        images, labels, names = stacked_load_dataset(tmp_path)
        assert loaded.images.dtype == images.dtype == np.float64
        assert loaded.images.shape == images.shape
        assert loaded.images.tobytes() == images.tobytes()
        assert loaded.labels.tobytes() == labels.tobytes()
        assert loaded.names == names

    def test_load_holds_one_float64_copy(self, tmp_path):
        """The load's peak is the float64 array plus a few images: no list
        of float32 images, no stack beside the cast (that peaked at twice
        the array)."""
        save_dataset(tmp_path, gen_synthetic(small_spec(
            identity_count=4, samples_per_identity=10, height=32, width=32,
            channels=3)))
        tracemalloc.start()
        try:
            loaded = load_dataset(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        array, image = loaded.images.nbytes, loaded.images[0].nbytes
        assert peak <= array + 4 * image


# the image files of the fuzzed dataset, in labels.txt order
_LABEL_NAMES = [f"img{i:05d}.msct" for i in range(4)]
# printable ASCII: a drawn field never holds a line break or a byte that
# text_lines would reject on its own
_ASCII = st.characters(min_codepoint=0x20, max_codepoint=0x7e)
_FIELD = st.text(_ASCII.filter(lambda ch: ch != ","), max_size=12)


@st.composite
def _with_non_ascii(draw, line: str) -> bytes:
    """``line`` with one byte of 0x80-0xff put in at any position."""
    raw = line.encode()
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + bytes([draw(st.integers(0x80, 0xff))]) + raw[at:]


@st.composite
def bad_labels_line(draw) -> bytes:
    """One malformed labels.txt line of a kind drawn at random."""
    name = draw(st.sampled_from(_LABEL_NAMES))
    kind = draw(st.sampled_from(["missing", "extra", "label", "ascii",
                                 "not plain"]))
    if kind == "missing":
        line = draw(_FIELD.filter(lambda f: f.strip()))
    elif kind == "extra":
        line = f"{name},{draw(st.integers(0, 9))},{draw(_FIELD)}"
    elif kind == "label":
        label = draw(st.text(_ASCII, max_size=8).filter(
            lambda f: not f.strip().isdigit()))
        line = f"{name},{label}"
    elif kind == "ascii":
        return draw(_with_non_ascii(f"{name},1"))
    else:
        bad = draw(st.sampled_from(NOT_PLAIN_NAMES + ("",)) | st.builds(
            "/".join, st.lists(st.sampled_from(_LABEL_NAMES + ["..", "sub"]),
                               min_size=2, max_size=3)))
        line = f"{bad},{draw(st.integers(0, 9))}"
    return line.encode()


@st.composite
def bad_pairs_line(draw) -> bytes:
    """One malformed pairs.txt line of a kind drawn at random."""
    a = draw(st.sampled_from(_LABEL_NAMES))
    b = draw(st.sampled_from(_LABEL_NAMES))
    kind = draw(st.sampled_from(["missing", "extra", "flag", "ascii",
                                 "unlisted", "twice"]))
    if kind == "missing":
        line = draw(st.sampled_from([a, f"{a},{b}"]))
    elif kind == "extra":
        line = f"{a},{b},1,{draw(_FIELD)}"
    elif kind == "flag":
        flag = draw(_FIELD.filter(lambda f: f.strip() not in ("0", "1")))
        line = f"{a},{b},{flag}"
    elif kind == "ascii":
        return draw(_with_non_ascii(f"{a},{b},0"))
    elif kind == "twice":
        line = f"{a},{a},{draw(st.sampled_from('01'))}"
    else:
        other = draw(_FIELD.filter(lambda f: f.strip() not in _LABEL_NAMES))
        line = draw(st.sampled_from([f"{other},{b},1", f"{a},{other},0"]))
    return line.encode()


def _insert_line(lines: list[bytes], bad: bytes, at: int) -> bytes:
    return b"".join(line + b"\n" for line in lines[:at] + [bad] + lines[at:])


class TestTextFileFuzz:
    """Any malformed labels.txt or pairs.txt line raises FormatError, and
    nothing else, wherever it sits among valid lines."""

    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fuzz")
        save_dataset(directory, gen_synthetic(small_spec(
            identity_count=2, samples_per_identity=2)))
        return directory

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=bad_labels_line(), at=st.integers(0, 4))
    def test_labels_line(self, data_dir, bad, at):
        good = [f"{name},{i // 2}".encode()
                for i, name in enumerate(_LABEL_NAMES)]
        (data_dir / "labels.txt").write_bytes(_insert_line(good, bad, at))
        with pytest.raises(msct.FormatError):
            load_dataset(data_dir)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=bad_pairs_line(), at=st.integers(0, 3))
    def test_pairs_line(self, tmp_path, bad, at):
        good = [b"img00000.msct,img00001.msct,1",
                b"img00002.msct,img00003.msct,1",
                b"img00000.msct,img00003.msct,0"]
        path = tmp_path / "pairs.txt"
        path.write_bytes(_insert_line(good, bad, at))
        with pytest.raises(msct.FormatError):
            read_pairs(path, _LABEL_NAMES)


class TestPairs:
    LABELS = np.array([0, 0, 0, 1, 1, 2])

    def test_deterministic(self):
        a = make_pairs(self.LABELS, 5, 7, seed=3)
        assert np.array_equal(a, make_pairs(self.LABELS, 5, 7, seed=3))
        assert not np.array_equal(a, make_pairs(self.LABELS, 5, 7, seed=4))

    @pytest.mark.parametrize("genuine,impostor", [(0, 0), (4, 0), (0, 6),
                                                  (4, 6)])
    def test_int64_array_genuine_first(self, genuine, impostor):
        pairs = make_pairs(self.LABELS, genuine, impostor, seed=5)
        assert pairs.dtype == np.int64
        assert pairs.shape == (genuine + impostor, 3)
        assert pairs[:genuine, 2].tolist() == [1] * genuine
        assert pairs[genuine:, 2].tolist() == [0] * impostor

    def test_zero_counts_need_no_identities(self):
        """A count of zero asks nothing of the labels."""
        assert make_pairs(np.array([0, 1, 2]), 0, 3, seed=0).shape == (3, 3)
        assert make_pairs(np.array([0, 0]), 2, 0, seed=0).shape == (2, 3)
        assert make_pairs(np.array([], dtype=np.int64), 0, 0,
                          seed=0).shape == (0, 3)

    def test_every_allowed_pair_drawn(self):
        """3 identities x 3 samples, in no identity-major order: 20k draws
        of each kind reach every ordered pair of distinct samples of one
        identity and every ordered cross-identity pair, and nothing else."""
        labels = np.array([2, 0, 1, 0, 2, 1, 1, 0, 2])
        rows = range(labels.size)
        same = {(i, j) for i in rows for j in rows
                if i != j and labels[i] == labels[j]}
        cross = {(i, j) for i in rows for j in rows if labels[i] != labels[j]}
        pairs = make_pairs(labels, 20_000, 20_000, seed=7)
        assert {(i, j) for i, j, _ in pairs[:20_000].tolist()} == same
        assert {(i, j) for i, j, _ in pairs[20_000:].tolist()} == cross

    def test_pair_validity(self):
        pairs = make_pairs(self.LABELS, 10, 10, seed=1)
        genuine = [p for p in pairs if p[2] == 1]
        impostor = [p for p in pairs if p[2] == 0]
        assert len(genuine) == 10 and len(impostor) == 10
        for i, j, _ in genuine:
            assert i != j and self.LABELS[i] == self.LABELS[j]
        for i, j, _ in impostor:
            assert self.LABELS[i] != self.LABELS[j]

    def test_genuine_needs_repeated_identity(self):
        with pytest.raises(ValueError):
            make_pairs(np.array([0, 1, 2]), 1, 0, seed=0)

    @pytest.mark.parametrize("genuine,impostor", [(-3, 4), (2, -1)])
    def test_negative_counts_rejected(self, genuine, impostor):
        with pytest.raises(ValueError, match="non-negative"):
            make_pairs(self.LABELS, genuine, impostor, seed=0)

    def test_impostor_needs_two_identities(self):
        with pytest.raises(ValueError):
            make_pairs(np.array([0, 0, 0]), 1, 1, seed=0)

    def test_pairs_file_round_trip(self, tmp_path):
        pairs = make_pairs(self.LABELS, 3, 3, seed=2)
        path = tmp_path / "pairs.txt"
        write_pairs(path, pairs)
        names = [f"img{i:05d}.msct" for i in range(len(self.LABELS))]
        assert np.array_equal(read_pairs(path, names), pairs)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(st.integers(0, 19), st.integers(1, 19),
                                   st.integers(0, 1)), max_size=40))
    def test_write_read_round_trip(self, tmp_path, rows):
        """Any pairs array survives write then read, and the file holds one
        ``file_a,file_b,same`` line per row."""
        pairs = np.array([(i, (i + d) % 20, s) for i, d, s in rows],
                         dtype=np.int64).reshape(-1, 3)
        path = tmp_path / "pairs.txt"
        write_pairs(path, pairs)
        assert path.read_text() == "".join(
            f"img{i:05d}.msct,img{j:05d}.msct,{s}\n" for i, j, s in pairs)
        back = read_pairs(path, [f"img{i:05d}.msct" for i in range(20)])
        assert back.dtype == np.int64 and np.array_equal(back, pairs)

    def test_read_pairs_bad_lines(self, tmp_path):
        path = tmp_path / "pairs.txt"
        for bad, message in (
                ("img00000.msct,img00001.msct\n", f"{path}:2: bad pairs line"),
                ("img00000.msct,img00001.msct,2\n", f"{path}:2: bad pairs line"),
                ("a.msct,img00001.msct,1\n",
                 f"{path}:2: pair names 'a.msct', which is not among the 2 "
                 "images"),
                ("\nimg00000.msct,b.msct,1\n",
                 f"{path}:3: pair names 'b.msct', which is not among the 2 "
                 "images"),
                ("img00001.msct,img00001.msct,1\n",
                 f"{path}:2: pair names 'img00001.msct' twice")):
            path.write_text("img00000.msct,img00001.msct,1\n" + bad)
            with pytest.raises(msct.FormatError, match=re.escape(message)):
                read_pairs(path, ["img00000.msct", "img00001.msct"])

    def test_read_pairs_non_ascii_line(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_bytes(b"img00000.msct,img00001.msct,1\n"
                         b"img00000.msct,img00001.msct,\xc2\xb9\n")
        with pytest.raises(msct.FormatError, match=re.escape(
                f"{path}:2: non-ASCII byte 0xc2")):
            read_pairs(path, ["img00000.msct", "img00001.msct"])


class TestCosineSimilarity:
    @staticmethod
    def cosine(a, b):
        """``pair_scores`` of one pair of rows."""
        return pair_scores(np.asarray([a], dtype=float),
                           np.asarray([b], dtype=float))[0]

    def test_self_similarity(self):
        v = np.random.default_rng(0).normal(size=6)
        np.testing.assert_allclose(self.cosine(v, v), 1.0, rtol=1e-15)

    def test_orthogonal(self):
        assert self.cosine([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_scale_invariance(self):
        a = np.array([1.0, 2.0, -0.5])
        b = np.array([0.3, -1.0, 2.0])
        np.testing.assert_allclose(self.cosine(3.0 * a, 0.5 * b),
                                   self.cosine(a, b), rtol=1e-14)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=5), rng.normal(size=5)
        np.testing.assert_allclose(self.cosine(a, b), cosine_loops(a, b),
                                   rtol=1e-13)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vectors"):
            self.cosine([0.0, 0.0], [1.0, 0.0])

    def test_pair_scores_rowwise(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        scores = pair_scores(a, b)
        for i in range(4):
            np.testing.assert_allclose(scores[i], cosine_loops(a[i], b[i]),
                                       rtol=1e-14)

    def test_pair_scores_validation(self):
        with pytest.raises(ValueError):
            pair_scores(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            pair_scores(np.zeros((2, 3)), np.ones((2, 3)))


def random_verification_set(rng, tie_heavy=False):
    """Random score lists; optionally drawn from a coarse grid to force ties."""
    ng = int(rng.integers(1, 30))
    ni = int(rng.integers(1, 30))
    if tie_heavy:
        grid = np.round(rng.uniform(-1, 1, 9), 1)
        genuine = rng.choice(grid, ng)
        impostor = rng.choice(grid, ni)
    else:
        genuine = rng.uniform(-1, 1, ng)
        impostor = rng.uniform(-1, 1, ni)
    return VerificationSet(genuine, impostor)


class TestTarAtFar:
    def test_hand_case(self):
        vs = VerificationSet([0.9, 0.8, 0.3], [0.7, 0.2, 0.1, 0.05])
        tar, threshold = tar_at_far(vs, 0.25)
        assert (tar, threshold) == (1.0, 0.3)

    def test_perfect_separation(self):
        vs = VerificationSet([0.8, 0.9, 0.95], [0.1, 0.2, 0.3])
        for target in (0.5, 0.1, 0.01):
            tar, threshold = tar_at_far(vs, target)
            assert tar == 1.0
            assert threshold <= 0.8

    def test_identical_lists_tar_equals_far(self):
        scores = [0.9, 0.7, 0.5, 0.3]
        vs = VerificationSet(scores, scores)
        tar, threshold = tar_at_far(vs, 0.5)
        far = np.mean(np.asarray(scores) >= threshold)
        assert tar == far

    def test_unreachable_target_rejects_all(self):
        vs = VerificationSet([0.9, 0.5], [0.9, 0.9])
        tar, threshold = tar_at_far(vs, 0.3)
        assert threshold > 0.9
        assert tar == 0.0

    def test_accept_rule_is_inclusive(self):
        vs = VerificationSet([0.5], [0.5, 0.1])
        tar, threshold = tar_at_far(vs, 0.5)
        assert threshold == 0.5  # FAR(0.5) = 1/2 qualifies, score >= t accepts
        assert tar == 1.0

    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_matches_sweep_oracle(self, tie_heavy):
        rng = np.random.default_rng(10 if tie_heavy else 11)
        for _ in range(30):
            vs = random_verification_set(rng, tie_heavy)
            target = float(rng.uniform(0.01, 0.99))
            got = tar_at_far(vs, target)
            want = sweep_tar(list(vs.genuine), list(vs.impostor), target)
            assert got == want

    def test_threshold_monotone_in_target(self):
        rng = np.random.default_rng(12)
        vs = random_verification_set(rng)
        results = [tar_at_far(vs, t) for t in (0.05, 0.2, 0.5, 0.9)]
        thresholds = [r[1] for r in results]
        tars = [r[0] for r in results]
        assert thresholds == sorted(thresholds, reverse=True)
        assert tars == sorted(tars)

    def test_low_impostor_never_raises_threshold(self):
        """Adding an impostor below the threshold can only lower it (adding
        any score grows the denominator), so tar never decreases."""
        rng = np.random.default_rng(13)
        for _ in range(50):
            vs = random_verification_set(rng, tie_heavy=True)
            target = float(rng.uniform(0.05, 0.95))
            tar, threshold = tar_at_far(vs, target)
            extra = threshold - float(rng.uniform(0.01, 1.0))
            vs2 = VerificationSet(vs.genuine,
                                  np.append(vs.impostor, extra))
            tar2, threshold2 = tar_at_far(vs2, target)
            assert threshold2 <= threshold
            assert tar2 >= tar

    def test_low_impostor_unchanged_case(self):
        vs = VerificationSet([0.9, 0.8], [0.5, 0.1])
        assert tar_at_far(vs, 0.5) == (1.0, 0.5)
        vs2 = VerificationSet([0.9, 0.8], [0.5, 0.1, 0.05])
        assert tar_at_far(vs2, 0.5) == (1.0, 0.5)

    def test_low_impostor_can_shift_threshold(self):
        """Regression for a subtle non-invariant: a below-threshold impostor
        can dilute FAR enough to qualify a lower candidate."""
        vs = VerificationSet([0.95], [0.9, 0.3, 0.3, 0.3])
        assert tar_at_far(vs, 0.2) == (1.0, 0.95)
        vs2 = VerificationSet([0.95], [0.9, 0.3, 0.3, 0.3, 0.5])
        assert tar_at_far(vs2, 0.2) == (1.0, 0.9)

    def test_target_domain(self):
        vs = VerificationSet([0.5], [0.1])
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                tar_at_far(vs, bad)


class TestPairAccuracy:
    def test_tied_single_scores(self):
        assert pair_accuracy(VerificationSet([0.9], [0.9])) == (0.5, 0.9)

    def test_perfect_separation(self):
        acc, threshold = pair_accuracy(
            VerificationSet([0.8, 0.9], [0.1, 0.2]))
        assert acc == 1.0
        assert 0.2 < threshold <= 0.8

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(14)
        for tie_heavy in (False, True):
            for _ in range(30):
                vs = random_verification_set(rng, tie_heavy)
                got = pair_accuracy(vs)
                want = sweep_accuracy(list(vs.genuine), list(vs.impostor))
                assert got == want

    def test_never_below_majority_baseline(self):
        """Always-accept and always-reject are both in the sweep."""
        rng = np.random.default_rng(15)
        for _ in range(20):
            vs = random_verification_set(rng, tie_heavy=True)
            acc, _ = pair_accuracy(vs)
            total = vs.genuine.size + vs.impostor.size
            assert acc >= max(vs.genuine.size, vs.impostor.size) / total

    def test_score_order_irrelevant(self):
        rng = np.random.default_rng(16)
        g, i = rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 7)
        a = pair_accuracy(VerificationSet(g, i))
        b = pair_accuracy(VerificationSet(g[::-1].copy(),
                                          np.roll(i, 3)))
        assert a == b


class TestVerificationSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VerificationSet([], [0.1])
        with pytest.raises(ValueError):
            VerificationSet([0.1], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            VerificationSet([np.nan], [0.1])
        with pytest.raises(ValueError):
            VerificationSet([0.5], [np.inf])

    def test_flattens_to_float64(self):
        vs = VerificationSet(np.float32([[0.5], [0.25]]), [0.1])
        assert vs.genuine.dtype == np.float64
        assert vs.genuine.shape == (2,)
