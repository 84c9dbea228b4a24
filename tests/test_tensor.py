"""Tensor primitive tests: direct convolution, fusion ops, attention math.

Derived expectations come from the scalar-loop oracles in oracles.py, which
share no code with the implementation.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msconv import tensor as T
from msconv.autograd import Tape
from oracles import conv2d_loops, elementwise_loops, fc_loops, gap_loops


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, shape)


class TestConv2d:
    def test_identity_kernel(self):
        """A centered single-tap kernel passes the input through."""
        x = np.full((1, 1, 1, 1), 7.0)
        w = np.zeros((3, 3, 1, 1))
        w[1, 1, 0, 0] = 1.0
        out = T.conv2d_raw(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 7.0

    def test_all_ones_kernel_hand_values(self):
        """3x3 box filter on 1..9: center sums everything, corners crop."""
        x = np.arange(1.0, 10.0).reshape(1, 3, 3, 1)
        w = np.ones((3, 3, 1, 1))
        out = T.conv2d_raw(x, w)
        assert out[0, 1, 1, 0] == 45.0
        assert out[0, 0, 0, 0] == 12.0  # 1+2+4+5, the in-bounds quadrant

    def test_dilation_two_tap_geometry(self):
        """With dilation 2 the taps of a 3x3 kernel span a 5x5 extent.

        Feeding an impulse at each position of a 5x5 grid, the center output
        responds exactly at the four corners, four edge midpoints and center.
        """
        w = np.ones((3, 3, 1, 1))
        expected_taps = {(0, 0), (0, 2), (0, 4), (2, 0), (2, 2), (2, 4),
                         (4, 0), (4, 2), (4, 4)}
        for i in range(5):
            for j in range(5):
                x = np.zeros((1, 5, 5, 1))
                x[0, i, j, 0] = 1.0
                out = T.conv2d_raw(x, w, dilation=2)
                assert (out[0, 2, 2, 0] == 1.0) == ((i, j) in expected_taps)

    @pytest.mark.parametrize("shape,kshape,dilation,stride", [
        ((2, 5, 5, 3), (3, 3, 3, 4), 1, 1),
        ((1, 6, 7, 2), (3, 3, 2, 3), 2, 1),
        ((2, 8, 8, 2), (3, 3, 2, 2), 1, 2),
        ((1, 9, 7, 1), (3, 3, 1, 2), 3, 2),
        ((1, 5, 5, 2), (1, 1, 2, 2), 1, 1),
        ((2, 7, 5, 2), (5, 5, 2, 2), 2, 3),
    ])
    def test_matches_loop_oracle(self, shape, kshape, dilation, stride):
        x = rand(shape, seed=hash((shape, dilation, stride)) % 2**32)
        w = rand(kshape, seed=1)
        got = T.conv2d_raw(x, w, dilation, stride)
        want = conv2d_loops(x, w, dilation, stride)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_output_dims_ceil(self):
        x = rand((1, 7, 5, 1))
        w = rand((3, 3, 1, 2))
        assert T.conv2d_raw(x, w, stride=2).shape == (1, 4, 3, 2)
        assert T.conv2d_raw(x, w, stride=3).shape == (1, 3, 2, 2)

    def test_linearity(self):
        """conv(a*x + b*y) = a*conv(x) + b*conv(y) in double precision."""
        x, y = rand((2, 6, 6, 3), 5), rand((2, 6, 6, 3), 6)
        w = rand((3, 3, 3, 4), 7)
        a, b = 2.5, -1.25
        lhs = T.conv2d_raw(a * x + b * y, w, dilation=2)
        rhs = a * T.conv2d_raw(x, w, dilation=2) + b * T.conv2d_raw(y, w, dilation=2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.conv2d_raw(rand((1, 4, 4, 3)), rand((3, 3, 2, 4)))

    def test_even_kernel_rejected(self):
        with pytest.raises(T.UnsupportedConfigError):
            T.conv2d_raw(rand((1, 4, 4, 1)), rand((2, 2, 1, 1)))

    def test_determinism(self):
        x, w = rand((2, 6, 6, 3), 8), rand((3, 3, 3, 4), 9)
        a = T.conv2d_raw(x, w, dilation=2)
        b = T.conv2d_raw(x, w, dilation=2)
        assert a.tobytes() == b.tobytes()


class TestElementwise:
    def test_scalar_product(self):
        x = np.full((1, 1, 1, 1), 2.0)
        y = np.full((1, 1, 1, 1), 3.0)
        assert T.ew_mul(x, y)[0, 0, 0, 0] == 6.0

    def test_mul_identity(self):
        x = rand((2, 3, 4, 2), 1)
        np.testing.assert_array_equal(T.ew_mul(x, np.ones_like(x)), x)

    def test_mul_commutative(self):
        x, y = rand((2, 3, 3, 2), 2), rand((2, 3, 3, 2), 3)
        np.testing.assert_array_equal(T.ew_mul(x, y), T.ew_mul(y, x))

    def test_mul_matches_loop_oracle(self):
        x, y = rand((2, 4, 4, 3), 4), rand((2, 4, 4, 3), 5)
        np.testing.assert_array_equal(
            T.ew_mul(x, y), elementwise_loops(x, y, lambda a, b: a * b))

    def test_sub_self_cancellation(self):
        x = rand((1, 3, 3, 2), 6)
        assert not T.ew_sub(x, x).any()

    def test_sub_antisymmetric(self):
        x, y = rand((2, 3, 3, 1), 7), rand((2, 3, 3, 1), 8)
        np.testing.assert_array_equal(T.ew_sub(x, y), -T.ew_sub(y, x))

    def test_sub_splits_signal_and_noise(self):
        """(S1+N1) - (S2+N2) equals (S1-S2) + (N1-N2) up to rounding."""
        rng = np.random.default_rng(9)
        s1, s2 = rng.normal(size=(1, 4, 4, 2)), rng.normal(size=(1, 4, 4, 2))
        n1, n2 = rng.normal(size=(1, 4, 4, 2)), rng.normal(size=(1, 4, 4, 2))
        got = T.ew_sub(s1 + n1, s2 + n2)
        want = (s1 - s2) + (n1 - n2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_add_identity_and_commutativity(self):
        x, y = rand((2, 3, 3, 2), 10), rand((2, 3, 3, 2), 11)
        np.testing.assert_array_equal(T.ew_add(x, np.zeros_like(x)), x)
        np.testing.assert_array_equal(T.ew_add(x, y), T.ew_add(y, x))

    def test_add_matches_loop_oracle(self):
        x, y = rand((1, 3, 5, 2), 12), rand((1, 3, 5, 2), 13)
        np.testing.assert_array_equal(
            T.ew_add(x, y), elementwise_loops(x, y, lambda a, b: a + b))

    def test_add_associative_within_tolerance(self):
        x, y, z = (rand((2, 3, 3, 2), s) for s in (14, 15, 16))
        lhs = T.ew_add(T.ew_add(x, y), z)
        rhs = T.ew_add(x, T.ew_add(y, z))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        for op in (T.ew_mul, T.ew_sub, T.ew_add):
            with pytest.raises(T.ShapeError):
                op(rand((1, 2, 2, 1)), rand((1, 2, 2, 2)))


class TestGlobalAvgPool:
    def test_hand_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        assert T.global_avg_pool(x)[0, 0] == 2.5

    def test_constant_tensor(self):
        x = np.full((2, 3, 4, 5), 1.75)
        np.testing.assert_array_equal(T.global_avg_pool(x),
                                      np.full((2, 5), 1.75))

    def test_matches_loop_oracle(self):
        x = rand((1, 3, 5, 4), 17)
        np.testing.assert_allclose(T.global_avg_pool(x), gap_loops(x),
                                   rtol=1e-12, atol=1e-14)

    def test_uniform_spatial_positions(self):
        """If every spatial position is identical the mean is that position."""
        row = rand((1, 1, 1, 6), 18)
        x = np.broadcast_to(row, (1, 4, 5, 6)).copy()
        np.testing.assert_allclose(T.global_avg_pool(x), row[:, 0, 0, :],
                                   rtol=1e-15)


class TestFC:
    def test_identity(self):
        x = rand((3, 4), 19)
        np.testing.assert_array_equal(T.fc(x, np.eye(4), np.zeros(4)), x)

    def test_zero_weights_bias_only(self):
        b = rand((5,), 20)
        out = T.fc(rand((3, 4), 21), np.zeros((4, 5)), b)
        np.testing.assert_array_equal(out, np.broadcast_to(b, (3, 5)))

    def test_matches_loop_oracle(self):
        x, w, b = rand((3, 4), 22), rand((4, 6), 23), rand((6,), 24)
        np.testing.assert_allclose(T.fc(x, w, b), fc_loops(x, w, b),
                                   rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.fc(rand((3, 4)), rand((5, 6)), rand((6,)))

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 600), m=st.integers(1, 80), n=st.integers(2, 300),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**16))
    @example(k=392, m=64, n=64, dtype=np.float32, seed=0)
    @example(k=32, m=2, n=7, dtype=np.float32, seed=0)
    @example(k=16, m=1, n=3, dtype=np.float32, seed=0)
    def test_rows_do_not_depend_on_row_count(self, k, m, n, dtype, seed):
        """The first and last of ``n`` rows have the bytes of a one-row
        call: wide inputs, narrow outputs and a single output included."""
        rng = np.random.default_rng(seed)
        x, w, b = (rng.normal(size=shape).astype(dtype)
                   for shape in ((n, k), (k, m), (m,)))
        rows = T.fc(x, w, b)
        for i in (0, n - 1):
            assert rows[i].tobytes() == T.fc(x[i:i + 1], w, b)[0].tobytes()


class TestActivations:
    def test_sigmoid_origin(self):
        assert T.sigmoid(np.zeros((1, 1)))[0, 0] == 0.5

    def test_sigmoid_saturation_no_overflow(self):
        with np.errstate(over="raise"):
            out = T.sigmoid(np.array([[-1000.0, 1000.0]]))
        assert out[0, 0] == 0.0
        assert out[0, 1] == 1.0

    def test_relu(self):
        x = np.array([[-2.0, 0.0, 3.5]])
        np.testing.assert_array_equal(T.relu(x), [[0.0, 0.0, 3.5]])


def softmax_pair(a_hat, b_hat):
    """The gate's two softmax weights as the block forms them: a is
    sigmoid(a_hat - b_hat) and b its complement 1 - a."""
    a = T.sigmoid(a_hat - b_hat)
    return a, 1.0 - a


def softmax_mp(ah, bh):
    """exp(ah) / (exp(ah) + exp(bh)) evaluated to 50 digits."""
    with mpmath.workdps(50):
        ea, eb = mpmath.exp(ah), mpmath.exp(bh)
        return float(ea / (ea + eb))


class TestSoftmaxPair:
    def test_equal_scores_midpoint(self):
        a, b = softmax_pair(np.zeros((2, 3)), np.zeros((2, 3)))
        np.testing.assert_array_equal(a, np.full((2, 3), 0.5))
        np.testing.assert_array_equal(b, np.full((2, 3), 0.5))

    def test_extreme_scores_match_high_precision(self):
        """a at score gap 1000 agrees with a 50-digit evaluation, no overflow."""
        with np.errstate(over="raise"):
            a, b = softmax_pair(np.array([[1000.0]]), np.array([[0.0]]))
        want = softmax_mp(1000, 0)
        assert abs(float(a[0, 0]) - want) < 1e-12
        assert abs(float(a[0, 0]) - 1.0) < 1e-12
        assert b[0, 0] == 1.0 - a[0, 0]

    @given(st.floats(-500, 500), st.floats(-500, 500))
    @settings(max_examples=200, deadline=None)
    def test_complement_and_sigmoid_identity(self, ah, bh):
        """a + b = 1 within 1 ulp and sigmoid(a_hat - b_hat) equals the
        softmax weight to 1e-12."""
        a, b = softmax_pair(np.array([[ah]]), np.array([[bh]]))
        total = float(a[0, 0]) + float(b[0, 0])
        assert abs(total - 1.0) <= math.ulp(1.0)
        assert abs(float(a[0, 0]) - softmax_mp(ah, bh)) < 1e-12

    def test_matches_plain_softmax_in_safe_range(self):
        rng = np.random.default_rng(25)
        ah, bh = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
        a, _ = softmax_pair(ah, bh)
        plain = np.exp(ah) / (np.exp(ah) + np.exp(bh))
        np.testing.assert_allclose(a, plain, rtol=1e-12)


class TestDebugChecks:
    def test_non_finite_raises_only_in_debug_mode(self):
        """A tape op's overflow passes unless debug checks are on, even on
        a tape that records nothing."""
        def square():
            tape = Tape()
            big = tape.constant(np.full((1, 1, 1, 1), 1e308))
            with np.errstate(over="ignore"):
                return tape.mul(big, big).value

        assert np.isinf(square()).all()
        T.set_debug_checks(True)
        try:
            with pytest.raises(T.NonFiniteError,
                               match="^non-finite output of ew_mul$"):
                square()
        finally:
            T.set_debug_checks(False)
        assert not T.debug_checks_enabled()


class TestValidators:
    def test_tensor4_validation(self):
        with pytest.raises(T.ShapeError) as err:
            T.check_layout(np.zeros((2, 2)), "nhwc", "x")
        assert str(err.value) == "x must have rank 4 (n,h,w,c), got shape (2, 2)"
        with pytest.raises(T.ShapeError) as err:
            T.check_layout(np.zeros((1, 0, 1, 1)), "nhwc", "x")
        assert str(err.value) == "x has an empty dimension: (1, 0, 1, 1)"
        T.check_layout(np.zeros((1, 1, 1, 1)), "nhwc", "x")

    def test_channel_vec_validation(self):
        with pytest.raises(T.ShapeError) as err:
            T.check_layout(np.zeros(3), "nc", "s")
        assert str(err.value) == "s must have rank 2 (n,c), got shape (3,)"
        with pytest.raises(T.ShapeError) as err:
            T.check_layout(np.zeros((2, 0)), "nc", "s")
        assert str(err.value) == "s has an empty dimension: (2, 0)"
        T.check_layout(np.zeros((2, 3)), "nc", "s")

    def test_same_pad_rules(self):
        assert T.same_pad(3, 1) == 1
        assert T.same_pad(3, 2) == 2
        assert T.same_pad(5, 2) == 4
        with pytest.raises(T.UnsupportedConfigError):
            T.same_pad(4, 1)


def row_fold_reference(x, w, dilation, stride):
    """The conv in the row-folded kernel's order, by plain loops: per image
    and block of output rows of at most ``T._BLOCK_BYTES`` of fold, each
    kernel row's kw taps of the zero-padded input side by side (K = kw*c),
    times w[ky]; the first kernel row assigned, later ones added."""
    k, _, c_in, c_out = w.shape
    pad = T.same_pad(k, dilation)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = T.conv_out_len(x.shape[1], stride)
    block = max(1, T._BLOCK_BYTES // (oh * k * c_in * x.itemsize))
    span = (oh - 1) * stride + 1
    ref = np.empty((x.shape[0], oh, oh, c_out))
    for i in range(x.shape[0]):
        for a in range(0, oh, block):
            b = min(oh, a + block)
            for ky in range(k):
                y0 = ky * dilation + a * stride
                rows = xp[i, y0:y0 + (b - a - 1) * stride + 1:stride]
                fold = np.concatenate(
                    [rows[:, kx * dilation:kx * dilation + span:stride]
                     for kx in range(k)], axis=-1)
                prod = (fold.reshape(-1, k * c_in) @ w[ky].reshape(-1, c_out)
                        ).reshape(b - a, oh, c_out)
                if ky:
                    ref[i, a:b] += prod
                else:
                    ref[i, a:b] = prod
    return ref


# 1x1 kernels at the widths where an OpenBLAS row can depend on the row
# count (c_out % 8 in {1, 2, 3}) and at the desk's, each walked in chunks
ONE_BY_ONE = [(stride, n, 16 * stride, 16, c_out, chunks)
              for stride in (1, 2)
              for n, c_out, chunks in ((130, 1, 2), (130, 2, 3), (130, 3, 4),
                                       (16, 17, 3), (16, 32, 4))]


class TestConvKernelBytes:
    @pytest.mark.parametrize("k,dilation,stride,n,size,c_in,c_out,chunks", [
        (3, 1, 2, 3, 8, 16, 32, 1),
        (3, 2, 1, 3, 8, 16, 32, 1),
        (1, 1, 1, 3, 8, 16, 32, 1),
        (1, 1, 2, 3, 8, 16, 32, 1),
        (3, 1, 1, 20, 32, 3, 16, 10),  # desk stem, last batch of 500 images
        (3, 1, 2, 20, 32, 16, 32, 5),  # desk branch convs
        (3, 2, 2, 20, 32, 16, 32, 5),
        (3, 2, 2, 7, 32, 16, 32, 2),  # uneven last chunk: 4 + 3 images
        (3, 1, 1, 3, 64, 3, 16, 3),  # 64x64 stem: one image per chunk
        *((1, 1, *case) for case in ONE_BY_ONE),
    ], ids=["3-1-2", "3-2-1", "1-1-1", "1-1-2", "desk-stem", "desk-k3",
            "desk-k5", "uneven", "stem-64",
            *(f"1x1-s{s}-c{c}" for s, _, _, _, c, _ in ONE_BY_ONE)])
    def test_bytes_match_zero_init_accumulation(self, k, dilation, stride, n,
                                                size, c_in, c_out, chunks):
        """The row-folded order: per image and row block, the first kernel
        row's GEMM assigned and later ones added, however many chunks the
        batch is walked in, into a fresh array or over every element of a
        given ``out``.  A 1x1 kernel gives the bits of one product over the
        whole batch."""
        oh = T.conv_out_len(size, stride)
        step = max(1, T._CHUNK_BYTES // (oh * oh * c_out * 8))
        assert -(-n // step) == chunks
        x = rand((n, size, size, c_in), 60)
        w = rand((k, k, c_in, c_out), 61)
        if k == 1:
            ref = np.matmul(x[:, ::stride, ::stride, :], w[0, 0])
        else:
            ref = row_fold_reference(x, w, dilation, stride)
        assert T.conv2d_raw(x, w, dilation, stride).tobytes() == ref.tobytes()
        out = np.full(ref.shape, np.nan)
        assert T.conv2d_raw(x, w, dilation, stride, out=out) is out
        assert out.tobytes() == ref.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([1, 3, 5]), dilation=st.integers(1, 3),
           stride=st.integers(1, 3), h=st.integers(1, 40),
           wd=st.integers(1, 40), n=st.integers(1, 5), c_in=st.integers(1, 3),
           c_out=st.sampled_from([1, 2, 3, 17, 32]),
           chunk_bytes=st.sampled_from([1, 300, T._CHUNK_BYTES]),
           block_bytes=st.sampled_from([1, 2000, T._BLOCK_BYTES]),
           seed=st.integers(0, 2**16))
    def test_image_bits_depend_only_on_the_image(self, k, dilation, stride, h,
                                                 wd, n, c_in, c_out,
                                                 chunk_bytes, block_bytes,
                                                 seed):
        """A batch's outputs equal each image's own call byte for byte, at
        the OpenBLAS narrow widths, sizes the stride does not divide, and
        one row block or several, in chunks of any size."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, h, wd, c_in))
        w = rng.normal(size=(k, k, c_in, c_out))
        with mock.patch.multiple(T, _CHUNK_BYTES=chunk_bytes,
                                 _BLOCK_BYTES=block_bytes):
            batch = T.conv2d_raw(x, w, dilation, stride)
            for i in range(n):
                one = T.conv2d_raw(x[i:i + 1], w, dilation, stride)
                assert one.tobytes() == batch[i:i + 1].tobytes(), i

    def test_out_of_another_shape_or_dtype_rejected(self):
        x = rand((2, 8, 8, 3), 62)
        w = rand((3, 3, 3, 4), 63)
        for out in (np.empty((2, 8, 8, 5)), np.empty((2, 8, 8, 4), np.float32)):
            with pytest.raises(T.ShapeError, match="output buffer"):
                T.conv2d_raw(x, w, out=out)


class TestEvenChunks:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 2000), step=st.integers(0, 3000))
    @example(n=3, step=1)
    def test_chunks_cover_in_order_largest_first(self, n, step):
        """Contiguous chunks over [0, n), sizes near-equal and falling, none
        over the step, as few as that allows."""
        chunks = T.even_chunks(n, step)
        assert chunks[0].start == 0 and chunks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        sizes = [c.stop - c.start for c in chunks]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] - sizes[-1] <= 1
        assert sizes[0] <= max(1, step)
        assert len(chunks) == max(1, -(-n // max(1, step)))
