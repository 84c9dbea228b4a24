"""Reverse-mode tape tests.

Analytic gradients are checked three ways: hand-derived closed forms on tiny
inputs, structural identities (fan-out accumulation, zero seeds), and central
finite differences via finite_diff_check.
"""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msconv import tensor as T
from msconv.autograd import (GradientCheckError, Gradients, Tape,
                             TapeReuseError, _conv2d_vjp, finite_diff_check)
from msconv.data import gen_synthetic
from msconv.model import (StageSpec, TinyNetConfig, depth_step, init_params,
                          margin_ce_on_tape, tinynet_forward)
from msconv.train import RunConfig, build_config, full_init
from oracles import fresh_sum_backward


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, shape)


def t4(value):
    return np.full((1, 1, 1, 1), float(value))


class TestHandGradients:
    def test_product_swaps_factors(self):
        """d(x*y)/dx = y and d(x*y)/dy = x, bitwise."""
        tape = Tape()
        x, y = tape.leaf(t4(2.0)), tape.leaf(t4(3.0))
        loss = tape.sum(tape.mul(x, y))
        grads = tape.backward(loss)
        assert grads[x][0, 0, 0, 0] == 3.0
        assert grads[y][0, 0, 0, 0] == 2.0

    def test_difference_signs(self):
        tape = Tape()
        x, y = tape.leaf(rand((1, 2, 2, 1), 1)), tape.leaf(rand((1, 2, 2, 1), 2))
        grads = tape.backward(tape.sum(tape.sub(x, y)))
        np.testing.assert_array_equal(grads[x], np.ones((1, 2, 2, 1)))
        np.testing.assert_array_equal(grads[y], -np.ones((1, 2, 2, 1)))

    def test_fanout_accumulates(self):
        """x used twice in x*x gives d/dx = 2x, exact because x + x is exact."""
        tape = Tape()
        xv = rand((1, 3, 3, 2), 3)
        x = tape.leaf(xv)
        grads = tape.backward(tape.sum(tape.mul(x, x)))
        np.testing.assert_array_equal(grads[x], 2.0 * xv)

    def test_mean_distributes_seed(self):
        tape = Tape()
        x = tape.leaf(rand((1, 2, 2, 2), 4))
        grads = tape.backward(tape.mean(x))
        np.testing.assert_array_equal(grads[x], np.full((1, 2, 2, 2), 0.125))

    def test_gap_spreads_uniformly(self):
        tape = Tape()
        x = tape.leaf(rand((2, 2, 3, 4), 5))
        grads = tape.backward(tape.sum(tape.gap(x)))
        np.testing.assert_allclose(grads[x], np.full((2, 2, 3, 4), 1.0 / 6.0),
                                   rtol=1e-15)

    def test_relu_gate(self):
        tape = Tape()
        xv = np.array([[[[-1.0, 0.0, 2.0, 3.0]]]])
        x = tape.leaf(xv)
        grads = tape.backward(tape.sum(tape.relu(x)))
        np.testing.assert_array_equal(grads[x], [[[[0.0, 0.0, 1.0, 1.0]]]])

    def test_sigmoid_peak_slope(self):
        """sigmoid'(0) = 1/4 exactly (0.5 * 0.5)."""
        tape = Tape()
        x = tape.leaf(np.zeros((1, 1)))
        grads = tape.backward(tape.sum(tape.sigmoid(x)))
        assert grads[x][0, 0] == 0.25

    def test_halves_scatter_disjointly(self):
        tape = Tape()
        x = tape.leaf(rand((2, 6), 6))
        lo = tape.sum(tape.half(x, 0))
        grads = tape.backward(lo)
        want = np.zeros((2, 6))
        want[:, :3] = 1.0
        np.testing.assert_array_equal(grads[x], want)

    def test_linear_map_constant_gradient(self):
        """For f(p) = sum(3p) the finite-difference error is pure roundoff."""
        def build(tape, leaves):
            three = tape.leaf(np.full((1, 2, 2, 1), 3.0))
            return tape.sum(tape.mul(three, leaves["p"]))

        err = finite_diff_check(build, {"p": rand((1, 2, 2, 1), 7)})
        assert err < 1e-10


class TestFiniteDifferences:
    """Every differentiable op passes a central-difference check below 1e-6."""

    THRESHOLD = 1e-6

    def check(self, build, params):
        err = finite_diff_check(build, params)
        assert err < self.THRESHOLD, f"max relative error {err}"

    def test_conv2d(self):
        self.check(
            lambda tp, lv: tp.sum(tp.conv2d(lv["x"], lv["w"], dilation=2,
                                            stride=2)),
            {"x": rand((2, 6, 5, 2), 10), "w": rand((3, 3, 2, 3), 11)})

    def test_mul(self):
        self.check(lambda tp, lv: tp.sum(tp.mul(lv["a"], lv["b"])),
                   {"a": rand((2, 3, 3, 2), 12), "b": rand((2, 3, 3, 2), 13)})

    def test_add_sub(self):
        self.check(
            lambda tp, lv: tp.sum(tp.sub(tp.add(lv["a"], lv["b"]), lv["b"])),
            {"a": rand((1, 2, 2, 2), 14), "b": rand((1, 2, 2, 2), 15)})

    def test_gap(self):
        self.check(lambda tp, lv: tp.sum(tp.gap(lv["x"])),
                   {"x": rand((2, 3, 4, 2), 16)})

    def test_fc(self):
        self.check(
            lambda tp, lv: tp.sum(tp.fc(lv["x"], lv["w"], lv["b"])),
            {"x": rand((3, 4), 17), "w": rand((4, 5), 18), "b": rand((5,), 19)})

    def test_relu_away_from_kink(self):
        xv = rand((2, 3, 3, 2), 20)
        xv[np.abs(xv) < 0.1] = 0.5  # keep eps-steps on one side of zero
        self.check(lambda tp, lv: tp.sum(tp.relu(lv["x"])), {"x": xv})

    def test_sigmoid(self):
        self.check(lambda tp, lv: tp.sum(tp.sigmoid(lv["x"])),
                   {"x": rand((3, 4), 21)})

    def test_one_minus(self):
        self.check(lambda tp, lv: tp.sum(tp.one_minus(lv["x"])),
                   {"x": rand((2, 3), 22)})

    def test_halves(self):
        def build(tp, lv):
            a = tp.half(lv["x"], 0)
            b = tp.half(lv["x"], 1)
            return tp.sum(tp.sigmoid(tp.sub(a, b)))

        self.check(build, {"x": rand((2, 6), 23)})

    def test_scale_channels(self):
        self.check(
            lambda tp, lv: tp.sum(tp.scale_channels(lv["x"], lv["c"])),
            {"x": rand((2, 3, 3, 4), 24), "c": rand((2, 4), 25)})

    def test_l2_normalize_rows(self):
        def build(tp, lv):
            w = tp.leaf(rand((2, 5), 27))
            return tp.sum(tp.mul(tp.l2_normalize_rows(lv["x"]), w))

        self.check(build, {"x": rand((2, 5), 26)})

    def test_composite_attention_path(self):
        """gap -> fc -> relu -> fc -> sigmoid, the full gating chain."""
        def build(tp, lv):
            s = tp.gap(lv["x"])
            z = tp.relu(tp.fc(s, lv["w1"], lv["b1"]))
            return tp.sum(tp.sigmoid(tp.fc(z, lv["w2"], lv["b2"])))

        self.check(build, {
            "x": rand((2, 4, 4, 3), 28),
            "w1": rand((3, 2), 29), "b1": rand((2,), 30) + 0.5,
            "w2": rand((2, 6), 31), "b2": rand((6,), 32)})


class TestTapeSemantics:
    def test_backward_consumes_tape(self):
        tape = Tape()
        x = tape.leaf(t4(1.0))
        loss = tape.sum(x)
        tape.backward(loss)
        with pytest.raises(TapeReuseError):
            tape.backward(loss)

    def test_no_ops_after_backward(self):
        tape = Tape()
        x = tape.leaf(t4(1.0))
        tape.backward(tape.sum(x))
        with pytest.raises(TapeReuseError):
            tape.sum(x)
        with pytest.raises(TapeReuseError):
            tape.leaf(t4(2.0))

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(rand((1, 2, 2, 1)))
        y = tape.relu(x)
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_cross_tape_var_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf(t4(1.0))
        with pytest.raises(ValueError):
            t2.relu(x)
        y = t2.leaf(t4(1.0))
        t2.sum(y)
        with pytest.raises(ValueError):
            t2.backward(x)

    def test_intermediate_gradients_freed(self):
        """Backward keeps leaf gradients only: asking for an op output's
        raises, while leaves and constants still answer."""
        tape = Tape()
        x = tape.leaf(rand((1, 2, 2, 3), 38))
        c = tape.constant(rand((1, 2, 2, 3), 39))
        y = tape.mul(x, c)
        loss = tape.sum(tape.relu(y))
        grads = tape.backward(loss)
        assert list(grads._grads) == [x.index]
        for var in (y, loss):
            with pytest.raises(ValueError, match="freed during backward"):
                grads[var]
        np.testing.assert_array_equal(grads[x], c.value * (y.value > 0))
        np.testing.assert_array_equal(grads[c], np.zeros_like(c.value))

    def test_unused_leaf_gets_zeros(self):
        tape = Tape()
        x = tape.leaf(rand((1, 2, 2, 1), 34))
        unused = tape.leaf(rand((3, 3), 35))
        grads = tape.backward(tape.sum(x))
        np.testing.assert_array_equal(grads[unused], np.zeros((3, 3)))

    def test_zero_seed_zero_gradients(self):
        tape = Tape()
        x = tape.leaf(rand((1, 2, 2, 1), 36))
        grads = tape.backward(tape.sum(tape.sigmoid(x)), seed=0.0)
        assert not grads[x].any()

    def test_seed_scales_linearly(self):
        xv = rand((1, 2, 2, 2), 37)
        results = []
        for seed in (1.0, -2.5):
            tape = Tape()
            x = tape.leaf(xv)
            grads = tape.backward(tape.sum(tape.mul(x, x)), seed=seed)
            results.append(grads[x])
        np.testing.assert_allclose(results[1], -2.5 * results[0], rtol=1e-15)

    def test_gradients_reject_foreign_var(self):
        tape = Tape()
        x = tape.leaf(t4(1.0))
        grads = tape.backward(tape.sum(x))
        other = Tape().leaf(t4(1.0))
        with pytest.raises(ValueError):
            grads[other]

    def test_determinism(self):
        def run():
            tape = Tape()
            x = tape.leaf(rand((2, 4, 4, 2), 38))
            w = tape.leaf(rand((3, 3, 2, 3), 39))
            loss = tape.sum(tape.sigmoid(tape.gap(tape.conv2d(x, w))))
            g = tape.backward(loss)
            return g[x].tobytes(), g[w].tobytes()

        assert run() == run()

    def test_backward_releases_records(self):
        """The consumed tape drops its vjp closures and their saved values."""
        tape = Tape()
        x = tape.leaf(rand((1, 2, 2, 1), 56))
        tape.backward(tape.sum(tape.relu(x)))
        assert tape._records == []


class TestEdgeBehavior:
    def test_l2_normalize_zero_row(self):
        """A zero row stays zero in the forward and blocks the gradient."""
        tape = Tape()
        xv = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])
        x = tape.leaf(xv)
        out = tape.l2_normalize_rows(x)
        np.testing.assert_array_equal(out.value[0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(out.value[1], [0.6, 0.0, 0.8], rtol=1e-15)
        grads = tape.backward(tape.sum(out))
        assert not grads[x][0].any()

    def test_normalized_output_orthogonal_gradient(self):
        """d(norm)/dx is tangent: the gradient row is orthogonal to the output."""
        tape = Tape()
        xv = rand((3, 4), 40)
        x = tape.leaf(xv)
        out = tape.l2_normalize_rows(x)
        weights = tape.leaf(rand((3, 4), 41))
        grads = tape.backward(tape.sum(tape.mul(out, weights)))
        dots = np.sum(grads[x] * out.value, axis=1)
        np.testing.assert_allclose(dots, 0.0, atol=1e-14)

    def test_odd_half_rejected(self):
        tape = Tape()
        with pytest.raises(T.ShapeError):
            tape.half(tape.leaf(rand((2, 5))), 0)

    def test_scale_channels_shape_guard(self):
        tape = Tape()
        with pytest.raises(T.ShapeError):
            tape.scale_channels(tape.leaf(rand((2, 3, 3, 4))),
                                tape.leaf(rand((2, 3))))

    def test_gradient_check_rejects_non_finite_loss(self):
        def build(tape, leaves):
            big = tape.leaf(np.full((1, 1, 1, 1), 1e308))
            return tape.sum(tape.mul(big, big))

        with np.errstate(over="ignore"):
            with pytest.raises(GradientCheckError):
                finite_diff_check(build, {"p": np.ones((1, 1, 1, 1))})

    def test_gradients_zero_fallback_shape(self):
        tape = Tape()
        used = tape.leaf(t4(2.0))
        spare = tape.leaf(np.zeros((2, 7)))
        g = tape.backward(tape.sum(used))
        assert isinstance(g, Gradients)
        assert g[spare].shape == (2, 7)


class TestConstants:
    def test_constant_gets_no_gradient(self):
        """A constant factor scales the leaf's gradient but receives none."""
        tape = Tape()
        cv = rand((1, 2, 2, 3), 42)
        x, c = tape.leaf(rand((1, 2, 2, 3), 43)), tape.constant(cv)
        grads = tape.backward(tape.sum(tape.mul(x, c)))
        np.testing.assert_array_equal(grads[x], cv)
        np.testing.assert_array_equal(grads[c], np.zeros_like(cv))

    def test_constant_ops_are_not_recorded(self):
        """Ops on constants alone keep no record; a leaf input makes one."""
        tape = Tape()
        c = tape.constant(rand((1, 3, 3, 2), 44))
        k = tape.constant(rand((3, 3, 2, 2), 45))
        y = tape.relu(tape.conv2d(c, k))
        assert tape._records == []
        w = tape.leaf(rand((3, 3, 2, 2), 46))
        tape.conv2d(y, w)
        assert [r.op_id for r in tape._records] == ["conv2d"]


class TestWorkspace:
    def test_leaves_on_tapes_sharing_a_workspace(self):
        """Two tapes with leaves share one workspace: the second, on a
        smaller batch, writes its conv outputs into views of the first's
        buffers, and its gradients have a plain tape's bits."""
        def run(tape, seed, n):
            w1, w2 = (tape.leaf(rand((3, 3, c, 3), seed + c)) for c in (2, 3))
            x = tape.constant(rand((n, 6, 6, 2), seed))
            h = tape.conv2d(x, w1)
            y = tape.conv2d(h, w2, dilation=2)
            grads = tape.backward(tape.sum(tape.mul(y, y)))
            return (h.value, y.value), (grads[w1], grads[w2])

        ws = []
        run(Tape(ws), 53, 4)
        values, got = run(Tape(ws), 57, 3)
        assert len(ws) == 2
        assert all(v.base is buf for v, buf in zip(values, ws))
        _, want = run(Tape(), 57, 3)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

    def test_buffers_reused_in_allocation_order(self):
        """The next tape gets the first tape's buffers, in order, as views
        of their leading rows; a plain tape gets fresh arrays."""
        ws = []
        first = Tape(ws)
        a, b = first.empty((4, 3), np.float64), first.empty((4, 5), np.float64)
        second = Tape(ws)
        c, d = second.empty((3, 3), np.float64), second.empty((3, 5), np.float64)
        assert len(ws) == 2
        assert c.base is ws[0] and np.shares_memory(a, c) and c.shape == (3, 3)
        assert d.base is ws[1] and np.shares_memory(b, d) and d.shape == (3, 5)
        assert not np.shares_memory(Tape().empty((4, 3), np.float64), a)

    def test_mismatched_buffer_replaced(self):
        """A buffer too small or of another row shape or dtype is replaced."""
        ws = []
        Tape(ws).empty((2, 3), np.float64)
        for shape, dtype in (((3, 3), np.float64), ((3, 4), np.float64),
                             ((3, 4), np.float32)):
            out = Tape(ws).empty(shape, dtype)
            assert out.shape == shape and out.dtype == dtype
            assert ws[0].shape == shape and ws[0].dtype == dtype

    def test_conv_writes_into_workspace(self):
        """Tape.conv2d takes its output from the workspace, same bits."""
        x, w = rand((3, 6, 6, 2), 51), rand((3, 3, 2, 4), 52)
        ws = []
        tape = Tape(ws)
        y = tape.conv2d(tape.constant(x), tape.constant(w))
        assert y.value.base is ws[0]
        assert y.value.tobytes() == T.conv2d_raw(x, w).tobytes()


def _vjp_reference(g, x, w, dilation, stride):
    """The tap loop with np.tensordot for dW and a 4-D matmul for dx."""
    kh, kw = w.shape[:2]
    ph, pw = T.same_pad(kh, dilation), T.same_pad(kw, dilation)
    oh, ow = g.shape[1:3]
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for ky in range(kh):
        ys = slice(ky * dilation, ky * dilation + (oh - 1) * stride + 1, stride)
        for kx in range(kw):
            xs = slice(kx * dilation, kx * dilation + (ow - 1) * stride + 1,
                       stride)
            dw[ky, kx] = np.tensordot(xp[:, ys, xs, :], g,
                                      axes=([0, 1, 2], [0, 1, 2]))
            dxp[:, ys, xs, :] += g @ w[ky, kx].T
    return dxp[:, ph:ph + x.shape[1], pw:pw + x.shape[2], :], dw


def _reaching_taps(k, dilation, stride, phase, size, out_len):
    """(t, off) for each tap t of a k-tap axis through which input rows
    ``phase + stride*j`` receive ``g[j + off]`` for some j, found by trying
    every input row against every output row."""
    pad = T.same_pad(k, dilation)
    taps = []
    for t in range(k):
        offs = {o - j for j in range(len(range(phase, size, stride)))
                for o in range(out_len)
                if stride * o + dilation * t - pad == phase + stride * j}
        taps += [(t, off) for off in offs]
    return taps


def _vjp_folded_reference(g, x, w, dilation, stride):
    """The vjp in the row-folded kernel's order, by plain loops.

    dW: per image in order and kernel row, the row's kw taps of the
    zero-padded x side by side (K = kw*c_in), np.tensordot with the image's
    g.  dx: per column group (every column phase at once when each is
    reached, else each reached phase alone), row phase, image and block of
    at most ``T._BLOCK_BYTES`` of fold, per reaching row tap in ky order,
    the zero-padded g at every column offset the group's taps read, side by
    side in offset order, times a matrix holding w[ky, kx].T at each column
    tap's (offset, phase) and zeros elsewhere; the first row tap assigned,
    later ones added.
    """
    n, h, wd, c_in = x.shape
    kh, kw, _, c_out = w.shape
    oh, ow = g.shape[1:3]
    ph, pw = T.same_pad(kh, dilation), T.same_pad(kw, dilation)
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    dw = np.zeros_like(w)
    for i in range(n):
        for ky in range(kh):
            rows = xp[i, ky * dilation:ky * dilation + (oh - 1) * stride + 1:
                      stride]
            fold = np.concatenate(
                [rows[:, kx * dilation:kx * dilation + (ow - 1) * stride + 1:
                      stride] for kx in range(kw)], axis=-1)
            dw[ky] += np.tensordot(fold, g[i], axes=([0, 1], [0, 1])
                                   ).reshape(kw, c_in, c_out)
    pad = max(kh, kw) * dilation
    gp = np.pad(g, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = [_reaching_taps(kw, dilation, stride, rx, wd, ow)
            for rx in range(stride)]
    reached = [rx for rx in range(stride) if cols[rx]]
    groups = [reached] if len(reached) == stride else [[rx] for rx in reached]
    dx = np.zeros_like(x)
    for group in groups:
        offs = sorted({off for rx in group for _, off in cols[rx]})
        width = len(range(group[0], wd, stride))
        fold_row = width * len(offs) * c_out * g.itemsize
        block = max(1, T._BLOCK_BYTES // fold_row)
        for ry in range(stride):
            ty = _reaching_taps(kh, dilation, stride, ry, h, oh)
            mats = []
            for ky, _ in ty:
                mat = np.zeros((len(offs), c_out, len(group), c_in))
                for p, rx in enumerate(group):
                    for kx, off in cols[rx]:
                        mat[offs.index(off), :, p] = w[ky, kx].T
                mats.append(mat.reshape(-1, len(group) * c_in))
            height = len(range(ry, h, stride)) if ty else 0
            for i in range(n):
                for a in range(0, height, block):
                    b = min(height, a + block)
                    acc = None
                    for (_, dy), mat in zip(ty, mats):
                        fold = np.concatenate(
                            [gp[i, pad + dy + a:pad + dy + b,
                                pad + off:pad + off + width] for off in offs],
                            axis=-1)
                        prod = fold.reshape(-1, fold.shape[-1]) @ mat
                        acc = prod if acc is None else acc + prod
                    rows = slice(ry + stride * a, ry + stride * b, stride)
                    if len(group) > 1:  # every phase: a dx row, cut to w
                        dx[i, rows] = acc.reshape(b - a, -1)[
                            :, :wd * c_in].reshape(b - a, wd, c_in)
                    else:
                        dx[i, rows, group[0]::stride] = acc.reshape(
                            b - a, width, c_in)
    return dx, dw


def _gamma(terms):
    """Higham's gamma_N = N u / (1 - N u), u = eps / 2, for float64."""
    u = np.finfo(np.float64).eps / 2
    return terms * u / (1 - terms * u)


def _vjp_error_bound(g, x, w, dilation, stride):
    """Elementwise bounds on |kernel - reference| for dx and dW.

    Each element of dx is a sum of N = kh*kw*c_out products and each element
    of dW a sum of N = n*oh*ow.  Computed in float64 in any order, with or
    without fused multiply-adds, such a sum errs by at most
    gamma_N * sum |a_i b_i| (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., section 3.1).  The kernel and the reference each
    obey that, so they differ by at most 2 gamma_N sum |a_i b_i|.  The sums
    of |a_i b_i| are the reference vjp of |g|, |x| and |w|, which itself
    may read low by a factor (1 - gamma_N), hence the division.  Padding
    adds exact zero products only, which add no error.
    """
    kh, kw, _, c_out = w.shape
    mag_dx, mag_dw = _vjp_reference(np.abs(g), np.abs(x), np.abs(w),
                                    dilation, stride)
    bounds = []
    for mag, terms in ((mag_dx, kh * kw * c_out), (mag_dw, g[..., 0].size)):
        gamma = _gamma(terms)
        bounds.append(2 * gamma / (1 - gamma) * mag)
    return bounds


def assert_vjp_matches_reference(g, x, w, dilation, stride, need_x=True,
                                 need_w=True):
    got = _conv2d_vjp(g, x, w, dilation, stride, need_x, need_w)
    refs = _vjp_reference(g, x, w, dilation, stride)
    bounds = _vjp_error_bound(g, x, w, dilation, stride)
    for name, need, val, ref, bound in zip(("dx", "dW"), (need_x, need_w),
                                           got, refs, bounds):
        if not need:
            assert val is None, name
            continue
        assert val.shape == ref.shape, name
        excess = np.abs(val - ref) - bound
        assert excess.max() <= 0, f"{name} off by {excess.max():.3g} past bound"


class TestConvVjpKernels:
    @pytest.mark.parametrize("k,dilation,stride", [
        (3, 1, 2), (3, 2, 1), (3, 2, 2), (1, 1, 1), (1, 1, 2)])
    def test_bytes_match_tensordot_reference(self, k, dilation, stride):
        """Both keep every bit of the folded loop: dW one GEMM per image and
        kernel row (the tensordot of its folded taps), added in image order,
        and dx per row phase, image and row block one GEMM per reaching row
        tap in ky order, over all of a dx row's column phases when each is
        reached.  The bound tests below hold the kernel to the plain tap
        loop within rounding."""
        x = rand((3, 8, 8, 16), 50)
        w = rand((k, k, 16, 32), 51)
        oh = T.conv_out_len(8, stride)
        g = rand((3, oh, oh, 32), 52)
        ref_dx, ref_dw = _vjp_folded_reference(g, x, w, dilation, stride)
        dx, dw = _conv2d_vjp(g, x, w, dilation, stride)
        assert dw.tobytes() == ref_dw.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(kh=st.sampled_from([1, 3, 5]), kw=st.sampled_from([1, 3, 5]),
           dilation=st.integers(1, 3), stride=st.integers(1, 3),
           h=st.integers(1, 9), wd=st.integers(1, 9), n=st.integers(1, 5),
           c_in=st.integers(1, 3), c_out=st.integers(1, 3),
           need=st.sampled_from([(True, True), (True, False), (False, True),
                                 (False, False)]),
           chunk_bytes=st.sampled_from([1, 300, T._CHUNK_BYTES]),
           seed=st.integers(0, 2**16))
    def test_matches_reference_property(self, kh, kw, dilation, stride, h,
                                        wd, n, c_in, c_out, need, chunk_bytes,
                                        seed):
        """Every geometry, sizes below and not divisible by the stride
        included, and batches of one chunk, several, and one image each."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, h, wd, c_in))
        w = rng.normal(size=(kh, kw, c_in, c_out))
        g = rng.normal(size=(n, T.conv_out_len(h, stride),
                             T.conv_out_len(wd, stride), c_out))
        with mock.patch.object(T, "_CHUNK_BYTES", chunk_bytes):
            assert_vjp_matches_reference(g, x, w, dilation, stride, *need)

    @settings(max_examples=300, deadline=None)
    @given(kh=st.sampled_from([1, 3, 5]), kw=st.sampled_from([1, 3, 5]),
           dilation=st.integers(1, 3), stride=st.integers(1, 3),
           h=st.integers(1, 40), wd=st.integers(1, 40), n=st.integers(1, 5),
           c_in=st.integers(1, 3), c_out=st.sampled_from([1, 2, 3, 17, 32]),
           chunk_bytes=st.sampled_from([1, 300, T._CHUNK_BYTES]),
           block_bytes=st.sampled_from([1, 2000, T._BLOCK_BYTES]),
           seed=st.integers(0, 2**16))
    def test_image_dx_depends_only_on_the_image(self, kh, kw, dilation, stride,
                                                h, wd, n, c_in, c_out,
                                                chunk_bytes, block_bytes, seed):
        """A batch's dx equals each image's own call byte for byte, at the
        OpenBLAS narrow widths, sizes the stride does not divide, and one
        row block or several, in chunks of any size."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, h, wd, c_in))
        w = rng.normal(size=(kh, kw, c_in, c_out))
        g = rng.normal(size=(n, T.conv_out_len(h, stride),
                             T.conv_out_len(wd, stride), c_out))
        with mock.patch.multiple(T, _CHUNK_BYTES=chunk_bytes,
                                 _BLOCK_BYTES=block_bytes):
            dx, _ = _conv2d_vjp(g, x, w, dilation, stride, need_w=False)
            for i in range(n):
                one, _ = _conv2d_vjp(g[i:i + 1], x[i:i + 1], w, dilation,
                                     stride, need_w=False)
                assert one.tobytes() == dx[i:i + 1].tobytes(), i

    @pytest.mark.parametrize("c_in,k,dilation,stride,need_x", [
        (3, 3, 1, 1, False),
        (16, 3, 1, 2, True),
        (16, 3, 2, 2, True),
        (16, 1, 1, 2, True),
    ], ids=["stem-dW", "k3", "k5", "proj"])
    def test_desk_shapes_match_reference(self, c_in, k, dilation, stride,
                                         need_x):
        """The desk step's convs at batch 32, 32x32 input, each walked in
        several chunks; the stem's input is a constant, so dW only."""
        c_out = 16 if c_in == 3 else 32
        x = rand((32, 32, 32, c_in), 56)
        w = rand((k, k, c_in, c_out), 57)
        oh = T.conv_out_len(32, stride)
        g = rand((32, oh, oh, c_out), 58)
        assert len(T.even_chunks(32, T._CHUNK_BYTES // g[0].nbytes)) > 1
        assert_vjp_matches_reference(g, x, w, dilation, stride, need_x)

    @pytest.mark.parametrize("k,dilation", [(3, 2), (1, 1)])
    def test_unreached_phases_are_zero(self, k, dilation):
        """At stride 2 a 1x1 kernel, or a 3x3 one at dilation 2, reaches only
        even input rows and columns; every other phase of dx is zero."""
        x, w = rand((2, 7, 7, 3), 59), rand((k, k, 3, 4), 60)
        g = rand((2, 4, 4, 4), 61)
        dx, _ = _conv2d_vjp(g, x, w, dilation, 2, need_w=False)
        reached = np.zeros(dx.shape, dtype=bool)
        reached[:, ::2, ::2, :] = True
        assert not dx[~reached].any() and dx[reached].all()

    def test_unneeded_gradients_are_none(self):
        x, w = rand((2, 6, 6, 3), 53), rand((3, 3, 3, 4), 54)
        g = rand((2, 6, 6, 4), 55)
        full_dx, full_dw = _conv2d_vjp(g, x, w, 2, 1)
        dx, dw = _conv2d_vjp(g, x, w, 2, 1, need_x=False)
        assert dx is None and dw.tobytes() == full_dw.tobytes()
        dx, dw = _conv2d_vjp(g, x, w, 2, 1, need_w=False)
        assert dw is None and dx.tobytes() == full_dx.tobytes()


# -- fan-out gradients added in place ---------------------------------------

@functools.lru_cache(maxsize=1)
def desk_data():
    return gen_synthetic(RunConfig().data)


def desk_micro_batch(tape, cfg=None):
    """One desk micro-batch: the desk set's first ``depth_step`` images (16
    of 32x32), the net's stem output fanning out to k3, k5 and the 1x1
    stride-2 projection.  ``cfg`` defaults to the desk config."""
    cfg, ds = cfg or RunConfig(), desk_data()
    m = depth_step(cfg.model, ds.images.shape[1:3], np.float64)
    leaves = {k: tape.leaf(v) for k, v in full_init(cfg).items()}
    emb = tinynet_forward(tape, tape.constant(ds.images[:m]), leaves,
                          cfg.model)
    centers = tape.l2_normalize_rows(leaves["centers"])
    return leaves, margin_ce_on_tape(tape, emb, centers, ds.labels[:m],
                                     cfg.loss)


# the desk config with a second, identity-shortcut block in its stage
TWO_BLOCKS = build_config({"stage_blocks": "2"})


def tiny_net(stage):
    """A one-stage net on 8x8 images behind a 4-channel stem."""
    cfg = TinyNetConfig(in_channels=2, stem_channels=4, stages=(stage,),
                        embed_dim=8, min_width=2)

    def build(tape):
        leaves = {k: tape.leaf(v) for k, v in init_params(cfg, 3).items()}
        emb = tinynet_forward(tape, tape.constant(rand((3, 8, 8, 2), 70)),
                              leaves, cfg)
        return leaves, tape.sum(tape.mul(emb, tape.constant(rand((3, 8), 71))))
    return build


def shared_add_gradient(tape):
    """``add``'s vjp hands its one upstream array to both inputs, and each
    input has an earlier reader too (a conv, a product), whose contribution
    must not be written into that shared array."""
    x = tape.leaf(rand((2, 6, 6, 3), 72))
    w1, w2 = tape.leaf(rand((3, 3, 3, 3), 73)), tape.leaf(rand((3, 3, 3, 3), 74))
    a = tape.relu(x)
    b = tape.conv2d(x, w1)
    early = tape.add(tape.conv2d(a, w2, dilation=2), tape.mul(b, b))
    loss = tape.sum(tape.mul(early, tape.add(a, b)))
    return {"x": x, "w1": w1, "w2": w2}, loss


class TestInPlaceFanOut:
    """Tape.backward adds a value's gradient contributions into one buffer
    it owns; the bits stay those of a fresh array per sum."""

    @pytest.mark.parametrize("build", [
        desk_micro_batch,
        tiny_net(StageSpec(blocks=2, channels=6, stride=2)),
        tiny_net(StageSpec(blocks=1, channels=6, stride=1)),
        shared_add_gradient,
        functools.partial(desk_micro_batch, cfg=TWO_BLOCKS),
    ], ids=["desk", "identity_shortcut", "stride1_projection", "shared_add",
            "desk_two_blocks"])
    def test_leaf_gradients_match_fresh_sums(self, build):
        tape, ref = Tape(), Tape()
        leaves, loss = build(tape)
        ref_leaves, ref_loss = build(ref)
        got = tape.backward(loss, 0.5)
        want = fresh_sum_backward(ref, ref_loss, 0.5)
        for name, leaf in leaves.items():
            expect = want.get(ref_leaves[name].index, np.zeros_like(leaf.value))
            assert got[leaf].tobytes() == expect.tobytes(), name

    def test_three_convs_on_one_leaf(self):
        """One leaf read by 3x3 convs at dilations 1 and 2 and a 1x1
        projection, all at stride 2, passes finite differences."""
        k3, k5 = rand((3, 3, 2, 3), 75), rand((3, 3, 2, 3), 76)
        proj, r = rand((1, 1, 2, 3), 77), rand((1, 3, 3, 3), 78)

        def build(tape, lv):
            x = lv["x"]
            u1 = tape.conv2d(x, tape.constant(k3), dilation=1, stride=2)
            u2 = tape.conv2d(x, tape.constant(k5), dilation=2, stride=2)
            p = tape.conv2d(x, tape.constant(proj), stride=2)
            v = tape.add(tape.mul(u1, u2), p)
            return tape.sum(tape.mul(v, tape.constant(r)))

        err = finite_diff_check(build, {"x": rand((1, 5, 5, 2), 79)})
        assert err < TestFiniteDifferences.THRESHOLD

    def test_unreached_phases_add_zero_unless_clean(self):
        """A 1x1 stride-2 conv adding into a buffer of -0.0 gives the fresh
        sum's bits, -0.0 + +0.0 = +0.0 where no tap reaches, unless the
        entry names those phases clean; then they are left alone."""
        x, w, g = rand((2, 5, 5, 3), 80), rand((1, 1, 3, 4), 81), \
            rand((2, 3, 3, 4), 82)
        fresh, _ = _conv2d_vjp(g, x, w, 1, 2, need_w=False)
        neg = np.full(x.shape, -0.0)
        acc = [neg.copy(), frozenset()]
        dx, _ = _conv2d_vjp(g, x, w, 1, 2, need_w=False, acc=acc)
        assert dx is acc[0] and dx.tobytes() == (neg + fresh).tobytes()
        unreached = frozenset({(2, 0, 1), (2, 1, 0), (2, 1, 1)})
        acc = [neg.copy(), unreached]
        dx, _ = _conv2d_vjp(g, x, w, 1, 2, need_w=False, acc=acc)
        reached = np.zeros(x.shape, dtype=bool)
        reached[:, ::2, ::2] = True
        assert dx[reached].tobytes() == (neg + fresh)[reached].tobytes()
        assert np.signbit(dx[~reached]).all()

    def test_fresh_dx_fills_the_entry(self):
        """A conv with no buffer on offer returns a fresh dx and leaves it
        in the entry, with its zero-filled phases as clean."""
        x, w, g = rand((2, 5, 5, 3), 83), rand((3, 3, 3, 4), 84), \
            rand((2, 3, 3, 4), 85)
        acc = [None, frozenset()]
        dx, _ = _conv2d_vjp(g, x, w, 2, 2, need_w=False, acc=acc)
        want, _ = _conv2d_vjp(g, x, w, 2, 2, need_w=False)
        assert acc[0] is dx and dx.tobytes() == want.tobytes()
        assert acc[1] == {(2, 0, 1), (2, 1, 0), (2, 1, 1)}

    def test_desk_backward_peak_holds_one_stem_gradient(self):
        """The peak of one desk micro-batch's backward, above what it holds
        when it starts, stays under a bound derived from the shapes.

        S is the stem output's bytes (16 images x 32x32x16 float64, 2 MiB)
        and B the block output's (16 x 16x16x32, S/2).  The peak falls in
        k5's vjp, the first of the stem output's three readers: the fused
        op's two branch gradients and the projection's gradient (3B) are
        alive, with k5's fresh dx, the accumulator (S), and the buffers of
        its dx pass (C): one 2-image row fold of the output gradient (18
        rows of 16 columns, 3 taps of 32 channels; 2 images of dx fill
        _CHUNK_BYTES) and the two block buffers of its even phase (2 images
        of 16x16x16).  k3 and the projection add into that one buffer, so
        the bound is 3B + S + C plus 256 KiB for the small arrays.  When
        each conv allocated its own dx, k3's vjp held dx5, dx3 and their sum
        beside gu1 and the projection's gradient, 2B + 3S, over the bound.
        """
        model = RunConfig().model
        m, size = 16, 32
        stem, (stage,) = model.stem_channels, model.stages
        s_bytes = m * size * size * stem * 8
        b_bytes = m * (size // 2) ** 2 * stage.channels * 8
        step = T.even_chunks(m, T._CHUNK_BYTES // (s_bytes // m))[0].stop
        # k5 (3x3, dilation 2, stride 2) reads g rows -1..16 into its fold
        half = size // 2
        c_bytes = step * 8 * ((half + 2) * half * 3 * stage.channels
                              + 2 * half * half * stem)
        tape = Tape()
        _, loss = desk_micro_batch(tape)
        stem_out = tape._records[0].output
        assert tape._grad_shapes[stem_out] == (m, size, size, stem)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tape.backward(loss, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 3 * b_bytes + s_bytes + c_bytes + 256 * 1024

    def test_identity_shortcut_input_holds_one_gradient(self):
        """At two blocks per stage, the second block's input gets the fused
        op's shortcut gradient g first; k5's fresh dx then takes g in place
        instead of a fresh sum.  Up to the first block's fused vjp the peak
        stays under 4B + C plus 256 KiB, B the block input's bytes (16 x
        16x16x32): g and the two branch gradients, k5's dx, and with
        one-image chunks the buffers of k5's dx pass, one row fold of g (20
        rows of 16 columns, 3 taps of 32 channels) and two blocks of one
        image of dx (C).  A fresh sum g + dx5 held 5B beside them."""
        m, size, ch = 16, 16, TWO_BLOCKS.model.stages[0].channels
        b_bytes = m * size * size * ch * 8
        c_bytes = 8 * ((size + 4) * size * 3 * ch + 2 * size * size * ch)
        with mock.patch.object(T, "_CHUNK_BYTES", 1):
            tape = Tape()
            _, loss = desk_micro_batch(tape, TWO_BLOCKS)
            first = next(r for r in tape._records if r.op_id == "msconv_fuse")
            vjp, peaks = first.vjp, []

            def traced(g):
                peaks.append(tracemalloc.get_traced_memory()[1])
                return vjp(g)

            first.vjp = traced
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                tape.backward(loss, 0.5)
            finally:
                tracemalloc.stop()
        assert peaks[0] - start <= 4 * b_bytes + c_bytes + 256 * 1024
