"""Fusion block tests.

Covers the two-branch forward pass, the sigmoid-difference attention, the
softmax/sigmoid equivalence identity, the ablation variants, the noise
cancellation statistics of the subtractive branch, and the exact parameter /
arithmetic-op accounting (cross-checked against an instrumented scalar-loop
oracle).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from msconv import msct
from msconv import tensor as T
from msconv.autograd import Tape, Var
from msconv.block import (BLOCK_PARAM_NAMES, FusionKind, MSConvState,
                          block_forward_on_tape, equivalence_check, param_rng,
                          params_flops_breakdown, reduced_width)
from oracles import (TRACE_FIELDS, count_state_params, counting_block_forward,
                     so_noise_test)

SIGMOID_ONE = 0.7310585786300049  # 1 / (1 + e^-1)


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, shape)


def make_state(c_in=3, c_out=4, seed=0, stride=1, dilations=(1, 2),
               reduction=16, min_width=2):
    return MSConvState.init(c_in, c_out, seed=seed, tag="t",
                            dilations=dilations, stride=stride,
                            reduction=reduction, min_width=min_width)


def forward(x, st, kind=FusionKind.MSCONV):
    """The block's output and named intermediates (TRACE_FIELDS) as arrays,
    from ``block_forward_on_tape`` on a constant tape."""
    tape = Tape()
    consts = {name: tape.constant(arr) for name, arr in st.params.items()}
    v, tr = block_forward_on_tape(tape, tape.constant(x), consts,
                                  dilations=st.dilations, stride=st.stride,
                                  kind=kind)
    return v.value, SimpleNamespace(**{
        name: val.value if isinstance(val, Var) else val
        for name, val in tr.items()})


def force_scores(st, a_vals, b_vals):
    """Zero the expand weights and pin the two score heads via the bias."""
    params = dict(st.params)
    c_out = params["k3"].shape[3]
    params["w_expand"] = np.zeros_like(params["w_expand"])
    params["b_expand"] = np.concatenate([
        np.broadcast_to(np.asarray(a_vals, dtype=float), (c_out,)),
        np.broadcast_to(np.asarray(b_vals, dtype=float), (c_out,)),
    ])
    return MSConvState(params, st.dilations, st.stride)


def broadcast_c(c):
    return c[:, None, None, :]


class TestReducedWidth:
    def test_floor_before_max(self):
        assert reduced_width(64, 16, 32) == 32
        assert reduced_width(512, 16, 32) == 32
        assert reduced_width(1024, 16, 32) == 64
        assert reduced_width(100, 16, 1) == 6
        assert reduced_width(15, 16, 1) == 1

    def test_positivity_guards(self):
        for bad in [(0, 16, 32), (64, 0, 32), (64, 16, 0)]:
            with pytest.raises(ValueError):
                reduced_width(*bad)


class TestForward:
    def test_equal_scores_give_midpoint(self):
        st = force_scores(make_state(), 0.0, 0.0)
        x = rand((2, 5, 5, 3), 1)
        v, tr = forward(x, st)
        np.testing.assert_array_equal(tr.c, np.full((2, 4), 0.5))
        np.testing.assert_allclose(v, (tr.u1 + tr.u2) / 2.0,
                                   rtol=1e-14, atol=1e-14)

    def test_gate_saturates_high_to_first_branch(self):
        """score gap +40 makes c reach 1.0 in double, so V tracks U1."""
        st = force_scores(make_state(), 40.0, 0.0)
        x = rand((1, 4, 4, 3), 2)
        v, tr = forward(x, st)
        np.testing.assert_array_equal(tr.c, np.ones((1, 4)))
        np.testing.assert_allclose(v, tr.u1, rtol=1e-14, atol=1e-14)

    def test_gate_saturates_low_to_second_branch(self):
        st = force_scores(make_state(), -40.0, 0.0)
        x = rand((1, 4, 4, 3), 3)
        v, tr = forward(x, st)
        assert tr.c.max() < 1e-17
        np.testing.assert_allclose(v, tr.u2, rtol=1e-14, atol=1e-14)

    def test_convex_combination_form(self):
        """V equals c*U1 + (1-c)*U2 within 1e-12, the alternative algebra."""
        st = make_state(seed=4)
        x = rand((2, 6, 6, 3), 5)
        v, tr = forward(x, st)
        c = broadcast_c(tr.c)
        np.testing.assert_allclose(v, c * tr.u1 + (1.0 - c) * tr.u2,
                                   rtol=0, atol=1e-12)

    def test_trace_dataflow(self):
        st = make_state(seed=6)
        p = st.params
        x = rand((1, 5, 5, 3), 7)
        v, tr = forward(x, st)
        assert set(vars(tr)) == set(TRACE_FIELDS)
        np.testing.assert_array_equal(tr.u1, T.conv2d_raw(x, p["k3"], 1, 1))
        np.testing.assert_array_equal(tr.u2, T.conv2d_raw(x, p["k5"], 2, 1))
        np.testing.assert_array_equal(tr.s, T.global_avg_pool(tr.u1 * tr.u2))
        np.testing.assert_array_equal(
            tr.z, T.relu(T.fc(tr.s, p["w_reduce"], p["b_reduce"])))
        e = T.fc(tr.z, p["w_expand"], p["b_expand"])
        np.testing.assert_array_equal(tr.a_hat, e[:, :4])
        np.testing.assert_array_equal(tr.b_hat, e[:, 4:])
        np.testing.assert_array_equal(tr.c, T.sigmoid(tr.a_hat - tr.b_hat))
        np.testing.assert_array_equal(
            v, tr.u2 + broadcast_c(tr.c) * (tr.u1 - tr.u2))

    def test_single_channel_hand_case(self):
        """1x1 spatial, centered unit taps: every intermediate has a closed form."""
        k = np.zeros((3, 3, 1, 1))
        k[1, 1, 0, 0] = 1.0
        k_half = 0.5 * k
        st = MSConvState(dict(
            k3=k, k5=k_half,
            w_reduce=np.array([[2.0]]), b_reduce=np.zeros(1),
            w_expand=np.zeros((1, 2)), b_expand=np.array([1.0, 0.0])),
            dilations=(1, 2), stride=1)
        x = np.ones((1, 1, 1, 1))
        v, tr = forward(x, st)
        assert tr.u1[0, 0, 0, 0] == 1.0
        assert tr.u2[0, 0, 0, 0] == 0.5
        assert tr.s[0, 0] == 0.5
        assert tr.z[0, 0] == 1.0
        assert (tr.a_hat[0, 0], tr.b_hat[0, 0]) == (1.0, 0.0)
        assert tr.c[0, 0] == SIGMOID_ONE
        assert v[0, 0, 0, 0] == 0.5 + SIGMOID_ONE * 0.5

        v_sk, _ = forward(x, st, FusionKind.SKCONV_REFERENCE)
        want = SIGMOID_ONE * 1.0 + (1.0 - SIGMOID_ONE) * 0.5
        np.testing.assert_allclose(v_sk[0, 0, 0, 0], want, rtol=1e-15)

    def test_shape_preservation(self):
        st = make_state(c_in=2, c_out=5)
        v, _ = forward(rand((2, 7, 9, 2), 8), st)
        assert v.shape == (2, 7, 9, 5)
        st2 = make_state(c_in=2, c_out=5, stride=2)
        v2, _ = forward(rand((2, 7, 9, 2), 8), st2)
        assert v2.shape == (2, 4, 5, 5)

    def test_attention_weights_open_interval(self):
        st = make_state(seed=9)
        _, tr = forward(rand((3, 6, 6, 3), 10), st)
        assert np.all(tr.c > 0.0) and np.all(tr.c < 1.0)

    def test_reference_weights_complementary(self):
        """In the reference twin, a + (1 - a) returns to 1 within 1 ulp."""
        st = make_state(seed=11)
        _, tr = forward(rand((2, 5, 5, 3), 12), st,
                        FusionKind.SKCONV_REFERENCE)
        a = tr.c
        total = a + (1.0 - a)
        assert np.all(np.abs(total - 1.0) <= math.ulp(1.0))

    def test_reference_trace_has_no_difference_tensor(self):
        st = make_state(seed=13)
        _, tr = forward(rand((1, 4, 4, 3), 14), st,
                        FusionKind.SKCONV_REFERENCE)
        assert set(vars(tr)) == set(TRACE_FIELDS)
        assert "u4" not in TRACE_FIELDS
        np.testing.assert_array_equal(tr.s, T.global_avg_pool(tr.u1 + tr.u2))

    def test_channel_mismatch(self):
        st = make_state(c_in=3, c_out=4)
        with pytest.raises(T.ShapeError):
            forward(rand((1, 4, 4, 2)), st)

    def test_debug_mode_traps_overflow(self):
        st = make_state()
        x = np.full((1, 4, 4, 3), 1e300)
        T.set_debug_checks(True)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(T.NonFiniteError):
                    forward(x, st)
        finally:
            T.set_debug_checks(False)

    def test_batch_rows_independent(self):
        """Attention is per sample: each batch row equals its solo forward."""
        st = make_state(seed=15)
        x = rand((3, 5, 5, 3), 16)
        v, _ = forward(x, st)
        for i in range(3):
            vi, _ = forward(x[i:i + 1], st)
            np.testing.assert_array_equal(v[i:i + 1], vi)


class TestEquivalence:
    def test_zero_scores_midpoint(self):
        u1, u2 = rand((1, 4, 4, 2), 20), rand((1, 4, 4, 2), 21)
        dev = equivalence_check(u1, u2, np.zeros((1, 2)), np.zeros((1, 2)))
        assert dev < 1e-15

    def test_random_trials(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            u1 = rng.uniform(-10, 10, (1, 3, 3, 4))
            u2 = rng.uniform(-10, 10, (1, 3, 3, 4))
            ah = rng.uniform(-10, 10, (1, 4))
            bh = rng.uniform(-10, 10, (1, 4))
            assert equivalence_check(u1, u2, ah, bh) < 1e-12

    def test_extreme_score_gaps_stable(self):
        u1, u2 = rand((1, 3, 3, 2), 23), rand((1, 3, 3, 2), 24)
        with np.errstate(over="raise"):
            for gap in (500.0, -500.0):
                ah = np.full((1, 2), gap)
                bh = np.zeros((1, 2))
                assert equivalence_check(u1, u2, ah, bh) < 1e-12

    def test_branch_swap_symmetry(self):
        """Swapping branches and score heads together leaves V unchanged."""
        st = make_state(seed=25)
        x = rand((2, 5, 5, 3), 26)
        v, _ = forward(x, st)
        p = st.params
        c = p["k3"].shape[3]
        swapped = MSConvState(dict(
            k3=p["k5"], k5=p["k3"],
            w_reduce=p["w_reduce"], b_reduce=p["b_reduce"],
            w_expand=np.concatenate([p["w_expand"][:, c:],
                                     p["w_expand"][:, :c]], axis=1),
            b_expand=np.concatenate([p["b_expand"][c:], p["b_expand"][:c]])),
            dilations=st.dilations[::-1], stride=st.stride)
        v_swapped, _ = forward(x, swapped)
        np.testing.assert_allclose(v_swapped, v, rtol=0, atol=1e-12)


class TestConvexity:
    def test_output_between_branches(self):
        """Fused values stay inside [min(U1,U2), max(U1,U2)] element-wise."""
        rng = np.random.default_rng(27)
        violations = 0
        for trial in range(20):
            st = make_state(seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=(1, 5, 5, 3))
            v, tr = forward(x, st)
            lo = np.minimum(tr.u1, tr.u2)
            hi = np.maximum(tr.u1, tr.u2)
            violations += int(np.sum((v < lo) | (v > hi)))
        assert violations == 0


class TestAblate:
    def pinned_formula(self, kind, tr):
        c = broadcast_c(tr.c)
        if kind is FusionKind.SKCONV_REFERENCE:
            return c * tr.u1 + (1.0 - c) * tr.u2
        target = tr.u1 - tr.u2 if kind in (
            FusionKind.MSCONV, FusionKind.MSCONV_SUM) else tr.u1 + tr.u2
        return tr.u2 + c * target

    @pytest.mark.parametrize("kind", list(FusionKind))
    def test_matches_pinned_formula(self, kind):
        st = make_state(seed=30)
        x = rand((2, 5, 5, 3), 31)
        v, tr = forward(x, st, kind)
        np.testing.assert_allclose(v, self.pinned_formula(kind, tr),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind,mul_attention,sub_target", [
        (FusionKind.MSCONV, True, True),
        (FusionKind.MSCONV_SUM, False, True),
        (FusionKind.NO_SO, True, False),
        (FusionKind.NO_MO_NO_SO, False, False),
    ])
    def test_variant_wiring(self, kind, mul_attention, sub_target):
        """The pool reads U1*U2 or U1+U2; the gate reweights U1-U2 or U1+U2."""
        st = make_state(seed=32)
        x = rand((1, 4, 4, 3), 33)
        v, tr = forward(x, st, kind)
        u3 = tr.u1 * tr.u2 if mul_attention else tr.u1 + tr.u2
        u4 = tr.u1 - tr.u2 if sub_target else tr.u1 + tr.u2
        np.testing.assert_array_equal(tr.s, T.global_avg_pool(u3))
        np.testing.assert_array_equal(v, tr.u2 + broadcast_c(tr.c) * u4)

    def test_reference_kind_delegates(self):
        """The reference kind computes selective-kernel fusion, a*U1 + b*U2
        with both softmax weights evaluated from scratch."""
        st = make_state(seed=36)
        x = rand((1, 4, 4, 3), 37)
        v, tr = forward(x, st, FusionKind.SKCONV_REFERENCE)
        ea, eb = np.exp(tr.a_hat), np.exp(tr.b_hat)
        a, b = broadcast_c(ea / (ea + eb)), broadcast_c(eb / (ea + eb))
        np.testing.assert_allclose(v, a * tr.u1 + b * tr.u2,
                                   rtol=0, atol=1e-12)

    def test_sum_target_with_saturated_gate(self):
        """With the difference removed and c at 1, V collapses to U1 + 2*U2."""
        st = force_scores(make_state(), 40.0, 0.0)
        x = rand((1, 4, 4, 3), 38)
        v, tr = forward(x, st, FusionKind.NO_SO)
        np.testing.assert_allclose(v, tr.u1 + 2.0 * tr.u2,
                                   rtol=1e-14, atol=1e-14)

    def test_variants_actually_differ(self):
        st = make_state(seed=39)
        x = rand((1, 5, 5, 3), 40)
        v_mul, _ = forward(x, st, FusionKind.MSCONV)
        v_sum, _ = forward(x, st, FusionKind.MSCONV_SUM)
        assert np.abs(v_mul - v_sum).max() > 1e-8

    def test_one_name_per_dataflow(self):
        """No kind is an alias, and no other spelling names one."""
        assert len(FusionKind.__members__) == len(FusionKind) == 5
        for spelling in ("no_mo", "no_mul"):
            with pytest.raises(ValueError):
                FusionKind(spelling)

    def test_unknown_kind(self):
        st = make_state()
        with pytest.raises(ValueError):
            forward(rand((1, 4, 4, 3)), st, "msconv")

    def test_midpoint_shared_across_attention_inputs(self):
        """Forced equal heads give (U1+U2)/2 no matter what feeds the attention."""
        st = force_scores(make_state(seed=41), 0.0, 0.0)
        x = rand((1, 4, 4, 3), 42)
        v_mul, tr = forward(x, st, FusionKind.MSCONV)
        v_sum, _ = forward(x, st, FusionKind.MSCONV_SUM)
        np.testing.assert_array_equal(v_mul, v_sum)
        np.testing.assert_allclose(v_mul, (tr.u1 + tr.u2) / 2.0,
                                   rtol=1e-14, atol=1e-14)


class TestNoiseCancellation:
    def test_zero_sigma_exact(self):
        assert so_noise_test(0.0, 1000, mu=3.0) == (0.0, 0.0)

    def test_common_mean_cancels(self):
        mean, var = so_noise_test(1.0, 1_000_000, mu=5.0)
        assert abs(mean) < 0.01
        assert abs(var - 2.0) < 0.02

    def test_variance_doubles(self):
        mean, var = so_noise_test(2.0, 1_000_000)
        assert abs(mean) < 0.02
        assert abs(var - 8.0) < 0.08

    def test_deterministic(self):
        assert so_noise_test(1.0, 1000, seed=7) == so_noise_test(1.0, 1000,
                                                                 seed=7)

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            so_noise_test(-1.0, 100)
        with pytest.raises(ValueError):
            so_noise_test(1.0, 0)


class TestCounting:
    def test_single_kernel_params(self):
        """One 3->8 branch kernel holds 216 weights; the block counts two
        kernels plus the 8->2->16 attention bottleneck."""
        st = make_state(c_in=3, c_out=8)
        assert st.params["k3"].size == st.params["k5"].size == 216
        assert params_flops_breakdown(st, 4, 4)["params"] == \
            2 * 216 + 8 * 2 + 2 + 2 * 16 + 16

    def test_conv_macs_hand_value(self):
        """4x4 input, 3->8 channels: 4*4*8 outputs x 27 taps = 3456 per branch."""
        st = make_state(c_in=3, c_out=8)
        br = params_flops_breakdown(st, 4, 4)
        assert br["conv_branches"] == 2 * 3456

    def test_params_match_enumeration(self):
        for st in (make_state(c_in=3, c_out=8),
                   MSConvState.init(64, 64, seed=1, tag="big")):
            br = params_flops_breakdown(st, 4, 4)
            assert br["params"] == count_state_params(st.params)

    @pytest.mark.parametrize("kind,name", [
        (FusionKind.MSCONV, "msconv"),
        (FusionKind.NO_MO_NO_SO, "no_mo_no_so"),
        (FusionKind.SKCONV_REFERENCE, "skconv"),
    ])
    def test_flops_match_instrumented_counter(self, kind, name):
        st = make_state(c_in=2, c_out=4, seed=43)
        x = rand((3, 3, 2), 44)
        v_loops, counter = counting_block_forward(
            st.params, x, st.dilations, st.stride, kind=name)
        br = params_flops_breakdown(st, 3, 3, kind)
        assert br["flops"] == counter.total()
        for key, count in counter.counts.items():
            assert br[key] == count, key
        v, _ = forward(x[None], st, kind)
        np.testing.assert_allclose(v[0], v_loops, rtol=1e-12, atol=1e-12)

    def test_strided_grid_uses_output_dims(self):
        st = make_state(c_in=2, c_out=4, stride=2, seed=45)
        x = rand((5, 5, 2), 46)
        _, counter = counting_block_forward(st.params, x, st.dilations,
                                            st.stride)
        assert params_flops_breakdown(st, 5, 5)["flops"] == counter.total()

    def test_totals_are_sums(self):
        st = make_state(c_in=3, c_out=8, seed=47)
        br = params_flops_breakdown(st, 6, 6)
        parts = [v for k, v in br.items() if k not in ("params", "flops")]
        assert br["flops"] == sum(parts)


def _malformed(name, shape):
    """A 2->4 block's parameters with one array replaced by zeros of
    ``shape``."""
    params = dict(make_state(c_in=2, c_out=4).params)
    params[name] = np.zeros(shape)
    return params


class TestStateAndSerialization:
    def test_init_deterministic(self):
        a = MSConvState.init(3, 4, seed=5, tag="x")
        b = MSConvState.init(3, 4, seed=5, tag="x")
        assert list(a.params) == list(BLOCK_PARAM_NAMES)
        for k, arr in a.params.items():
            np.testing.assert_array_equal(arr, b.params[k])

    def test_distinct_tags_distinct_weights(self):
        a = MSConvState.init(3, 4, seed=5, tag="x")
        b = MSConvState.init(3, 4, seed=5, tag="y")
        assert np.abs(a.params["k3"] - b.params["k3"]).max() > 0

    def test_param_rng_stream_identity(self):
        s1 = param_rng(3, "layer").normal(size=4)
        s2 = param_rng(3, "layer").normal(size=4)
        np.testing.assert_array_equal(s1, s2)
        assert np.abs(param_rng(3, "other").normal(size=4) - s1).max() > 0

    def test_zero_biases_at_init(self):
        st = MSConvState.init(3, 4, seed=0, tag="z")
        assert not st.params["b_reduce"].any()
        assert not st.params["b_expand"].any()

    @pytest.mark.parametrize("name,shape", [
        ("k5", (3, 3, 2, 5)),
        ("k5", (3, 3, 3, 4)),
        ("w_reduce", (4, 3)),
        ("w_reduce", (5, 2)),
        ("b_reduce", (3,)),
        ("w_expand", (2, 7)),
        ("w_expand", (3, 8)),
        ("b_expand", (7,)),
    ], ids=["branch-c-out", "branch-c-in", "reduce-width", "reduce-c-in",
            "reduce-bias", "expand-width", "expand-d", "expand-bias"])
    def test_malformed_params_raise_shape_error(self, name, shape):
        """Mismatched branch kernels or bottleneck shapes fail in the
        forward pass."""
        tape = Tape()
        params = {k: tape.constant(v)
                  for k, v in _malformed(name, shape).items()}
        with pytest.raises(T.ShapeError):
            block_forward_on_tape(tape, tape.constant(rand((1, 4, 4, 2))),
                                  params, dilations=(1, 2))

    def test_save_load_round_trip(self, tmp_path):
        """A block's six arrays round-trip through MSCT files as float32."""
        st = make_state(c_in=2, c_out=4, seed=48)
        for k, arr in st.params.items():
            msct.write_tensor(tmp_path / msct.tensor_filename(k), arr)
        assert set(st.params) == set(BLOCK_PARAM_NAMES)
        assert {p.name for p in tmp_path.iterdir()} == {
            msct.tensor_filename(k) for k in BLOCK_PARAM_NAMES}
        for k, arr in st.params.items():
            loaded = msct.read_tensor(tmp_path / msct.tensor_filename(k))
            np.testing.assert_array_equal(loaded, arr.astype(np.float32))
