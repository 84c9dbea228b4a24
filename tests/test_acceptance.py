"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Each test prints ``[acceptance NN] name: PASS/FAIL (details)`` and then
asserts, so the gate both reads as a report and fails the suite on any miss.
"""

import math
import os
import time

import numpy as np
import pytest

from msconv import cli
from msconv.autograd import Tape, finite_diff_check
from msconv.block import (FusionKind, MSConvState, block_forward_on_tape,
                          equivalence_check, params_flops_breakdown,
                          reduced_width)
from msconv.data import SyntheticSpec
from msconv.metrics import VerificationSet, pair_accuracy, tar_at_far
from msconv.model import (MarginKind, MarginLossConfig, StageSpec,
                          TinyNetConfig,
                          init_params, margin_ce_on_tape, tinynet_forward)
from msconv.train import (DEFAULT_ABLATION_KINDS, RunConfig, ablation_run,
                          lr_at, train)
from oracles import (count_state_params, counting_block_forward,
                     so_noise_test, sweep_accuracy, sweep_tar)


def _report(num, name, ok, details=""):
    suffix = f" ({details})" if details else ""
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance {num:02d} {name}{suffix}"


def tiny_run_config(**overrides):
    """Small, fast training setup used where the criterion fixes no size."""
    fields = dict(
        data=SyntheticSpec(identity_count=3, samples_per_identity=6,
                           height=8, width=8, channels=2, noise_sigma=0.05,
                           shift_range=1, seed=0),
        model=TinyNetConfig(in_channels=2, stem_channels=4,
                            stages=(StageSpec(blocks=1, channels=6, stride=2),),
                            embed_dim=8, min_width=2),
        loss=MarginLossConfig.of_kind(MarginKind.COS, class_count=3, scale=16.0),
        batch_size=6, epochs=1, lr_init=0.05, lr_min=1e-4)
    fields.update(overrides)
    return RunConfig(**fields)


class TestAcceptance:
    """Every guarantee the package ships with, checked at full strength."""

    def test_01_equivalence_oracle(self):
        """Softmax-fused and sigmoid-difference outputs agree to 1e-12.

        1000 random double-precision trials, every tenth with attention
        scores spread across [-250, 250] so |a_hat - b_hat| reaches 500.
        """
        rng = np.random.default_rng(11)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(1000):
            span = 250.0 if trial % 10 == 0 else 10.0
            u1 = rng.normal(0.0, 3.0, (1, 4, 4, 2))
            u2 = rng.normal(0.0, 3.0, (1, 4, 4, 2))
            a_hat = rng.uniform(-span, span, (1, 2))
            b_hat = rng.uniform(-span, span, (1, 2))
            worst = max(worst, equivalence_check(u1, u2, a_hat, b_hat))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-12 and elapsed < 5.0
        _report(1, "equivalence_oracle", ok,
                f"max_err={worst:.3e}, 1000 trials, {elapsed:.2f}s")

    def test_02_gradient_laws(self):
        """Product gradients swap operands exactly; FD checks stay tight.

        The element-wise product's input gradients must equal the opposite
        operand bitwise; the assembled block must pass finite differences
        below 1e-6 and a 2-block backbone on 8x8 inputs below 1e-5.
        """
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 3, 2))
        y = rng.normal(size=(2, 3, 3, 2))
        tape = Tape()
        vx, vy = tape.leaf(x), tape.leaf(y)
        # summing seeds exact ones into the product's vjp
        grads = tape.backward(tape.sum(tape.mul(vx, vy)))
        exact = (np.array_equal(grads[vx], y)
                 and np.array_equal(grads[vy], x))

        st = MSConvState.init(3, 4, seed=2, min_width=2)
        block_params = dict(st.params)
        block_params["x"] = rng.normal(size=(2, 6, 6, 3))

        def block_build(tp, v):
            out, _ = block_forward_on_tape(tp, v["x"], v,
                                           dilations=st.dilations,
                                           stride=st.stride)
            return tp.mean(out)

        block_err = finite_diff_check(block_build, block_params)

        cfg = TinyNetConfig(in_channels=2, stem_channels=4,
                            stages=(StageSpec(blocks=2, channels=6, stride=2),),
                            embed_dim=5, min_width=2)
        net_params = init_params(cfg, seed=2)
        net_params["x"] = rng.normal(size=(2, 8, 8, 2))
        net_params["centers"] = rng.normal(size=(3, 5))
        labels = rng.integers(0, 3, size=2)
        loss_cfg = MarginLossConfig.of_kind(MarginKind.COMBINED, class_count=3,
                                            scale=8.0)

        def net_build(tp, v):
            net = {k: var for k, var in v.items() if k not in ("x", "centers")}
            emb = tinynet_forward(tp, v["x"], net, cfg)
            centers = tp.l2_normalize_rows(v["centers"])
            return margin_ce_on_tape(tp, emb, centers, labels, loss_cfg)

        net_err = finite_diff_check(net_build, net_params)
        elapsed = time.perf_counter() - start
        ok = exact and block_err < 1e-6 and net_err < 1e-5 and elapsed < 60.0
        _report(2, "multiplicative_gradient_law", ok,
                f"swap_exact={exact}, block_fd={block_err:.3e}, "
                f"backbone_fd={net_err:.3e}, {elapsed:.1f}s")

    def test_03_noise_cancellation(self):
        """Differencing i.i.d. noise keeps mean 0 and doubles the variance."""
        start = time.perf_counter()
        mean1, var1 = so_noise_test(1.0, 10 ** 6, mu=3.0, seed=3)
        mean2, var2 = so_noise_test(2.0, 10 ** 6, mu=3.0, seed=4)
        elapsed = time.perf_counter() - start
        ok = (abs(mean1) < 0.01 and abs(var1 - 2.0) < 0.02
              and abs(var2 - 8.0) < 0.08 and elapsed < 5.0)
        _report(3, "noise_cancellation", ok,
                f"mean={mean1:.4f}, var(s=1)={var1:.4f}, "
                f"var(s=2)={var2:.4f}, {elapsed:.2f}s")

    def test_04_reduction_rule(self):
        """Bottleneck width is max(channels // reduction, floor width)."""
        got = (reduced_width(64, 16), reduced_width(512, 16),
               reduced_width(1024, 16))
        ok = got == (32, 32, 64)
        _report(4, "bottleneck_width_rule", ok, f"widths={got}")

    def test_05_convexity_invariant(self):
        """Block outputs never leave the per-element branch envelope."""
        rng = np.random.default_rng(5)
        violations = 0
        for trial in range(100):
            st = MSConvState.init(3, 4, seed=trial, min_width=2)
            x = rng.normal(size=(1, 6, 6, 3))
            tape = Tape()
            consts = {k: tape.constant(a) for k, a in st.params.items()}
            v, tr = block_forward_on_tape(tape, tape.constant(x), consts,
                                          dilations=st.dilations,
                                          stride=st.stride)
            u1, u2 = tr["u1"].value, tr["u2"].value
            lo, hi = np.minimum(u1, u2), np.maximum(u1, u2)
            violations += int(np.sum((v.value < lo) | (v.value > hi)))
        ok = violations == 0
        _report(5, "convex_combination", ok,
                f"violations={violations} over 100 inputs")

    def test_06_lr_schedule_endpoints(self):
        """lr(0)=0.02 and lr(T)=5e-6 to 1 ulp; strictly decreasing."""
        cfg, total = RunConfig(), 10_000
        first = lr_at(cfg, total, 0)
        last = lr_at(cfg, total, total)
        curve = np.array([lr_at(cfg, total, t) for t in range(total + 1)])
        strict = bool(np.all(np.diff(curve) < 0.0))
        ok = (abs(first - 0.02) <= math.ulp(0.02)
              and abs(last - 5e-6) <= math.ulp(5e-6) and strict)
        _report(6, "lr_schedule_endpoints", ok,
                f"lr(0)={first!r}, lr(T)={last!r}, strict_decrease={strict}")

    def test_07_metric_oracles(self):
        """tar_at_far and pair_accuracy equal brute-force sweeps exactly."""
        rng = np.random.default_rng(7)
        far_targets = (0.01, 0.1, 0.25, 0.5)
        start = time.perf_counter()
        mismatches = 0
        for i in range(200):
            genuine = rng.uniform(-1.0, 1.0, rng.integers(1, 41))
            impostor = rng.uniform(-1.0, 1.0, rng.integers(1, 61))
            if i % 2:
                # tie-heavy sets exercise the shared-threshold corner cases
                genuine = np.round(genuine, 1)
                impostor = np.round(impostor, 1)
            far = far_targets[i % len(far_targets)]
            vs = VerificationSet(genuine=genuine, impostor=impostor)
            if tar_at_far(vs, far) != sweep_tar(genuine, impostor, far):
                mismatches += 1
            if pair_accuracy(vs) != sweep_accuracy(genuine, impostor):
                mismatches += 1
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and elapsed < 10.0
        _report(7, "metric_oracles", ok,
                f"mismatches={mismatches} over 200 sets, {elapsed:.2f}s")

    def test_08_cost_counter(self):
        """Closed-form params/flops equal an instrumented scalar counter."""
        st = MSConvState.init(6, 8, seed=8, min_width=2)
        x = np.random.default_rng(8).normal(size=(6, 6, 6))
        v, counter = counting_block_forward(st.params, x, st.dilations,
                                            st.stride, kind="msconv")
        totals = params_flops_breakdown(st, 6, 6)
        params, flops = totals["params"], totals["flops"]
        param_match = params == count_state_params(st.params)
        flop_match = flops == counter.total()
        ok = param_match and flop_match
        _report(8, "cost_counter", ok,
                f"params={params} (match={param_match}), "
                f"flops={flops} (match={flop_match})")

    def test_09_desk_training(self):
        """Default desk-scale run reaches 0.95 train accuracy, loss trends down.

        10 identities x 50 samples at 32x32, one fused stage, 20 epochs,
        batch 32, fixed seed; at most 2 epoch-loss upticks are allowed.
        """
        start = time.perf_counter()
        result = train(RunConfig())
        elapsed = time.perf_counter() - start
        final_acc = result.epoch_accs[-1]
        losses = result.epoch_losses
        upticks = sum(b > a for a, b in zip(losses, losses[1:]))
        ok = final_acc >= 0.95 and upticks <= 2 and elapsed < 600.0
        _report(9, "desk_training", ok,
                f"final_acc={final_acc:.3f}, upticks={upticks}, "
                f"{elapsed:.1f}s")

    def test_10_ablation_harness(self, bounded):
        """Five fusion kinds run on one seed/data with bit-identical inits."""
        report = ablation_run(tiny_run_config(), DEFAULT_ABLATION_KINDS,
                              far_target=0.1, genuine_pairs=30,
                              impostor_pairs=60)
        kinds = [row.kind for row in report.rows]
        one_row_each = kinds == list(DEFAULT_ABLATION_KINDS)
        base_init = report.results[kinds[0]].init
        shared = all(
            np.array_equal(base_init[name], report.results[kind].init[name])
            for kind in kinds for name in base_init)
        ok = len(kinds) == 5 and one_row_each and shared
        _report(10, "ablation_harness", ok,
                f"kinds={len(kinds)}, row_per_kind={one_row_each}, "
                f"shared_init={shared}")

    def test_11_determinism(self, tmp_path, capsys):
        """Two identical train invocations match byte for byte."""
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "identities = 3\nsamples_per_identity = 6\nimage_size = 8\n"
            "channels = 2\nnoise_sigma = 0.05\nshift_range = 1\n"
            "stem_channels = 4\nstage_blocks = 1\nstage_channels = 6\n"
            "stage_strides = 2\nembed_dim = 8\nmin_width = 2\n"
            "loss = cos\nscale = 16\nbatch_size = 6\nepochs = 2\n"
            "lr_init = 0.05\nlr_min = 0.0001\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a = cli.main(["train", "--config", str(cfg_path),
                           "--out", str(out_a)])
        code_b = cli.main(["train", "--config", str(cfg_path),
                           "--out", str(out_b)])
        capsys.readouterr()
        logs_equal = ((out_a / "metrics.log").read_bytes()
                      == (out_b / "metrics.log").read_bytes())
        names = sorted(os.listdir(out_a / "checkpoint"))
        ckpt_equal = (names == sorted(os.listdir(out_b / "checkpoint"))
                      and all((out_a / "checkpoint" / n).read_bytes()
                              == (out_b / "checkpoint" / n).read_bytes()
                              for n in names))
        ok = code_a == 0 and code_b == 0 and logs_equal and ckpt_equal
        with capsys.disabled():
            _report(11, "determinism", ok,
                    f"log_bytes_equal={logs_equal}, "
                    f"checkpoint_files_equal={ckpt_equal}")
