"""Tests of the benchmark's own wiring.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np
import pytest

import spans
from workloads import WORKLOADS, sweep_oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def traced():
    rec = spans.Recorder()
    wiring = spans.install(rec)
    try:
        yield rec
    finally:
        wiring.uninstall()


def _flops_rows() -> dict[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert spans.module("cli").main(["flops"]) == 0
    rows = {}
    for line in buf.getvalue().splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[2].isdigit():
            rows[parts[0]] = int(parts[2])
    return rows


def test_conv_macs_match_cost_model(traced):
    """Traced conv MACs of one desk image equal the repo's cost model."""
    train, model, block = (spans.module(m) for m in ("train", "model", "block"))
    cfg = train.RunConfig()
    model_cfg = cfg.model.with_fusion(cfg.fusion)
    x = np.zeros((1, cfg.data.height, cfg.data.width, model_cfg.in_channels))
    model.tinynet_embed(x, model.init_params(model_cfg, 0), model_cfg)
    traced_macs = sum(s[4][0] for s in traced.spans if s[0] == "tensor.conv2d")

    rows = _flops_rows()
    expected = rows["stem"]
    h = w = cfg.data.height
    for name, c_in, c_out, stride, kind in model_cfg.block_layout():
        st = block.MSConvState.init(c_in, c_out, dilations=model_cfg.dilations,
                                    stride=stride, reduction=model_cfg.reduction,
                                    min_width=model_cfg.min_width)
        expected += block.params_flops_breakdown(st, h, w, kind)["conv_branches"]
        expected += rows.get(f"{name}/proj", 0)
        h, w = -(-h // stride), -(-w // stride)
    assert "s0b0/proj" in rows
    assert traced_macs == expected


def test_call_sites_are_patched_and_restored():
    """Names bound with ``from .x import y`` are wrapped where they are called."""
    sites = {"train": ("tinynet_forward", "tinynet_embed", "margin_ce_on_tape",
                       "train_accuracy", "tar_at_far", "pair_accuracy"),
             "cli": ("load_dataset", "read_pairs", "evaluate_verification")}
    before = {(m, f): getattr(spans.module(m), f)
              for m, fs in sites.items() for f in fs}
    rec = spans.Recorder()
    wiring = spans.install(rec)
    try:
        for (m, f), original in before.items():
            patched = getattr(spans.module(m), f)
            assert patched is not original and patched.__wrapped__ is original
    finally:
        wiring.uninstall()
    for (m, f), original in before.items():
        assert getattr(spans.module(m), f) is original


def test_self_time_and_step_spans():
    # job > train.run > (model.forward > block.forward > autograd.op.conv2d,
    #                    train.sgd_step)
    spans_ = [["job", 0, 100, -1, None],
              ["train.run", 5, 95, 0, None],
              ["model.forward", 10, 50, 1, None],
              ["block.forward", 12, 40, 2, None],
              ["autograd.op.conv2d", 14, 30, 3, None],
              ["train.sgd_step", 60, 70, 1, None]]
    m = spans.layer_metrics([], spans_, 1, 0, 0.0)
    assert m["unattributed_s"] == pytest.approx(10e-9)
    assert m["block.fusion.self_s"] == pytest.approx(12e-9)
    assert m["train.step_ms_p50"] == pytest.approx(60e-6)


def test_coverage_flags_dead_and_bypass_spans():
    problems = spans.coverage_problems(
        "verify", {"tensor.conv2d": 3, "autograd.vjp.conv2d": 1})
    assert any("autograd.vjp." in p and "bypassed" in p for p in problems)
    assert any("msct.read recorded no calls" in p for p in problems)


def test_sweep_oracle_matches_library():
    metrics = spans.module("metrics")
    rng = np.random.default_rng(3)
    genuine = np.round(rng.normal(0.6, 0.2, 300), 2)
    impostor = np.round(rng.normal(0.1, 0.2, 900), 2)
    vs = metrics.VerificationSet(genuine, impostor)
    tar, thr, acc, acc_thr, *_ = sweep_oracle(genuine, impostor, 0.01)
    assert (tar, thr) == metrics.tar_at_far(vs, 0.01)
    assert (acc, acc_thr) == metrics.pair_accuracy(vs)


def test_benchmark_json_matches_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, u, b, _ in spans.LAYER_METRICS]
    assert set(spans.EXPECTED) == set(spans.BYPASSED) == set(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
