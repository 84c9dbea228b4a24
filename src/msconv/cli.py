"""Command-line entry points.

Subcommands: gradcheck, train, ablate, verify, flops, viz, gen-data.  Every
run-configuration key can come from a `key = value` config file and be
overridden on the command line as `--key value`; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import msct
from .autograd import finite_diff_check
from .block import (DEFAULT_REDUCTION, FusionKind, block_forward_on_tape,
                    block_param_shapes, fuse_on_tape, init_param)
from .data import gen_synthetic, load_dataset, make_pairs, read_pairs, \
    save_dataset, write_pairs
from .model import (MarginKind, MarginLossConfig, StageSpec, TinyNetConfig,
                    cost_rows, init_params, margin_ce_on_tape,
                    tinynet_forward)
from .train import (ConfigError, DEFAULT_ABLATION_KINDS, TrainingDivergedError,
                    ablation_run, build_config, evaluate_verification,
                    format_ablation_report, load_checkpoint, parse_value,
                    read_kv_file, save_checkpoint, train)
from .viz import visualize_features

OP_THRESHOLD = 1e-6
BACKBONE_THRESHOLD = 1e-5


def _parse_overrides(tokens: list[str]) -> dict[str, str]:
    """Trailing `--key value` pairs, each key once, into a string mapping."""
    pairs: dict[str, str] = {}
    for i in range(0, len(tokens), 2):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"expected --key, got {tok!r}")
        key = tok[2:].replace("-", "_")
        if i + 1 >= len(tokens):
            raise ConfigError(f"missing value for --{key}")
        if key in pairs:
            raise ConfigError(f"duplicate override --{key}")
        pairs[key] = tokens[i + 1]
    return pairs


def _load_config(path: str | None, extra: list[str]):
    pairs = read_kv_file(path) if path else {}
    pairs.update(_parse_overrides(extra))
    return build_config(pairs)


# -- gradcheck ----------------------------------------------------------------

def _op_cases(seed: int):
    """Every tape op a network pass records, each under a scalar loss."""
    rng = np.random.default_rng(seed)
    x4 = rng.normal(size=(2, 5, 5, 3))
    w = rng.normal(size=(3, 3, 3, 4)) / 5.0
    yield "conv2d", {"x": x4, "w": w}, lambda t, v: t.sum(
        t.conv2d(v["x"], v["w"], dilation=2, stride=2))
    yield "global_avg_pool", {"x": rng.normal(size=(2, 4, 5, 3))}, \
        lambda t, v: t.mean(t.gap(v["x"]))
    fcv = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 6)),
           "b": rng.normal(size=6)}
    yield "fc", fcv, lambda t, v: t.mean(t.fc(v["x"], v["w"], v["b"]))
    yield "l2_normalize_rows", {"x": rng.normal(size=(3, 5)) + 0.1}, \
        lambda t, v: t.mean(t.l2_normalize_rows(v["x"]))
    # the fused op as the network records it, fed U1, U2 (and the shortcut)
    # as leaves; a fixed 3x3 conv after it varies the upstream gradient
    mix = rng.normal(size=(3, 3, 4, 2))
    for kind in FusionKind:
        for shortcut in ("", "+shortcut"):
            fuse = {p: rng.normal(size=shape) for p, shape in (
                ("u1", (2, 4, 4, 4)), ("u2", (2, 4, 4, 4)), ("w_reduce", (4, 3)),
                ("b_reduce", 3), ("w_expand", (3, 8)), ("b_expand", 8),
                *[("shortcut", (2, 4, 4, 4))] * bool(shortcut))}

            def build(t, v, kind=kind):
                out, _ = fuse_on_tape(t, v["u1"], v["u2"], v, kind,
                                      v.get("shortcut"))
                return t.mean(t.conv2d(out, t.constant(mix)))

            yield f"msconv_fuse/{kind.value}{shortcut}", fuse, build


def _block_case(seed: int):
    shapes = block_param_shapes(3, 4, DEFAULT_REDUCTION, min_width=2)
    params = {p: init_param(seed, f"block/{p}", shape)
              for p, shape in shapes.items()}
    params["x"] = np.random.default_rng(seed).normal(size=(2, 6, 6, 3))

    def build(tape, v):
        out, _ = block_forward_on_tape(tape, v["x"], v, dilations=(1, 2))
        return tape.mean(out)

    return params, build


def _backbone_case(seed: int):
    cfg = TinyNetConfig(in_channels=2, stem_channels=4,
                        stages=(StageSpec(blocks=2, channels=6, stride=2),),
                        embed_dim=5, min_width=2)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    params["x"] = rng.normal(size=(2, 8, 8, 2))
    params["centers"] = rng.normal(size=(3, 5))
    labels = rng.integers(0, 3, size=2)
    loss_cfg = MarginLossConfig.of_kind(MarginKind.COMBINED, class_count=3,
                                        scale=8.0)

    def build(tape, v):
        emb = tinynet_forward(tape, v["x"], v, cfg)
        centers = tape.l2_normalize_rows(v["centers"])
        return margin_ce_on_tape(tape, emb, centers, labels, loss_cfg)

    return params, build


def _cmd_gradcheck(args, _extra) -> int:
    checks = []
    if args.scope in ("ops", "all"):
        for name, params, build in _op_cases(args.seed):
            checks.append((f"op:{name}", params, build, OP_THRESHOLD))
    if args.scope in ("block", "all"):
        params, build = _block_case(args.seed)
        checks.append(("block", params, build, OP_THRESHOLD))
    if args.scope in ("backbone", "all"):
        params, build = _backbone_case(args.seed)
        checks.append(("backbone", params, build, BACKBONE_THRESHOLD))
    failed = 0
    for name, params, build, threshold in checks:
        err = finite_diff_check(build, params)
        status = "pass" if err < threshold else "FAIL"
        failed += status == "FAIL"
        print(f"scope={name} max_rel_err={err:.3e} threshold={threshold:g} "
              f"status={status}")
    return 1 if failed else 0


# -- subcommand bodies ----------------------------------------------------------

def _cmd_train(args, extra) -> int:
    cfg = _load_config(args.config, extra)
    result = train(cfg)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "metrics.log")
    with open(log_path, "w") as fh:
        fh.writelines(line + "\n" for line in result.log_lines)
    ckpt_dir = os.path.join(args.out, "checkpoint")
    save_checkpoint(ckpt_dir, result.params, cfg)
    for line in result.log_lines:
        print(line)
    print(f"metrics_log={log_path}")
    print(f"checkpoint={ckpt_dir}")
    return 0


def _cmd_ablate(args, extra) -> int:
    cfg = _load_config(args.config, extra)
    if args.kinds is not None:
        kinds = tuple(parse_value("fusion", k.strip())
                      for k in args.kinds.split(","))
    else:
        kinds = DEFAULT_ABLATION_KINDS
    report = ablation_run(cfg, kinds, far_target=args.far)
    text = format_ablation_report(report)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(text)
    for kind, result in report.results.items():
        kind_dir = os.path.join(args.out, kind.value)
        save_checkpoint(kind_dir, result.params, result.config)
        with open(os.path.join(kind_dir, "metrics.log"), "w") as fh:
            fh.writelines(line + "\n" for line in result.log_lines)
    print(text, end="")
    print(f"report={os.path.join(args.out, 'report.txt')}")
    return 0


def _cmd_verify(args, _extra) -> int:
    params, cfg = load_checkpoint(args.checkpoint)
    if args.data:
        ds = load_dataset(args.data)
        pairs = read_pairs(os.path.join(args.data, "pairs.txt"), ds.names)
    else:
        spec = replace(cfg.data, seed=cfg.data.seed + args.seed_offset)
        ds = gen_synthetic(spec)
        pairs = make_pairs(ds.labels, args.genuine, args.impostor,
                           seed=spec.seed)
    stats = evaluate_verification(params, cfg.model, ds, pairs, args.far,
                                  cfg.batch_size)
    print(f"verification over {len(pairs)} pairs "
          f"({np.count_nonzero(pairs[:, 2])} genuine)")
    print(f"  tar@far={stats['far_target']:g}: {stats['tar']:.4f} "
          f"at threshold {stats['threshold']:.6f}")
    print(f"  best pair accuracy: {stats['pair_acc']:.4f} "
          f"at threshold {stats['acc_threshold']:.6f}")
    for key in ("far_target", "tar", "threshold", "pair_acc", "acc_threshold"):
        print(f"{key}={stats[key]!r}")
    return 0


def _cmd_flops(args, extra) -> int:
    cfg = _load_config(args.config, extra)
    rows = cost_rows(cfg.model, cfg.data.height, cfg.data.width)
    total_p = sum(p for _, p, _ in rows)
    total_f = sum(f for _, _, f in rows)
    print(f"{'layer':<10} {'params':>10} {'flops':>12}")
    for name, p, f in rows + [("total", total_p, total_f)]:
        print(f"{name:<10} {p:>10} {f:>12}")
    print(f"total_params={total_p}")
    print(f"total_flops={total_f}")
    return 0


def _cmd_viz(args, _extra) -> int:
    params, cfg = load_checkpoint(args.checkpoint)
    image = msct.read_tensor(args.image)
    if not np.isfinite(image).all():
        raise msct.FormatError(f"{args.image}: non-finite pixel values")
    written = visualize_features(params, cfg.model, image, args.layer,
                                 args.out, args.top)
    for path in written:
        print(path)
    return 0


def _cmd_gen_data(args, extra) -> int:
    cfg = _load_config(args.config, extra)
    ds = gen_synthetic(cfg.data)
    pairs = make_pairs(ds.labels, args.genuine, args.impostor,
                       seed=cfg.data.seed)
    save_dataset(args.out, ds)
    write_pairs(os.path.join(args.out, "pairs.txt"), pairs)
    print(f"images={ds.images.shape[0]} identities={cfg.data.identity_count} "
          f"genuine_pairs={args.genuine} impostor_pairs={args.impostor}")
    print(f"out={args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msconv",
        description="multi-scale conv block: training, ablation and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--scope", choices=("ops", "block", "backbone", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a model from a config")
    p.add_argument("--config")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", help="train every fusion variant and report")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--kinds", help="comma-separated fusion kinds")
    p.add_argument("--far", type=float, default=0.01)

    p = sub.add_parser("verify", help="pair verification metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset directory with pairs.txt")
    p.add_argument("--far", type=float, default=0.01)
    p.add_argument("--genuine", type=int, default=300)
    p.add_argument("--impostor", type=int, default=1000)
    p.add_argument("--seed-offset", type=int, default=1, dest="seed_offset")

    p = sub.add_parser("flops", help="parameter and flop accounting")
    p.add_argument("--config")

    p = sub.add_parser("viz", help="dump branch feature maps for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="MSCT tensor file (h, w, c)")
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--top", type=int, default=5)

    p = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--genuine", type=int, default=300)
    p.add_argument("--impostor", type=int, default=1000)
    return parser


_HANDLERS = {
    "gradcheck": _cmd_gradcheck,
    "train": _cmd_train,
    "ablate": _cmd_ablate,
    "verify": _cmd_verify,
    "flops": _cmd_flops,
    "viz": _cmd_viz,
    "gen-data": _cmd_gen_data,
}


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        # only a command that reads a config takes `--key value` overrides
        if extra and not hasattr(args, "config"):
            raise ConfigError(f"unrecognized arguments: {extra}")
        # a diverging run ends in its error line, not in numpy warnings
        with np.errstate(all="ignore"):
            return _HANDLERS[args.command](args, extra)
    except (ConfigError, msct.FormatError, OSError, ValueError,
            TrainingDivergedError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
