"""Multi-scale convolution block with multiplicative/subtractive fusion.

A micro deep-learning library built on numpy: direct convolution, a tape
autograd engine, the MSConv attention block with its selective-kernel
reference twin, margin softmax losses, synthetic verification data, and a
training CLI.
"""

from .autograd import (GradientCheckError, Gradients, GradRecord, Tape,
                       TapeReuseError, Var, finite_diff_check)
from .block import (FusionKind, KERNEL_COMBOS, MSConvState, MSConvTrace,
                    SKConvState, ablate, block_forward_on_tape,
                    count_params_flops, equivalence_check, load_block,
                    msconv_forward, param_rng, params_flops_breakdown,
                    reduced_width, save_block, skconv_forward, so_noise_test)
from .data import (LabeledImages, SyntheticSpec, base_pattern, gen_synthetic,
                   load_dataset, make_pairs, read_pairs, save_dataset,
                   write_pairs)
from .metrics import (VerificationSet, cosine_sim, pair_accuracy, pair_scores,
                      tar_at_far)
from .model import (MarginKind, MarginLossConfig, StageSpec, TinyNetConfig,
                    cosine_scores, cost_rows, init_params, margin_ce_on_tape,
                    margin_loss, normalize_rows, tinynet_embed,
                    tinynet_forward)
from .msct import (FormatError, load_tensors, read_manifest, read_tensor,
                   save_tensors, tensor_bytes, tensor_from_bytes,
                   write_manifest, write_tensor)
from .tensor import (ChannelVec, ConvKernel, NonFiniteError, ShapeError,
                     Tensor4, UnsupportedConfigError, check_channel_vec,
                     check_tensor4, conv2d, conv2d_raw, conv_out_len,
                     debug_checks_enabled, ew_add, ew_mul, ew_sub, fc,
                     global_avg_pool, relu, same_pad, set_debug_checks,
                     sigmoid, softmax_pair)
from .train import (AblationReport, AblationRow, ConfigError,
                    DEFAULT_ABLATION_KINDS, LRSchedule, RunConfig, TrainResult,
                    TrainingDivergedError, ablation_run, build_config,
                    config_from_lines, config_to_lines, embed_dataset,
                    evaluate_verification, format_ablation_report, full_init,
                    load_checkpoint, lr_at, parse_kv_lines, save_checkpoint,
                    sgd_step, train, train_accuracy, verification_set)
from .viz import read_pgm, to_gray, top_channels, visualize_features, write_pgm

__version__ = "0.1.0"
