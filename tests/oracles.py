"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way (scalar Python
loops, exhaustive sweeps) and shares no code with the package internals, so
agreement between the two is meaningful evidence.
"""

import math
import os

import numpy as np

from msconv import msct
from msconv.autograd import Tape
from msconv.metrics import pair_scores
from msconv.model import tinynet_forward


# the intermediates block_forward_on_tape returns, by name
TRACE_FIELDS = ("u1", "u2", "s", "z", "a_hat", "b_hat", "c")


def read_pgm(path) -> np.ndarray:
    """A binary (P5) maxval-255 PGM file as a 2-D uint8 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError(f"{path}: not a maxval-255 binary PGM")
    w, h = (int(tok) for tok in parts[1].split())
    pixels = np.frombuffer(parts[3][:w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w)


def conv2d_loops(x, w, dilation=1, stride=1):
    """Direct convolution with explicit bounds checks, one tap at a time."""
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    ph = dilation * (kh - 1) // 2
    pw = dilation * (kw - 1) // 2
    oh = -(-h // stride)
    ow = -(-wd // stride)
    out = np.zeros((n, oh, ow, cout))
    for b in range(n):
        for oy in range(oh):
            for ox in range(ow):
                for co in range(cout):
                    acc = 0.0
                    for ky in range(kh):
                        for kx in range(kw):
                            iy = oy * stride + ky * dilation - ph
                            ix = ox * stride + kx * dilation - pw
                            if 0 <= iy < h and 0 <= ix < wd:
                                for ci in range(cin):
                                    acc += x[b, iy, ix, ci] * w[ky, kx, ci, co]
                    out[b, oy, ox, co] = acc
    return out


def gap_loops(x):
    n, h, w, c = x.shape
    out = np.zeros((n, c))
    for b in range(n):
        for ch in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[b, i, j, ch]
            out[b, ch] = acc / (h * w)
    return out


def fc_loops(x, w, b):
    n, cin = x.shape
    cout = w.shape[1]
    out = np.zeros((n, cout))
    for s in range(n):
        for o in range(cout):
            acc = 0.0
            for i in range(cin):
                acc += x[s, i] * w[i, o]
            out[s, o] = acc + b[o]
    return out


def elementwise_loops(x, y, op):
    out = np.zeros_like(x)
    flat_x, flat_y, flat_o = x.ravel(), y.ravel(), out.ravel()
    for i in range(flat_x.size):
        flat_o[i] = op(flat_x[i], flat_y[i])
    return out


def cosine_loops(a, b):
    num = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return num / (na * nb)


# -- threshold sweeps ----------------------------------------------------------

def _sweep_candidates(genuine, impostor):
    merged = sorted(set(float(s) for s in genuine) | set(float(s) for s in impostor))
    return merged + [math.nextafter(merged[-1], math.inf)]


def sweep_tar(genuine, impostor, far_target):
    """Smallest threshold with FAR <= target, by exhaustive counting."""
    for t in _sweep_candidates(genuine, impostor):
        far = sum(1 for s in impostor if s >= t) / len(impostor)
        if far <= far_target:
            tar = sum(1 for s in genuine if s >= t) / len(genuine)
            return tar, t
    raise AssertionError("sentinel candidate always satisfies FAR = 0")


def sweep_accuracy(genuine, impostor):
    """Best (correct genuine + correct impostor) / total; ties -> smallest t."""
    best_correct, best_t = -1, None
    for t in _sweep_candidates(genuine, impostor):
        correct = (sum(1 for s in genuine if s >= t)
                   + sum(1 for s in impostor if s < t))
        if correct > best_correct:
            best_correct, best_t = correct, t
    return best_correct / (len(genuine) + len(impostor)), best_t


# -- instrumented scalar-loop block forward -------------------------------------

class OpCounter:
    """Tallies arithmetic by category while a scalar forward pass runs."""

    def __init__(self):
        self.counts = {}

    def bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def total(self):
        return sum(self.counts.values())


def _conv_count(x, w, dilation, stride, counter, key):
    """Scalar conv that counts one MAC per kernel tap, padding included."""
    h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    ph = dilation * (kh - 1) // 2
    pw = dilation * (kw - 1) // 2
    oh = -(-h // stride)
    ow = -(-wd // stride)
    out = np.zeros((oh, ow, cout))
    for oy in range(oh):
        for ox in range(ow):
            for co in range(cout):
                acc = 0.0
                for ky in range(kh):
                    for kx in range(kw):
                        iy = oy * stride + ky * dilation - ph
                        ix = ox * stride + kx * dilation - pw
                        for ci in range(cin):
                            counter.bump(key)
                            if 0 <= iy < h and 0 <= ix < wd:
                                acc += x[iy, ix, ci] * w[ky, kx, ci, co]
                out[oy, ox, co] = acc
    return out


def counting_block_forward(params, x, dilations=(1, 2), stride=1,
                           kind="msconv"):
    """Single-sample scalar-loop forward of the fusion block.

    ``params`` holds the block's six arrays keyed by BLOCK_PARAM_NAMES.
    Returns (v, counter).  Counts follow the documented accounting
    convention: conv/FC MACs, FC bias adds, one op per element for the
    element-wise fusions and the final combine, pool adds plus per-channel
    divides, one op per channel for the score difference (and for 1 - a in
    the reference twin); relu/sigmoid uncounted.
    """
    counter = OpCounter()
    u1 = _conv_count(x, params["k3"], dilations[0], stride, counter,
                     "conv_branches")
    u2 = _conv_count(x, params["k5"], dilations[1], stride, counter,
                     "conv_branches")
    oh, ow, c = u1.shape

    u3 = np.zeros_like(u1)
    for i in range(oh):
        for j in range(ow):
            for ch in range(c):
                counter.bump("attention_fuse")
                if kind in ("msconv", "no_so"):
                    u3[i, j, ch] = u1[i, j, ch] * u2[i, j, ch]
                else:
                    u3[i, j, ch] = u1[i, j, ch] + u2[i, j, ch]

    s = np.zeros(c)
    for ch in range(c):
        acc = 0.0
        for i in range(oh):
            for j in range(ow):
                counter.bump("gap")
                acc += u3[i, j, ch]
        counter.bump("gap")
        s[ch] = acc / (oh * ow)

    d = params["w_reduce"].shape[1]
    z = np.zeros(d)
    for o in range(d):
        acc = 0.0
        for i in range(c):
            counter.bump("fc_reduce")
            acc += s[i] * params["w_reduce"][i, o]
        counter.bump("fc_reduce")
        acc += params["b_reduce"][o]
        z[o] = max(acc, 0.0)

    e = np.zeros(2 * c)
    for o in range(2 * c):
        acc = 0.0
        for i in range(d):
            counter.bump("fc_expand")
            acc += z[i] * params["w_expand"][i, o]
        counter.bump("fc_expand")
        e[o] = acc + params["b_expand"][o]

    gate = np.zeros(c)
    for ch in range(c):
        counter.bump("score_sub")
        diff = e[ch] - e[c + ch]
        gate[ch] = 1.0 / (1.0 + math.exp(-diff)) if diff >= 0 else \
            math.exp(diff) / (1.0 + math.exp(diff))

    v = np.zeros_like(u1)
    if kind == "skconv":
        b_gate = np.zeros(c)
        for ch in range(c):
            counter.bump("combine")
            b_gate[ch] = 1.0 - gate[ch]
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    counter.bump("combine", 3)
                    v[i, j, ch] = (u1[i, j, ch] * gate[ch]
                                   + u2[i, j, ch] * b_gate[ch])
    else:
        u4 = np.zeros_like(u1)
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    counter.bump("target_fuse")
                    if kind in ("msconv", "msconv_sum"):
                        u4[i, j, ch] = u1[i, j, ch] - u2[i, j, ch]
                    else:
                        u4[i, j, ch] = u1[i, j, ch] + u2[i, j, ch]
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    counter.bump("combine", 2)
                    v[i, j, ch] = u2[i, j, ch] + u4[i, j, ch] * gate[ch]
    return v, counter


def counting_net_forward(x, stem, blocks, w_embed, b_embed, dilations):
    """Single-sample scalar-loop forward of the residual backbone.

    ``blocks`` holds (block params, stride, kind, projection kernel or None)
    per block, in order.  Returns (embedding before l2 normalisation, counter).  Inside
    each block the counts are counting_block_forward's; around the blocks
    they are the stem and projection conv MACs, one add per element of each
    residual sum, and for the head the pool adds plus per-channel divides
    and the FC MACs plus bias adds.  The l2 normalisation is not counted.
    """
    counter = OpCounter()
    cur = _conv_count(x, stem, 1, 1, counter, "stem")
    for params, stride, kind, proj in blocks:
        v, block_counter = counting_block_forward(params, cur, dilations,
                                                  stride, kind)
        for key, amount in block_counter.counts.items():
            counter.bump(key, amount)
        if proj is None:
            shortcut = cur
        else:
            shortcut = _conv_count(cur, proj, 1, stride, counter, "proj")
        oh, ow, c = v.shape
        cur = np.zeros_like(v)
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    counter.bump("residual_add")
                    cur[i, j, ch] = v[i, j, ch] + shortcut[i, j, ch]

    h, w, c = cur.shape
    pooled = np.zeros(c)
    for ch in range(c):
        acc = 0.0
        for i in range(h):
            for j in range(w):
                counter.bump("head")
                acc += cur[i, j, ch]
        counter.bump("head")
        pooled[ch] = acc / (h * w)
    emb = np.zeros(w_embed.shape[1])
    for o in range(w_embed.shape[1]):
        acc = 0.0
        for i in range(c):
            counter.bump("head")
            acc += pooled[i] * w_embed[i, o]
        counter.bump("head")
        emb[o] = acc + b_embed[o]
    return emb, counter


def count_state_params(params):
    """Brute-force enumeration of every learnable element of a block."""
    total = 0
    for arr in params.values():
        count = 1
        for dim in arr.shape:
            count *= dim
        total += count
    return total


# -- the block as separate tape ops ---------------------------------------------

def unfused_block_on_tape(tape, x, params, dilations, stride=1, kind="msconv",
                          shortcut=None):
    """The block after its branch convs as one tape op per step.

    This is the chain the fused ``msconv_fuse`` op replaced: product or sum,
    pool, two FCs around a relu, the two score halves, their difference, a
    sigmoid, then the reweighting and the residual add, each recorded apart
    with its own vjp.  ``kind`` is a FusionKind value.  Returns the output
    Var and a dict of every intermediate value (u4 None for skconv).
    """
    u1 = tape.conv2d(x, params["k3"], dilation=dilations[0], stride=stride)
    u2 = tape.conv2d(x, params["k5"], dilation=dilations[1], stride=stride)
    u3 = (tape.mul(u1, u2) if kind in ("msconv", "no_so")
          else tape.add(u1, u2))
    s = tape.gap(u3)
    z = tape.relu(tape.fc(s, params["w_reduce"], params["b_reduce"]))
    e = tape.fc(z, params["w_expand"], params["b_expand"])
    a_hat = tape.half(e, 0)
    b_hat = tape.half(e, 1)
    c = tape.sigmoid(tape.sub(a_hat, b_hat))
    if kind == "skconv":
        u4 = None
        v = tape.add(tape.scale_channels(u1, c),
                     tape.scale_channels(u2, tape.one_minus(c)))
    else:
        u4 = (tape.sub(u1, u2) if kind in ("msconv", "msconv_sum")
              else tape.add(u1, u2))
        v = tape.add(u2, tape.scale_channels(u4, c))
    if shortcut is not None:
        v = tape.add(v, shortcut)
    trace = {"u1": u1, "u2": u2, "u3": u3, "u4": u4, "s": s, "z": z,
             "a_hat": a_hat, "b_hat": b_hat, "c": c}
    return v, {k: None if var is None else var.value
               for k, var in trace.items()}


def unfused_net_forward(tape, x, params, cfg):
    """The residual backbone over unfused_block_on_tape; the projection or
    identity shortcut is added after each block, as a separate op."""
    cur = tape.conv2d(x, params["stem"], dilation=1, stride=1)
    for name, _, _, stride, kind in cfg.block_layout():
        blk = {p: params[f"{name}/{p}"] for p in
               ("k3", "k5", "w_reduce", "b_reduce", "w_expand", "b_expand")}
        v, _ = unfused_block_on_tape(tape, cur, blk, cfg.dilations, stride,
                                     kind.value)
        if f"{name}/proj" in params:
            shortcut = tape.conv2d(cur, params[f"{name}/proj"], dilation=1,
                                   stride=stride)
        else:
            shortcut = cur
        cur = tape.add(v, shortcut)
    pooled = tape.gap(cur)
    emb = tape.fc(pooled, params["w_embed"], params["b_embed"])
    return tape.l2_normalize_rows(emb)


# -- the backward with a fresh array for every sum --------------------------------

def fresh_sum_backward(tape, loss, seed=1.0):
    """Gradients by the rule ``Tape.backward`` kept before it added in place.

    Walks the tape's records in reverse without consuming them.  Every vjp
    runs with no gradient buffer on offer to a conv (``_owned`` emptied),
    so each conv returns a fresh dx, and every contribution after a value's
    first is summed into a fresh array, in record order.  Returns
    {slot: gradient}; run it on a tape of its own.
    """
    grads = {loss.index: np.full(loss.value.shape, seed,
                                 dtype=loss.value.dtype)}
    for rec in reversed(tape._records):
        g = grads.pop(rec.output, None)
        if g is None:
            continue
        tape._owned.clear()
        for idx, gi in zip(rec.inputs, rec.vjp(g)):
            if gi is not None and idx in tape._grad_shapes:
                grads[idx] = grads[idx] + gi if idx in grads else gi
    return grads


# -- the embedding as one pass ----------------------------------------------------

def one_shot_embed(x, params, cfg):
    """Embeddings of the whole batch in one forward pass: one constant tape,
    a fresh array for every activation, no chunks."""
    tape = Tape()
    consts = {k: tape.constant(v) for k, v in params.items()}
    return tinynet_forward(tape, tape.constant(x), consts, cfg).value


# -- the verify data path in one piece -------------------------------------

def stacked_load_dataset(directory):
    """(images, labels, names) of a dataset directory the plain way: every
    float32 image in a list, then one stack cast to float64."""
    path = os.path.join(directory, "labels.txt")
    images, labels, names = [], [], []
    for _, row in msct.text_lines(path):
        name, _, ident = row.partition(",")
        images.append(msct.read_tensor(os.path.join(directory, name)))
        labels.append(int(ident))
        names.append(name)
    return (np.stack(images).astype(np.float64),
            np.asarray(labels, dtype=np.int64), tuple(names))


def one_shot_verification(embs, pairs):
    """(genuine, impostor) scores from one pair_scores call over every pair's
    gathered rows."""
    ii = np.array([p[0] for p in pairs], dtype=np.int64)
    jj = np.array([p[1] for p in pairs], dtype=np.int64)
    same = np.array([p[2] for p in pairs], dtype=bool)
    scores = pair_scores(embs[ii], embs[jj])
    return scores[same], scores[~same]


def so_noise_test(sigma, trials, mu=0.0, seed=0):
    """Sample mean and variance of N1 - N2 for i.i.d. N ~ Normal(mu, sigma^2).

    The difference cancels the common mean and doubles the variance, which is
    the mechanism by which the subtractive branch suppresses shared noise.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    n1 = rng.normal(mu, sigma, trials)
    n2 = rng.normal(mu, sigma, trials)
    diff = n1 - n2
    return float(diff.mean()), float(diff.var())
