"""Brute-force oracles that only the tests use.

Each helper checks a library result by an independent route: a loop
over channels, both sides of an identity, an LP per sign vector, a
central difference of the loss, circular convolutions and wrap-around
Hankel matrices built tap by tap, and ``report.json`` and the census
side files written by ``json.dump`` and ``csv.writer``.  They live here,
not in ``framelets``, so the package needs neither their code nor scipy
at run time.

Circular convolution treats a vector as one period of an n-periodic
sequence; all index arithmetic is modulo the period.  When two operands
of different lengths meet, the shorter one is zero-padded to the longer
period first, so the period of a convolution follows the longer vector.
There is deliberately no FFT path: these are exact dense oracles.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os

import numpy as np
from scipy.optimize import linprog

from framelets import analysis, cli, frames, landscape, netbuild
from framelets.seeding import derive

#: default absolute tolerance for exact algebraic identities
DEFAULT_TOL = 1e-10


def as_signal(v, name: str = "signal") -> np.ndarray:
    """Validate and return a finite 1-d float vector."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _pad_to(v: np.ndarray, n: int, name: str = "vector") -> np.ndarray:
    if len(v) > n:
        raise ValueError(f"{name} of length {len(v)} does not fit period {n}")
    if len(v) == n:
        return v
    out = np.zeros(n)
    out[: len(v)] = v
    return out


def flip(v, n: int | None = None) -> np.ndarray:
    """Index-reversed vector under the periodic boundary: out[k] = v[(-k) mod n].

    If ``n`` is given and exceeds len(v), the vector is zero-padded to
    period ``n`` before reversal.  flip is an involution for fixed n.
    """
    v = as_signal(v, "v")
    period = len(v) if n is None else int(n)
    vp = _pad_to(v, period, "v")
    return vp[(-np.arange(period)) % period]


def hankel(x, r: int) -> np.ndarray:
    """n x r wrap-around Hankel matrix with entries H[i, j] = x[(i + j) mod n].

    Generators shorter than the requested period are not accepted here;
    zero-pad explicitly (see :func:`flip`) when embedding short vectors.
    """
    x = as_signal(x, "x")
    n = len(x)
    r = int(r)
    if not 1 <= r <= n:
        raise ValueError(f"Hankel width r={r} out of range [1, {n}]")
    idx = (np.arange(n)[:, None] + np.arange(r)[None, :]) % n
    return x[idx]


def extended_hankel(Z, r: int) -> np.ndarray:
    """Channel-stacked Hankel matrix: the n x (r p) block row [H(z_1) ... H(z_p)]."""
    cols = [hankel(z, r) for z in Z]
    if len({h.shape[0] for h in cols}) != 1:
        raise ValueError("all channels must share one period")
    return np.hstack(cols)


def circ_conv(x, h) -> np.ndarray:
    """Circular convolution y[t] = sum_k x[(t - k) mod n] h[k].

    The period n follows the longer operand; the shorter one is
    zero-padded.  Commutative: circ_conv(x, h) == circ_conv(h, x).
    """
    x = as_signal(x, "x")
    h = as_signal(h, "h")
    if len(h) > len(x):
        x, h = h, x
    n = len(x)
    out = np.zeros(n)
    for k, tap in enumerate(h):
        if tap != 0.0:
            out += tap * np.roll(x, k)
    return out


def circ_corr(x, psi) -> np.ndarray:
    """Filtering with the flipped filter: hankel(x, r) @ psi == x conv flip(psi).

    This is the encoder-side operation: the matrix form uses the raw taps
    while the convolutional form uses the index-reversed filter, and the
    two agree through the Hankel product.
    """
    x = as_signal(x, "x")
    psi = as_signal(psi, "psi")
    return hankel(x, len(psi)) @ psi


def conv_with_frame(Phi, psi) -> np.ndarray:
    """Convolve every column of a pooling matrix with one filter.

    Column i of the result is circ_conv(Phi[:, i], psi); the output keeps
    Phi's shape.  This is the building block of every layer operator.
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2:
        raise ValueError(f"pooling matrix must be 2-d, got shape {Phi.shape}")
    psi = as_signal(psi, "psi")
    if len(psi) > Phi.shape[0]:
        raise ValueError(
            f"filter length {len(psi)} exceeds column period {Phi.shape[0]}"
        )
    out = np.zeros_like(Phi)
    for k, tap in enumerate(psi):
        if tap != 0.0:
            out += tap * np.roll(Phi, k, axis=0)
    return out


def identity_conv(m: int, v) -> np.ndarray:
    """m x m circulant whose first column is v zero-padded to length m.

    Composition law: identity_conv(m, v) @ identity_conv(m, w)
    == identity_conv(m, circ_conv(w, v)).
    """
    v = as_signal(v, "v")
    m = int(m)
    if len(v) > m:
        raise ValueError(f"filter length {len(v)} exceeds m={m}")
    return conv_with_frame(np.eye(m), v)


def mimo_conv(Z, Psi) -> np.ndarray:
    """Multi-channel filtering: y_i = sum_j z_j conv flip(psi[j, i]).

    ``Z`` is a length-p sequence of period-n channels, ``Psi`` a
    (p, q, r) tensor whose [j, i] slice filters input channel j into
    output channel i.  Equals extended_hankel(Z, r) @ frames.filters_to_matrix(Psi)
    column by column.
    """
    Psi = np.asarray(Psi, dtype=float)
    if Psi.ndim != 3:
        raise ValueError(f"filter tensor must be (p, q, r), got shape {Psi.shape}")
    p, q, r = Psi.shape
    Z = [as_signal(z, f"channel {j}") for j, z in enumerate(Z)]
    if len(Z) != p:
        raise ValueError(f"got {len(Z)} input channels, filter tensor expects {p}")
    n = len(Z[0])
    out = np.zeros((q, n))
    for i in range(q):
        for j in range(p):
            out[i] += circ_corr(Z[j], Psi[j, i])
    return out


def hankel_inner_identity_check(f, u, v, tol: float = DEFAULT_TOL) -> bool:
    """Check the inner-product identity u' H(f) v == <f, u conv v>.

    ``u`` shares f's period, ``v`` supplies the Hankel width; both sides
    are evaluated independently.
    """
    f = as_signal(f, "f")
    u = as_signal(u, "u")
    v = as_signal(v, "v")
    lhs = u @ hankel(f, len(v)) @ v
    rhs = f @ circ_conv(u, v)
    return abs(lhs - rhs) <= tol


def roll_frames(spec, bank, l: int) -> dict:
    """``netbuild._frames`` built shift by shift: each (r, rows, cols) stack is
    ``np.stack`` of r separate ``np.roll(Phi, t, axis=0)`` calls."""
    def shifts(Phi):
        return np.stack([np.roll(Phi, t, axis=0) for t in range(spec.r)])

    frames = {"E": (0, shifts(bank.pool[l - 1])), "D": (1, shifts(bank.unpool[l - 1]))}
    if spec.skip:
        eye = shifts(np.eye(spec.m[l - 1]))
        frames.update(S=(0, eye), S_tilde=(1, eye))
    return frames


def outer_sum_grad(p, name: str, l: int) -> np.ndarray:
    """``landscape.Pass.grad`` as a loop: start from zeros and add the outer
    product of each sample's forward and backward row, in sample order."""
    if name in ("E", "S"):
        rows = [p.trace.x, *p.trace.enc][l - 1]
        cols = (p.d_enc if name == "E" else p.d_skip)[l - 1]
    else:
        rows = p.d_dec[l - 1]
        cols = p.trace.dec[l] if name == "D" else p.trace.skip[l - 1]
    grad = np.zeros((rows.shape[1], cols.shape[1]))
    for a, b in zip(rows, cols):
        grad += np.outer(a, b)
    return grad


def einsum_tap_gradients(spec, bank, data) -> tuple:
    """``landscape.tap_gradients`` the long way: each dense free-matrix
    gradient of ``Pass.grad``, contracted with its layer's shift stack by
    ``einsum("kajb,tab->kjt")`` and summed over the operators of a side.
    Returns (enc_grads, dec_grads, loss)."""
    p = landscape.training_pass(spec, netbuild.realize(spec, bank), data)
    enc, dec = [], []
    for l in range(1, spec.kappa + 1):
        sides = [0.0, 0.0]
        blocks = (spec.q[l - 1], spec.m[l - 1], spec.q[l], -1)
        for name, (side, R) in netbuild._frames(spec, bank, l).items():
            G = p.grad(name, l).reshape(blocks)
            sides[side] = sides[side] + np.einsum("kajb,tab->kjt", G, R)
        enc.append(sides[0])
        dec.append(sides[1])
    return enc, dec, p.cost


def gemm_forward(spec, mats, x) -> netbuild.ForwardTrace:
    """A full forward trace with each operator applied to the whole stack as
    one GEMM, ``v @ M.T``: the stencil forward ``netbuild.forward_y``
    replaced, keeping every pre-activation and feature."""
    enc_relu, dec_relu = spec.relu_at_encoder(), spec.relu_at_decoder()

    def act(v, relu):
        return np.maximum(v, 0.0) if relu else v

    trace = netbuild.ForwardTrace(x=np.asarray(x, dtype=float))
    if spec.skip:
        trace.skip_pre, trace.skip = [], []
    cur = trace.x
    for layer in mats:
        trace.enc_pre.append(cur @ layer.E)
        if spec.skip:
            trace.skip_pre.append(cur @ layer.S)
            trace.skip.append(act(trace.skip_pre[-1], enc_relu))
        cur = act(trace.enc_pre[-1], enc_relu)
        trace.enc.append(cur)
    trace.dec = [None] * spec.kappa + [cur]
    trace.dec_pre = [None] * spec.kappa
    for l in range(spec.kappa, 0, -1):
        w = cur @ mats[l - 1].D.T
        if spec.skip:
            w = w + trace.skip[l - 1] @ mats[l - 1].S_tilde.T
        trace.dec_pre[l - 1] = w
        cur = act(w, dec_relu)
        trace.dec[l - 1] = cur
    return trace


def _max_dev(A: np.ndarray, B: np.ndarray) -> float:
    return float(np.max(np.abs(A - B)))


def cascade_filter_check(spec, bank, tol: float = 1e-12) -> dict:
    """Verify that chained layer operators are single long convolutions.

    With identity pooling everywhere (and a single input channel), every
    m-column block of the cumulative encoder product must equal the
    circulant of a sum of cascaded filters over all channel paths into
    that block; dually for the decoder side.  Returns per-depth maximal
    deviations and an overall verdict at ``tol``.
    """
    m = spec.m[0]
    if any(mm != m for mm in spec.m):
        raise ValueError("corollary requires no pooling: spatial dims must be constant")
    for l in range(spec.kappa):
        if not (np.array_equal(bank.pool[l], np.eye(m))
                and np.array_equal(bank.unpool[l], np.eye(m))):
            raise ValueError("corollary requires no pooling: all pooling matrices "
                             "must be the identity")
    if spec.q[0] != 1:
        raise ValueError("cascade check needs a single input channel (q_0 == 1)")

    mats = netbuild.realize(spec, bank)
    report = {"tol": tol, "per_layer": []}
    worst = 0.0

    def pad(v):
        out = np.zeros(m)
        out[: len(v)] = v
        return out

    enc_sums = [pad(bank.enc_filters[0][0, j]) for j in range(spec.q[1])]
    dec_sums = [pad(bank.dec_filters[0][0, j]) for j in range(spec.q[1])]
    prod_e = mats[0].E
    prod_d = mats[0].D
    for l in range(1, spec.kappa + 1):
        if l >= 2:
            enc_sums = [
                sum(circ_conv(enc_sums[j], bank.enc_filters[l - 1][j, t])
                    for j in range(spec.q[l - 1]))
                for t in range(spec.q[l])
            ]
            dec_sums = [
                sum(circ_conv(dec_sums[j], bank.dec_filters[l - 1][j, t])
                    for j in range(spec.q[l - 1]))
                for t in range(spec.q[l])
            ]
            prod_e = prod_e @ mats[l - 1].E
            prod_d = prod_d @ mats[l - 1].D
        # np.max keeps a NaN deviation (an overflow); Python's max can drop it
        enc_dev = float(np.max([
            _max_dev(prod_e[:, t * m:(t + 1) * m], identity_conv(m, enc_sums[t]))
            for t in range(spec.q[l])
        ]))
        dec_dev = float(np.max([
            _max_dev(prod_d[:, t * m:(t + 1) * m], identity_conv(m, dec_sums[t]))
            for t in range(spec.q[l])
        ]))
        worst = float(np.max([worst, enc_dev, dec_dev]))
        report["per_layer"].append(
            {"layer": l, "enc_deviation": enc_dev, "dec_deviation": dec_dev}
        )
    report["max_deviation"] = worst
    report["ok"] = worst <= tol
    return report


def check_embedding_dims(spec) -> list:
    """Advisory dimension checks for the embed-then-quotient design.

    A well-posed encoder should not contract (d_0 <= d_1 <= ... <= d_k)
    and should more than double the input dimension at the bottleneck.
    Violations are reported as warnings, never errors.
    """
    warnings = []
    d = spec.d
    for l in range(1, spec.kappa + 1):
        if d[l] < d[l - 1]:
            warnings.append(
                f"feature dims not monotone at layer {l}: d_{l}={d[l]} < d_{l - 1}={d[l - 1]}"
            )
    if d[spec.kappa] <= 2 * d[0]:
        warnings.append(
            f"bottleneck too small: d_kappa={d[spec.kappa]} <= 2 d_0={2 * d[0]}"
        )
    return warnings


def count_sign_regions(normals, max_rows: int = 12) -> int:
    """Exact number of full-dimensional sign regions of central hyperplanes.

    ``normals`` holds one row per hyperplane {x : a_i x = 0}.  Every one
    of the 2^h sign vectors is checked for strict feasibility with an LP
    (margin 1, valid by cone scaling).  Exponential by construction, so
    capped at ``max_rows`` hyperplanes; rows must be nonzero.
    """
    A = np.asarray(normals, dtype=float)
    if A.ndim != 2:
        raise ValueError("normals must be a 2-d array")
    h = A.shape[0]
    if h > max_rows:
        raise ValueError(f"{h} hyperplanes exceed the enumeration cap {max_rows}")
    if np.any(np.all(A == 0.0, axis=1)):
        raise ValueError("zero normal rows have no sign region")
    count = 0
    for code in range(1 << h):
        signs = np.array([1.0 if code & (1 << i) else -1.0 for i in range(h)])
        # s_i * a_i x >= 1  <=>  -s_i * a_i x <= -1
        res = linprog(
            c=np.zeros(A.shape[1]),
            A_ub=-signs[:, None] * A,
            b_ub=-np.ones(h),
            bounds=[(None, None)] * A.shape[1],
            method="highs",
        )
        if res.status == 0:
            count += 1
    return count


def pm_pair_bank(spec, alpha: float = 1.0, seed: int = 0,
                 pooling: str = "orthogonal") -> netbuild.LayerBank:
    """A bank whose ReLU net has closed-form maps: the frame filters Psi of
    ``frames.make_frame_filters`` for q_l / 2 outputs, paired with their
    negatives, [Psi, -Psi] as both encoder and decoder taps.

    Channels j and j + q_l / 2 carry u and -u, so D rho(E' z) = D_+ (rho(u)
    - rho(-u)) = D_+ E_+' z = z at every layer, and an inner decoder ReLU
    sees only z >= 0: on a ``relu_encoder`` net F(x) = x and every region
    map is I, on a ``relu`` net F(x) = rho(x) with map diag(x > 0).  (The
    linear net doubles: D E' = 2 I.)  Needs q_l >= 2 r q_{l-1} and even q_l,
    equal m and no skip branch, which has no negated twin.
    """
    if spec.skip or len(set(spec.m)) > 1:
        raise ValueError("a +-pair bank needs equal m and no skip")
    taps, pool, unpool = [], [], []
    for l in range(1, spec.kappa + 1):
        q_prev, q_cur = spec.q[l - 1], spec.q[l]
        if q_cur % 2 or q_cur < 2 * spec.r * q_prev:
            raise ValueError(f"a +-pair bank needs even q_l >= 2 r q_(l-1), got "
                             f"{q_cur} at layer {l}")
        phi, phi_t = frames.make_frame_pooling(spec.m[l - 1], alpha, kind=pooling,
                                               seed=derive(seed, "pm-pool", l))
        psi, _ = frames.make_frame_filters(spec.r, q_prev, q_cur // 2, alpha,
                                           seed=derive(seed, "pm-filters", l))
        taps.append(frames._matrix_to_filters(np.hstack([psi, -psi]), q_prev, q_cur, spec.r))
        pool.append(phi)
        unpool.append(phi_t)
    return netbuild.LayerBank(enc_filters=tuple(taps), dec_filters=tuple(taps),
                              pool=tuple(pool), unpool=tuple(unpool))


def stages(spec, bits) -> tuple:
    """Split mask-bit rows, (n_bits,) or (N, n_bits), into (enc, skip, dec):
    enc[l-1] the d_l columns of enc_l, skip[l-1] the s_l of skip_l (None
    without skips), dec[l-1] the d_{l-1} of dec_l, in that order along the
    last axis.  The offsets are counted here from the spec, not taken from
    ``analysis._masks``, so the split is an independent reference."""
    bits, groups, at = np.asarray(bits), [], 0
    for widths in (spec.d[1:], spec.s if spec.skip else (), spec.d[:spec.kappa]):
        group = []
        for w in widths:
            group.append(bits[..., at:at + w])
            at += w
        groups.append(tuple(group))
    if bits.shape[-1] != at:
        raise ValueError(f"{bits.shape[-1]} mask bits, the net has {at}")
    enc, skip, dec = groups
    return enc, skip if spec.skip else None, dec


def pattern_key(bits) -> bytes:
    """One input's mask-bit row as a key: its n_bits as 4 little-endian bytes,
    then its packed bits, the bytes of a census region's pattern hex."""
    return len(bits).to_bytes(4, "little") + np.packbits(bits).tobytes()


def chain_frame(spec, mats, bits) -> np.ndarray:
    """The frame B of one region by its chain prefixes: the reference for the
    frame of the forward recursion (``analysis._forward``).

    ups[l] accumulates E^1 ... E^l, each followed by its encoder mask, from
    ups[0] = I; B is ups[kappa], then with skips each prefix ups[l-1]
    times the masked S^l, newest skip level first.  Stacked bit rows give
    stacked prefixes past ups[0], row i bit-identical to row i's own.
    """
    enc, skip, _ = stages(spec, bits)
    ups = [np.eye(spec.d[0])]
    for l in range(1, spec.kappa + 1):
        ups.append((ups[-1] @ mats[l - 1].E) * enc[l - 1][..., None, :])
    blocks = [ups[spec.kappa]]
    if spec.skip:
        blocks += [ups[l - 1] @ (mats[l - 1].S * skip[l - 1][..., None, :])
                   for l in range(spec.kappa, 0, -1)]
    return np.concatenate(blocks, axis=-1)


def dual_chains(spec, mats, bits) -> list:
    """Masked dual-chain prefixes tus of one region, kappa + 1 entries: the
    reference for the decoder adjoint from the co-probe I
    (``analysis.adjoint``, read by ``landscape.Pass.dual``).

    tus[l] accumulates D^1 ... D^l, each preceded by its decoder mask;
    tus[0] is the identity.  Stacked bit rows give stacked prefixes past
    entry 0, row i bit-identical to row i's own call.
    """
    dec = stages(spec, bits)[2]
    tus = [np.eye(spec.d[0])]
    for l in range(1, spec.kappa + 1):
        tus.append((tus[-1] * dec[l - 1][..., None, :]) @ mats[l - 1].D)
    return tus


def backward_row(spec, mats, bits, res: np.ndarray, i: int) -> tuple:
    """Sample i's backward trace of the cost from its residual row ``res``, by
    one-vector ``netbuild._apply`` products: the reference for
    ``landscape.training_pass``'s (d_enc, d_skip, d_dec) rows, each list
    indexed by layer l-1.  ``bits`` holds the (T, n_bits) mask-bit rows."""
    (enc, skip, dec), k = stages(spec, bits), spec.kappa
    d_cur, d_enc, d_skip, d_dec = res, [], [], []
    for l in range(1, k + 1):
        d_dec.append(d_cur * dec[l - 1][i])
        d_cur = netbuild._apply(mats[l - 1].D.T, d_dec[-1])
    for l in range(k, 0, -1):
        d_enc.insert(0, d_cur * enc[l - 1][i])
        d_cur = netbuild._apply(mats[l - 1].E, d_enc[0])
        if spec.skip:
            d_skip.insert(0, netbuild._apply(mats[l - 1].S_tilde.T, d_dec[l - 1])
                          * skip[l - 1][i])
            d_cur = d_cur + netbuild._apply(mats[l - 1].S, d_skip[0])
    return d_enc, d_skip, d_dec


def dual_frame(spec, mats, bits) -> np.ndarray:
    """The masked dual frame B_tilde of one region by its chain prefixes: the
    reference for ``analysis.linear_rep``'s dual frame.

    The :func:`dual_chains` prefix tus[kappa], then with skips each prefix
    tus[l-1] times S_tilde^l under the decoder mask dec_l, newest skip
    level first; the columns of the frame's dead units (the masks
    enc_kappa, skip_kappa .. skip_1) are zeroed, as in B.
    """
    enc, skip, dec = stages(spec, bits)
    tus = dual_chains(spec, mats, bits)
    blocks, masks = [tus[spec.kappa]], [enc[-1]]
    if spec.skip:
        for l in range(spec.kappa, 0, -1):
            blocks.append(tus[l - 1] @ (mats[l - 1].S_tilde * dec[l - 1][:, None]))
            masks.append(skip[l - 1])
    return np.hstack(blocks) * np.concatenate(masks)


def trace_margin(spec, trace):
    """Smallest |pre-activation| over all ReLU stages (inf when linear).

    A float for a single-input trace; for a stacked trace of N inputs, an
    array with each row's margin.  A NaN pre-activation (an overflowing
    forward pass) makes that input's margin NaN; ``got < margin`` is
    False for NaN, so a kink screen keeps the input.
    """
    parts = []
    if spec.relu_at_encoder():
        parts.extend(trace.enc_pre)
        if spec.skip:
            parts.extend(trace.skip_pre)
    if spec.relu_at_decoder():
        parts.extend(trace.dec_pre)
    rows = trace.x.shape[:-1]
    if not parts:
        return np.full(rows, np.inf) if rows else np.inf
    got = np.min([np.min(np.abs(p), axis=-1) for p in parts], axis=0)
    return got if rows else float(got)


def _kink_guard(spec, mats, data, margin: float) -> None:
    """Reject training data with a sample within ``margin`` of a ReLU kink."""
    for i in range(data.T):
        got = trace_margin(spec, netbuild.forward_matrices(spec, mats, data.X[:, i]))
        if got < margin:
            raise analysis.KinkMarginError(
                f"training sample {i} sits within {got:.3e} of a ReLU kink "
                f"(margin {margin:.3e}); resample or perturb the data"
            )


def _replace_layer(mats, l: int, **changes):
    out = list(mats)
    out[l - 1] = dataclasses.replace(mats[l - 1], **changes)
    return tuple(out)


def _fd_grad_matrix(spec, mats, data, l: int, attr: str, step: float | None,
                    margin: float) -> np.ndarray:
    _kink_guard(spec, mats, data, margin)
    base = getattr(mats[l - 1], attr)
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        h = step if step is not None else 1e-6 * (1.0 + abs(base[idx]))
        plus = base.copy()
        plus[idx] += h
        minus = base.copy()
        minus[idx] -= h
        lp = landscape.loss(spec, _replace_layer(mats, l, **{attr: plus}), data)
        lm = landscape.loss(spec, _replace_layer(mats, l, **{attr: minus}), data)
        grad[idx] = (lp - lm) / (2.0 * h)
    return grad


def fd_grad_skip(spec, mats, data, l: int, step: float | None = None,
                 margin: float = 1e-8) -> np.ndarray:
    """Central-difference oracle for the S_tilde gradient ``Pass.grad("S_tilde", l)``.

    A derivative-based check, so it rejects traces within ``margin`` of a
    ReLU kink with a resample advisory.
    """
    if not spec.skip:
        raise ValueError("skip gradients need a skip network")
    return _fd_grad_matrix(spec, mats, data, l, "S_tilde", step, margin)


def fd_grad_enc(spec, mats, data, step: float | None = None,
                margin: float = 1e-8) -> np.ndarray:
    """Central-difference oracle for the bottleneck gradient ``Pass.grad("E", kappa)``."""
    return _fd_grad_matrix(spec, mats, data, spec.kappa, "E", step, margin)


def write_census_files(census: analysis.RegionCensus, outdir: str) -> None:
    """``census.json``, ``regions.csv`` and ``region_lipschitz.csv`` as
    ``json.dump(indent=1)`` and ``csv.writer`` write them: the byte-for-byte
    reference for the streamed writer of ``cli.run_regions``."""
    block = census.to_dict()
    for entry, reg in zip(block["regions"], census.regions):
        entry["first_sample"] = reg.first_sample
    with open(os.path.join(outdir, "census.json"), "w") as fh:
        json.dump(block, fh, indent=1)
        fh.write("\n")
    with open(os.path.join(outdir, "regions.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pattern", "count", "lipschitz"])
        for reg in census.regions:
            writer.writerow([reg.pattern_hex, reg.count, repr(reg.lipschitz)])
    with open(os.path.join(outdir, "region_lipschitz.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "lipschitz"])
        for idx, reg in enumerate(census.regions):
            writer.writerow([idx, repr(reg.lipschitz)])


def write_report(report: dict, outdir: str) -> str:
    """``report.json`` as ``json.dump(indent=1)`` writes it: the byte-for-byte
    reference for the streamed ``cli.write_report``."""
    path = os.path.join(outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=cli._json_default)
        fh.write("\n")
    return path
