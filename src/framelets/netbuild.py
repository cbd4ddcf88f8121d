"""Encoder-decoder network construction in explicit matrix form.

A network is described by a :class:`NetworkSpec` (depth, filter length,
channel and spatial dimensions, skip flag, nonlinearity) plus a
:class:`LayerBank` of learnable content (filter tensors and pooling /
unpooling matrices).  :func:`realize` materializes every layer as dense
operators:

* ``E`` (d_{l-1} x d_l): encoder filter+pooling matrix, applied as E'x;
* ``D`` (d_{l-1} x d_l): decoder unpooling+filter matrix, applied as Dx;
* ``S`` (d_{l-1} x s_l) and ``S_tilde`` (d_{l-1} x s_l): the skip-branch
  analogues built with identity pooling.

Every operator is linear in its filter taps: block (k, j) is
sum_t taps[k, j, t] roll(Phi, t) with Phi the pooling matrix, the
unpooling matrix or the identity.  E and S share the encoder taps, D and
S_tilde the decoder taps.  :func:`build_layer_matrices` is that linear
map and :func:`realize_adjoint` its adjoint, which pulls gradients with
respect to the operators back onto the taps; this module is the only
place that knows the block layout.

Channel-major stacking throughout: a feature vector is the concatenation
of its per-channel signals in channel order.  Networks are bias-free, so
with ReLU they are positively homogeneous; a bias could be absorbed as an
extra column of E or D driven by a constant channel, but the core keeps
the homogeneous region structure exact by leaving it out.

Specs, banks and realized matrices are immutable after construction and
safe to share across concurrent analyses; forward passes allocate
private traces.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .seeding import rng

__all__ = [
    "NONLINEARITIES",
    "NetworkSpec",
    "LayerBank",
    "LayerMatrices",
    "ForwardTrace",
    "build_layer_matrices",
    "realize",
    "realize_adjoint",
    "forward_matrices",
    "forward_y",
    "random_bank",
    "validate_bank",
    "bank_to_dict",
    "bank_from_dict",
    "save_bank",
    "load_bank",
]

#: recognized nonlinearity modes; "relu_encoder" keeps the decoder linear,
#: which is what single-layer region-counting oracles need.
NONLINEARITIES = ("none", "relu", "relu_encoder")


def _integral(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and float(value).is_integer())


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture descriptor.

    kappa   depth (number of encoder = decoder layers), >= 1
    r       filter length, 1 <= r <= min(m)
    q       channel counts (q_0, ..., q_kappa)
    m       per-channel spatial dims (m_0, ..., m_kappa)
    skip    whether skip branches are present
    nonlinearity  one of NONLINEARITIES

    The derived dims ``d`` and ``s`` and the shift index ``shifts`` of
    :func:`_frames` are cached on first read; the cache is not a field, so
    equality, hashing, ``to_dict`` and ``dataclasses.replace`` ignore it.
    """

    kappa: int
    r: int
    q: tuple
    m: tuple
    skip: bool = False
    nonlinearity: str = "relu"

    def __post_init__(self):
        for name in ("kappa", "r"):
            value = getattr(self, name)
            if not _integral(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.skip, (bool, np.bool_)):
            raise ValueError(f"skip must be true or false, got {self.skip!r}")
        object.__setattr__(self, "skip", bool(self.skip))
        for name in ("q", "m"):
            values = getattr(self, name)
            if not all(_integral(v) for v in values):
                raise ValueError(f"{name} must be a list of integers, got {values!r}")
            object.__setattr__(self, name, tuple(int(v) for v in values))
        if self.kappa < 1:
            raise ValueError(f"depth kappa={self.kappa} must be >= 1")
        if len(self.q) != self.kappa + 1 or len(self.m) != self.kappa + 1:
            raise ValueError(
                f"q and m must have kappa+1={self.kappa + 1} entries, "
                f"got {len(self.q)} and {len(self.m)}"
            )
        if any(v < 1 for v in self.q) or any(v < 1 for v in self.m):
            raise ValueError("channel counts and spatial dims must be >= 1")
        if not 1 <= self.r <= min(self.m):
            raise ValueError(f"filter length r={self.r} must satisfy 1 <= r <= min(m)")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")

    # computed on first read, after __post_init__ has normalised q and m; the
    # cache lives outside the fields, so equality and hashing ignore it
    @cached_property
    def d(self) -> tuple:
        """Total feature dims (d_0, ..., d_kappa), d_l = m_l q_l."""
        return tuple(mm * qq for mm, qq in zip(self.m, self.q))

    @cached_property
    def s(self) -> tuple:
        """Skip-branch dims (s_1, ..., s_kappa), s_l = m_{l-1} q_l."""
        return tuple(self.m[l - 1] * self.q[l] for l in range(1, self.kappa + 1))

    @cached_property
    def shifts(self) -> tuple:
        """Per layer l, the spec-only part of :func:`_frames`: ``(idx, eye)``
        with ``idx`` the (r, m_{l-1}) gather index, row i of shift t being
        (i - t) mod m_{l-1}, and ``eye`` the identity's (r, m_{l-1}, m_{l-1})
        shift stack on skip nets, else None.  Both arrays are read-only."""
        out = []
        for rows in self.m[:-1]:
            idx = (np.arange(rows) - np.arange(self.r)[:, None]) % rows
            idx.flags.writeable = False
            eye = None
            if self.skip:
                eye = np.eye(rows)[idx]
                eye.flags.writeable = False
            out.append((idx, eye))
        return tuple(out)

    @property
    def feature_dim(self) -> int:
        """Width of the (dual) frame: d_kappa, plus sum of s_l with skips."""
        dim = self.d[self.kappa]
        if self.skip:
            dim += sum(self.s)
        return dim

    def relu_at_encoder(self) -> bool:
        return self.nonlinearity in ("relu", "relu_encoder")

    def relu_at_decoder(self) -> bool:
        return self.nonlinearity == "relu"

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "r": self.r,
            "q": list(self.q),
            "m": list(self.m),
            "skip": self.skip,
            "nonlinearity": self.nonlinearity,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(
            kappa=d["kappa"],
            r=d["r"],
            q=d["q"],
            m=d["m"],
            skip=d.get("skip", False),
            nonlinearity=d.get("nonlinearity", "relu"),
        )


@dataclass(frozen=True)
class LayerBank:
    """Per-layer learnable content.

    enc_filters[l-1]  (q_{l-1}, q_l, r) tensor; [k, j] filters encoder
                      input channel k+1 into output channel j+1
    dec_filters[l-1]  (q_{l-1}, q_l, r) tensor; [j, k] filters decoder
                      input channel k+1 into output channel j+1
    pool[l-1]         (m_{l-1}, m_l) pooling matrix, applied transposed
    unpool[l-1]       (m_{l-1}, m_l) unpooling matrix, applied directly

    Every array is stored as a C-contiguous float array, so a bank's results
    do not depend on the memory layout it was built in (sums over an
    array run in layout order).
    """

    enc_filters: tuple
    dec_filters: tuple
    pool: tuple
    unpool: tuple

    def __post_init__(self):
        for name in ("enc_filters", "dec_filters", "pool", "unpool"):
            arrays = tuple(np.ascontiguousarray(a, dtype=float) for a in getattr(self, name))
            object.__setattr__(self, name, arrays)

    @property
    def kappa(self) -> int:
        return len(self.enc_filters)


def validate_bank(spec: NetworkSpec, bank: LayerBank) -> None:
    """Raise ValueError unless every array matches the spec dims and is finite."""
    if bank.kappa != spec.kappa:
        raise ValueError(f"bank has {bank.kappa} layers, spec wants {spec.kappa}")
    for l in range(1, spec.kappa + 1):
        want_f = (spec.q[l - 1], spec.q[l], spec.r)
        want_p = (spec.m[l - 1], spec.m[l])
        for name, arr, want in (
            ("enc_filters", bank.enc_filters[l - 1], want_f),
            ("dec_filters", bank.dec_filters[l - 1], want_f),
            ("pool", bank.pool[l - 1], want_p),
            ("unpool", bank.unpool[l - 1], want_p),
        ):
            if arr.shape != want:
                raise ValueError(
                    f"layer {l} {name} has shape {arr.shape}, expected {want}"
                )
            if not np.isfinite(arr).all():
                raise ValueError(f"layer {l} {name} contains non-finite entries")


@dataclass(frozen=True)
class LayerMatrices:
    """Realized dense operators of one layer (S/S_tilde only with skips)."""

    E: np.ndarray
    D: np.ndarray
    S: np.ndarray | None = None
    S_tilde: np.ndarray | None = None


def _frames(spec: NetworkSpec, bank: LayerBank, l: int) -> dict:
    """Layer l's operators by field: (side, R), side 0 for encoder taps, 1 for
    decoder taps, R the (r, rows, cols) stack of roll(Phi, t, axis=0), t < r,
    gathered at once: row i of shift t is Phi[(i - t) % rows].  The gather
    index and the identity's stack come from the spec's cached
    :attr:`NetworkSpec.shifts`, so only the two pooling stacks are built."""
    idx, eye = spec.shifts[l - 1]
    frames = {"E": (0, bank.pool[l - 1][idx]), "D": (1, bank.unpool[l - 1][idx])}
    if eye is not None:
        frames.update(S=(0, eye), S_tilde=(1, eye))
    return frames


def _layer(spec: NetworkSpec, bank: LayerBank, l: int) -> LayerMatrices:
    taps = (bank.enc_filters[l - 1], bank.dec_filters[l - 1])
    return LayerMatrices(**{
        name: np.einsum("kjt,tab->kajb", taps[side], R).reshape(spec.d[l - 1], -1)
        for name, (side, R) in _frames(spec, bank, l).items()
    })


def build_layer_matrices(spec: NetworkSpec, bank: LayerBank, l: int) -> LayerMatrices:
    """Assemble E, D (and S, S_tilde with skips) for layer l in [1, kappa].

    The linear map from taps to operators: block (k, j) of E is
    sum_t enc[k, j, t] roll(pool, t, axis=0), i.e. the pooling matrix
    convolved column-wise with the encoder filter k->j; D does the same
    with the unpooling matrix and the decoder taps, and the skip
    operators replace the pooling with the identity.
    """
    if not 1 <= l <= spec.kappa:
        raise ValueError(f"layer index {l} out of range [1, {spec.kappa}]")
    validate_bank(spec, bank)
    return _layer(spec, bank, l)


def realize(spec: NetworkSpec, bank: LayerBank) -> tuple:
    """Materialize all kappa layers."""
    validate_bank(spec, bank)
    return tuple(_layer(spec, bank, l) for l in range(1, spec.kappa + 1))


def realize_adjoint(spec: NetworkSpec, bank: LayerBank, grads) -> tuple:
    """Adjoint of :func:`realize`: pull operator gradients back onto the taps.

    ``grads`` is shaped like realize's output (LayerMatrices per layer).
    Returns (enc_grads, dec_grads) shaped like the bank's filters; each sums
    the operators that share that side's taps.
    """
    validate_bank(spec, bank)
    enc_grads, dec_grads = [], []
    for l in range(1, spec.kappa + 1):
        sides = [0.0, 0.0]
        blocks = (spec.q[l - 1], spec.m[l - 1], spec.q[l], -1)
        for name, (side, R) in _frames(spec, bank, l).items():
            G = getattr(grads[l - 1], name).reshape(blocks)
            sides[side] = sides[side] + np.einsum("kajb,tab->kjt", G, R)
        enc_grads.append(sides[0])
        dec_grads.append(sides[1])
    return enc_grads, dec_grads


def _act(v: np.ndarray, relu: bool) -> np.ndarray:
    return np.maximum(v, 0.0) if relu else v


def _apply(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v for one vector (k,) or a stack (N, k), one vector per row.

    The stack goes through matmul as N (k, 1) matrices, i.e. one
    matrix-vector product per row, so every row is bit-identical to
    ``M @ v`` of that row.  A single vector skips the reshaping, which
    costs a tenth of a small forward pass.
    """
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


@dataclass
class ForwardTrace:
    """Complete record of one forward pass, or of a stack of them.

    enc_pre/enc hold the per-layer encoder pre-activations and features
    xi^l (index l-1); skip_pre/skip the branch values chi^l; dec holds
    xi~^l for l = 0..kappa with dec[kappa] aliasing the bottleneck
    feature, and dec_pre[l] the pre-activation of xi~^l for l < kappa.
    For a stack of N inputs every array has a leading axis of length N.
    """

    x: np.ndarray
    enc_pre: list = field(default_factory=list)
    enc: list = field(default_factory=list)
    skip_pre: list | None = None
    skip: list | None = None
    dec_pre: list = field(default_factory=list)
    dec: list = field(default_factory=list)

    @property
    def y(self) -> np.ndarray:
        return self.dec[0]


def _check_input(spec: NetworkSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.d[0]:
        raise ValueError(
            f"input has shape {x.shape}, expected ({spec.d[0]},) or (N, {spec.d[0]})"
        )
    return x


def forward_matrices(spec: NetworkSpec, mats, x) -> ForwardTrace:
    """Forward pass through pre-realized layer matrices.

    ``x`` is one input of shape (d_0,) or a stack of inputs (N, d_0), one
    per row; every trace array then gains the leading N axis.  Each row is
    bit-identical to the single-input pass of that row, so a census key, a
    kink-screen decision or an Armijo decision does not depend on the
    stack a row was forwarded in.  A caller that reads only the outputs
    and tolerates last-bit rounding uses :func:`forward_y`.
    """
    x = _check_input(spec, x)
    enc_relu = spec.relu_at_encoder()
    dec_relu = spec.relu_at_decoder()

    trace = ForwardTrace(x=x)
    if spec.skip:
        trace.skip_pre, trace.skip = [], []
    cur = x
    for l in range(1, spec.kappa + 1):
        layer = mats[l - 1]
        u = _apply(layer.E.T, cur)
        trace.enc_pre.append(u)
        if spec.skip:
            v = _apply(layer.S.T, cur)
            trace.skip_pre.append(v)
            trace.skip.append(_act(v, enc_relu))
        cur = _act(u, enc_relu)
        trace.enc.append(cur)

    trace.dec = [None] * (spec.kappa + 1)
    trace.dec_pre = [None] * spec.kappa
    trace.dec[spec.kappa] = trace.enc[-1]
    cur = trace.enc[-1]
    for l in range(spec.kappa, 0, -1):
        layer = mats[l - 1]
        w = _apply(layer.D, cur)
        if spec.skip:
            w = w + _apply(layer.S_tilde, trace.skip[l - 1])
        trace.dec_pre[l - 1] = w
        cur = _act(w, dec_relu)
        trace.dec[l - 1] = cur
    return trace


def forward_y(spec: NetworkSpec, mats, x) -> np.ndarray:
    """Outputs y of a forward pass, with no trace: (d_0,) or (N, d_0) like ``x``.

    A stack is multiplied by each operator as one GEMM, ``v @ M.T``, so a
    row may differ from its single-input pass in the last bits; only the
    skip branches' features are kept until the decoder reads them.  For a
    caller that reads no mask: the finite-difference stencil of
    ``analysis.fd_jacobian``.
    """
    def act(v, relu):  # each product is fresh, so its ReLU is taken in place
        return np.maximum(v, 0.0, out=v) if relu else v

    cur = _check_input(spec, x)
    enc_relu, dec_relu = spec.relu_at_encoder(), spec.relu_at_decoder()
    skips = []
    for layer in mats:
        if spec.skip:
            skips.append(act(cur @ layer.S, enc_relu))
        cur = act(cur @ layer.E, enc_relu)
    for layer in reversed(mats):
        w = cur @ layer.D.T
        if spec.skip:
            w += skips.pop() @ layer.S_tilde.T
        cur = act(w, dec_relu)
    return cur


def _orthonormal(rows: int, cols: int, gen: np.random.Generator) -> np.ndarray:
    """rows x cols matrix with orthonormal columns (rows >= cols) or rows."""
    transpose = rows < cols
    a, b = (cols, rows) if transpose else (rows, cols)
    g = gen.standard_normal((a, b))
    qmat, rmat = np.linalg.qr(g)
    qmat = qmat * np.sign(np.diag(rmat))[None, :]
    return qmat.T if transpose else qmat


def random_bank(spec: NetworkSpec, seed: int, scale: float = 1.0) -> LayerBank:
    """Seeded Gaussian filter bank with orthonormal pooling.

    Filters are N(0, 1) scaled by scale/sqrt(r q_in) of their own side, so
    features stay O(1) at desk depth; pooling/unpooling are seeded
    orthonormal frames.  Identical (spec, seed, scale) gives an identical
    bank on every platform.
    """
    enc, dec, pool, unpool = [], [], [], []
    for l in range(1, spec.kappa + 1):
        q_prev, q_cur = spec.q[l - 1], spec.q[l]
        m_prev, m_cur = spec.m[l - 1], spec.m[l]
        g = rng(seed, "bank", l)
        enc.append(
            g.standard_normal((q_prev, q_cur, spec.r)) * scale / np.sqrt(spec.r * q_prev)
        )
        dec.append(
            g.standard_normal((q_prev, q_cur, spec.r)) * scale / np.sqrt(spec.r * q_cur)
        )
        pool.append(_orthonormal(m_prev, m_cur, g))
        unpool.append(_orthonormal(m_prev, m_cur, g))
    return LayerBank(
        enc_filters=tuple(enc), dec_filters=tuple(dec),
        pool=tuple(pool), unpool=tuple(unpool),
    )


def _array_entry(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": arr.tolist()}


def _entry_array(entry: dict, name: str) -> np.ndarray:
    arr = np.asarray(entry["data"], dtype=float)
    if list(arr.shape) != list(entry["shape"]):
        raise ValueError(
            f"{name}: declared shape {entry['shape']} != data shape {list(arr.shape)}"
        )
    return arr


def bank_to_dict(spec: NetworkSpec, bank: LayerBank) -> dict:
    """JSON-ready bank with explicit shape fields and fixed key order."""
    validate_bank(spec, bank)
    layers = []
    for l in range(spec.kappa):
        layers.append(
            {
                "enc_filters": _array_entry(bank.enc_filters[l]),
                "dec_filters": _array_entry(bank.dec_filters[l]),
                "pool": _array_entry(bank.pool[l]),
                "unpool": _array_entry(bank.unpool[l]),
            }
        )
    return {"kappa": spec.kappa, "r": spec.r, "q": list(spec.q), "m": list(spec.m),
            "layers": layers}


def bank_from_dict(d: dict) -> LayerBank:
    layers = d["layers"]
    return LayerBank(
        enc_filters=tuple(_entry_array(e["enc_filters"], f"layer {i} enc_filters")
                          for i, e in enumerate(layers, 1)),
        dec_filters=tuple(_entry_array(e["dec_filters"], f"layer {i} dec_filters")
                          for i, e in enumerate(layers, 1)),
        pool=tuple(_entry_array(e["pool"], f"layer {i} pool")
                   for i, e in enumerate(layers, 1)),
        unpool=tuple(_entry_array(e["unpool"], f"layer {i} unpool")
                     for i, e in enumerate(layers, 1)),
    )


def save_bank(spec: NetworkSpec, bank: LayerBank, path) -> None:
    with open(path, "w") as fh:
        json.dump(bank_to_dict(spec, bank), fh, indent=1)
        fh.write("\n")


def load_bank(path) -> LayerBank:
    with open(path) as fh:
        return bank_from_dict(json.load(fh))
