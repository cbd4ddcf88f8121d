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

import numpy as np

from .convops import conv_with_frame, identity_conv
from .seeding import rng

__all__ = [
    "NONLINEARITIES",
    "NetworkSpec",
    "LayerBank",
    "LayerMatrices",
    "ForwardTrace",
    "build_layer_matrices",
    "realize",
    "encoder_step",
    "decoder_step",
    "forward",
    "forward_matrices",
    "check_embedding_dims",
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
    """

    kappa: int
    r: int
    q: tuple
    m: tuple
    skip: bool = False
    nonlinearity: str = "relu"

    def __post_init__(self):
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

    @property
    def d(self) -> tuple:
        """Total feature dims (d_0, ..., d_kappa), d_l = m_l q_l."""
        return tuple(mm * qq for mm, qq in zip(self.m, self.q))

    @property
    def s(self) -> tuple:
        """Skip-branch dims (s_1, ..., s_kappa), s_l = m_{l-1} q_l."""
        return tuple(self.m[l - 1] * self.q[l] for l in range(1, self.kappa + 1))

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
            kappa=int(d["kappa"]),
            r=int(d["r"]),
            q=d["q"],
            m=d["m"],
            skip=bool(d.get("skip", False)),
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
    """

    enc_filters: tuple
    dec_filters: tuple
    pool: tuple
    unpool: tuple

    def __post_init__(self):
        for name in ("enc_filters", "dec_filters", "pool", "unpool"):
            arrays = tuple(np.asarray(a, dtype=float) for a in getattr(self, name))
            object.__setattr__(self, name, arrays)

    @property
    def kappa(self) -> int:
        return len(self.enc_filters)

    def n_params(self, l: int) -> int:
        """Free filter coefficients per side at layer l: r q_l q_{l-1}."""
        return int(self.enc_filters[l - 1].size)


def validate_bank(spec: NetworkSpec, bank: LayerBank) -> None:
    """Raise ValueError unless every tensor/matrix matches the spec dims."""
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


@dataclass(frozen=True)
class LayerMatrices:
    """Realized dense operators of one layer (S/S_tilde only with skips)."""

    E: np.ndarray
    D: np.ndarray
    S: np.ndarray | None = None
    S_tilde: np.ndarray | None = None


def build_layer_matrices(spec: NetworkSpec, bank: LayerBank, l: int) -> LayerMatrices:
    """Assemble E, D (and S, S_tilde with skips) for layer l in [1, kappa].

    Block (k, j) of E is the pooling matrix convolved column-wise with the
    encoder filter k->j; D mirrors this with the unpooling matrix and the
    decoder tensor's (j, k) slice; the skip operators replace the pooling
    with the identity.
    """
    if not 1 <= l <= spec.kappa:
        raise ValueError(f"layer index {l} out of range [1, {spec.kappa}]")
    validate_bank(spec, bank)
    q_prev, q_cur = spec.q[l - 1], spec.q[l]
    m_prev, m_cur = spec.m[l - 1], spec.m[l]
    enc, dec = bank.enc_filters[l - 1], bank.dec_filters[l - 1]
    pool, unpool = bank.pool[l - 1], bank.unpool[l - 1]

    E = np.zeros((m_prev * q_prev, m_cur * q_cur))
    D = np.zeros((m_prev * q_prev, m_cur * q_cur))
    for k in range(q_prev):
        rows = slice(k * m_prev, (k + 1) * m_prev)
        for j in range(q_cur):
            cols = slice(j * m_cur, (j + 1) * m_cur)
            E[rows, cols] = conv_with_frame(pool, enc[k, j])
            D[rows, cols] = conv_with_frame(unpool, dec[k, j])

    S = S_tilde = None
    if spec.skip:
        S = np.zeros((m_prev * q_prev, m_prev * q_cur))
        S_tilde = np.zeros((m_prev * q_prev, m_prev * q_cur))
        for k in range(q_prev):
            rows = slice(k * m_prev, (k + 1) * m_prev)
            for j in range(q_cur):
                cols = slice(j * m_prev, (j + 1) * m_prev)
                S[rows, cols] = identity_conv(m_prev, enc[k, j])
                S_tilde[rows, cols] = identity_conv(m_prev, dec[k, j])
    return LayerMatrices(E=E, D=D, S=S, S_tilde=S_tilde)


def realize(spec: NetworkSpec, bank: LayerBank) -> tuple:
    """Materialize all kappa layers."""
    return tuple(build_layer_matrices(spec, bank, l) for l in range(1, spec.kappa + 1))


def _act(v: np.ndarray, relu: bool) -> np.ndarray:
    return np.maximum(v, 0.0) if relu else v


def encoder_step(x: np.ndarray, mats: LayerMatrices, nonlinearity: str):
    """One encoder layer: xi = act(E'x) and, with skips, chi = act(S'x)."""
    relu = nonlinearity in ("relu", "relu_encoder")
    xi = _act(mats.E.T @ x, relu)
    chi = None
    if mats.S is not None:
        chi = _act(mats.S.T @ x, relu)
    return xi, chi


def decoder_step(xi_tilde: np.ndarray, chi, mats: LayerMatrices, nonlinearity: str):
    """One decoder layer: act(D xi_tilde + S_tilde chi), skip term optional."""
    pre = mats.D @ xi_tilde
    if mats.S_tilde is not None:
        if chi is None:
            raise ValueError("skip layer needs the matching chi input")
        pre = pre + mats.S_tilde @ chi
    return _act(pre, nonlinearity == "relu")


@dataclass
class ForwardTrace:
    """Complete record of one forward pass.

    enc_pre/enc hold the per-layer encoder pre-activations and features
    xi^l (index l-1); skip_pre/skip the branch values chi^l; dec holds
    xi~^l for l = 0..kappa with dec[kappa] aliasing the bottleneck
    feature, and dec_pre[l] the pre-activation of xi~^l for l < kappa.
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


def forward_matrices(spec: NetworkSpec, mats, x) -> ForwardTrace:
    """Forward pass through pre-realized layer matrices."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.d[0],):
        raise ValueError(f"input has shape {x.shape}, expected ({spec.d[0]},)")
    enc_relu = spec.relu_at_encoder()
    dec_relu = spec.relu_at_decoder()

    trace = ForwardTrace(x=x)
    if spec.skip:
        trace.skip_pre, trace.skip = [], []
    cur = x
    for l in range(1, spec.kappa + 1):
        layer = mats[l - 1]
        u = layer.E.T @ cur
        trace.enc_pre.append(u)
        if spec.skip:
            v = layer.S.T @ cur
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
        w = layer.D @ cur
        if spec.skip:
            w = w + layer.S_tilde @ trace.skip[l - 1]
        trace.dec_pre[l - 1] = w
        cur = _act(w, dec_relu)
        trace.dec[l - 1] = cur
    return trace


def forward(spec: NetworkSpec, bank: LayerBank, x) -> ForwardTrace:
    """Forward pass building the layer matrices on the fly."""
    return forward_matrices(spec, realize(spec, bank), x)


def check_embedding_dims(spec: NetworkSpec) -> list:
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
