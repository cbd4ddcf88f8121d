"""Per-input piecewise-linear analysis of a realized network.

For a fixed input x, the ReLU on/off decisions form an
:class:`ActivationPattern`; freezing the pattern turns the network into
a linear map that factors as B_tilde(x) B(x)' through the input-dependent
frame pair built by :func:`linear_rep`.  One kernel runs the masked
forward pass of the identity over a block of patterns, rows of a bit
matrix, at once: its forward half, X_l = (X_{l-1} E^l) * enc_l from
X_0 = I with the skip products K_l, is the frame B, and its back half
down the decoder is the region map (:func:`region_maps`).  On top of it
sit a sampling census of activation patterns with the expressiveness
bound, exact local Lipschitz constants (the spectral norm of each region
map), and the analytic Jacobian with its finite-difference cross-check,
taken only where the input's certified in-region radius (read from the
rows the kernel forms anyway) keeps the stencil in its region.

The census draws all its inputs as one block from one seeded stream
(:func:`census_inputs`), so a region is named by the index of its first
sample; the samples' masks are packed into key rows, grouped by one
``np.unique`` and reported sorted by pattern key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import tee

import numpy as np

from .netbuild import NetworkSpec, forward_matrices, forward_y
from .seeding import rng

__all__ = [
    "KinkMarginError",
    "ActivationPattern",
    "LinearRep",
    "CensusConfig",
    "RegionInfo",
    "RegionCensus",
    "extract_pattern",
    "pattern_from_trace",
    "dual_chains",
    "linear_rep",
    "region_maps",
    "nrep_bound",
    "pattern_bits",
    "spectral_norm",
    "census_inputs",
    "region_census",
    "lipschitz_global",
    "jacobian_analytic",
    "fd_jacobian",
]


#: inputs per stacked forward pass (and packed key block) of the census and
#: per screen block of the jacobian analysis, and patterns per block of
#: region_maps, whose buffers are (n, d_0, d_l) and (n, d_0, F) stacks
#: (also the census regions unpacked, mapped and put through one SVD at a
#: time); both keep the stacks near a megabyte at d_0 = 64
_ROWS = 64
_BLOCK = 4
#: census sampling distributions
DISTRIBUTIONS = ("gaussian", "sphere")


class KinkMarginError(ValueError):
    """An input sits too close to a ReLU kink for derivative work."""


@dataclass(frozen=True, eq=False)
class ActivationPattern:
    """Binary ReLU masks of one input (or a stack of N); the key to a linear region.

    enc[l-1] length d_l, skip[l-1] length s_l (skip nets only), dec[l-1]
    length d_{l-1}, each with a leading N axis when stacked.  Stages without
    a ReLU carry all-ones masks so the masked products stay uniform.  A mask
    bit is set iff the pre-activation is strictly positive: exact zeros are
    inactive.
    """

    enc: tuple
    skip: tuple | None
    dec: tuple

    def bits(self) -> np.ndarray:
        """The masks end to end (enc, skip, dec) as uint8; (N, n_bits) if stacked."""
        return np.concatenate([*self.enc, *(self.skip or ()), *self.dec], axis=-1).astype(np.uint8)


def pattern_from_trace(spec: NetworkSpec, trace) -> ActivationPattern:
    """Activation pattern of a trace: pre-activation > 0, or all ones where a
    stage has no ReLU.  Of a stacked trace, the stacked pattern whose row i
    is row i's own (``bits()`` gives :func:`region_maps` its input)."""
    enc_on, dec_on = spec.relu_at_encoder(), spec.relu_at_decoder()
    stages = [(trace.enc_pre, enc_on), (trace.skip_pre or [], enc_on), (trace.dec_pre, dec_on)]
    masks = [pre > 0 if relu else np.ones(pre.shape, dtype=bool)
             for pres, relu in stages for pre in pres]
    k = spec.kappa
    return ActivationPattern(enc=tuple(masks[:k]), dec=tuple(masks[-k:]),
                             skip=tuple(masks[k:2 * k]) if spec.skip else None)


def extract_pattern(spec: NetworkSpec, mats, x) -> ActivationPattern:
    """Run a forward pass and read off the activation pattern of x."""
    return pattern_from_trace(spec, forward_matrices(spec, mats, x))


def dual_chains(spec: NetworkSpec, mats, pattern: ActivationPattern) -> list:
    """Masked dual-chain prefixes tus of one region, kappa + 1 entries.

    tus[l] accumulates D^1 ... D^l, each preceded by its decoder mask;
    tus[0] is the identity.  A stacked pattern gives stacked prefixes past
    entry 0, row i bit-identical to row i's own call.
    """
    tus = [np.eye(spec.d[0])]
    for l in range(1, spec.kappa + 1):
        tus.append((tus[-1] * pattern.dec[l - 1][..., None, :]) @ mats[l - 1].D)
    return tus


@dataclass(frozen=True, eq=False)
class LinearRep:
    """Input-dependent frame pair: F(x) == B_tilde @ B.T @ x on the region."""

    B: np.ndarray
    B_tilde: np.ndarray
    pattern: ActivationPattern

    def matrix(self) -> np.ndarray:
        """The region's linear map B_tilde B'."""
        return self.B_tilde @ self.B.T


def linear_rep(spec: NetworkSpec, mats, x=None, pattern=None) -> LinearRep:
    """Frame pair of the region containing x (or of an explicit pattern).

    B is the frame block of the kernel's forward half (:func:`_encode`) on
    the pattern's one row: the masked encoder product X_kappa, then the
    masked skip products K_kappa ... K_1, newest skip level first.  B_tilde
    hangs the masked S_tilde operators off the :func:`dual_chains`
    prefixes in the same order.  On a spec with ``nonlinearity="none"``
    every mask is all ones and this is the global frame pair of the linear
    network.
    """
    if pattern is None:
        if x is None:
            raise ValueError("need an input x or an explicit pattern")
        pattern = extract_pattern(spec, mats, x)
    B = next(_encode(spec, mats, [(pattern.bits()[None], None)]))[0][0]
    tus = dual_chains(spec, mats, pattern)
    if not spec.skip:
        return LinearRep(B=B, B_tilde=tus[spec.kappa], pattern=pattern)

    dual_blocks = [tus[spec.kappa]]
    for l in range(spec.kappa, 0, -1):
        M_tilde = mats[l - 1].S_tilde * pattern.dec[l - 1][:, None]
        dual_blocks.append(tus[l - 1] @ M_tilde)
    return LinearRep(B=B, B_tilde=np.hstack(dual_blocks), pattern=pattern)


def _radius(rho, P, x, mask) -> None:
    """Lower each rho[i] to the least |a_j'x_i| / ||a_j|| over the live rows
    a_j of one ReLU stage: x_i's distance to the nearest of its hyperplanes.

    ``P`` is the stage's (n, d_0, w) pre-mask products, column j of P[i]
    being a_j of row i's region; ``x`` the (n, d_0) inputs; ``mask`` the
    stage's (n, 1, w) mask bits.  A zero column a_j is no kink and is
    skipped.  A live unit whose mask bit disagrees with the sign of a_j'x_i
    gives 0; a NaN gives NaN.  Both sums are einsums without ``optimize``,
    so no BLAS: each adds its d_0 products in index order, and row i is
    bit-identical whatever block it is in.
    """
    dot = np.einsum("nij,ni->nj", P, x)
    sq = np.einsum("nij,nij->nj", P, P)
    got = np.full(dot.shape, np.inf)
    np.divide(np.abs(dot), np.sqrt(sq), out=got, where=sq != 0)
    got[(dot > 0) != mask[:, 0]] = 0.0
    np.minimum(rho, got.min(axis=1), out=rho)


def _encode(spec: NetworkSpec, mats, blocks):
    """The kernel's forward half, over the (bits, x) blocks of :func:`_map_blocks`.

    Per block, the masked encoder products X_l = (X_{l-1} E^l) * enc_l and
    K_l = (X_{l-1} S^l) * skip_l from X_0 = I (never formed), in buffers
    allocated for the first block.  X[0] is left for the back half's Y_0.
    X[kappa] and the K[l-1] are column views of one (n, d_0, F) frame
    buffer, in :func:`linear_rep`'s order of B: [X_kappa | K_kappa | ... |
    K_1].  Yields (B, X, K, rho), rho being None without inputs.
    """
    k, d = spec.kappa, spec.d
    s = spec.s if spec.skip else ()
    ends = np.cumsum([*d[1:], *s]).tolist()
    cuts = np.cumsum([d[k], *s[::-1]]).tolist()
    frame = None
    for bits, x in blocks:
        n = len(bits)
        if frame is None:
            frame = np.empty((n, d[0], spec.feature_dim))
            cols = [frame[..., a:b] for a, b in zip([0, *cuts], cuts)]
            X_buf = [np.empty((n, d[0], w)) for w in d[:k]] + cols[:1]
            K_buf = cols[:0:-1]
        masks = [bits[:, None, a:b] for a, b in zip([0, *ends], ends)]
        enc, skip = masks[:k], masks[k:]
        X, K = [buf[:n] for buf in X_buf], [buf[:n] for buf in K_buf]
        rho = None if x is None else np.full(n, np.inf)
        on = x is not None and spec.relu_at_encoder()
        for l in range(1, k + 1):
            stages = [(mats[l - 1].E, X[l], enc[l - 1])]
            if spec.skip:
                stages.append((mats[l - 1].S, K[l - 1], skip[l - 1]))
            for M, P, mask in stages:  # P: the pre-mask products, the rows of layer l
                if l == 1:  # X_0 = I
                    np.copyto(P, M)
                else:
                    np.matmul(X[l - 1], M, out=P)
                if on:
                    _radius(rho, P, x, mask)
            if l < k:
                X[l] *= enc[l - 1]
        # the frame's blocks feed no encoder product: they are masked last, in
        # one multiply over the whole buffer rather than one per strided view
        B = frame[:n]
        B *= np.concatenate([enc[-1], *skip[::-1]], axis=-1)
        yield B, X, K, rho


def _map_blocks(spec: NetworkSpec, mats, blocks):
    """Frames and region maps of blocks of pattern bit rows, in one set of buffers.

    ``blocks`` yields pairs (bits, x): a non-empty (n, n_bits) array in
    ``ActivationPattern.bits()`` order, none longer than the first (a
    longer one fails on its ``out=`` shapes), and its (n, d_0) inputs or
    None.  The forward half (:func:`_encode`) fills each block's frames,
    the back half runs down the decoder, and this yields views
    (Y, B, rho): ``Y[i].T`` is row i's map and B[i] its frame B.  The next
    block overwrites them, so a consumer copies or reduces them before
    asking for more.  Every product is a batched matmul written with
    ``out=``, so each row stays bit-identical to a one-row block.

    With inputs, rho[i] is row i's certified in-region radius, lowered by
    :func:`_radius` at every ReLU stage from the product before its mask
    multiply.  The nets are bias-free, so the open ball of radius rho[i]
    about x_i lies in the region of its bits when they are x_i's own
    pattern: there every live row keeps its sign and every zero row stays
    zero, layer by layer.  It is inf on a net without ReLUs.  Without
    inputs it is None and no radius work runs.
    """
    k, d = spec.kappa, spec.d
    blocks, ahead = tee(blocks)
    tmp = None  # one S_tilde product of the decoder
    for (bits, x), (B, X, K, rho) in zip(blocks, _encode(spec, mats, ahead)):
        if spec.skip and tmp is None:
            tmp = np.empty(len(B) * d[0] * max(d[:k]))
        on = x is not None and spec.relu_at_decoder()
        end = bits.shape[1]  # the decoder masks close the row, dec_kappa last
        for l in range(k, 0, -1):  # Y_kappa = X_kappa
            dec = bits[:, None, end - d[l - 1]:end]
            end -= d[l - 1]
            np.matmul(X[l], mats[l - 1].D.T, out=X[l - 1])
            if spec.skip:
                prod = tmp[:X[l - 1].size].reshape(X[l - 1].shape)
                X[l - 1] += np.matmul(K[l - 1], mats[l - 1].S_tilde.T, out=prod)
            if on:
                _radius(rho, X[l - 1], x, dec)
            X[l - 1] *= dec
        yield X[0], B, rho


def region_maps(spec: NetworkSpec, mats, bits) -> np.ndarray:
    """Region maps B_tilde B' of N patterns, shape (N, d_0, d_0).

    ``bits`` holds one pattern per row in ``ActivationPattern.bits()`` order
    (a stacked pattern's ``bits()``, or unpacked census keys), split per
    block into its mask columns.  Frozen masks make the network linear, so
    the map is the masked forward pass of the identity.  In row form, with
    enc_l, skip_l, dec_l the masks of layer l and X_0 = I never formed:

        X_l = (X_{l-1} E^l) * enc_l,   K_l = (X_{l-1} S^l) * skip_l,
        Y_kappa = X_kappa,   Y_{l-1} = (Y_l D^l' + K_l S_tilde^l') * dec_l,

    and the map is Y_0'.  Blocks of ``_BLOCK`` patterns go through batched
    matmul, each product a stack (n, d_0, .) against one shared operator,
    so every row is bit-identical to a one-pattern call.  The blocks share
    one set of buffers (:func:`_map_blocks`), copied out block by block.
    """
    n_bits = sum(spec.d[1:]) + sum(spec.s if spec.skip else ()) + sum(spec.d[:spec.kappa])
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != n_bits:
        raise ValueError(f"pattern bits have shape {bits.shape}, expected (N, {n_bits})")
    out = np.empty((len(bits), spec.d[0], spec.d[0]))
    blocks = ((bits[at:at + _BLOCK], None) for at in range(0, len(bits), _BLOCK))
    for at, (Y, _, _) in zip(range(0, len(bits), _BLOCK), _map_blocks(spec, mats, blocks)):
        out[at:at + len(Y)] = Y.transpose(0, 2, 1)
    return out


def nrep_bound(spec: NetworkSpec) -> int:
    """Stated cap on distinct linear representations, as an exact integer.

    2^(d_1 + ... + d_kappa - d_kappa), times 2^(s_1 + ... + s_kappa) with
    skips.  The formula nets out the bottleneck masks; see pattern_bits
    for the raw mask-bit count of this construction, which both the
    census and the reports also carry.
    """
    exponent = sum(spec.d[1:]) - spec.d[spec.kappa]
    if spec.skip:
        exponent += sum(spec.s)
    return 1 << exponent


def pattern_bits(spec: NetworkSpec) -> int:
    """Raw number of ReLU mask bits actually produced by a forward pass."""
    bits = 0
    if spec.relu_at_encoder():
        bits += sum(spec.d[1:])
        if spec.skip:
            bits += sum(spec.s)
    if spec.relu_at_decoder():
        bits += sum(spec.d[: spec.kappa])
    return bits


def spectral_norm(M):
    """Largest singular value of M, exact to LAPACK precision (an SVD).

    A float for one matrix; for a stack (N, a, b), the array of the N
    norms, each bit-identical to ``np.linalg.norm`` of its matrix.  Raises
    ValueError when M holds NaN or an infinity, which happens when the
    forward pass of a huge bank overflows.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("region map contains non-finite entries: the forward pass "
                         "overflowed (is the bank scaled too large?)")
    top = np.linalg.svd(M, compute_uv=False)[..., 0]
    return float(top) if M.ndim == 2 else top


@dataclass(frozen=True)
class CensusConfig:
    count: int
    distribution: str = "gaussian"  # or "sphere"
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("census needs count >= 1")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")


@dataclass
class RegionInfo:
    """One sampled region: its constant, its inputs in sample order and the
    index of the first of them in the :func:`census_inputs` block (what the
    census file records in place of the input)."""

    pattern_hex: str
    lipschitz: float
    inputs: list
    first_sample: int

    @property
    def count(self) -> int:
        return len(self.inputs)


@dataclass
class RegionCensus:
    """Sampled partition of the input space by activation pattern."""

    samples: int
    nrep: int
    pattern_bits: int
    regions: list

    @property
    def distinct(self) -> int:
        return len(self.regions)

    @property
    def singletons(self) -> int:
        """Regions seen once; equal to ``distinct`` when the census is saturated."""
        return sum(reg.count == 1 for reg in self.regions)

    def to_dict(self, include_first_samples: bool = True) -> dict:
        out = {
            "samples": self.samples,
            "distinct": self.distinct,
            "singletons": self.singletons,
            # Good-Turing estimate of the chance that one more sample finds a new region
            "unseen_mass": self.singletons / self.samples,
            "nrep": self.nrep,
            "pattern_bits": self.pattern_bits,
            "regions": [],
        }
        for reg in self.regions:
            entry = {"pattern": reg.pattern_hex, "count": reg.count, "lipschitz": reg.lipschitz}
            if include_first_samples:
                entry["first_sample"] = reg.first_sample
            out["regions"].append(entry)
        return out


def census_inputs(spec: NetworkSpec, config: CensusConfig) -> np.ndarray:
    """The census's (count, d_0) inputs, drawn as one block from one stream;
    a census of n samples uses the first n rows of a larger count's block.
    On the sphere each row is scaled to unit norm (a zero row becomes e_0)."""
    xs = rng(config.seed, "census").standard_normal((config.count, spec.d[0]))
    if config.distribution == "sphere":
        norms = np.linalg.norm(xs, axis=1, keepdims=True)
        xs[norms[:, 0] == 0.0] = np.eye(1, spec.d[0])
        xs /= np.where(norms == 0.0, 1.0, norms)
    return xs


def region_census(spec: NetworkSpec, mats, config: CensusConfig) -> RegionCensus:
    """Sample inputs, group by pattern, attach per-region Lipschitz constants.

    The samples are the :func:`census_inputs` block and regions are keyed
    by the packed mask bits, so the census is reproducible from the seed.
    Samples are forwarded in stacks of ``_ROWS`` rows, each row
    bit-identical to its own forward pass; only the stack's bit matrix,
    packed, is kept.  One ``np.unique`` over the packed rows gives the
    regions in key order (every key has the same n_bits prefix), each
    region's first sample and each sample's region.  A region keeps its
    inputs in sample order; its constant is the exact spectral norm of its
    :func:`region_maps` map, one SVD per block of ``_BLOCK`` regions, all
    blocks in one set of map buffers.
    """
    xs = census_inputs(spec, config)
    packed = []
    for start in range(0, config.count, _ROWS):
        bits = pattern_from_trace(  # the block's trace is dropped here
            spec, forward_matrices(spec, mats, xs[start:start + _ROWS])).bits()
        packed.append(np.packbits(bits, axis=1))
    n_bits, packed = bits.shape[1], np.concatenate(packed)  # n_bits: the same in every block
    _, first, region_of = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                    return_index=True, return_inverse=True)
    grouped = list(xs[np.argsort(region_of, kind="stable")])
    bounds = [0, *np.cumsum(np.bincount(region_of)).tolist()]
    blocks = ((np.unpackbits(packed[first[at:at + _BLOCK]], axis=1, count=n_bits), None)
              for at in range(0, len(first), _BLOCK))  # one block of key rows unpacked at a time
    norms = np.concatenate([spectral_norm(Y.transpose(0, 2, 1))
                            for Y, _, _ in _map_blocks(spec, mats, blocks)]).tolist()
    prefix = n_bits.to_bytes(4, "little").hex()
    regions = [RegionInfo(pattern_hex=prefix + packed[i].tobytes().hex(), lipschitz=norm,
                          inputs=grouped[a:b], first_sample=i)
               for i, norm, a, b in zip(first.tolist(), norms, bounds, bounds[1:])]
    return RegionCensus(samples=config.count, nrep=nrep_bound(spec),
                        pattern_bits=pattern_bits(spec), regions=regions)


def lipschitz_global(census: RegionCensus) -> float:
    """Max sampled region constant: a lower bound on the true supremum."""
    if not census.regions:
        raise ValueError("census is empty")
    return max(reg.lipschitz for reg in census.regions)


def jacobian_analytic(spec: NetworkSpec, mats, x, margin: float = 1e-8,
                      step: float = 0.0) -> np.ndarray:
    """Jacobian of the network at x: the region map B_tilde(x) B(x)'.

    One forward pass for x's pattern, then its map and its certified
    in-region radius rho from one :func:`_map_blocks` row.  Requires
    rho >= ``margin`` and rho > ``step``, so that every point within
    ``step`` of x, a finite-difference stencil of that step included, is
    in x's region; otherwise raises KinkMarginError advising a resample.
    A NaN rho (an overflowing pass) is accepted.
    """
    x = np.asarray(x, dtype=float)
    bits = extract_pattern(spec, mats, x).bits()[None]
    Y, _, rho = next(_map_blocks(spec, mats, [(bits, x[None])]))
    if rho[0] < margin or rho[0] <= step:
        raise KinkMarginError(
            f"input is {rho[0]:.3e} from the nearest ReLU kink of its region "
            f"(margin {margin:.3e}, step {step:.3e}); resample the input"
        )
    return Y[0].T.copy()


def fd_jacobian(spec: NetworkSpec, mats, x, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian from one forward over the stencil.

    The (2 d_0, d_0) stencil stacks x + step e_i over x - step e_i; column
    i of the result is (F(x + step e_i) - F(x - step e_i)) / (2 step).
    The stencil reads no mask, only the outputs, so it goes through
    :func:`netbuild.forward_y`, one GEMM per operator and no trace: a
    column may differ from evaluating it on its own by rounding, a few eps
    of max |F| over step.  The result is C-contiguous, so norms over it
    sum in row-major order.
    """
    x = np.asarray(x, dtype=float)
    d0 = spec.d[0]
    shift = step * np.eye(d0)
    y = forward_y(spec, mats, np.concatenate([x + shift, x - shift]))
    return np.ascontiguousarray(((y[:d0] - y[d0:]) / (2.0 * step)).T)
