"""Per-input piecewise-linear analysis of a realized network.

For a fixed input x, the ReLU on/off decisions form an
:class:`ActivationPattern`; freezing the pattern turns the network into
a linear map that factors as B_tilde(x) B(x)' through the input-dependent
frame pair built by :func:`linear_rep`.  The map itself needs no frame
pair: :func:`region_maps` is the masked forward pass of the identity,
X_l = (X_{l-1} E^l) * enc_l from X_0 = I and back down the decoder, over a
block of patterns, rows of a bit matrix, at once.  On top of it sit a sampling
census of activation patterns with the expressiveness bound, exact local
Lipschitz constants (the spectral norm of each region map), and the
analytic Jacobian with its finite-difference cross-check; the frame pair
is built only where it is the object under test.

The census draws all its inputs as one block from one seeded stream
(:func:`census_inputs`), so a region is named by the index of its first
sample; the samples' masks are packed into key rows, grouped by one
``np.unique`` and reported sorted by pattern key.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "masked_chains",
    "linear_rep",
    "region_maps",
    "nrep_bound",
    "pattern_bits",
    "spectral_norm",
    "census_inputs",
    "region_census",
    "lipschitz_global",
    "trace_margin",
    "jacobian_analytic",
    "fd_jacobian",
]


#: inputs per stacked forward pass (and packed key block) of the census and
#: per screen block of the jacobian analysis, and patterns per block of
#: region_maps, whose temporaries are (n, d_0, d_l) and (n, d_0, s_l) stacks
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
    a ReLU carry all-ones masks so the masked chains stay uniform.  A mask bit
    is set iff the pre-activation is strictly positive: exact zeros are
    inactive.  ``key``, ``==`` and ``hash`` compare one input's patterns.
    """

    enc: tuple
    skip: tuple | None
    dec: tuple

    def bits(self) -> np.ndarray:
        """The masks end to end (enc, skip, dec) as uint8; (N, n_bits) if stacked."""
        return np.concatenate([*self.enc, *(self.skip or ()), *self.dec], axis=-1).astype(np.uint8)

    @property
    def key(self) -> bytes:
        bits = self.bits()
        return len(bits).to_bytes(4, "little") + np.packbits(bits).tobytes()

    def __eq__(self, other):
        return isinstance(other, ActivationPattern) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


def _masks(spec: NetworkSpec, trace) -> list:
    """Masks of a trace in ``ActivationPattern.bits()`` order, with the trace's
    leading axes: pre-activation > 0, or all ones where a stage has no ReLU."""
    enc_on, dec_on = spec.relu_at_encoder(), spec.relu_at_decoder()
    stages = [(trace.enc_pre, enc_on), (trace.skip_pre or [], enc_on), (trace.dec_pre, dec_on)]
    return [pre > 0 if relu else np.ones(pre.shape, dtype=bool)
            for pres, relu in stages for pre in pres]


def pattern_from_trace(spec: NetworkSpec, trace) -> ActivationPattern:
    """Activation pattern of a trace; of a stacked trace, the stacked pattern
    whose row i is row i's own (``bits()`` gives :func:`region_maps` its input)."""
    masks, k = _masks(spec, trace), spec.kappa
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


def masked_chains(spec: NetworkSpec, mats, pattern: ActivationPattern) -> tuple:
    """Masked chain prefixes (ups, tus) of one region, kappa + 1 entries each.

    ups[l] accumulates E^1 ... E^l, each followed by its encoder mask;
    tus is :func:`dual_chains`.  Entry 0 of both is the identity.  Frozen
    masks make the network linear: relu(v) == v * (v > 0) entrywise.  A
    stacked pattern gives stacked prefixes past entry 0, row i
    bit-identical to row i's own call.
    """
    ups = [np.eye(spec.d[0])]
    for l in range(1, spec.kappa + 1):
        ups.append((ups[-1] @ mats[l - 1].E) * pattern.enc[l - 1][..., None, :])
    return ups, dual_chains(spec, mats, pattern)


@dataclass(frozen=True, eq=False)
class LinearRep:
    """Input-dependent frame pair: F(x) == B_tilde @ B.T @ x on the region."""

    B: np.ndarray
    B_tilde: np.ndarray
    pattern: ActivationPattern

    @property
    def feature_dim(self) -> int:
        return self.B.shape[1]

    def matrix(self) -> np.ndarray:
        """The region's linear map B_tilde B'."""
        return self.B_tilde @ self.B.T


def linear_rep(spec: NetworkSpec, mats, x=None, pattern=None) -> LinearRep:
    """Frame pair of the region containing x (or of an explicit pattern).

    The depth-kappa blocks are the full :func:`masked_chains`; skip
    blocks are the masked S / S_tilde operators hung off the chain
    prefixes, newest skip level first after the depth-kappa block.  On a
    spec with ``nonlinearity="none"`` every mask is all ones and this is
    the global frame pair of the linear network.
    """
    if pattern is None:
        if x is None:
            raise ValueError("need an input x or an explicit pattern")
        pattern = extract_pattern(spec, mats, x)
    ups, tus = masked_chains(spec, mats, pattern)
    if not spec.skip:
        return LinearRep(B=ups[spec.kappa], B_tilde=tus[spec.kappa], pattern=pattern)

    blocks = [ups[spec.kappa]]
    dual_blocks = [tus[spec.kappa]]
    for l in range(spec.kappa, 0, -1):
        M = mats[l - 1].S * pattern.skip[l - 1][None, :]
        M_tilde = mats[l - 1].S_tilde * pattern.dec[l - 1][:, None]
        blocks.append(ups[l - 1] @ M)
        dual_blocks.append(tus[l - 1] @ M_tilde)
    return LinearRep(B=np.hstack(blocks), B_tilde=np.hstack(dual_blocks),
                     pattern=pattern)


def _map_blocks(spec: NetworkSpec, mats, blocks):
    """Region maps of blocks of pattern bit rows, in one set of buffers.

    ``blocks`` yields non-empty (n, n_bits) arrays in
    ``ActivationPattern.bits()`` order, none longer than the first (a
    longer one fails on its ``out=`` shapes).  For each block this yields
    a view Y of shape (n, d_0, d_0) whose ``Y[i].T`` is row i's map.  The
    next block overwrites the view, so a consumer copies or reduces it
    before asking for more.  X_l, K_l and one S_tilde product are allocated for
    the first block, and every product is the batched matmul of
    :func:`region_maps` written into them with ``out=``, so each row stays
    bit-identical to a one-row block.
    """
    k, d = spec.kappa, spec.d
    s = spec.s if spec.skip else ()
    ends = np.cumsum([*d[1:], *s, *d[:k]]).tolist()
    X = K = tmp = None
    for bits in blocks:
        n = len(bits)
        if X is None:  # X[l] holds X_l, then Y_l on the way back
            X = [np.empty((n, d[0], w)) for w in d]
            K = [np.empty((n, d[0], w)) for w in s]
            tmp = np.empty(n * d[0] * max(d[:k])) if spec.skip else None
        masks = [bits[:, None, a:b] for a, b in zip([0] + ends, ends)]
        enc, skip, dec = masks[:k], masks[k:-k], masks[-k:]
        Xn, Kn = [buf[:n] for buf in X], [buf[:n] for buf in K]
        np.multiply(mats[0].E, enc[0], out=Xn[1])  # X_1, K_1: masked copies
        if spec.skip:
            np.multiply(mats[0].S, skip[0], out=Kn[0])
        for l in range(2, k + 1):
            if spec.skip:
                np.matmul(Xn[l - 1], mats[l - 1].S, out=Kn[l - 1])
                Kn[l - 1] *= skip[l - 1]
            np.matmul(Xn[l - 1], mats[l - 1].E, out=Xn[l])
            Xn[l] *= enc[l - 1]
        for l in range(k, 0, -1):  # Y_kappa = X_kappa
            np.matmul(Xn[l], mats[l - 1].D.T, out=Xn[l - 1])
            if spec.skip:
                prod = tmp[:n * d[0] * d[l - 1]].reshape(n, d[0], -1)
                Xn[l - 1] += np.matmul(Kn[l - 1], mats[l - 1].S_tilde.T, out=prod)
            Xn[l - 1] *= dec[l - 1]
        yield Xn[0]


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
    blocks = (bits[at:at + _BLOCK] for at in range(0, len(bits), _BLOCK))
    for at, Y in zip(range(0, len(bits), _BLOCK), _map_blocks(spec, mats, blocks)):
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
        bits = np.concatenate(_masks(spec, forward_matrices(spec, mats, xs[start:start + _ROWS])),
                              axis=1)
        packed.append(np.packbits(bits, axis=1))
    n_bits, packed = bits.shape[1], np.concatenate(packed)  # n_bits: the same in every block
    _, first, region_of = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                    return_index=True, return_inverse=True)
    grouped = list(xs[np.argsort(region_of, kind="stable")])
    bounds = [0, *np.cumsum(np.bincount(region_of)).tolist()]
    blocks = (np.unpackbits(packed[first[at:at + _BLOCK]], axis=1, count=n_bits)
              for at in range(0, len(first), _BLOCK))  # one block of key rows unpacked at a time
    norms = np.concatenate([spectral_norm(Y.transpose(0, 2, 1))
                            for Y in _map_blocks(spec, mats, blocks)]).tolist()
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


def trace_margin(spec: NetworkSpec, trace):
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


def jacobian_analytic(spec: NetworkSpec, mats, x, margin: float = 1e-8) -> np.ndarray:
    """Jacobian of the network at x: the region map B_tilde(x) B(x)'.

    One forward pass, then the :func:`region_maps` map of x's pattern.
    Requires x to sit at least ``margin`` away from every ReLU kink in
    pre-activation value; otherwise raises KinkMarginError advising a
    resample.
    """
    trace = forward_matrices(spec, mats, x)
    got = trace_margin(spec, trace)
    if got < margin:
        raise KinkMarginError(
            f"input is within {got:.3e} of a ReLU kink (margin {margin:.3e}); "
            "resample the input"
        )
    return region_maps(spec, mats, pattern_from_trace(spec, trace).bits()[None])[0]


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
