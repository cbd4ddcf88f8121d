"""Per-input piecewise-linear analysis of a realized network.

For a fixed input x, the ReLU on/off decisions form an
:class:`ActivationPattern`; freezing the pattern turns the network into
a linear map that factors as B_tilde(x) B(x)' through the input-dependent
frame pair built by :func:`linear_rep`.  On top of that sit a sampling
census of activation patterns with the expressiveness bound, exact local
Lipschitz constants (the spectral norm of each region map), and the
analytic Jacobian with its finite-difference cross-check.

Census sampling draws each input from its own sub-seeded stream, so the
result is independent of any parallel execution order; regions are merged
and reported sorted by pattern key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .netbuild import NetworkSpec, forward_matrices
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
    "masked_chains",
    "linear_rep",
    "nrep_bound",
    "pattern_bits",
    "spectral_norm",
    "region_census",
    "lipschitz_global",
    "trace_margin",
    "jacobian_analytic",
    "fd_jacobian",
    "count_sign_regions",
]


class KinkMarginError(ValueError):
    """An input sits too close to a ReLU kink for derivative work."""


@dataclass(frozen=True, eq=False)
class ActivationPattern:
    """Binary ReLU masks of one input; the key to a linear region.

    enc[l-1]  length d_l, skip[l-1] length s_l (skip nets only),
    dec[l-1]  length d_{l-1}.  Stages without a ReLU carry all-ones
    masks so the masked chains stay uniform.  A mask bit is set iff
    the pre-activation is strictly positive: exact zeros are inactive.
    """

    enc: tuple
    skip: tuple | None
    dec: tuple

    def bits(self) -> np.ndarray:
        parts = list(self.enc) + list(self.skip or ()) + list(self.dec)
        return np.concatenate([p.astype(np.uint8) for p in parts])

    @property
    def key(self) -> bytes:
        bits = self.bits()
        return len(bits).to_bytes(4, "little") + np.packbits(bits).tobytes()

    def __eq__(self, other):
        return isinstance(other, ActivationPattern) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


def pattern_from_trace(spec: NetworkSpec, trace) -> ActivationPattern:
    enc_relu = spec.relu_at_encoder()
    dec_relu = spec.relu_at_decoder()
    d, s = spec.d, spec.s

    def mask(pre, relu, dim):
        return pre > 0 if relu else np.ones(dim, dtype=bool)

    enc = tuple(mask(trace.enc_pre[l - 1], enc_relu, d[l]) for l in range(1, spec.kappa + 1))
    skip = None
    if spec.skip:
        skip = tuple(mask(trace.skip_pre[l - 1], enc_relu, s[l - 1])
                     for l in range(1, spec.kappa + 1))
    dec = tuple(mask(trace.dec_pre[l - 1], dec_relu, d[l - 1])
                for l in range(1, spec.kappa + 1))
    return ActivationPattern(enc=enc, skip=skip, dec=dec)


def extract_pattern(spec: NetworkSpec, mats, x) -> ActivationPattern:
    """Run a forward pass and read off the activation pattern of x."""
    return pattern_from_trace(spec, forward_matrices(spec, mats, x))


def masked_chains(spec: NetworkSpec, mats, pattern: ActivationPattern) -> tuple:
    """Masked chain prefixes (ups, tus) of one region, kappa + 1 entries each.

    ups[l] accumulates E^1 ... E^l, each followed by its encoder mask;
    tus[l] accumulates D^1 ... D^l, each preceded by its decoder mask.
    Entry 0 of both is the identity.  Frozen masks make the network
    linear: relu(v) == v * (v > 0) entrywise.
    """
    ups = [np.eye(spec.d[0])]
    tus = [np.eye(spec.d[0])]
    for l in range(1, spec.kappa + 1):
        ups.append((ups[-1] @ mats[l - 1].E) * pattern.enc[l - 1][None, :])
        tus.append((tus[-1] * pattern.dec[l - 1][None, :]) @ mats[l - 1].D)
    return ups, tus


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


def spectral_norm(M) -> float:
    """Largest singular value of M, exact to LAPACK precision (an SVD).

    Raises ValueError when M holds NaN or an infinity, which happens when
    the forward pass of a huge bank overflows.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("region map contains non-finite entries: the forward pass "
                         "overflowed (is the bank scaled too large?)")
    return float(np.linalg.norm(M, 2))


@dataclass(frozen=True)
class CensusConfig:
    count: int
    distribution: str = "gaussian"  # or "sphere"
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("census needs count >= 1")
        if self.distribution not in ("gaussian", "sphere"):
            raise ValueError(f"unknown distribution {self.distribution!r}")


@dataclass
class RegionInfo:
    """One sampled region: its constant and its inputs in sample order."""

    pattern_hex: str
    lipschitz: float
    inputs: list

    @property
    def count(self) -> int:
        return len(self.inputs)

    @property
    def representative(self) -> np.ndarray:
        return self.inputs[0]


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

    def to_dict(self, include_representatives: bool = True) -> dict:
        out = {
            "samples": self.samples,
            "distinct": self.distinct,
            "singletons": self.singletons,
            "nrep": self.nrep,
            "pattern_bits": self.pattern_bits,
            "regions": [],
        }
        for reg in self.regions:
            entry = {
                "pattern": reg.pattern_hex,
                "count": reg.count,
                "lipschitz": reg.lipschitz,
            }
            if include_representatives:
                entry["representative"] = list(map(float, reg.representative))
            out["regions"].append(entry)
        return out


def _sample_input(spec: NetworkSpec, config: CensusConfig, index: int) -> np.ndarray:
    g = rng(config.seed, "census", index)
    x = g.standard_normal(spec.d[0])
    if config.distribution == "sphere":
        norm = np.linalg.norm(x)
        if norm == 0.0:
            x = np.zeros(spec.d[0])
            x[0] = 1.0
            norm = 1.0
        x = x / norm
    return x


def region_census(spec: NetworkSpec, mats, config: CensusConfig) -> RegionCensus:
    """Sample inputs, group by pattern, attach per-region Lipschitz constants.

    Every sample has its own derived RNG stream and regions are keyed by
    the packed mask bits, so the census is reproducible and independent
    of evaluation order.  Each region keeps its inputs in sample order;
    its constant is the exact spectral norm of its linear map.
    """
    found: dict = {}
    for i in range(config.count):
        x = _sample_input(spec, config, i)
        pattern = extract_pattern(spec, mats, x)
        found.setdefault(pattern.key, (pattern, []))[1].append(x)
    regions = []
    for key in sorted(found):
        pattern, inputs = found[key]
        rep = linear_rep(spec, mats, pattern=pattern)
        regions.append(RegionInfo(pattern_hex=key.hex(),
                                  lipschitz=spectral_norm(rep.matrix()), inputs=inputs))
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
    rep = linear_rep(spec, mats, pattern=pattern_from_trace(spec, trace))
    return rep.matrix()


def fd_jacobian(spec: NetworkSpec, mats, x, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian from one forward over the stencil.

    The (2 d_0, d_0) stencil stacks x + step e_i over x - step e_i; column
    i of the result is (F(x + step e_i) - F(x - step e_i)) / (2 step),
    bit-identical to evaluating the columns one at a time.  The result is
    C-contiguous, like the column-by-column array was, so norms over it
    sum in the same order.
    """
    x = np.asarray(x, dtype=float)
    d0 = spec.d[0]
    shift = step * np.eye(d0)
    y = forward_matrices(spec, mats, np.concatenate([x + shift, x - shift])).y
    return np.ascontiguousarray(((y[:d0] - y[d0:]) / (2.0 * step)).T)


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
