"""Per-input piecewise-linear analysis of a realized network.

For a fixed input x, the ReLU on/off decisions form its activation
pattern, one row of mask bits (:func:`pattern_from_trace`) that only
:func:`_masks` splits into stages and checks; freezing it turns the
network into a linear map that factors as B_tilde(x) B(x)' through the
input-dependent frame pair built by :func:`linear_rep`.  Two recursions
carry the masks.  The forward recursion (:func:`_forward`) runs the
masked network on the identity: its encoder half, X_l = (X_{l-1} E^l) *
enc_l with the skip products K_l, is the frame B, and its decoder half
the Jacobian's maps.  The reverse pass, :func:`adjoint`, T_l = (T_{l-1}
* dec_l) D^l from a co-probe, then :func:`encoder_adjoint`, gives
B_tilde, ``landscape``'s backward trace and the region maps.  The
forward recursion runs over only the units left on: a frozen pattern
row's, or, given an input x, those that each ReLU stage's own products
switch on at x (:func:`_map_kernel`).  The reverse pass takes one column
choice per net (:func:`_live`): every column of a block through batched
matmul on small nets, each row over its live units on large ones.  On
top of them sit a sampling census of activation patterns with the
expressiveness bound, exact local Lipschitz constants (the spectral norm
of each region map), and the analytic Jacobian with its
finite-difference cross-check, taken only where the input's certified
in-region radius (read from the rows the kernel forms anyway) keeps the
stencil in its region.

The census draws all its inputs as one block from one seeded stream
(:func:`census_inputs`), so a region is named by the index of its first
sample; the samples' masks are packed into key rows, grouped by one
``np.unique`` and reported sorted by pattern key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .netbuild import NetworkSpec, _dot, forward_matrices, forward_y
from .seeding import rng

__all__ = [
    "KinkMarginError",
    "LinearRep",
    "CensusConfig",
    "RegionInfo",
    "RegionCensus",
    "extract_pattern",
    "pattern_from_trace",
    "adjoint",
    "encoder_adjoint",
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


#: inputs per stacked forward pass (and packed key block) of the census, and
#: _BLOCK rows per block of the reverse pass (a region's mask row counted as a
#: map row; the census takes a block's SVDs at once): on the profile net
#: (d_0 = 16) the largest at which a census peaks no higher than at 64, while
#: it runs ~10 % faster
_ROWS = 64
_BLOCK = 256

#: the reverse pass multiplies row by row over each pattern's live units once
#: a net's widest product d_0 d_{l-1} d_l (or d_0 d_{l-1} s_l) reaches this
#: many multiply-adds; below it the Python calls per row cost more than the
#: zero columns they skip, and every block goes through batched matmul
_LIVE_FLOPS = 1 << 19

_OVERFLOW = ("region map contains non-finite entries: the forward pass overflowed "
             "(is the bank scaled too large?)")


class KinkMarginError(ValueError):
    """An input sits too close to a ReLU kink for derivative work."""


def pattern_from_trace(spec: NetworkSpec, trace) -> np.ndarray:
    """A trace's mask bits, uint8 in :func:`_masks` order: (n_bits,) of one input,
    (N, n_bits) of a stack.  A bit is set iff its pre-activation is > 0 (a zero
    is inactive); a stage without a ReLU is all ones, so masking it changes nothing."""
    enc_on, dec_on = spec.relu_at_encoder(), spec.relu_at_decoder()
    stages = [(trace.enc_pre, enc_on), (trace.skip_pre or [], enc_on), (trace.dec_pre, dec_on)]
    return np.concatenate([pre > 0 if relu else np.ones(pre.shape, dtype=bool)
                           for pres, relu in stages for pre in pres], axis=-1, dtype=np.uint8)


def extract_pattern(spec: NetworkSpec, mats, x) -> np.ndarray:
    """Run a forward pass and read off the mask bits of x (or of each row)."""
    return pattern_from_trace(spec, forward_matrices(spec, mats, x))


def _one_input(spec: NetworkSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.d[0],):
        raise ValueError(f"input has shape {x.shape}, expected ({spec.d[0]},)")
    return x


@dataclass(frozen=True, eq=False)
class LinearRep:
    """Input-dependent frame pair: F(x) == B_tilde @ B.T @ x on the region.

    ``frame`` is B's columns ``cols`` and ``dual`` is B_tilde's rows
    ``rows`` at the same columns; every other entry of either is 0.  They
    are the live units: the live frame units, and the live output units.
    A dead frame unit is a zero column of both, a dead output unit a zero
    row of B_tilde.  ``B`` and ``B_tilde`` are formed at full size on read.
    """

    rows: np.ndarray
    cols: np.ndarray
    frame: np.ndarray
    dual: np.ndarray
    feature_dim: int

    @property
    def B(self) -> np.ndarray:
        B = np.zeros((len(self.frame), self.feature_dim))
        B[:, self.cols] = self.frame
        return B

    @property
    def B_tilde(self) -> np.ndarray:
        B_tilde = np.zeros((len(self.frame), self.feature_dim))
        B_tilde[np.ix_(self.rows, self.cols)] = self.dual
        return B_tilde

    def matrix(self) -> np.ndarray:
        """The region's linear map B_tilde B', multiplied over the held units."""
        out = np.zeros((len(self.frame),) * 2)
        out[self.rows] = _dot(self.dual, self.frame.T)
        return out


def linear_rep(spec: NetworkSpec, mats, x=None, pattern=None) -> LinearRep:
    """Frame pair of the region of one input x (or of one explicit pattern row).

    B is [X_kappa | K_kappa ... K_1] of the forward recursion
    (:func:`_forward`) on the pattern's one row; B_tilde, the masked dual
    frame, is [T_kappa | H_kappa ... H_1] of the decoder :func:`adjoint`
    from I on the live units of dec_1.  Both are held over the pattern's
    live units only.  On a spec with ``nonlinearity="none"`` every mask is
    all ones and this is the global frame pair of the linear network.
    """
    if pattern is None:
        if x is None:
            raise ValueError("need an input x or an explicit pattern")
        pattern = extract_pattern(spec, mats, _one_input(spec, x))
    elif np.ndim(pattern) != 1:
        raise ValueError(f"pattern has shape {np.shape(pattern)}, expected one row (n_bits,)")
    k, masks = spec.kappa, _masks(spec, np.asarray(pattern)[None])
    live = _units(mask[0, 0] for mask in masks)
    X, K, _ = _forward(spec, mats, live)
    T, H, _ = zip(*adjoint(spec, mats, None, None, live))
    H = [h for h in H if h is not None]  # none without skips
    frame, dual = (np.concatenate([a, *b[::-1]], axis=-1) for a, b in ((X, K), (T[-1], H)))
    # the frame's stages: enc_kappa, then skip_kappa .. skip_1
    stages = [k - 1, *(range(2 * k - 1, k - 1, -1) if spec.skip else ())]
    at = accumulate((masks[j].shape[-1] for j in stages), initial=0)
    cols = np.concatenate([a + live[0][j] for a, j in zip(at, stages)])
    return LinearRep(live[0][-k], cols, frame, dual, spec.feature_dim)


def _radius(rho, P, x) -> np.ndarray:
    """Lower rho[0] to the least |a_j'x| / ||a_j|| over the rows a_j of one
    ReLU stage, x's distance to the nearest of its hyperplanes, and return
    the stage's mask, a_j'x > 0.

    ``P`` is the stage's (d_0, w) product before its mask, column j being
    a_j.  A zero column a_j is no kink and is skipped; a NaN gives NaN.
    Both sums are einsums without ``optimize``, so no BLAS: each adds its
    d_0 products in index order.
    """
    dot = np.einsum("ij,i->j", P, x)
    sq = np.einsum("ij,ij->j", P, P)
    got = np.full(dot.shape, np.inf)
    np.divide(np.abs(dot), np.sqrt(sq), out=got, where=sq != 0)
    np.minimum(rho, got.min(), out=rho)
    return dot > 0


def _live(spec: NetworkSpec) -> bool:
    """Whether the reverse pass takes its per-row live-unit path on this net:
    whether its widest product reaches ``_LIVE_FLOPS`` multiply-adds."""
    d = spec.d
    widest = max(d[l - 1] * max(d[l], spec.s[l - 1] if spec.skip else 0)
                 for l in range(1, spec.kappa + 1))
    return d[0] * widest >= _LIVE_FLOPS


def _bounds(spec: NetworkSpec) -> list:
    """(start, end) of each stage's bits in a pattern row: enc_1 .. enc_kappa,
    skip_1 .. skip_kappa (skip nets only), then dec_1 .. dec_kappa."""
    ends = list(accumulate([*spec.d[1:], *(spec.s if spec.skip else ()), *spec.d[:spec.kappa]]))
    return list(zip([0, *ends], ends))


def _masks(spec: NetworkSpec, bits) -> list:
    """The (n, 1, w) :func:`_bounds` views of (n, n_bits) bit rows, else ValueError."""
    bounds = _bounds(spec)
    if bits.ndim != 2 or bits.shape[1] != bounds[-1][1]:
        raise ValueError(f"pattern bits have shape {bits.shape}, expected (N, {bounds[-1][1]})")
    return [bits[:, None, a:b] for a, b in bounds]


def _units(rows):
    """The live units of each stage's mask row, and whether the stage has
    none.  Such a stage keeps its first unit, to be multiplied by its mask
    bit 0, so that an overflow before it reaches the map."""
    units = [np.flatnonzero(row) for row in rows]
    dead = [not len(u) for u in units]
    return [np.zeros(1, np.intp) if no else u for u, no in zip(units, dead)], dead


def _forward(spec: NetworkSpec, mats, units, x=None, rho=None, back=None):
    """The forward recursion over one pattern's live units.

    ``units`` are the (live, dead) lists of :func:`_units`, one entry per
    :func:`_bounds` stage.  From X_0 = I (never formed) the stage loop forms
    X_l = (X_{l-1} E^l) * enc_l and K_l = (X_{l-1} S^l) * skip_l; given
    ``back``, each layer's (D^l', S_tilde^l'), it runs down the decoder:
    Y_kappa = X_kappa and Y_{l-1} = (Y_l D^l' + K_l S_tilde^l') * dec_l.
    Returns (X_kappa, [K_1 .. K_kappa], Y_0), Y_0 None without ``back``.
    Each product is the row's over the live units of its two stages,
    gathered and made by :func:`netbuild._dot`, so each result holds the
    live columns of its stage only.  A stage whose entry of ``live`` is
    None forms every column; :func:`_radius` lowers ``rho`` from them at
    the input ``x`` and gives the stage's mask there, whose units the stage
    writes into the lists before it keeps their columns.
    """
    k, (live, dead) = spec.kappa, units

    def stage(terms, j):  # terms (A, i, M): A the product of stage i, None for X_0 = I
        radius, total = live[j] is None, None
        for A, i, M in terms:  # an X_0 term comes alone, so its M is never written to
            M = M if i is None else M.take(live[i], 0)
            M = M if radius else M.take(live[j], 1)
            P = M if A is None else _dot(A, M)
            total = P if total is None else np.add(total, P, out=total)
        if radius:
            (live[j],), (dead[j],) = _units([_radius(rho, total, x)])
            total = total.take(live[j], 1)
        return total * 0.0 if dead[j] else total

    X, i, K = None, None, []
    for l in range(1, k + 1):
        X_next = stage([(X, i, mats[l - 1].E)], l - 1)
        if spec.skip:
            K.append(stage([(X, i, mats[l - 1].S)], k + l - 1))
        X, i = X_next, l - 1
    if back is None:
        return X, K, None
    Y = X
    for l in range(k, 0, -1):  # i: the stage of Y_l, enc_kappa for Y_kappa = X_kappa
        terms = [(Y, i, back[l - 1][0])]
        if spec.skip:
            terms.append((K[l - 1], k + l - 1, back[l - 1][1]))
        j = len(live) - k + l - 1  # dec_l
        Y, i = stage(terms, j), j
    return X, K, Y


def adjoint(spec: NetworkSpec, mats, dec, probe, units=None, hang=True):
    """The decoder adjoint from a co-probe T_0 = ``probe``: T_l = (T_{l-1} *
    dec_l) D^l and, on skip nets given ``hang``, H_l = (T_{l-1} * dec_l)
    S_tilde^l, else None.  Yields (T_l, H_l, U_l) level by level, l = 1 ..
    kappa, with U_l = T_{l-1} * dec_l the masked co-probe, and keeps none of
    them: ``landscape.Pass.dual`` collects the T_l, ``training_pass`` and
    :func:`linear_rep` every level, the region maps only T_kappa and the H_l.
    From I, T_l is the masked dual-chain prefix of D^1 ... D^l; from a
    residual row, U_l is the cost's derivative at dec_pre[l-1].

    Batched (``units`` None): every column, ``dec`` the decoder masks
    broadcasting against the T_l.  Live (``units``): the co-probe is I on
    the live units of dec_1 (pass None), each product is gathered over the
    live units of its two stages, ``dec`` is not read and U_l is None.
    """
    k, (live, dead), T = spec.kappa, units or (None, None), probe
    for l in range(1, k + 1):
        j = k + l - 1 + (k if spec.skip else 0)  # dec_l
        U = T * dec[l - 1] if live is None else None

        def mul(M, c):  # (T_{l-1} * dec_l) M; on the live path at stage c's live units
            if live is None:
                return U @ M
            P = M.take(live[j], 0).take(live[c], 1)
            P = P if T is None else _dot(T, P)
            return P * 0.0 if dead[j] or dead[c] else P

        H = mul(mats[l - 1].S_tilde, k + l - 1) if hang and spec.skip else None
        T = mul(mats[l - 1].D, j + 1 if l < k else k - 1)
        yield T, H, U


def encoder_adjoint(spec: NetworkSpec, mats, enc, skip, T, H, units=None) -> tuple:
    """The encoder half of :func:`adjoint` from its T_kappa = ``T`` and H_l:
    G_kappa = T_kappa, G_{l-1} = V_l E^l' + W_l S^l', V_l = G_l * enc_l, W_l
    = H_l * skip_l.  Returns (G_0, [V_1 ..], [W_1 ..]): from I on a pattern's
    live outputs G_0 is its map's rows there, from residual rows V_l and W_l
    are backward rows.  Batched, V_l and W_l are G_l and H_l masked in place,
    ``T`` and ``H`` too, so they take no memory of their own; E^l' is the
    view ``E.T``, each row bit-equal to ``E @ v``.  Live, none is formed."""
    k, (live, dead) = spec.kappa, units or (None, None)
    G, V, W = T, [], []
    for l in range(k, 0, -1):
        def mul(P, masks, kept, c, M):  # (P * masks_l) M'; live: over stage c's live units
            if live is None:
                P *= masks[l - 1]
                kept.insert(0, P)
                return P @ M.T
            M = (M if l == 1 else M.take(live[l - 2], 0)).take(live[c], 1)
            return _dot(P, M.T) * 0.0 if dead[c] else _dot(P, M.T)
        G = mul(G, enc, V, l - 1, mats[l - 1].E)
        if spec.skip:
            G += mul(H[l - 1], skip, W, k + l - 1, mats[l - 1].S)
    return G, V, W


def _map_kernel(spec: NetworkSpec, mats):
    """The Jacobian's kernel: a function of one input x that returns its
    region map J and its certified in-region radius rho, from one
    :func:`_forward` with its decoder half (a map alone comes cheaper from
    :func:`region_maps`).  Each ReLU stage takes its mask from x where its
    product is made, and :func:`_radius` lowers rho from that product.  The
    nets are bias-free, so the open ball of radius rho about x lies in x's
    region: there every live row keeps its sign and every zero row stays
    zero.  rho is inf on a net without ReLUs.  The contiguous (D', S_tilde')
    copies each map gathers rows of, and the units of the stages without a
    ReLU, are made once, here.
    """
    k, d0 = spec.kappa, spec.d[0]
    back = [(np.ascontiguousarray(m.D.T), np.ascontiguousarray(m.S_tilde.T) if spec.skip
             else None) for m in mats]
    bounds = _bounds(spec)
    relu = [spec.relu_at_encoder()] * (len(bounds) - k) + [spec.relu_at_decoder()] * k
    fixed = [None if on else np.arange(b - a) for (a, b), on in zip(bounds, relu)]

    def kernel(x):
        live, rho = list(fixed), np.full(1, np.inf)
        Y = _forward(spec, mats, (live, [False] * len(live)), x, rho, back)[2]
        J = np.zeros((d0, d0))
        J[live[-k]] = Y.T
        return J, rho[0]
    return kernel


def _reverse_blocks(spec: NetworkSpec, mats, counts, bits_of):
    """The reverse pass from I on each bit row's a = ``counts`` live dec_1
    outputs, in blocks of ``_BLOCK`` // (max(a, 1) + 1) rows, at least one,
    ``bits_of(rows)`` of one a.  Yields (rows, G_0, outputs), G_0[i, j] row
    outputs[i, j] of row rows[i]'s map as in a one-row block; no live output
    keeps unit 0 times its bit 0.  A block keeps only T_kappa and the H_l of
    the adjoint.  Each product stays (n, a, w) @ M, matrix by matrix: as one
    2-D GEMM over the block it is faster, but a row's bits follow its block."""
    k, d0, live = spec.kappa, spec.d[0], _live(spec)

    def reverse(enc, skip, dec, probe, units=None):  # G_0
        H = []
        for T, h, _ in adjoint(spec, mats, dec, probe, units):
            H.append(h)
        return encoder_adjoint(spec, mats, enc, skip, T, H, units)[0]

    for a in range(d0 + 1):  # not np.unique, which imports numpy.ma
        same, step = np.flatnonzero(counts == a), max(_BLOCK // (max(a, 1) + 1), 1)
        for at in range(0, len(same), step):
            rows = same[at:at + step]
            masks = _masks(spec, bits_of(rows).astype(float))  # float masks multiply faster
            outputs = np.argsort(-masks[-k][:, 0], axis=1, kind="stable")[:, :max(a, 1)]
            if live:
                units = (_units(mask[i, 0] for mask in masks) for i in range(len(rows)))
                G = np.stack([reverse(None, None, None, None, u) for u in units])
            else:
                G = reverse(masks[:k], masks[k:-k], masks[-k:], np.eye(d0)[outputs])
            yield rows, G, outputs


def region_maps(spec: NetworkSpec, mats, bits) -> np.ndarray:
    """Region maps B_tilde B' of N patterns, shape (N, d_0, d_0).

    ``bits`` holds one pattern per row (a stacked :func:`pattern_from_trace`,
    or unpacked census keys), split per block into its mask columns.  A
    map's rows off the live units of dec_1 are exactly 0; the reverse pass
    (:func:`_reverse_blocks`) forms the others, the census's rows bit for
    bit.  Every row is bit-identical to a one-pattern call.
    """
    bits = np.asarray(bits)
    counts = _masks(spec, bits)[-spec.kappa][:, 0].sum(axis=1)  # the live outputs
    out = np.zeros((len(bits), spec.d[0], spec.d[0]))
    for rows, G, outputs in _reverse_blocks(spec, mats, counts, bits.__getitem__):
        out[rows[:, None], outputs] = G
    return out


def nrep_bound(spec: NetworkSpec) -> int:
    """Stated cap on distinct linear representations, as an exact integer.

    2^(d_1 + ... + d_kappa - d_kappa), times 2^(s_1 + ... + s_kappa) with
    skips.  The formula nets out the bottleneck masks; see pattern_bits
    for the raw mask-bit count of this construction, which both the
    census and the reports also carry.
    """
    return 1 << sum(spec.d[1:]) - spec.d[spec.kappa] + (sum(spec.s) if spec.skip else 0)


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
    ValueError when M holds NaN or an infinity (an overflowing bank).
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError(_OVERFLOW)
    top = np.linalg.svd(M, compute_uv=False)[..., 0]
    return float(top) if M.ndim == 2 else top


@dataclass(frozen=True)
class CensusConfig:
    count: int
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("census needs count >= 1")


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

    def to_dict(self) -> dict:
        singletons = self.singletons
        return {
            "samples": self.samples,
            "distinct": self.distinct,
            "singletons": singletons,
            # Good-Turing estimate of the chance that one more sample finds a new region
            "unseen_mass": singletons / self.samples,
            "nrep": self.nrep,
            "pattern_bits": self.pattern_bits,
            "regions": [{"pattern": reg.pattern_hex, "count": reg.count,
                         "lipschitz": reg.lipschitz} for reg in self.regions],
        }


def census_inputs(spec: NetworkSpec, config: CensusConfig) -> np.ndarray:
    """The census's (count, d_0) standard-normal inputs, drawn as one block
    from one stream; a census of n samples uses the first n rows of a larger
    count's block.  The nets are bias-free, so positive scaling changes no
    pattern: rows rescaled to other radii (the unit sphere, say) would give
    the same regions."""
    return rng(config.seed, "census").standard_normal((config.count, spec.d[0]))


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
    :func:`region_maps` map over its live rows, one SVD per block of
    :func:`_reverse_blocks`, each region's a read from its packed key.  The
    reverse pass meets only the products on live outputs, so the sample
    forward is checked for overflow.
    """
    xs = census_inputs(spec, config)
    packed = []
    for start in range(0, config.count, _ROWS):
        trace = forward_matrices(spec, mats, xs[start:start + _ROWS])
        if not all(np.isfinite(pre).all() for pres in (trace.enc_pre, trace.skip_pre or (),
                                                       trace.dec_pre) for pre in pres):
            raise ValueError(_OVERFLOW)
        bits = pattern_from_trace(spec, trace)
        del trace  # the block's trace is dropped here
        packed.append(np.packbits(bits, axis=1))
    n_bits, packed = bits.shape[1], np.concatenate(packed)  # n_bits: the same in every block
    _, first, region_of = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                    return_index=True, return_inverse=True)
    at = _bounds(spec)[-spec.kappa][0]  # dec_1's live outputs, from their packed bytes
    live = np.unpackbits(packed[first, at // 8:], axis=1, count=at % 8 + spec.d[0])[:, at % 8:]
    norms = np.empty(len(first))
    for rows, G, _ in _reverse_blocks(spec, mats, live.sum(axis=1), lambda rows: np.unpackbits(
            packed[first[rows]], axis=1, count=n_bits)):  # one block of key rows at a time
        norms[rows] = spectral_norm(G)
    del rows, G, _  # the last block's arrays, before the regions list sets the peak
    grouped = list(xs[np.argsort(region_of, kind="stable")])  # not held by the reverse pass
    bounds = [0, *np.cumsum(np.bincount(region_of)).tolist()]
    prefix = n_bits.to_bytes(4, "little").hex()
    regions = [RegionInfo(pattern_hex=prefix + packed[i].tobytes().hex(), lipschitz=norm,
                          inputs=grouped[a:b], first_sample=i)
               for i, norm, a, b in zip(first.tolist(), norms.tolist(), bounds, bounds[1:])]
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

    The map and its certified in-region radius rho come from one
    :func:`_map_kernel` call.  Requires rho >= ``margin`` and rho >
    ``step``, so that every point within ``step`` of x, a finite-difference
    stencil of that step included, is in x's region; otherwise raises
    KinkMarginError advising a resample.  A NaN rho (an overflowing pass)
    is accepted.
    """
    J, rho = _map_kernel(spec, mats)(_one_input(spec, x))
    if rho < margin or rho <= step:
        raise KinkMarginError(
            f"input is {rho:.3e} from the nearest ReLU kink of its region "
            f"(margin {margin:.3e}, step {step:.3e}); resample the input"
        )
    return J


def fd_jacobian(spec: NetworkSpec, mats, x, step: float = 1e-6) -> np.ndarray:
    """One-sided finite-difference Jacobian from one forward over the stencil.

    The (d_0 + 1, d_0) stencil stacks x over x + step e_i; column i of the
    result is (F(x + step e_i) - F(x)) / step.  Where x's certified
    in-region radius exceeds ``step`` (the ``jacobian`` screen's rule), F
    is linear on the whole stencil, so a central difference would gain no
    accuracy for its 2 d_0 rows.  The stencil reads no mask, only the
    outputs, so it goes through :func:`netbuild.forward_y`, one GEMM per
    operator and no trace: a column may differ from evaluating it on its
    own by rounding, a few eps of max |F| over step.  The result is
    C-contiguous, so norms over it sum in row-major order.
    """
    x = np.asarray(x, dtype=float)
    y = forward_y(spec, mats, np.concatenate([x[None], x + step * np.eye(spec.d[0])]))
    return np.ascontiguousarray(((y[1:] - y[0]) / step).T)
