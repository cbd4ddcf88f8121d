"""Frame-condition factories and residual diagnostics.

Layerwise perfect reconstruction of a linear encoder-decoder pair needs
two algebraic conditions per layer: the unpooling/pooling product must be
a multiple of the identity, and the stacked filter matrices must form a
scaled tight frame whose constant depends on whether a skip branch shares
the load (1/(r a) without skips, 1/(r (a+1)) with them).

The factories here realize those conditions with seeded orthogonal
matrices, the simplest symmetric tight frames.  Residual checks are
diagnostics, never gates: every analysis in this package must also work
on arbitrary banks that satisfy nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .netbuild import LayerBank, NetworkSpec, _orthonormal, realize
from .seeding import derive, rng

__all__ = [
    "FrameConfig",
    "frame_filter_constant",
    "make_frame_pooling",
    "make_frame_filters",
    "frame_bank",
    "frame_residual",
    "filters_to_matrix",
]

MODES = ("no_skip", "skip")
POOLINGS = ("identity", "orthogonal")


@dataclass(frozen=True)
class FrameConfig:
    """Pooling frame constant, skip/no-skip constant selection, seed."""

    alpha: float = 1.0
    mode: str = "no_skip"
    seed: int = 0
    pooling: str = "orthogonal"  # or "identity"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"frame constant alpha={self.alpha} must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.pooling not in POOLINGS:
            raise ValueError(f"unknown pooling kind {self.pooling!r}")

    @classmethod
    def for_spec(cls, spec: NetworkSpec, alpha: float = 1.0, seed: int = 0,
                 pooling: str = "orthogonal") -> "FrameConfig":
        return cls(alpha=alpha, mode="skip" if spec.skip else "no_skip",
                   seed=seed, pooling=pooling)


def frame_filter_constant(r: int, alpha: float, mode: str) -> float:
    """Tight-frame constant for the filter matrices."""
    if mode == "no_skip":
        return 1.0 / (r * alpha)
    if mode == "skip":
        return 1.0 / (r * (alpha + 1.0))
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def make_frame_pooling(m: int, alpha: float, kind: str = "orthogonal",
                       seed: int = 0, m_out: int | None = None):
    """Pooling/unpooling pair with unpool @ pool' == alpha * identity.

    Only square pairs exist: the identity on m coordinates cannot factor
    through fewer, so contraction is a hard error rather than a silent
    approximation.
    """
    if alpha <= 0:
        raise ValueError(f"frame constant alpha={alpha} must be positive")
    m_out = m if m_out is None else int(m_out)
    if m_out < m:
        raise ValueError(
            f"frame pooling requires non-contracting dims: rank {m_out} cannot "
            f"carry an identity on {m} coordinates"
        )
    if m_out > m:
        raise ValueError(
            f"frame pooling factory builds square matrices only, got {m} -> {m_out}"
        )
    if kind == "identity":
        phi = np.eye(m)
    elif kind == "orthogonal":
        phi = _orthonormal(m, m, rng(seed, "frame-pool", m))
    else:
        raise ValueError(f"unknown pooling kind {kind!r}")
    return phi, alpha * phi


def make_frame_filters(r: int, q_in: int, q_out: int, alpha: float,
                       mode: str = "no_skip", seed: int = 0):
    """Symmetric tight-frame filter matrices (r q_in) x q_out.

    Takes r q_in orthonormal rows of a seeded q_out x q_out orthogonal
    matrix, scaled by the square root of the frame constant, so that
    Psi @ Psi_tilde' equals the constant times the identity exactly.
    Needs q_out >= r q_in; thinner layers cannot carry the frame.
    """
    c = frame_filter_constant(r, alpha, mode)
    if q_out < r * q_in:
        raise ValueError(
            f"frame filters need q_out >= r * q_in, got {q_out} < {r} * {q_in}"
        )
    basis = _orthonormal(q_out, q_out, rng(seed, "frame-filters", r, q_in, q_out))
    row_sel = basis.T[: r * q_in]
    psi = np.sqrt(c) * row_sel
    return psi, psi.copy()


def filters_to_matrix(Psi) -> np.ndarray:
    """Stack a (p, q, r) filter tensor into its (r p) x q matrix form.

    Block row i holds the r taps of every filter attached to channel i of
    the tensor's leading axis.
    """
    Psi = np.asarray(Psi, dtype=float)
    if Psi.ndim != 3:
        raise ValueError(f"filter tensor must be (p, q, r), got shape {Psi.shape}")
    p, q, r = Psi.shape
    return Psi.transpose(0, 2, 1).reshape(p * r, q)


def _matrix_to_filters(P: np.ndarray, q_in: int, q_out: int, r: int) -> np.ndarray:
    """Inverse of :func:`filters_to_matrix`."""
    return P.reshape(q_in, r, q_out).transpose(0, 2, 1).copy()


def frame_bank(spec: NetworkSpec, config: FrameConfig) -> LayerBank:
    """Bank satisfying the frame conditions at every layer.

    Spatial dims must stay constant (square pooling) and channels must
    grow at least r-fold per layer.  Layers draw independent sub-seeded
    orthogonal factors, so the bank is reproducible from (spec, config).
    """
    enc, dec, pool, unpool = [], [], [], []
    for l in range(1, spec.kappa + 1):
        m_prev, m_cur = spec.m[l - 1], spec.m[l]
        q_prev, q_cur = spec.q[l - 1], spec.q[l]
        phi, phi_t = make_frame_pooling(
            m_prev, config.alpha, kind=config.pooling,
            seed=derive(config.seed, "frame-bank-pool", l), m_out=m_cur,
        )
        psi, psi_t = make_frame_filters(
            spec.r, q_prev, q_cur, config.alpha, mode=config.mode,
            seed=derive(config.seed, "frame-bank-filters", l),
        )
        pool.append(phi)
        unpool.append(phi_t)
        enc.append(_matrix_to_filters(psi, q_prev, q_cur, spec.r))
        dec.append(_matrix_to_filters(psi_t, q_prev, q_cur, spec.r))
    return LayerBank(enc_filters=tuple(enc), dec_filters=tuple(dec),
                     pool=tuple(pool), unpool=tuple(unpool))


def _max_dev(A: np.ndarray, B: np.ndarray) -> float:
    return float(np.max(np.abs(A - B)))


def frame_residual(spec: NetworkSpec, bank: LayerBank, config: FrameConfig) -> list:
    """Per-layer deviations from the frame conditions and the layer identity.

    Reports, never raises: arbitrary banks are expected to violate
    everything.  In skip mode the pooled and identity-pooled halves of the
    layer identity are also reported separately, since the factory
    guarantees their split but arbitrary banks need not.
    """
    skip_mode = config.mode == "skip"
    eval_spec = dataclasses.replace(spec, skip=True) if skip_mode else spec
    mats = realize(eval_spec, bank)
    out = []
    for l in range(1, spec.kappa + 1):
        m_prev = spec.m[l - 1]
        c = frame_filter_constant(spec.r, config.alpha, config.mode)
        psi = filters_to_matrix(bank.enc_filters[l - 1])
        psi_t = filters_to_matrix(bank.dec_filters[l - 1])
        phi = bank.pool[l - 1]
        phi_t = bank.unpool[l - 1]
        layer = mats[l - 1]
        d_prev = spec.d[l - 1]
        entry = {
            "layer": l,
            "pooling_residual": _max_dev(phi_t @ phi.T, config.alpha * np.eye(m_prev)),
            "filter_residual": _max_dev(psi @ psi_t.T, c * np.eye(psi.shape[0])),
        }
        recon = layer.D @ layer.E.T
        if skip_mode:
            pooled = recon.copy()
            skip_part = layer.S_tilde @ layer.S.T
            recon = recon + skip_part
            a = config.alpha
            entry["pooled_term_residual"] = _max_dev(
                pooled, a / (a + 1.0) * np.eye(d_prev)
            )
            entry["identity_term_residual"] = _max_dev(
                skip_part, 1.0 / (a + 1.0) * np.eye(d_prev)
            )
        entry["layer_identity_residual"] = _max_dev(recon, np.eye(d_prev))
        out.append(entry)
    return out
