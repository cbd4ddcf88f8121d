"""Circular convolution and wrap-around Hankel primitives.

Vectors are treated as one period of an n-periodic sequence; all index
arithmetic is modulo the period.  When two operands of different lengths
meet, the shorter one is zero-padded to the longer period first, so the
period of a convolution always follows the longer vector.

Everything here is a pure function on plain ndarrays, dense and exact at
desk scale (n <= 64 or so).  There is deliberately no FFT fast path:
bit-reproducibility beats speed for a verification kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_signal",
    "flip",
    "hankel",
    "extended_hankel",
    "circ_conv",
    "circ_corr",
    "filters_to_matrix",
    "conv_with_frame",
    "identity_conv",
]


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

