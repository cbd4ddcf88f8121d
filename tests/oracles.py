"""Brute-force oracles that only the tests use.

Each helper checks a library result by an independent route: a loop
over channels, both sides of an identity, an LP per sign vector, a
central difference of the loss.  They
live here, not in ``framelets``, so the package needs neither their code
nor scipy at run time.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.optimize import linprog

from framelets import analysis, convops, landscape, netbuild

#: default absolute tolerance for exact algebraic identities
DEFAULT_TOL = 1e-10


def mimo_conv(Z, Psi) -> np.ndarray:
    """Multi-channel filtering: y_i = sum_j z_j conv flip(psi[j, i]).

    ``Z`` is a length-p sequence of period-n channels, ``Psi`` a
    (p, q, r) tensor whose [j, i] slice filters input channel j into
    output channel i.  Equals extended_hankel(Z, r) @ filters_to_matrix(Psi)
    column by column.
    """
    Psi = np.asarray(Psi, dtype=float)
    if Psi.ndim != 3:
        raise ValueError(f"filter tensor must be (p, q, r), got shape {Psi.shape}")
    p, q, r = Psi.shape
    Z = [convops.as_signal(z, f"channel {j}") for j, z in enumerate(Z)]
    if len(Z) != p:
        raise ValueError(f"got {len(Z)} input channels, filter tensor expects {p}")
    n = len(Z[0])
    out = np.zeros((q, n))
    for i in range(q):
        for j in range(p):
            out[i] += convops.circ_corr(Z[j], Psi[j, i])
    return out


def hankel_inner_identity_check(f, u, v, tol: float = DEFAULT_TOL) -> bool:
    """Check the inner-product identity u' H(f) v == <f, u conv v>.

    ``u`` shares f's period, ``v`` supplies the Hankel width; both sides
    are evaluated independently.
    """
    f = convops.as_signal(f, "f")
    u = convops.as_signal(u, "u")
    v = convops.as_signal(v, "v")
    lhs = u @ convops.hankel(f, len(v)) @ v
    rhs = f @ convops.circ_conv(u, v)
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


def _kink_guard(spec, mats, data, margin: float) -> None:
    """Reject training data with a sample within ``margin`` of a ReLU kink."""
    for i in range(data.T):
        got = analysis.trace_margin(spec, netbuild.forward_matrices(spec, mats, data.X[:, i]))
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
    """Central-difference oracle for landscape.grad_skip_analytic.

    A derivative-based check, so it rejects traces within ``margin`` of a
    ReLU kink with a resample advisory.
    """
    if not spec.skip:
        raise ValueError("skip gradients need a skip network")
    return _fd_grad_matrix(spec, mats, data, l, "S_tilde", step, margin)


def fd_grad_enc(spec, mats, data, step: float | None = None,
                margin: float = 1e-8) -> np.ndarray:
    """Central-difference oracle for landscape.grad_enc_analytic."""
    return _fd_grad_matrix(spec, mats, data, spec.kappa, "E", step, margin)
