"""Loss, analytic gradients, and landscape certificates.

Two derivative notions live here and must not be confused:

* the *free-matrix* gradients ``grad_skip_analytic`` / ``grad_enc_analytic``
  treat one realized layer operator (S_tilde at level l, or the bottleneck
  E) as an unstructured matrix, holding everything else fixed -- that is
  the object the singular-value sandwich bounds speak about;
* the *tap* gradients used by :func:`train_gd` differentiate with respect
  to the shared filter coefficients through the block structure (with
  skips, E and S share encoder taps, D and S_tilde share decoder taps),
  which is the real parameterization.

Both are cross-checked against central finite differences in the test
suite.  ReLU derivative at zero is 0, matching the mask convention; any
derivative-based check should respect the kink margin.

Each public call runs one forward pass per training sample and reads
the cost, gradients, features and factor singular values from those
per-sample records; sums over samples accumulate in fixed sample order
so reports are bit-stable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    ActivationPattern,
    KinkMarginError,
    masked_chains,
    pattern_from_trace,
    trace_margin,
)
from .netbuild import (
    ForwardTrace,
    LayerBank,
    LayerMatrices,
    NetworkSpec,
    forward_matrices,
    realize,
    realize_adjoint,
)

__all__ = [
    "TrainingSet",
    "BoundCertificate",
    "StationarityReport",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "loss",
    "grad_skip_analytic",
    "grad_enc_analytic",
    "fd_grad_skip",
    "fd_grad_enc",
    "certify_bounds_skip",
    "certify_bounds_enc",
    "check_stationarity",
    "tap_gradients",
    "train_gd",
]


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainingSet:
    """Columns of X are inputs, columns of Y the matching targets."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2 or Y.shape != X.shape:
            raise ValueError(
                f"X and Y must be equal-shape (d_0, T) matrices, got {X.shape} and {Y.shape}"
            )
        if X.shape[1] < 1:
            raise ValueError("need at least one training sample")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("training data contains non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def T(self) -> int:
        return self.X.shape[1]


def _cost(residuals) -> float:
    total = 0.0
    for res in residuals:
        total += float(res @ res)
    return 0.5 * total


def loss(spec: NetworkSpec, mats, data: TrainingSet) -> float:
    """Squared-error cost: half the sum of per-sample residual norms squared."""
    return _cost(forward_matrices(spec, mats, data.X[:, i]).y - data.Y[:, i]
                 for i in range(data.T))


@dataclass(frozen=True)
class _Sample:
    """One training sample after its one forward pass.

    The trace, its activation pattern, the dual chain prefixes ``tus`` of
    its region (see :func:`analysis.masked_chains`) and the residual
    F(x) - y: everything the gradients and certificates read.
    """

    trace: ForwardTrace
    pattern: ActivationPattern
    tus: list
    res: np.ndarray


def _guard_margin(spec, trace, margin, index):
    if margin > 0.0:
        got = trace_margin(spec, trace)
        if got < margin:
            raise KinkMarginError(
                f"training sample {index} sits within {got:.3e} of a ReLU kink "
                f"(margin {margin:.3e}); resample or perturb the data"
            )


def _samples(spec: NetworkSpec, mats, data: TrainingSet, margin: float = 0.0) -> list:
    """One :class:`_Sample` per training sample, in sample order."""
    out = []
    for i in range(data.T):
        trace = forward_matrices(spec, mats, data.X[:, i])
        _guard_margin(spec, trace, margin, i)
        pattern = pattern_from_trace(spec, trace)
        out.append(_Sample(trace=trace, pattern=pattern,
                           tus=masked_chains(spec, mats, pattern)[1],
                           res=trace.y - data.Y[:, i]))
    return out


def _grad_skip(mats, samples, l: int) -> np.ndarray:
    grad = np.zeros_like(mats[l - 1].S_tilde)
    for s in samples:
        h = s.pattern.dec[l - 1] * (s.tus[l - 1].T @ s.res)
        grad += np.outer(h, s.trace.skip[l - 1])
    return grad


def _xi_prev(trace, kappa: int) -> np.ndarray:
    """The features feeding the bottleneck operator E^kappa."""
    return trace.enc[kappa - 2] if kappa >= 2 else trace.x


def _grad_enc(spec: NetworkSpec, mats, samples) -> np.ndarray:
    kappa = spec.kappa
    grad = np.zeros_like(mats[kappa - 1].E)
    for s in samples:
        g = s.pattern.enc[kappa - 1] * (s.tus[kappa].T @ s.res)
        grad += np.outer(_xi_prev(s.trace, kappa), g)
    return grad


def grad_skip_analytic(spec: NetworkSpec, mats, data: TrainingSet, l: int,
                       margin: float = 0.0) -> np.ndarray:
    """Free-matrix gradient of the cost with respect to S_tilde at level l.

    Kronecker form collapsed to a sum of outer products: each sample
    contributes (decoder-mask-filtered dual chain applied to its
    residual) times its skip feature.  The formula is exact under the
    zero-at-kink mask convention; pass a positive ``margin`` to reject
    kink-adjacent traces when the result will be compared against finite
    differences.
    """
    if not spec.skip:
        raise ValueError("skip gradients need a skip network")
    if not 1 <= l <= spec.kappa:
        raise ValueError(f"layer index {l} out of range [1, {spec.kappa}]")
    return _grad_skip(mats, _samples(spec, mats, data, margin), l)


def grad_enc_analytic(spec: NetworkSpec, mats, data: TrainingSet,
                      margin: float = 0.0) -> np.ndarray:
    """Free-matrix gradient of the cost with respect to the bottleneck E."""
    return _grad_enc(spec, mats, _samples(spec, mats, data, margin))


def _replace_layer(mats, l: int, **changes):
    out = list(mats)
    out[l - 1] = dataclasses.replace(mats[l - 1], **changes)
    return tuple(out)


def _fd_grad_matrix(spec, mats, data, l: int, attr: str, step: float | None,
                    margin: float) -> np.ndarray:
    _samples(spec, mats, data, margin)  # the kink guard
    base = getattr(mats[l - 1], attr)
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        h = step if step is not None else 1e-6 * (1.0 + abs(base[idx]))
        plus = base.copy()
        plus[idx] += h
        minus = base.copy()
        minus[idx] -= h
        lp = loss(spec, _replace_layer(mats, l, **{attr: plus}), data)
        lm = loss(spec, _replace_layer(mats, l, **{attr: minus}), data)
        grad[idx] = (lp - lm) / (2.0 * h)
    return grad


def fd_grad_skip(spec, mats, data, l: int, step: float | None = None,
                 margin: float = 1e-8) -> np.ndarray:
    """Central-difference oracle for grad_skip_analytic.

    A derivative-based check, so it rejects traces within ``margin`` of a
    ReLU kink with a resample advisory.
    """
    if not spec.skip:
        raise ValueError("skip gradients need a skip network")
    return _fd_grad_matrix(spec, mats, data, l, "S_tilde", step, margin)


def fd_grad_enc(spec, mats, data, step: float | None = None,
                margin: float = 1e-8) -> np.ndarray:
    """Central-difference oracle for grad_enc_analytic."""
    return _fd_grad_matrix(spec, mats, data, spec.kappa, "E", step, margin)


def _sigma_extremes(A: np.ndarray, name: str) -> tuple:
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries: the forward pass "
                         "overflowed (is the bank scaled too large?)")
    sv = np.linalg.svd(A, compute_uv=False)
    return float(sv[-1]), float(sv[0])


def _rank(A: np.ndarray) -> int:
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > max(A.shape) * np.finfo(float).eps * sv[0]))


@dataclass
class BoundCertificate:
    """Evaluated singular-value sandwich for one free-matrix gradient.

    ``lower <= grad_norm <= upper`` is guaranteed whenever both
    precondition flags hold (tall feature and factor matrices).  When
    they do not, the certificate is marked inapplicable and nothing is
    asserted.  For the encoder case, ``printed`` carries the alternative
    pairing that measures the bottleneck features themselves instead of
    the input-side features of the derivative.
    """

    kind: str
    layer: int
    grad_norm: float
    lower: float
    upper: float
    loss: float
    feature_sigma_min: float
    feature_sigma_max: float
    factor_sigma_min: float
    factor_sigma_max: float
    per_sample_sigma_min: list
    per_sample_sigma_max: list
    preconditions: dict
    applicable: bool
    printed: dict | None = None

    @property
    def operator(self) -> str:
        """Which realized matrix the gradient is taken with respect to."""
        return f"S_tilde[{self.layer}]" if self.kind == "skip" else f"E[{self.layer}]"

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "operator": self.operator,
            "layer": self.layer,
            "grad_norm": self.grad_norm,
            "lower": self.lower,
            "upper": self.upper,
            "loss": self.loss,
            "feature_sigma_min": self.feature_sigma_min,
            "feature_sigma_max": self.feature_sigma_max,
            "factor_sigma_min": self.factor_sigma_min,
            "factor_sigma_max": self.factor_sigma_max,
            "per_sample_sigma_min": self.per_sample_sigma_min,
            "per_sample_sigma_max": self.per_sample_sigma_max,
            "preconditions": self.preconditions,
            "applicable": self.applicable,
        }
        if self.printed is not None:
            out["printed"] = self.printed
        return out


def _factor_sigmas(level_masks) -> tuple:
    """Per-sample singular extremes of mask * dual-chain-prefix transposed."""
    mins, maxs = [], []
    for chain_prefix, mask in level_masks:
        A = mask[:, None] * chain_prefix.T
        smin, smax = _sigma_extremes(A, "masked dual-chain prefix")
        mins.append(smin)
        maxs.append(smax)
    return mins, maxs


def certify_bounds_skip(spec: NetworkSpec, mats, data: TrainingSet, l: int) -> BoundCertificate:
    """Gradient-norm sandwich for S_tilde at level l.

    lower = sigma_min(skip features) * min_i sigma_min(masked dual prefix)
    * sqrt(2 loss); upper analogously with maxima.  Valid when s_l >= T
    and d_{l-1} >= d_0.
    """
    if not spec.skip:
        raise ValueError("skip certificates need a skip network")
    samples = _samples(spec, mats, data)
    gamma = np.column_stack([s.trace.skip[l - 1] for s in samples])
    mins, maxs = _factor_sigmas([(s.tus[l - 1], s.pattern.dec[l - 1]) for s in samples])
    cost = _cost(s.res for s in samples)
    g_min, g_max = _sigma_extremes(gamma, "skip feature matrix")
    return BoundCertificate(
        kind="skip",
        layer=l,
        grad_norm=float(np.linalg.norm(_grad_skip(mats, samples, l))),
        lower=g_min * min(mins) * np.sqrt(2.0 * cost),
        upper=g_max * max(maxs) * np.sqrt(2.0 * cost),
        loss=cost,
        feature_sigma_min=g_min,
        feature_sigma_max=g_max,
        factor_sigma_min=min(mins),
        factor_sigma_max=max(maxs),
        per_sample_sigma_min=mins,
        per_sample_sigma_max=maxs,
        preconditions={
            "s_l_ge_T": spec.s[l - 1] >= data.T,
            "d_prev_ge_d0": spec.d[l - 1] >= spec.d[0],
        },
        applicable=spec.s[l - 1] >= data.T and spec.d[l - 1] >= spec.d[0],
    )


def certify_bounds_enc(spec: NetworkSpec, mats, data: TrainingSet) -> BoundCertificate:
    """Gradient-norm sandwich for the bottleneck E.

    The asserted pairing uses the features feeding the bottleneck (layer
    kappa-1), which is what the free-matrix derivative factors through;
    the ``printed`` block reports the same sandwich evaluated with the
    bottleneck output features instead, for side-by-side comparison.
    """
    kappa = spec.kappa
    samples = _samples(spec, mats, data)
    xi_prev = np.column_stack([_xi_prev(s.trace, kappa) for s in samples])
    xi_kappa = np.column_stack([s.trace.enc[-1] for s in samples])
    mins, maxs = _factor_sigmas([(s.tus[kappa], s.pattern.enc[kappa - 1]) for s in samples])
    cost = _cost(s.res for s in samples)
    f_min, f_max = _sigma_extremes(xi_prev, "encoder feature matrix")
    k_min, k_max = _sigma_extremes(xi_kappa, "bottleneck feature matrix")
    root = np.sqrt(2.0 * cost)
    return BoundCertificate(
        kind="encoder",
        layer=kappa,
        grad_norm=float(np.linalg.norm(_grad_enc(spec, mats, samples))),
        lower=f_min * min(mins) * root,
        upper=f_max * max(maxs) * root,
        loss=cost,
        feature_sigma_min=f_min,
        feature_sigma_max=f_max,
        factor_sigma_min=min(mins),
        factor_sigma_max=max(maxs),
        per_sample_sigma_min=mins,
        per_sample_sigma_max=maxs,
        preconditions={
            "d_prev_ge_T": spec.d[kappa - 1] >= data.T,
            "d_kappa_ge_d0": spec.d[kappa] >= spec.d[0],
        },
        applicable=spec.d[kappa - 1] >= data.T and spec.d[kappa] >= spec.d[0],
        printed={
            "feature_sigma_min": k_min,
            "feature_sigma_max": k_max,
            "lower": k_min * min(mins) * root,
            "upper": k_max * max(maxs) * root,
            "precondition_d_kappa_ge_T": spec.d[kappa] >= data.T,
        },
    )


@dataclass
class StationarityReport:
    """Rank conditions and gradient-norm assertions per skip level.

    A level is applicable when its skip features are linearly independent
    across samples and the masked dual prefix has full row rank at every
    sample; on applicable levels with loss above the floor, a vanishing
    S_tilde gradient is a violation.
    """

    loss: float
    loss_floor: float
    pos_tol: float
    layers: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def applicable(self) -> bool:
        return any(entry["conditions_hold"] for entry in self.layers)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "loss": self.loss,
            "loss_floor": self.loss_floor,
            "pos_tol": self.pos_tol,
            "applicable": self.applicable,
            "ok": self.ok,
            "layers": self.layers,
            "violations": self.violations,
        }


def check_stationarity(spec: NetworkSpec, mats, data: TrainingSet,
                   pos_tol: float = 1e-12, loss_floor: float = 0.0) -> StationarityReport:
    if not spec.skip:
        raise ValueError("the stationarity check needs a skip network")
    samples = _samples(spec, mats, data)
    cost = _cost(s.res for s in samples)
    report = StationarityReport(loss=cost, loss_floor=loss_floor, pos_tol=pos_tol)
    for l in range(1, spec.kappa + 1):
        gamma = np.column_stack([s.trace.skip[l - 1] for s in samples])
        gamma_rank = _rank(gamma)
        gamma_full = gamma_rank == data.T
        rows_full = [_rank(s.tus[l - 1] * s.pattern.dec[l - 1][None, :]) == spec.d[0]
                     for s in samples]
        conditions = gamma_full and all(rows_full)
        gnorm = float(np.linalg.norm(_grad_skip(mats, samples, l)))
        entry = {
            "layer": l,
            "gamma_rank": gamma_rank,
            "gamma_full_rank": gamma_full,
            "dual_full_row_rank": bool(all(rows_full)),
            "conditions_hold": bool(conditions),
            "grad_norm": gnorm,
        }
        report.layers.append(entry)
        if conditions and cost > loss_floor and gnorm <= pos_tol:
            report.violations.append(
                {"layer": l, "grad_norm": gnorm, "loss": cost}
            )
    return report


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = 0.25
    iterations: int = 200
    armijo: bool = True
    armijo_shrink: float = 0.5
    armijo_slope: float = 1e-4
    max_backtracks: int = 40
    checkpoint_every: int = 0
    stop_loss: float = 0.0
    divergence_loss: float = 1e12


@dataclass
class TrainResult:
    losses: list
    grad_norms: list
    bank: LayerBank
    certificates: list
    converged: bool
    stop_reason: str


def tap_gradients(spec: NetworkSpec, bank: LayerBank, data: TrainingSet):
    """Analytic cost gradients with respect to the shared filter taps.

    Backpropagates through the realized matrices, then applies the
    adjoint of the taps-to-operators map (:func:`netbuild.realize_adjoint`)
    to the operator gradients.  Returns (enc_grads, dec_grads, loss) with
    tensors shaped like the bank's filters.
    """
    mats = realize(spec, bank)
    kappa = spec.kappa
    gE = [np.zeros_like(m.E) for m in mats]
    gD = [np.zeros_like(m.D) for m in mats]
    gS = [np.zeros_like(m.S) if m.S is not None else None for m in mats]
    gSt = [np.zeros_like(m.S_tilde) if m.S_tilde is not None else None for m in mats]
    enc_relu = spec.relu_at_encoder()
    dec_relu = spec.relu_at_decoder()
    total = 0.0

    for i in range(data.T):
        trace = forward_matrices(spec, mats, data.X[:, i])
        res = trace.y - data.Y[:, i]
        total += 0.5 * float(res @ res)
        d_chi = [None] * kappa
        d_cur = res
        for l in range(1, kappa + 1):
            mask = (trace.dec_pre[l - 1] > 0) if dec_relu else 1.0
            d_pre = d_cur * mask
            gD[l - 1] += np.outer(d_pre, trace.dec[l])
            if spec.skip:
                gSt[l - 1] += np.outer(d_pre, trace.skip[l - 1])
                d_chi[l - 1] = mats[l - 1].S_tilde.T @ d_pre
            d_cur = mats[l - 1].D.T @ d_pre
        for l in range(kappa, 0, -1):
            mask = (trace.enc_pre[l - 1] > 0) if enc_relu else 1.0
            d_u = d_cur * mask
            xi_prev = trace.enc[l - 2] if l >= 2 else trace.x
            gE[l - 1] += np.outer(xi_prev, d_u)
            d_cur = mats[l - 1].E @ d_u
            if spec.skip:
                smask = (trace.skip_pre[l - 1] > 0) if enc_relu else 1.0
                d_v = d_chi[l - 1] * smask
                gS[l - 1] += np.outer(xi_prev, d_v)
                d_cur = d_cur + mats[l - 1].S @ d_v

    grads = list(map(LayerMatrices, gE, gD, gS, gSt))
    enc_grads, dec_grads = realize_adjoint(spec, bank, grads)
    return enc_grads, dec_grads, total


def _bank_step(bank: LayerBank, enc_grads, dec_grads, step: float) -> LayerBank:
    return LayerBank(
        enc_filters=tuple(f - step * g for f, g in zip(bank.enc_filters, enc_grads)),
        dec_filters=tuple(f - step * g for f, g in zip(bank.dec_filters, dec_grads)),
        pool=bank.pool,
        unpool=bank.unpool,
    )


def train_gd(spec: NetworkSpec, bank: LayerBank, data: TrainingSet,
             config: TrainConfig = TrainConfig()) -> TrainResult:
    """Plain gradient descent on the filter taps.

    Pooling matrices stay fixed.  With ``armijo`` (the default) each
    accepted step satisfies the backtracking decrease condition, so the
    loss trajectory is monotone and a step that cannot be backtracked
    into acceptance stalls the run; without it, raw fixed-size steps are
    taken and a loss beyond ``divergence_loss`` aborts with a
    diagnostic.  Emits bound certificates every ``checkpoint_every``
    iterations when requested.
    """
    current = bank
    cur_loss = loss(spec, realize(spec, current), data)
    losses = [cur_loss]
    grad_norms = []
    certificates = []
    converged = False
    stop_reason = "iteration budget exhausted"

    def emit(iteration):
        if certificates and certificates[-1][0] == iteration:
            return
        mats = realize(spec, current)
        if spec.skip:
            certs = [certify_bounds_skip(spec, mats, data, l)
                     for l in range(1, spec.kappa + 1)]
        else:
            certs = [certify_bounds_enc(spec, mats, data)]
        certificates.append((iteration, certs))

    if config.checkpoint_every > 0:
        emit(0)

    for it in range(1, config.iterations + 1):
        enc_g, dec_g, _ = tap_gradients(spec, current, data)
        gnorm_sq = sum(float(np.sum(g * g)) for g in enc_g + dec_g)
        grad_norms.append(float(np.sqrt(gnorm_sq)))
        if cur_loss <= config.stop_loss or gnorm_sq == 0.0:
            converged = True
            stop_reason = "reached stop loss" if cur_loss <= config.stop_loss \
                else "zero gradient"
            break
        # a NaN or infinite entry makes the squared norm non-finite too
        bad = [] if np.isfinite(gnorm_sq) else [
            f"layer {l} {side}" for side, grads in (("encoder", enc_g), ("decoder", dec_g))
            for l, g in enumerate(grads, 1) if not np.all(np.isfinite(g))
        ]
        if bad:
            raise TrainingDiverged(
                f"{bad[0]} tap gradient contains non-finite entries at iteration {it} "
                f"(loss {cur_loss:.3e}): the forward pass overflowed; reduce the bank scale"
            )
        if config.armijo:
            step = config.step_size
            accepted = None
            for _ in range(config.max_backtracks):
                cand = _bank_step(current, enc_g, dec_g, step)
                cand_loss = loss(spec, realize(spec, cand), data)
                if cand_loss <= cur_loss - config.armijo_slope * step * gnorm_sq:
                    accepted = (cand, cand_loss)
                    break
                step *= config.armijo_shrink
            if accepted is None:
                stop_reason = "line search stalled"
                break
            current, cur_loss = accepted
        else:
            current = _bank_step(current, enc_g, dec_g, config.step_size)
            cur_loss = loss(spec, realize(spec, current), data)
        losses.append(cur_loss)
        if not np.isfinite(cur_loss) or cur_loss > config.divergence_loss:
            raise TrainingDiverged(
                f"loss {cur_loss:.3e} exceeded {config.divergence_loss:.1e} "
                f"at iteration {it}; reduce the step size"
            )
        if config.checkpoint_every > 0 and it % config.checkpoint_every == 0:
            emit(it)

    if cur_loss <= config.stop_loss:
        converged = True
        if stop_reason == "iteration budget exhausted":
            stop_reason = "reached stop loss"
    if config.checkpoint_every > 0:
        emit(len(losses) - 1)
    return TrainResult(losses=losses, grad_norms=grad_norms, bank=current,
                       certificates=certificates, converged=converged,
                       stop_reason=stop_reason)
