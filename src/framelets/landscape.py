"""Loss, analytic gradients, and landscape certificates.

Two derivative notions live here and must not be confused:

* the *free-matrix* gradients :meth:`Pass.grad` treat one realized layer
  operator (S_tilde at level l, or the bottleneck E) as an unstructured
  matrix, holding everything else fixed -- that is the object the
  singular-value sandwich bounds speak about;
* the *tap* gradients used by :func:`train_gd` differentiate with respect
  to the shared filter coefficients through the block structure (with
  skips, E and S share encoder taps, D and S_tilde share decoder taps),
  which is the real parameterization.

Both are cross-checked against central finite differences in the test
suite.  The ReLU derivative at zero is 0, matching the mask convention.

:func:`training_pass` forwards the training set once, as one (T, d_0)
stack, and traces the cost back through that stack once: the backward
trace holds the cost's derivative at every pre-activation, and the
gradient with respect to any realized operator is a sample-order sum of
outer products of a backward row and a forward row.  The certificates,
the stationarity check and the tap gradients all read one such
:class:`Pass`.  The first two form only the operator gradients they read
(:meth:`Pass.grad`); the tap gradients form none, and pull the rows
(:meth:`Pass.factors`) back onto the taps directly.  The trace is
:func:`analysis.adjoint` from the residual rows and its encoder half,
whose masked co-probes are the backward rows; the masked dual-chain
prefixes, the same adjoint from the co-probe I in one stacked call formed
on first read, serve only the certificates' factor singular values and
ranks.  Every row is bit-identical to its one-sample pass, and every sum
runs in sample order or in BLAS products made on one thread, so reports
are bit-stable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .analysis import _masks, adjoint, encoder_adjoint, pattern_from_trace
from .netbuild import (
    ForwardTrace,
    LayerBank,
    NetworkSpec,
    forward_matrices,
    realize,
    realize_adjoint,
)

__all__ = [
    "TrainingSet",
    "Pass",
    "BoundCertificate",
    "StationarityReport",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "loss",
    "training_pass",
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


def _cost(res: np.ndarray) -> float:
    """Half the squared norm of the (T, d_0) residual rows, summed in sample order."""
    total = 0.0
    for row in res:
        total += float(row @ row)
    return 0.5 * total


def loss(spec: NetworkSpec, mats, data: TrainingSet) -> float:
    """Squared-error cost: half the sum of per-sample residual norms squared."""
    return _cost(forward_matrices(spec, mats, data.X.T).y - data.Y.T)


@dataclass(frozen=True, eq=False)
class Pass:
    """The training set after one stacked forward and one backward trace through
    ``mats``; row i of every array is sample i.  ``d_enc``, ``d_skip`` and
    ``d_dec`` hold the cost's derivative at the trace's enc_pre, skip_pre and
    dec_pre (index l-1); ``pattern`` holds the (T, n_bits) mask-bit rows."""

    spec: NetworkSpec
    mats: tuple
    trace: ForwardTrace
    pattern: np.ndarray
    cost: float
    d_enc: list
    d_skip: list
    d_dec: list

    def factors(self, name: str, l: int) -> tuple:
        """The free-matrix gradient of operator ``name`` (E, D, S or S_tilde)
        of layer l in factored form (rows, cols): each sample's forward row
        (the operator's input) and backward row, oriented like the operator,
        so that the gradient is rows' cols."""
        if name not in ("E", "D", "S", "S_tilde"):
            raise ValueError(f"unknown operator {name!r}: expected E, D, S or S_tilde")
        if name in ("S", "S_tilde") and not self.spec.skip:
            raise ValueError("skip gradients need a skip network")
        if not 1 <= l <= self.spec.kappa:
            raise ValueError(f"layer index {l} out of range [1, {self.spec.kappa}]")
        if name in ("E", "S"):
            cols = self.d_enc if name == "E" else self.d_skip
            return [self.trace.x, *self.trace.enc][l - 1], cols[l - 1]
        return self.d_dec[l - 1], self.trace.dec[l] if name == "D" else self.trace.skip[l - 1]

    def grad(self, name: str, l: int) -> np.ndarray:
        """Free-matrix gradient of the cost with respect to operator ``name``
        of layer l, everything else held fixed: the sample-order sum of outer
        products of the rows of :meth:`factors`.  Exact under the zero-at-kink
        mask convention.

        The sum is one ``einsum`` without ``optimize``, so no BLAS: it adds
        each entry's T products in sample order starting from zero, and is
        byte-identical to accumulating ``np.outer`` of each pair of rows."""
        return np.einsum("ti,tj->ij", *self.factors(name, l))

    def grad_norm(self, name: str, l: int) -> float:
        """Frobenius norm of :meth:`grad`, its squares summed by an einsum
        without BLAS.  ``np.linalg.norm`` would sum them with a BLAS dot, whose
        order follows the BLAS thread count on a long gradient."""
        g = self.grad(name, l)
        return float(np.sqrt(np.einsum("ij,ij->", g, g)))

    @cached_property
    def masks(self) -> list:
        """The (T, 1, w) mask views of ``pattern`` (:func:`analysis._masks`)."""
        return _masks(self.spec, self.pattern)

    @cached_property
    def dual(self) -> list:
        """The masked dual-chain prefixes [I, T_1 .. T_kappa], T_l stacked over
        the samples: the decoder :func:`analysis.adjoint` from the co-probe I,
        formed on first read."""
        dec, I = self.masks[-self.spec.kappa:], np.eye(self.spec.d[0])
        return [I, *(T for T, _, _ in adjoint(self.spec, self.mats, dec, I, hang=False))]

    @property
    def T(self) -> int:
        return len(self.trace.x)


def training_pass(spec: NetworkSpec, mats, data: TrainingSet) -> Pass:
    """Forward the (T, d_0) stack of inputs, then trace the cost back through it.

    The backward trace is the chain rule through the realized operators
    under the zero-at-kink mask convention.  Down the decoder it is the
    :func:`analysis.adjoint` from the (T, 1, d_0) residual rows, with the
    skip hangs, then up the encoder its :func:`analysis.encoder_adjoint`.
    Each row is bit-identical to its one-sample trace.
    """
    trace = forward_matrices(spec, mats, data.X.T)
    bits, res, k = pattern_from_trace(spec, trace), trace.y - data.Y.T, spec.kappa
    masks = _masks(spec, bits)
    T, H, U = zip(*adjoint(spec, mats, masks[-k:], res[:, None]))
    _, V, W = encoder_adjoint(spec, mats, masks[:k], masks[k:-k], T[-1], H)
    return Pass(spec, mats, trace, bits, _cost(res), *([v[:, 0] for v in vs] for vs in (V, W, U)))


def _sigma_extremes(A: np.ndarray, name: str) -> tuple:
    """Smallest and largest singular value of A, or lists of them for each
    matrix of an (N, ., .) stack, through one batched SVD."""
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries: the forward pass "
                         "overflowed (is the bank scaled too large?)")
    sv = np.linalg.svd(A, compute_uv=False)
    return sv[..., -1].tolist(), sv[..., 0].tolist()


def _rank(A: np.ndarray):
    """Numerical rank of A, or of each matrix of an (N, ., .) stack."""
    sv = np.linalg.svd(A, compute_uv=False)
    return np.sum(sv > max(A.shape[-2:]) * np.finfo(float).eps * sv[..., :1], axis=-1)


@dataclass
class BoundCertificate:
    """Evaluated singular-value sandwich for one free-matrix gradient.

    ``lower <= grad_norm <= upper`` is guaranteed whenever both
    precondition flags hold (tall feature and factor matrices).  When
    they do not, the certificate is marked inapplicable and nothing is
    asserted.  ``operator`` names the realized matrix the gradient is
    taken with respect to.  For the encoder case, ``printed`` carries the
    alternative pairing that measures the bottleneck features themselves
    instead of the input-side features of the derivative.
    """

    kind: str
    operator: str
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

    def to_dict(self) -> dict:
        """The fields in order, without ``printed`` when it is None."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "printed" or self.printed is not None}


def _sandwich(p: Pass, kind: str, name: str, l: int, prefix: np.ndarray, mask: np.ndarray,
              features: np.ndarray, what: str, preconditions: dict) -> BoundCertificate:
    """The singular-value sandwich for the gradient of operator ``name`` of
    layer l: lower = sigma_min(features) * min_i sigma_min(masked dual prefix)
    * sqrt(2 loss), upper analogously with maxima.  ``prefix`` is a stacked
    prefix of :attr:`Pass.dual` and ``mask`` its (T, 1, .) masks; ``features``
    are the (T, .) rows the gradient's sample outer products read, ``what``
    names them in the non-finite error.  Applicable when every precondition
    holds."""
    mins, maxs = _sigma_extremes(np.swapaxes(mask * prefix, -1, -2),
                                 "masked dual-chain prefix")
    f_min, f_max = _sigma_extremes(features.T, what)
    root = np.sqrt(2.0 * p.cost)
    return BoundCertificate(
        kind=kind,
        operator=f"{name}[{l}]",
        layer=l,
        grad_norm=p.grad_norm(name, l),
        lower=f_min * min(mins) * root,
        upper=f_max * max(maxs) * root,
        loss=p.cost,
        feature_sigma_min=f_min,
        feature_sigma_max=f_max,
        factor_sigma_min=min(mins),
        factor_sigma_max=max(maxs),
        per_sample_sigma_min=mins,
        per_sample_sigma_max=maxs,
        preconditions=preconditions,
        applicable=all(preconditions.values()),
    )


def certify_bounds_skip(p: Pass, l: int) -> BoundCertificate:
    """Gradient-norm sandwich for S_tilde at level l, read from a training pass.

    The features are the skip features of level l.  Valid when s_l >= T
    and d_{l-1} >= d_0.
    """
    spec = p.spec
    if not spec.skip:
        raise ValueError("skip certificates need a skip network")
    return _sandwich(p, "skip", "S_tilde", l, p.dual[l - 1], p.masks[l - 1 - spec.kappa],
                     p.trace.skip[l - 1], "skip feature matrix", {
                         "s_l_ge_T": spec.s[l - 1] >= p.T,
                         "d_prev_ge_d0": spec.d[l - 1] >= spec.d[0],
                     })


def certify_bounds_enc(p: Pass) -> BoundCertificate:
    """Gradient-norm sandwich for the bottleneck E, read from a training pass.

    The asserted pairing uses the features feeding the bottleneck (layer
    kappa-1), which is what the free-matrix derivative factors through;
    the ``printed`` block reports the same sandwich evaluated with the
    bottleneck output features instead, for side-by-side comparison.
    """
    spec, kappa = p.spec, p.spec.kappa
    cert = _sandwich(p, "encoder", "E", kappa, p.dual[kappa], p.masks[kappa - 1],
                     [p.trace.x, *p.trace.enc][kappa - 1], "encoder feature matrix", {
                         "d_prev_ge_T": spec.d[kappa - 1] >= p.T,
                         "d_kappa_ge_d0": spec.d[kappa] >= spec.d[0],
                     })
    k_min, k_max = _sigma_extremes(p.trace.enc[-1].T, "bottleneck feature matrix")
    root = np.sqrt(2.0 * p.cost)
    cert.printed = {
        "feature_sigma_min": k_min,
        "feature_sigma_max": k_max,
        "lower": k_min * cert.factor_sigma_min * root,
        "upper": k_max * cert.factor_sigma_max * root,
        "precondition_d_kappa_ge_T": spec.d[kappa] >= p.T,
    }
    return cert


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
        # a NaN loss or gradient norm fails every comparison, so it makes no
        # violation; it fails the check instead of passing it
        finite = np.isfinite([self.loss, *(entry["grad_norm"] for entry in self.layers)]).all()
        return bool(finite) and not self.violations

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in ("loss", "loss_floor", "pos_tol",
                                                    "applicable", "ok", "layers", "violations")}


def check_stationarity(p: Pass, pos_tol: float = 1e-12,
                       loss_floor: float = 0.0) -> StationarityReport:
    """Rank conditions and S_tilde gradient norms of a training pass, per skip level."""
    spec = p.spec
    if not spec.skip:
        raise ValueError("the stationarity check needs a skip network")
    report = StationarityReport(loss=p.cost, loss_floor=loss_floor, pos_tol=pos_tol)
    for l in range(1, spec.kappa + 1):
        gamma_rank = int(_rank(p.trace.skip[l - 1].T))
        gamma_full = gamma_rank == p.T
        rows_full = bool(np.all(_rank(p.dual[l - 1] * p.masks[l - 1 - spec.kappa]) == spec.d[0]))
        conditions = gamma_full and rows_full
        gnorm = p.grad_norm("S_tilde", l)
        entry = {
            "layer": l,
            "gamma_rank": gamma_rank,
            "gamma_full_rank": gamma_full,
            "dual_full_row_rank": rows_full,
            "conditions_hold": conditions,
            "grad_norm": gnorm,
        }
        report.layers.append(entry)
        if conditions and p.cost > loss_floor and gnorm <= pos_tol:
            report.violations.append(
                {"layer": l, "grad_norm": gnorm, "loss": p.cost}
            )
    return report


#: the Armijo line search: step factor per backtrack, decrease slope and
#: trials per iteration
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 40

#: a loss above this that rose over the previous iteration aborts training
DIVERGENCE_LOSS = 1e12


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = 0.25
    iterations: int = 200
    armijo: bool = True
    checkpoint_every: int = 0
    stop_loss: float = 0.0


@dataclass
class TrainResult:
    losses: list
    grad_norms: list
    bank: LayerBank
    certificates: list
    converged: bool
    stop_reason: str
    backtracks: int


def tap_gradients(spec: NetworkSpec, bank: LayerBank, data: TrainingSet):
    """Analytic cost gradients with respect to the shared filter taps.

    Backpropagates through the realized matrices, then applies the
    adjoint of the taps-to-operators map (:func:`netbuild.realize_adjoint`)
    to each operator's gradient in the pass's factored form
    (:meth:`Pass.factors`), so no operator gradient is formed.  Returns
    (enc_grads, dec_grads, loss) with tensors shaped like the bank's filters.
    """
    p = training_pass(spec, realize(spec, bank), data)
    names = ("E", "D", "S", "S_tilde") if spec.skip else ("E", "D")
    enc_grads, dec_grads = realize_adjoint(spec, bank, [
        {name: p.factors(name, l) for name in names} for l in range(1, spec.kappa + 1)])
    return enc_grads, dec_grads, p.cost


def _bank_step(bank: LayerBank, enc_grads, dec_grads, step: float) -> LayerBank:
    return LayerBank(
        enc_filters=tuple(f - step * g for f, g in zip(bank.enc_filters, enc_grads)),
        dec_filters=tuple(f - step * g for f, g in zip(bank.dec_filters, dec_grads)),
        pool=bank.pool,
        unpool=bank.unpool,
    )


def _trial(spec: NetworkSpec, bank: LayerBank, enc_g, dec_g, step: float,
           data: TrainingSet) -> tuple:
    """The bank one ``step`` down the tap gradient, and its loss.  A step that
    overflows the taps, or a forward that overflows, gives an infinite or
    NaN loss; :func:`train_gd` filters numpy's warnings about them."""
    cand = _bank_step(bank, enc_g, dec_g, step)
    finite = all(np.isfinite(f).all() for f in cand.enc_filters + cand.dec_filters)
    return cand, loss(spec, realize(spec, cand), data) if finite else np.inf


def train_gd(spec: NetworkSpec, bank: LayerBank, data: TrainingSet,
             config: TrainConfig = TrainConfig()) -> TrainResult:
    """Plain gradient descent on the filter taps.

    Pooling matrices stay fixed.  With ``armijo`` (the default) each
    accepted step satisfies the backtracking decrease condition, so the
    loss trajectory is monotone and a step that cannot be backtracked
    into acceptance stalls the run; without it, raw fixed-size steps are
    taken.  The result's ``backtracks`` counts the rejected trials, 0 on
    raw steps.  A non-finite loss, or one beyond ``DIVERGENCE_LOSS`` that
    rose over the previous iteration, aborts with a diagnostic.  Emits
    bound certificates every ``checkpoint_every`` iterations when
    requested.
    """
    current = bank
    cur_loss = loss(spec, realize(spec, current), data)
    losses = [cur_loss]
    grad_norms = []
    certificates = []
    stop_reason = "iteration budget exhausted"
    backtracks = 0  # rejected Armijo trials

    def emit(iteration):
        if certificates and certificates[-1][0] == iteration:
            return
        p = training_pass(spec, realize(spec, current), data)
        certs = [certify_bounds_skip(p, l) for l in range(1, spec.kappa + 1)] \
            if spec.skip else [certify_bounds_enc(p)]
        certificates.append((iteration, certs))

    if config.checkpoint_every > 0:
        emit(0)

    # an overflowing trial is a failed trial, without a warning: the warnings
    # are filtered once around the loop, as cli.execute does, rather than
    # switched off per trial with np.errstate, which costs a little per trial
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "(overflow|invalid value) encountered",
                                RuntimeWarning)
        for it in range(1, config.iterations + 1):
            enc_g, dec_g, _ = tap_gradients(spec, current, data)
            gnorm_sq = sum(float(np.sum(g * g)) for g in enc_g + dec_g)
            grad_norms.append(float(np.sqrt(gnorm_sq)))
            if cur_loss <= config.stop_loss or gnorm_sq == 0.0:
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
                for _ in range(MAX_BACKTRACKS):
                    # an infinite or NaN trial loss (an overflow) is a failed trial
                    cand, cand_loss = _trial(spec, current, enc_g, dec_g, step, data)
                    if cand_loss <= cur_loss - ARMIJO_SLOPE * step * gnorm_sq:
                        accepted = (cand, cand_loss)
                        break
                    backtracks += 1
                    step *= ARMIJO_SHRINK
                if accepted is None:
                    stop_reason = "line search stalled"
                    break
                current, cur_loss = accepted
            else:
                current, cur_loss = _trial(spec, current, enc_g, dec_g, config.step_size, data)
            losses.append(cur_loss)
            if not np.isfinite(cur_loss):  # only a raw step gets here
                raise TrainingDiverged(
                    f"loss is not finite ({cur_loss}) at iteration {it}: the step overflowed; "
                    "reduce the step size"
                )
            # a large loss that is still falling (a large bank scale) is not a divergence
            if cur_loss > DIVERGENCE_LOSS and cur_loss > losses[-2]:
                raise TrainingDiverged(
                    f"loss {cur_loss:.3e} exceeded {DIVERGENCE_LOSS:.1e} and rose "
                    f"at iteration {it}; reduce the step size"
                )
            if config.checkpoint_every > 0 and it % config.checkpoint_every == 0:
                emit(it)

    # only the loss floor counts: a zero gradient above it (a dead net) is a
    # stop, not convergence
    converged = cur_loss <= config.stop_loss
    if converged and stop_reason == "iteration budget exhausted":
        stop_reason = "reached stop loss"
    if config.checkpoint_every > 0:
        emit(len(losses) - 1)
    return TrainResult(losses=losses, grad_norms=grad_norms, bank=current,
                       certificates=certificates, converged=converged,
                       stop_reason=stop_reason, backtracks=backtracks)
