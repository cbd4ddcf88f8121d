"""Command-line surface: config-driven runs and one-shot subcommands.

``framelets run config.json`` executes the analyses declared in the
config in order and writes ``report.json`` plus CSV side files into the
output directory.  Re-running with an identical config and seed yields a
byte-identical report except for the ``timings`` block.  Exit codes:
0 success, 1 usage or config error, 2 when an enforced check failed.

One table, ``REGISTRY``, names each analysis's runner, subcommand and
parameter schema; the config checks, the dispatch in ``execute`` and the
subcommands (one per analysis, with one flag per schema field) all come
from it.  ``framelets report`` pretty-prints a report file as a table.
All randomness derives from the single global seed by stable hashing of
(seed, component name), so independent analyses could be dispatched
concurrently without changing any result.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import numbers
import os
import sys
import time
import warnings
from collections.abc import Callable

import numpy as np

from . import __version__, analysis, frames, landscape, netbuild
from .seeding import derive, rng

OUTDIR_ENV = "FRAMELETS_OUTDIR"

#: the keys of the ``network`` block: ``netbuild.NetworkSpec``'s fields
NETWORK_FIELDS = tuple(field.name for field in dataclasses.fields(netbuild.NetworkSpec))

#: JSON's spelling of the non-finite float reprs
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class ConfigError(ValueError):
    """Malformed config; the message names the offending field."""


# ---------------------------------------------------------------------------
# parameter schema

#: the default of a config key that must be present
REQUIRED = object()


@dataclasses.dataclass(frozen=True)
class Field:
    """One config key of a block: kind, default, valid range, subcommand flag.

    A ``count`` is an integer >= low; a ``real`` a finite number >= low
    (> low when strict); a ``bool`` true or false; a ``text`` a nonempty
    string; a ``choice`` one of ``choices``; an ``object`` a JSON object;
    ``names`` a list of distinct ``choices``, at least ``low`` of them.  A
    key whose default is REQUIRED must be present; whether one whose default
    is None is needed depends on other keys (see the README).
    """

    key: str
    kind: str
    default: object = None
    low: float = -np.inf
    strict: bool = False
    choices: tuple = ()
    flag: str | None = None


def _value(field: Field, value, path: str):
    """``value`` checked against ``field``; a count becomes int, a real float."""
    kind, low = field.kind, field.low
    bound = f" {'>' if field.strict else '>='} {low:g}" if low > -np.inf else ""
    if kind == "count":
        ok, want = netbuild._integral(value) and value >= low, "an integer" + bound
    elif kind == "real":
        # abs() rejects integers beyond the float range; NaN fails every comparison
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max
              and (value > low if field.strict else value >= low))
        want = "a finite number" + bound
    elif kind == "bool":
        ok, want = isinstance(value, bool), "true or false"
    elif kind == "text":
        ok, want = isinstance(value, str) and value != "", "a nonempty string"
    elif kind == "object":
        ok, want = isinstance(value, dict), "a JSON object"
    elif kind == "names":
        ok = isinstance(value, list) and len(value) >= low
        want = f"a {'nonempty ' if low > 0 else ''}list of analysis names"
    else:
        ok, want = value in field.choices, f"one of {', '.join(field.choices)}"
    if not ok:
        raise ConfigError(f"config field '{path}' must be {want}, got {value!r}")
    if kind == "names":
        for i, name in enumerate(value):
            if name not in field.choices:
                raise ConfigError(f"config field '{path}': unknown analysis {name!r} "
                                  f"(recognized: {', '.join(field.choices)})")
            if name in value[:i]:
                raise ConfigError(f"config field '{path}': {name!r} is listed twice")
    return int(value) if kind == "count" else float(value) if kind == "real" else value


def _fields(schema: tuple, prefix: str, block: dict) -> dict:
    """Every field of ``schema``: ``block``'s checked value or the default.
    Messages name a key as ``prefix`` followed by the key."""
    known = {field.key for field in schema}
    for key in block:
        if key not in known:
            raise ConfigError(f"config field '{prefix}{key}' is not a known field")
    out = {}
    for field in schema:
        if field.key in block:
            out[field.key] = _value(field, block[field.key], prefix + field.key)
        elif field.default is REQUIRED:
            raise ConfigError(f"missing required config field '{prefix}{field.key}'")
        else:
            out[field.key] = field.default
    return out


def validate(section: str, block: dict) -> dict:
    """Every field of ``section``'s schema: the checked value or its default."""
    return _fields(SCHEMAS[section], f"{section}.", block)


# ---------------------------------------------------------------------------
# config handling


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_config(path: str) -> dict:
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _build_spec(net: dict) -> netbuild.NetworkSpec:
    for key in net:
        if key not in NETWORK_FIELDS:
            raise ConfigError(f"config field 'network.{key}' is not a known field")
    try:
        return netbuild.NetworkSpec.from_dict(net)
    except KeyError as exc:
        raise ConfigError(f"missing required config field 'network.{exc.args[0]}'") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'network': {exc}") from exc


def _build_bank(cfg: dict, spec: netbuild.NetworkSpec, seed):
    """The run's bank and the checked ``bank`` block; of ``cfg`` it reads only
    that block, which the benchmark's bank-only configs also hold."""
    params = validate("bank", cfg["bank"])
    source = params["source"]
    if source == "file":
        path = params["path"]
        if path is None:
            raise ConfigError("missing required config field 'bank.path' for a file bank")
        if not os.path.exists(path):
            raise ConfigError(f"config field 'bank.path': file {path!r} does not exist")
        try:  # a structural error of the file names the field that points to it
            bank = netbuild.bank_from_dict(_read_json(path, "bank file"))
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config field 'bank.path': {path!r} is not a bank file: "
                              f"{type(exc).__name__}: {exc}") from exc
        try:  # a bank saved for another spec names the file and the network
            netbuild.validate_bank(spec, bank)
        except ValueError as exc:
            raise ConfigError(f"config field 'bank.path': the bank in {path!r} is not valid "
                              f"for config field 'network' {spec.to_dict()}: {exc}") from exc
        return bank, params
    if source is None:
        raise ConfigError("missing required config field 'bank.source'")
    if seed is None:
        raise ConfigError(f"config field 'seed' is required for a {source} bank")
    if source == "random":
        return netbuild.random_bank(spec, seed=derive(seed, "bank"),
                                    scale=params["scale"]), params
    if len(set(spec.m)) > 1:
        raise ConfigError(f"config field 'network.m': a frame_factory bank needs equal "
                          f"spatial dims at every layer, got {list(spec.m)}")
    for l in range(1, spec.kappa + 1):
        if spec.q[l] < spec.r * spec.q[l - 1]:
            raise ConfigError(f"config field 'network.q': a frame_factory bank needs q_l >= "
                              f"r * q_(l-1) at every layer, got {spec.q[l]} < {spec.r} * "
                              f"{spec.q[l - 1]} at layer {l}")
    return frames.frame_bank(spec, params["alpha"], derive(seed, "bank"),
                             params["pooling"]), params


# ---------------------------------------------------------------------------
# analysis runners; each takes the run's Context and its checked parameter
# block and returns a JSON-ready block with a "checks" list


@dataclasses.dataclass
class Context:
    """What the runners of one run share.

    ``mats`` and ``census`` are built on first use, so a run realizes the
    operators and takes the census at most once; their time counts under
    the first analysis that reads them.  ``alpha`` is bank.alpha, the frame
    constant ``frames`` checks.
    """

    spec: netbuild.NetworkSpec
    bank: netbuild.LayerBank
    tolerances: dict
    seed: int | None = None
    outdir: str | None = None
    census_config: analysis.CensusConfig | None = None
    alpha: float = 1.0

    @functools.cached_property
    def mats(self) -> tuple:
        return netbuild.realize(self.spec, self.bank)

    @functools.cached_property
    def census(self) -> analysis.RegionCensus:
        return analysis.region_census(self.spec, self.mats, self.census_config)


def _worst(values: list) -> float:
    """Largest value (0.0 for none), NaN if any is NaN; Python's max skips NaN."""
    return float(np.max(values)) if values else 0.0


def _check(name: str, passed: bool, **extra) -> dict:
    return {"name": name, "passed": bool(passed), **extra}


def run_frames(ctx: Context, params: dict) -> dict:
    residuals = frames.frame_residual(ctx.spec, ctx.bank, ctx.mats, ctx.alpha)
    worst = _worst(
        [value for entry in residuals for key, value in entry.items() if key != "layer"]
    )
    tol = ctx.tolerances["frames"]
    return {
        "alpha": ctx.alpha,
        "mode": "skip" if ctx.spec.skip else "no_skip",
        "residuals": residuals,
        "max_residual": worst,
        "checks": [_check("frame_residuals", worst <= tol, value=worst, tol=tol)],
    }


def run_reconstruct(ctx: Context, params: dict) -> dict:
    # realize does not read the nonlinearity, so the run's operators serve
    spec = dataclasses.replace(ctx.spec, nonlinearity="none") if params["no_relu"] else ctx.spec
    xs = rng(ctx.seed, "reconstruct").standard_normal((params["count"], spec.d[0]))
    ys = netbuild.forward_matrices(spec, ctx.mats, xs).y
    worst = _worst([np.linalg.norm(y - x) / np.linalg.norm(x) for x, y in zip(xs, ys)])
    tol = ctx.tolerances["reconstruct"]
    return {
        "samples": params["count"],
        "no_relu": params["no_relu"],
        "max_relative_error": worst,
        "checks": [_check("perfect_reconstruction", worst <= tol, value=worst, tol=tol)],
    }


def run_identity(ctx: Context, params: dict) -> dict:
    spec, mats = ctx.spec, ctx.mats
    gen = rng(ctx.seed, "identity")
    errors = []
    for _ in range(params["count"]):
        x = gen.standard_normal(spec.d[0])
        trace = netbuild.forward_matrices(spec, mats, x)
        y = trace.y
        rep = analysis.linear_rep(spec, mats, pattern=analysis.pattern_from_trace(spec, trace))
        errors.append(np.linalg.norm(rep.matrix() @ x - y) / max(np.linalg.norm(y), 1e-300))
    worst = _worst(errors)
    tol = ctx.tolerances["identity"]
    return {
        "samples": params["count"],
        "max_relative_error": worst,
        "checks": [_check("linear_representation", worst <= tol, value=worst, tol=tol)],
    }


def run_regions(ctx: Context, params: dict) -> dict:
    census, outdir = ctx.census, ctx.outdir
    block = census.to_dict()
    if outdir is not None:
        # census.json is json.dump(indent=1) of to_dict() plus a newline, and the
        # CSVs csv.writer rows with repr floats: each region is rendered once, as
        # its row, and streamed to all three files
        with (open(os.path.join(outdir, "census.json"), "w") as cj,
              open(os.path.join(outdir, "regions.csv"), "w", newline="") as rc,
              open(os.path.join(outdir, "region_lipschitz.csv"), "w", newline="") as rl):
            rc.write("pattern,count,lipschitz\r\n")
            rl.write("region,lipschitz\r\n")

            def rows():  # writes each region's CSV rows as census.json takes its row
                for idx, reg in enumerate(census.regions):
                    lip = repr(reg.lipschitz)
                    rc.write(f"{reg.pattern_hex},{reg.count},{lip}\r\n")
                    rl.write(f"{idx},{lip}\r\n")
                    yield reg.pattern_hex, reg.count, _JSON_FLOAT.get(lip, lip), reg.first_sample

            _write_json(cj, block, (), rows(), first_sample=True)
    block["checks"] = [
        _check("census_within_bound", census.distinct <= census.nrep,
               distinct=census.distinct, nrep=census.nrep)
    ]
    return block


def run_lipschitz(ctx: Context, params: dict) -> dict:
    census = ctx.census
    slack = ctx.tolerances["lipschitz_slack"]
    # the pair inequality on the first four sampled inputs of each region
    # (the map is linear there, so no segment condition); a region seen
    # once has no pair.  One stacked forward serves every region's inputs.
    repeated = [reg for reg in census.regions if reg.count >= 2]
    xs = [x for reg in repeated for x in reg.inputs[:4]]
    ys = iter(netbuild.forward_matrices(ctx.spec, ctx.mats, np.array(xs)).y if xs else ())
    violations = []
    for reg in repeated:
        points = [(x, next(ys)) for x in reg.inputs[:4]]
        for (x1, y1), (x2, y2) in itertools.combinations(points, 2):
            violations.append(np.linalg.norm(y1 - y2)
                              - reg.lipschitz * np.linalg.norm(x1 - x2))
    worst_violation = _worst(violations)
    return {
        "samples": census.samples,
        "distinct_regions": census.distinct,
        "global_lower_bound": analysis.lipschitz_global(census),
        "pairs_checked": len(violations),
        "worst_pair_violation": worst_violation,
        "checks": [
            _check("pairwise_lipschitz", worst_violation <= slack,
                   value=worst_violation, tol=slack)
        ],
    }


def run_jacobian(ctx: Context, params: dict) -> dict:
    spec, mats = ctx.spec, ctx.mats
    count, margin, step = params["count"], params["margin"], params["step"]
    gen, kernel = rng(ctx.seed, "jacobian"), analysis._map_kernel(spec, mats)
    # One input is drawn at a time, and its map comes with its certified
    # in-region radius rho, the masks taken from the draw itself.  A draw is
    # accepted when rho >= margin and rho > step, so its stencil stays in
    # its region; a NaN rho (an overflowing forward pass) is accepted, so the
    # check fails on a NaN error.  Each accepted map is compared with its
    # stencil; both are C-contiguous, so the norm of the difference sums in
    # row-major order.  ``attempts`` ends at the last accepted draw, or at
    # the cap.
    errors, radii, attempts = [], [], 0
    while len(errors) < count and attempts < 100 * count:
        x, attempts = gen.standard_normal(spec.d[0]), attempts + 1
        J, rho = kernel(x)
        if rho < margin or rho <= step:
            continue
        Jfd = analysis.fd_jacobian(spec, mats, x, step=step)
        errors.append(np.linalg.norm(J - Jfd) / max(np.linalg.norm(Jfd), 1e-300))
        radii.append(rho)
    if len(errors) < count:
        raise ConfigError(
            f"could not find {count} inputs whose certified in-region radius is at "
            f"least jacobian.margin ({margin:g}) and above jacobian.step ({step:g}): "
            f"accepted {len(errors)} of {attempts} draws; lower jacobian.margin or jacobian.step"
        )
    worst = _worst(errors)
    tol = ctx.tolerances["jacobian"]
    # np.min and np.median of the radii, NaN when one is; np.median itself
    # would import numpy.ma, half a megabyte, on its first call
    radii, mid = np.sort(radii), count // 2  # NaN sorts last
    if np.isnan(radii[-1]):
        radii[:] = np.nan
    return {
        "instances": count,
        "attempts": attempts,
        "margin": margin,
        "step": step,
        "radius_min": float(radii[0]),
        "radius_median": float((radii[mid] + radii[~mid]) / 2),
        "max_relative_error": worst,
        "checks": [_check("jacobian_fd_match", worst <= tol, value=worst, tol=tol)],
    }


def _training_set(ctx: Context, stream: str, T: int) -> landscape.TrainingSet:
    """T standard-normal input columns, then T target columns, from the run's
    ``stream``."""
    gen = rng(ctx.seed, stream)
    return landscape.TrainingSet(X=gen.standard_normal((ctx.spec.d[0], T)),
                                 Y=gen.standard_normal((ctx.spec.d[0], T)))


def run_landscape(ctx: Context, params: dict) -> dict:
    spec, T = ctx.spec, params["samples"]
    # one forward and backward trace of the training set serves every certificate
    p = landscape.training_pass(spec, ctx.mats, _training_set(ctx, "landscape-data", T))
    slack = ctx.tolerances["sandwich_slack"]
    certs = [landscape.certify_bounds_skip(p, l) for l in range(1, spec.kappa + 1)] \
        if spec.skip else []
    certs.append(landscape.certify_bounds_enc(p))
    applicable = [cert for cert in certs if cert.applicable]
    if not applicable:
        # the preconditions read only the dims and T, so this is the config's doing
        raise ConfigError(f"config field 'landscape.samples': no gradient certificate "
                          f"applies to {T} training samples on this network")
    sandwich_ok = True
    for cert in applicable:
        scale = max(cert.upper, 1e-300)
        holds = (cert.lower <= cert.grad_norm + slack * scale
                 and cert.grad_norm <= cert.upper + slack * scale)
        sandwich_ok = sandwich_ok and holds
    checks = [_check("gradient_sandwich", sandwich_ok, tol=slack, checked=len(applicable))]
    block = {
        "training_samples": T,
        "loss": certs[-1].loss,
        "certificates": [cert.to_dict() for cert in certs],
    }
    if spec.skip:
        report = landscape.check_stationarity(
            p, pos_tol=ctx.tolerances["stationarity_grad"],
            loss_floor=ctx.tolerances["stationarity_loss_floor"],
        )
        block["stationarity"] = report.to_dict()
        checks.append(_check("stationarity_iff_zero_loss", report.ok,
                             checked=sum(entry["conditions_hold"] for entry in report.layers)))
    block["checks"] = checks
    return block


def run_train(ctx: Context, params: dict) -> dict:
    T = params["samples"]
    # the train block's other keys are TrainConfig's field names
    cfg = landscape.TrainConfig(**{k: v for k, v in params.items() if k != "samples"})
    result = landscape.train_gd(ctx.spec, ctx.bank, _training_set(ctx, "train-data", T), cfg)
    monotone = all(a >= b for a, b in zip(result.losses, result.losses[1:]))
    if ctx.outdir is not None:
        with open(os.path.join(ctx.outdir, "loss_curve.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "loss", "grad_norm"])
            for it, value in enumerate(result.losses):
                gn = result.grad_norms[it] if it < len(result.grad_norms) else ""
                writer.writerow([it, repr(value), repr(gn) if gn != "" else ""])
    return {
        "training_samples": T,
        "iterations_run": len(result.losses) - 1,
        "backtracks": result.backtracks,
        "initial_loss": result.losses[0],
        "final_loss": result.losses[-1],
        "stop_reason": result.stop_reason,
        "converged": result.converged,
        "monotone": monotone,
        "losses": result.losses,
        "grad_norms": result.grad_norms,
        "certificates": [
            {"iteration": it, "certificates": [c.to_dict() for c in certs]}
            for it, certs in result.certificates
        ],
        "checks": [_check("monotone_descent", monotone)],
    }


# ---------------------------------------------------------------------------
# the analysis table


@dataclasses.dataclass(frozen=True)
class Analysis:
    """An analysis: its runner, subcommand, help text and parameter schema.

    ``shared`` names the blocks, besides ``bank`` and its own, whose flags
    its subcommand also takes; a ``seeded`` analysis draws from the seed,
    so a config that runs it needs one.
    """

    runner: Callable[[Context, dict], dict]
    command: str
    help: str
    params: tuple = ()
    shared: tuple = ()
    seeded: bool = True


REGISTRY = {
    "frames": Analysis(run_frames, "verify-frames", "frame-condition residual table",
                       seeded=False),
    "reconstruct": Analysis(run_reconstruct, "reconstruct", "perfect-reconstruction error", (
        Field("count", "count", 100, low=1, flag="--samples"),
        Field("no_relu", "bool", False, flag="--no-relu"),
    )),
    "identity": Analysis(run_identity, "identity", "linear-representation identity", (
        Field("count", "count", 100, low=1, flag="--samples"),
    )),
    "regions": Analysis(run_regions, "regions", "activation-pattern census",
                        shared=("sampler",)),
    "lipschitz": Analysis(run_lipschitz, "lipschitz", "region Lipschitz constants",
                          shared=("sampler",)),
    "jacobian": Analysis(run_jacobian, "jacobian", "analytic vs finite-difference Jacobian", (
        Field("count", "count", 50, low=1, flag="--count"),
        Field("margin", "real", 1e-4, low=0.0, flag="--margin"),
        Field("step", "real", 1e-6, low=0.0, strict=True, flag="--step"),
    )),
    "landscape": Analysis(run_landscape, "landscape", "gradient bound certificates", (
        Field("samples", "count", 2, low=1, flag="--samples"),
    )),
    "train": Analysis(run_train, "train", "gradient-descent demonstration", (
        Field("samples", "count", 2, low=1, flag="--samples"),
        Field("step_size", "real", 0.25, low=0.0, strict=True, flag="--step-size"),
        Field("iterations", "count", 200, low=1, flag="--iterations"),
        Field("checkpoint_every", "count", 0, low=0, flag="--checkpoint-every"),
        Field("stop_loss", "real", 0.0, flag="--stop-loss"),
    )),
}

ANALYSES = tuple(REGISTRY)

#: every config block with a schema: the shared blocks, then one per analysis
SCHEMAS = {
    "bank": (
        Field("source", "choice", None, choices=("frame_factory", "random", "file"),
              flag="--bank"),
        Field("path", "text", None, flag="--bank-path"),
        Field("alpha", "real", 1.0, low=0.0, strict=True, flag="--alpha"),
        Field("pooling", "choice", "orthogonal", choices=frames.POOLINGS, flag="--pooling"),
        Field("scale", "real", 1.0, flag="--scale"),
    ),
    "sampler": (
        Field("count", "count", 1000, low=1, flag="--samples"),
    ),
    "tolerances": tuple(Field(key, "real", default, low=0.0) for key, default in (
        ("frames", 1e-10), ("reconstruct", 1e-10), ("identity", 1e-10),
        ("lipschitz_slack", 1e-8), ("jacobian", 1e-5), ("sandwich_slack", 1e-8),
        ("stationarity_grad", 1e-12), ("stationarity_loss_floor", 1e-6),
    )),
    **{name: entry.params for name, entry in REGISTRY.items()},
}

#: the config's top-level keys; each block of SCHEMAS is a JSON object under its name
TOP_LEVEL = (
    Field("seed", "count"),
    Field("output_dir", "text"),
    Field("network", "object", REQUIRED),
    Field("analyses", "names", REQUIRED, low=1, choices=ANALYSES),
    Field("enforce", "names", (), choices=ANALYSES),
    *(Field(block, "object", REQUIRED if block == "bank" else {}) for block in SCHEMAS),
)


# ---------------------------------------------------------------------------
# experiment orchestration


def execute(cfg: dict, outdir: str | None) -> tuple:
    """Run every requested analysis in declared order; returns (report, failures)."""
    top = _fields(TOP_LEVEL, "", cfg)
    spec = _build_spec(top["network"])
    seed, names, enforce = top["seed"], top["analyses"], top["enforce"]
    for name in enforce:
        if name not in names:
            raise ConfigError(f"config field 'enforce': {name!r} is not in 'analyses'")
    params = {name: validate(name, top[name]) for name in ANALYSES}
    if top["sampler"] and seed is None:
        raise ConfigError("config field 'seed' is required when a sampler is used")
    if seed is None and any(REGISTRY[name].seeded for name in names):
        raise ConfigError("config field 'seed' is required for the requested analyses")
    sampler = validate("sampler", top["sampler"])
    tolerances = validate("tolerances", top["tolerances"])
    bank, bank_params = _build_bank(cfg, spec, seed)
    census_config = None if seed is None else analysis.CensusConfig(
        count=sampler["count"], seed=derive(seed, "census"))
    ctx = Context(spec, bank, tolerances, seed, outdir, census_config, bank_params["alpha"])

    results = {}
    timings = {}
    # an overflowing net makes inf and NaN, which every check fails on and
    # every matrix check names; numpy's warnings about them would only print
    # source lines first.  They are filtered rather than switched off with
    # np.errstate, under which small ufunc calls run ~2 % slower (numpy 2.4)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "(overflow|invalid value) encountered",
                                RuntimeWarning)
        for name in names:
            start = time.perf_counter()
            results[name] = REGISTRY[name].runner(ctx, params[name])
            timings[name] = time.perf_counter() - start

    failures = [f"{name}:{check['name']}" for name in names if name in enforce
                for check in results[name]["checks"] if not check["passed"]]
    bank_info = {"source": bank_params["source"]}
    if bank_params["source"] in ("frame_factory", "random"):
        bank_info["derived_seed"] = derive(seed, "bank")
    report = {
        "version": __version__,
        "config": cfg,
        "seed": seed,
        "bank": bank_info,
        "network": spec.to_dict(),
        "dims": {"d": list(spec.d), "s": list(spec.s)},
        "results": results,
        "enforced": list(enforce),
        "failures": failures,
        "timings": timings,
    }
    return report, failures


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):  # numpy scalars and arrays
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _region_json(rows, depth: int, first_sample: bool):
    """The text ``json.dump(indent=1)`` gives a census's region list whose key
    sits ``depth`` spaces in: each entry with its leading '[' or ',', then
    the close.  A row is (pattern_hex, count, the constant in JSON's
    spelling), plus first_sample when ``first_sample`` is set; a pattern is
    hex, so it needs no escaping."""
    pad = " " * depth
    start, count, lip = (f'\n{pad} {{\n{pad}  "pattern": "', f'",\n{pad}  "count": ',
                         f',\n{pad}  "lipschitz": ')
    first, end = f',\n{pad}  "first_sample": ', f"\n{pad} }}"
    sep = "["
    for row in rows:  # f-strings of fixed pieces: ~20 % faster than a %-template
        tail = f"{first}{row[3]}{end}" if first_sample else end
        yield f"{sep}{start}{row[0]}{count}{row[1]}{lip}{row[2]}{tail}"
        sep = ","
    yield "[]" if sep == "[" else f"\n{pad}]"


def _census_rows(block: dict):
    """The :func:`_region_json` rows of a census block's region entries."""
    for reg in block["regions"]:
        lip = float.__repr__(reg["lipschitz"])
        yield reg["pattern"], reg["count"], _JSON_FLOAT.get(lip, lip)


def _with_regions(obj: dict, path: tuple, regions) -> dict:
    """A copy of ``obj`` whose census block at key path ``path`` holds ``regions``."""
    if not path:
        return {**obj, "regions": regions}
    return {**obj, path[0]: _with_regions(obj[path[0]], path[1:], regions)}


def _write_json(fh, obj: dict, path: tuple, rows, first_sample: bool = False) -> None:
    """``json.dump(obj, fh, indent=1)`` and a newline, with the region list of
    the census block at key path ``path`` rendered from ``rows`` by
    :func:`_region_json`.  The rest of ``obj`` is dumped with a marker
    string in the list's place and split around it, so only that rest is
    built as a string.  A string equal to the marker would be dumped the same
    way, so the marker is one the rest does not hold."""
    for n in itertools.count():
        marker = f"<regions {n}>"
        head, *tail = json.dumps(_with_regions(obj, path, marker), indent=1,
                                 default=_json_default).split(f'"{marker}"')
        if len(tail) == 1:
            break
    fh.write(head)
    fh.writelines(_region_json(rows, len(path) + 1, first_sample))
    fh.write(tail[0] + "\n")


def write_report(report: dict, outdir: str) -> str:
    """``report.json``: ``json.dump(report, indent=1)`` and a newline, with the
    census's region list, the bulk of the file, streamed."""
    path = os.path.join(outdir, "report.json")
    census = report["results"].get("regions")
    with open(path, "w") as fh:
        if census is None:
            json.dump(report, fh, indent=1, default=_json_default)
            fh.write("\n")
        else:
            _write_json(fh, report, ("results", "regions"), _census_rows(census))
    return path


def _resolve_outdir(explicit: str | None) -> str:
    outdir = explicit or os.environ.get(OUTDIR_ENV) or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir!r}: {exc.strerror}") from exc
    return outdir


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    outdir = _resolve_outdir(args.out or _fields(TOP_LEVEL, "", cfg)["output_dir"])
    report, failures = execute(cfg, outdir)
    path = write_report(report, outdir)
    for name, block in report["results"].items():
        for check in block.get("checks", []):
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{status} {name}:{check['name']}")
    print(f"report written to {path}")
    if failures:
        print(f"enforced checks failed: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# one-shot subcommands: one analysis on a spec file


def _load_spec_file(path: str) -> netbuild.NetworkSpec:
    data = _read_json(path, "spec")
    try:
        return _build_spec(_value(Field("network", "object"), data, "network"))
    except ConfigError as exc:
        raise ConfigError(f"spec file {path}: {exc}") from exc


def cmd_analysis(args) -> int:
    """Run ``args.analysis`` alone; its block goes to stdout, the report to --out."""
    cfg = {
        "seed": args.seed,
        "network": _load_spec_file(args.spec).to_dict(),
        "bank": {},
        "analyses": [args.analysis],
    }
    # a schema flag's dest is "<block>.<key>"; an absent flag leaves the
    # default, the schema's or the subcommand's (SUBCOMMAND_DEFAULTS)
    for dest, value in vars(args).items():
        block, dot, key = dest.partition(".")
        if dot and value is not None:
            cfg.setdefault(block, {})[key] = value
    if args.enforce:
        cfg["enforce"] = [args.analysis]
    outdir = _resolve_outdir(args.out) if args.out else None
    report, failures = execute(cfg, outdir)
    block = report["results"][args.analysis]
    if args.analysis == "regions":
        _write_json(sys.stdout, block, (), _census_rows(block))
    else:
        print(json.dumps(block, indent=1, default=_json_default))
    if outdir:
        write_report(report, outdir)
    return 2 if failures else 0


def _check_report(report, path: str) -> None:
    """Raise ConfigError naming the first part of ``report`` that the pretty
    printer cannot read as a ``report.json``."""
    def bad(where: str, want: str, value):
        raise ConfigError(f"{path} is not a framelets report: {where} must be "
                          f"{want}, got {value!r}")

    if not isinstance(report, dict):
        bad("the top level", "a JSON object", report)
    if not isinstance(report.get("network", {}), dict):
        bad("field 'network'", "a JSON object", report["network"])
    # a config file, say, has no results; "enforced failures: none" would mislead
    if not isinstance(report.get("results"), dict):
        bad("field 'results'", "a JSON object", report.get("results"))
    for name, block in report["results"].items():
        if not isinstance(block, dict):
            bad(f"field 'results.{name}'", "a JSON object", block)
        checks = block.get("checks", [])
        if not isinstance(checks, list):
            bad(f"field 'results.{name}.checks'", "a list", checks)
        for i, check in enumerate(checks):
            where = f"results.{name}.checks[{i}]"
            if not (isinstance(check, dict) and "name" in check and "passed" in check):
                bad(f"field '{where}'", "a JSON object with 'name' and 'passed'", check)
            for key, value in check.items():  # the evidence: every field but these two
                if key not in ("name", "passed") and (
                        isinstance(value, bool) or not isinstance(value, (int, float))):
                    bad(f"field '{where}.{key}'", "a number", value)


def cmd_report(args) -> int:
    report = _read_json(args.report, "report")
    _check_report(report, args.report)
    print(f"framelets report (version {report.get('version', '?')})")
    print(f"seed: {report.get('seed')}")
    net = report.get("network", {})
    if net:
        print(
            f"network: kappa={net.get('kappa')} r={net.get('r')} q={net.get('q')} "
            f"m={net.get('m')} skip={net.get('skip')} "
            f"nonlinearity={net.get('nonlinearity')}"
        )
    for name, block in report.get("results", {}).items():
        print(f"\n[{name}]")
        for key, value in block.items():
            if not isinstance(value, (list, dict)):  # checks, curves, regions, ...
                print(f"  {key:<24} {value}")
        for check in block.get("checks", []):
            status = "PASS" if check["passed"] else "FAIL"
            evidence = []  # every field but these two: counts as integers
            for key, value in check.items():
                if key not in ("name", "passed"):
                    fmt = ".1e" if key == "tol" else "d" if isinstance(value, int) else ".3e"
                    evidence.append(f"{key}={value:{fmt}}")
            print(f"  {status} {check['name']}  {' '.join(evidence)}".rstrip())
    failures = report.get("failures", [])
    print(f"\nenforced failures: {failures if failures else 'none'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # usage errors (unknown flags etc.) must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FLAG_TYPES = {"count": int, "real": float, "text": str, "choice": str}


#: a subcommand's own defaults for fields whose schema has none: the value
#: its flag parses to when absent, and the default its help names
SUBCOMMAND_DEFAULTS = {"bank.source": "frame_factory"}


def _add_flag(p, block: str, field: Field) -> None:
    dest = f"{block}.{field.key}"
    default = SUBCOMMAND_DEFAULTS.get(dest)
    shown = field.default if default is None else default
    text = f"sets {dest}" + ("" if shown is None else f" (default {shown})")
    if field.kind == "bool":
        p.add_argument(field.flag, dest=dest, action="store_true", default=None, help=text)
    else:
        p.add_argument(field.flag, dest=dest, type=_FLAG_TYPES[field.kind], default=default,
                       choices=field.choices or None, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="framelets",
                     description="encoder-decoder framelet verification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a config-driven experiment")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out", help="output directory (overrides config/output_dir)")
    p.set_defaults(func=cmd_run)

    for name, entry in REGISTRY.items():
        p = sub.add_parser(entry.command, help=entry.help)
        p.add_argument("--spec", required=True, help="network spec JSON file")
        p.add_argument("--seed", type=int, default=0, help="global seed")
        p.add_argument("--out", help="also write report.json and side files here")
        p.add_argument("--enforce", action="store_true",
                       help="exit 2 when this analysis' checks fail")
        for block in ("bank", *entry.shared, name):
            for field in SCHEMAS[block]:
                if field.flag:
                    _add_flag(p, block, field)
        p.set_defaults(func=cmd_analysis, analysis=name)

    p = sub.add_parser("report", help="pretty-print a report.json")
    p.add_argument("report")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, landscape.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
