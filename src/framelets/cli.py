"""Command-line surface: config-driven runs and one-shot subcommands.

``framelets run config.json`` executes the analyses declared in the
config in order and writes ``report.json`` plus CSV side files into the
output directory.  Re-running with an identical config and seed yields a
byte-identical report except for the ``timings`` block.  Exit codes:
0 success, 1 usage or config error, 2 when an enforced check failed.

Every subcommand maps one-to-one onto a module operation with flags
mirroring the config fields; ``framelets report`` pretty-prints a report
file as a table.  All randomness derives from the single global seed by
stable hashing of (seed, component name), so independent analyses could
be dispatched concurrently without changing any result.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import numbers
import os
import sys
import time

import numpy as np

from . import __version__, analysis, frames, landscape, netbuild
from .seeding import derive, rng

ANALYSES = (
    "frames",
    "reconstruct",
    "identity",
    "regions",
    "lipschitz",
    "jacobian",
    "landscape",
    "train",
)

DEFAULT_TOLERANCES = {
    "frames": 1e-10,
    "reconstruct": 1e-10,
    "identity": 1e-10,
    "lipschitz_slack": 1e-8,
    "jacobian": 1e-5,
    "sandwich_slack": 1e-8,
    "stationarity_grad": 1e-12,
    "stationarity_loss_floor": 1e-6,
}

OUTDIR_ENV = "FRAMELETS_OUTDIR"


class ConfigError(ValueError):
    """Malformed config; the message names the offending field."""


# ---------------------------------------------------------------------------
# config handling


def _field(cfg: dict, path: str, default=None, required: bool = False):
    cur = cfg
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if required:
                raise ConfigError(f"missing required config field '{path}'")
            return default
        cur = cur[part]
    return cur


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _build_spec(cfg: dict) -> netbuild.NetworkSpec:
    net = _field(cfg, "network", required=True)
    try:
        return netbuild.NetworkSpec.from_dict(net)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'network': {exc}") from exc


def _block(cfg: dict, path: str, required: bool = False) -> dict:
    """A config field holding a JSON object; an absent optional one is {}."""
    value = _field(cfg, path, default={}, required=required)
    if not isinstance(value, dict):
        raise ConfigError(f"config field '{path}' must be a JSON object, got {value!r}")
    return value


def _build_bank(cfg: dict, spec: netbuild.NetworkSpec, seed):
    bank_cfg = _block(cfg, "bank", required=True)
    alpha = _real(bank_cfg, "bank", "alpha", 1.0, low=0.0, strict=True)
    scale = _real(bank_cfg, "bank", "scale", 1.0)
    source = bank_cfg.get("source")
    if source == "frame_factory":
        if seed is None:
            raise ConfigError("config field 'seed' is required for a frame_factory bank")
        fc = frames.FrameConfig.for_spec(
            spec,
            alpha=alpha,
            seed=derive(seed, "bank"),
            pooling=bank_cfg.get("pooling", "orthogonal"),
        )
        return frames.frame_bank(spec, fc), fc
    if source == "random":
        if seed is None:
            raise ConfigError("config field 'seed' is required for a random bank")
        return netbuild.random_bank(spec, seed=derive(seed, "bank"), scale=scale), None
    if source == "file":
        path = bank_cfg.get("path")
        if not path or not os.path.exists(path):
            raise ConfigError(f"config field 'bank.path': file {path!r} does not exist")
        bank = netbuild.load_bank(path)
        netbuild.validate_bank(spec, bank)
        return bank, None
    raise ConfigError(
        f"config field 'bank.source': expected frame_factory|random|file, got {source!r}"
    )


def _count(params: dict, name: str, key: str, default: int, low: int = 1) -> int:
    """An integer parameter >= low; a count below 1 would make a check vacuous."""
    value = params.get(key, default)
    if not netbuild._integral(value) or value < low:
        raise ConfigError(
            f"config field '{name}.{key}' must be an integer >= {low}, got {value!r}"
        )
    return int(value)


def _real(params: dict, name: str, key: str, default: float,
          low: float = -np.inf, strict: bool = False) -> float:
    """A finite real parameter, >= low (> low when strict)."""
    value = params.get(key, default)
    # abs() rejects integers beyond the float range; NaN fails every comparison
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (value > low if strict else value >= low)):
        bound = f" {'>' if strict else '>='} {low:g}" if low > -np.inf else ""
        raise ConfigError(
            f"config field '{name}.{key}' must be a finite number{bound}, got {value!r}"
        )
    return float(value)


def _tolerances(cfg: dict) -> dict:
    tols = dict(DEFAULT_TOLERANCES)
    overrides = _block(cfg, "tolerances")
    for key in overrides:
        if key not in tols:
            raise ConfigError(f"config field 'tolerances.{key}': unknown tolerance")
        tols[key] = _real(overrides, "tolerances", key, None)
    return tols


# ---------------------------------------------------------------------------
# analysis runners; each returns a JSON-ready block with a "checks" list


def _worst(values: list) -> float:
    """Largest value (0.0 for none), NaN if any is NaN; Python's max skips NaN."""
    return float(np.max(values)) if values else 0.0


def _check(name: str, passed: bool, **extra) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(extra)
    return entry


def run_frames(spec, bank, params, tolerances) -> dict:
    alpha = _real(params, "frames", "alpha", 1.0, low=0.0, strict=True)
    mode = params.get("mode", "skip" if spec.skip else "no_skip")
    cfg = frames.FrameConfig(alpha=alpha, mode=mode, seed=0)
    residuals = frames.frame_residual(spec, bank, cfg)
    worst = _worst(
        [value for entry in residuals for key, value in entry.items() if key != "layer"]
    )
    tol = tolerances["frames"]
    return {
        "alpha": alpha,
        "mode": mode,
        "residuals": residuals,
        "max_residual": worst,
        "checks": [_check("frame_residuals", worst <= tol, value=worst, tol=tol)],
    }


def run_reconstruct(spec, bank, params, tolerances, seed) -> dict:
    count = _count(params, "reconstruct", "count", 100)
    no_relu = params.get("no_relu", False)
    if not isinstance(no_relu, bool):
        raise ConfigError(
            f"config field 'reconstruct.no_relu' must be true or false, got {no_relu!r}"
        )
    eval_spec = dataclasses.replace(spec, nonlinearity="none") if no_relu else spec
    mats = netbuild.realize(eval_spec, bank)
    gen = rng(seed, "reconstruct")
    errors = []
    for _ in range(count):
        x = gen.standard_normal(spec.d[0])
        y = netbuild.forward_matrices(eval_spec, mats, x).y
        errors.append(np.linalg.norm(y - x) / np.linalg.norm(x))
    worst = _worst(errors)
    tol = tolerances["reconstruct"]
    return {
        "samples": count,
        "no_relu": no_relu,
        "max_relative_error": worst,
        "checks": [_check("perfect_reconstruction", worst <= tol, value=worst, tol=tol)],
    }


def run_identity(spec, bank, params, tolerances, seed) -> dict:
    count = _count(params, "identity", "count", 100)
    mats = netbuild.realize(spec, bank)
    gen = rng(seed, "identity")
    errors = []
    for _ in range(count):
        x = gen.standard_normal(spec.d[0])
        trace = netbuild.forward_matrices(spec, mats, x)
        y = trace.y
        rep = analysis.linear_rep(spec, mats, pattern=analysis.pattern_from_trace(spec, trace))
        errors.append(np.linalg.norm(rep.matrix() @ x - y) / max(np.linalg.norm(y), 1e-300))
    worst = _worst(errors)
    tol = tolerances["identity"]
    return {
        "samples": count,
        "max_relative_error": worst,
        "checks": [_check("linear_representation", worst <= tol, value=worst, tol=tol)],
    }


def run_regions(census, outdir) -> dict:
    block = census.to_dict(include_representatives=False)
    block["checks"] = [
        _check("census_within_bound", census.distinct <= census.nrep,
               distinct=census.distinct, nrep=census.nrep)
    ]
    if outdir is not None:
        with open(os.path.join(outdir, "census.json"), "w") as fh:
            json.dump(census.to_dict(include_representatives=True), fh, indent=1)
            fh.write("\n")
        with open(os.path.join(outdir, "regions.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pattern", "count", "lipschitz"])
            for reg in census.regions:
                writer.writerow([reg.pattern_hex, reg.count, repr(reg.lipschitz)])
        with open(os.path.join(outdir, "region_lipschitz.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["region", "lipschitz"])
            for idx, reg in enumerate(census.regions):
                writer.writerow([idx, repr(reg.lipschitz)])
    return block


def run_lipschitz(spec, mats, census, tolerances) -> dict:
    slack = tolerances["lipschitz_slack"]
    # the pair inequality on the first four sampled inputs of each region
    # (the map is linear there, so no segment condition); a region seen
    # once has no pair.  One stacked forward serves every region's inputs.
    repeated = [reg for reg in census.regions if reg.count >= 2]
    xs = [x for reg in repeated for x in reg.inputs[:4]]
    ys = iter(netbuild.forward_matrices(spec, mats, np.array(xs)).y if xs else ())
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


def run_jacobian(spec, bank, params, tolerances, seed) -> dict:
    count = _count(params, "jacobian", "count", 50)
    margin = _real(params, "jacobian", "margin", 1e-4, low=0.0)
    step = _real(params, "jacobian", "step", 1e-6, low=0.0, strict=True)
    mats = netbuild.realize(spec, bank)
    gen = rng(seed, "jacobian")
    cap = 100 * count
    errors = []
    attempts = 0
    # one forward per block of candidates; a block never holds more rows
    # than inputs still needed, so ``attempts`` ends at the last accepted
    # draw, as drawing one at a time would.  A NaN margin (an overflowing
    # forward pass) is accepted, so the check fails on a NaN error.  The
    # analytic Jacobians are the region maps of the accepted rows' mask rows.
    while len(errors) < count and attempts < cap:
        block = gen.standard_normal((min(count - len(errors), cap - attempts), spec.d[0]))
        trace = netbuild.forward_matrices(spec, mats, block)
        attempts += len(block)
        accepted = [i for i, got in enumerate(analysis.trace_margin(spec, trace))
                    if not got < margin]
        bits = analysis.pattern_from_trace(spec, trace).bits()[accepted]
        del trace  # the maps and stencils below peak higher with the block's trace alive
        maps = analysis.region_maps(spec, mats, bits)
        for i, J in zip(accepted, maps):
            Jfd = analysis.fd_jacobian(spec, mats, block[i], step=step)
            errors.append(np.linalg.norm(J - Jfd) / max(np.linalg.norm(Jfd), 1e-300))
    if len(errors) < count:
        raise ConfigError(
            f"could not find {count} margin-safe inputs (margin {margin:g}): "
            f"accepted {len(errors)} of {attempts} draws; lower jacobian.margin"
        )
    worst = _worst(errors)
    tol = tolerances["jacobian"]
    return {
        "instances": count,
        "attempts": attempts,
        "margin": margin,
        "step": step,
        "max_relative_error": worst,
        "checks": [_check("jacobian_fd_match", worst <= tol, value=worst, tol=tol)],
    }


def run_landscape(spec, bank, params, tolerances, seed) -> dict:
    T = _count(params, "landscape", "samples", 2)
    mats = netbuild.realize(spec, bank)
    gen = rng(seed, "landscape-data")
    data = landscape.TrainingSet(
        X=gen.standard_normal((spec.d[0], T)),
        Y=gen.standard_normal((spec.d[0], T)),
    )
    slack = tolerances["sandwich_slack"]
    certs = []
    if spec.skip:
        certs = [landscape.certify_bounds_skip(spec, mats, data, l)
                 for l in range(1, spec.kappa + 1)]
    certs.append(landscape.certify_bounds_enc(spec, mats, data))
    checks = []
    sandwich_ok = True
    for cert in certs:
        if not cert.applicable:
            continue
        scale = max(cert.upper, 1e-300)
        holds = (cert.lower <= cert.grad_norm + slack * scale
                 and cert.grad_norm <= cert.upper + slack * scale)
        sandwich_ok = sandwich_ok and holds
    checks.append(_check("gradient_sandwich", sandwich_ok, tol=slack))
    block = {
        "training_samples": T,
        "loss": certs[-1].loss,
        "certificates": [cert.to_dict() for cert in certs],
    }
    if spec.skip:
        report = landscape.check_stationarity(
            spec, mats, data,
            pos_tol=tolerances["stationarity_grad"],
            loss_floor=tolerances["stationarity_loss_floor"],
        )
        block["stationarity"] = report.to_dict()
        checks.append(_check("stationarity_iff_zero_loss", report.ok))
    block["checks"] = checks
    return block


def run_train(spec, bank, params, tolerances, seed, outdir) -> dict:
    T = _count(params, "train", "samples", 2)
    gen = rng(seed, "train-data")
    data = landscape.TrainingSet(
        X=gen.standard_normal((spec.d[0], T)),
        Y=gen.standard_normal((spec.d[0], T)),
    )
    cfg = landscape.TrainConfig(
        step_size=_real(params, "train", "step_size", 0.25, low=0.0, strict=True),
        iterations=_count(params, "train", "iterations", 200),
        checkpoint_every=_count(params, "train", "checkpoint_every", 0, low=0),
        stop_loss=_real(params, "train", "stop_loss", 0.0),
    )
    result = landscape.train_gd(spec, bank, data, cfg)
    monotone = all(a >= b for a, b in zip(result.losses, result.losses[1:]))
    if outdir is not None:
        with open(os.path.join(outdir, "loss_curve.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "loss", "grad_norm"])
            for it, value in enumerate(result.losses):
                gn = result.grad_norms[it] if it < len(result.grad_norms) else ""
                writer.writerow([it, repr(value), repr(gn) if gn != "" else ""])
    return {
        "training_samples": T,
        "iterations_run": len(result.losses) - 1,
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
# experiment orchestration


def execute(cfg: dict, outdir: str | None) -> tuple:
    """Run every requested analysis in declared order; returns (report, failures)."""
    spec = _build_spec(cfg)
    seed = _field(cfg, "seed")
    if seed is not None:
        if not netbuild._integral(seed):
            raise ConfigError(f"config field 'seed' must be an integer, got {seed!r}")
        seed = int(seed)
    names = _field(cfg, "analyses", required=True)
    if not isinstance(names, list) or not names:
        raise ConfigError("config field 'analyses' must be a nonempty list")
    for name in names:
        if name not in ANALYSES:
            raise ConfigError(
                f"config field 'analyses': unknown analysis {name!r} "
                f"(recognized: {', '.join(ANALYSES)})"
            )
    sampler = _block(cfg, "sampler")
    blocks = {name: _block(cfg, name) for name in names}
    if sampler and seed is None:
        raise ConfigError("config field 'seed' is required when a sampler is used")
    needs_sampler_seed = {"reconstruct", "identity", "regions", "lipschitz",
                          "jacobian", "landscape", "train"}
    if seed is None and needs_sampler_seed & set(names):
        raise ConfigError("config field 'seed' is required for the requested analyses")
    tolerances = _tolerances(cfg)
    enforce = _field(cfg, "enforce", default=[])
    if not isinstance(enforce, list):
        raise ConfigError("config field 'enforce' must be a list of analysis names")
    for name in enforce:
        if name not in ANALYSES:
            raise ConfigError(f"config field 'enforce': unknown analysis {name!r}")
    bank, _ = _build_bank(cfg, spec, seed)

    results = {}
    timings = {}
    census = None
    for name in names:
        params = blocks[name]
        start = time.perf_counter()
        if name == "frames":
            bank_params = dict(_block(cfg, "bank"))
            bank_params.update(params)
            block = run_frames(spec, bank, bank_params, tolerances)
        elif name == "reconstruct":
            block = run_reconstruct(spec, bank, params, tolerances, seed)
        elif name == "identity":
            block = run_identity(spec, bank, params, tolerances, seed)
        elif name in ("regions", "lipschitz"):
            # one census per run, built (and timed) by the first of the two
            if census is None:
                mats = netbuild.realize(spec, bank)
                census = analysis.region_census(spec, mats, analysis.CensusConfig(
                    count=_count(sampler, "sampler", "count", 1000),
                    distribution=sampler.get("distribution", "gaussian"),
                    seed=derive(seed, "census"),
                ))
            if name == "regions":
                block = run_regions(census, outdir)
            else:
                block = run_lipschitz(spec, mats, census, tolerances)
        elif name == "jacobian":
            block = run_jacobian(spec, bank, params, tolerances, seed)
        elif name == "landscape":
            block = run_landscape(spec, bank, params, tolerances, seed)
        else:
            block = run_train(spec, bank, params, tolerances, seed, outdir)
        timings[name] = time.perf_counter() - start
        results[name] = block

    failures = []
    for name in names:
        for check in results[name].get("checks", []):
            if name in enforce and not check["passed"]:
                failures.append(f"{name}:{check['name']}")

    bank_cfg = _field(cfg, "bank", default={})
    bank_info = {"source": bank_cfg.get("source")}
    if bank_cfg.get("source") in ("frame_factory", "random"):
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


def write_report(report: dict, outdir: str) -> str:
    path = os.path.join(outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=_json_default)
        fh.write("\n")
    return path


def _resolve_outdir(explicit: str | None) -> str:
    outdir = explicit or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    return outdir


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    outdir = _resolve_outdir(args.out or _field(cfg, "output_dir"))
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
# one-shot subcommands (thin wrappers over the same runners)


def _load_spec_file(path: str) -> netbuild.NetworkSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        return netbuild.NetworkSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"spec file {path}: {exc}") from exc


def _bank_config_from_args(args) -> dict:
    if args.bank == "frame":
        return {"source": "frame_factory", "alpha": args.alpha, "pooling": args.pooling}
    if args.bank == "random":
        return {"source": "random", "scale": args.scale}
    if not args.bank_path:
        raise ConfigError("--bank file needs --bank-path")
    return {"source": "file", "path": args.bank_path}


def _single_analysis(args, name: str, params: dict) -> int:
    spec_dict = _load_spec_file(args.spec).to_dict()
    cfg = {
        "seed": args.seed,
        "network": spec_dict,
        "bank": _bank_config_from_args(args),
        "analyses": [name],
        name: params,
    }
    if name in ("regions", "lipschitz"):
        cfg["sampler"] = {"count": args.samples, "distribution": args.distribution}
    if args.enforce:
        cfg["enforce"] = [name]
    outdir = _resolve_outdir(args.out) if args.out else None
    report, failures = execute(cfg, outdir)
    block = report["results"][name]
    print(json.dumps(block, indent=1, default=_json_default))
    if outdir:
        write_report(report, outdir)
    return 2 if failures else 0


def cmd_verify_frames(args) -> int:
    params = {"alpha": args.alpha}
    if args.mode:
        params["mode"] = args.mode
    return _single_analysis(args, "frames", params)


def cmd_reconstruct(args) -> int:
    return _single_analysis(
        args, "reconstruct", {"count": args.samples, "no_relu": args.no_relu}
    )


def cmd_regions(args) -> int:
    return _single_analysis(args, "regions", {})


def cmd_lipschitz(args) -> int:
    return _single_analysis(args, "lipschitz", {})


def cmd_jacobian(args) -> int:
    return _single_analysis(
        args, "jacobian",
        {"count": args.count, "margin": args.margin, "step": args.step},
    )


def cmd_landscape(args) -> int:
    return _single_analysis(args, "landscape", {"samples": args.samples})


def cmd_train(args) -> int:
    return _single_analysis(
        args, "train",
        {
            "samples": args.samples,
            "step_size": args.step_size,
            "iterations": args.iterations,
            "checkpoint_every": args.checkpoint_every,
            "stop_loss": args.stop_loss,
        },
    )


def cmd_report(args) -> int:
    try:
        with open(args.report) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report {args.report}: {exc}") from exc
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
            if key in ("checks", "residuals", "certificates", "regions",
                       "stationarity"):
                continue
            print(f"  {key:<24} {value}")
        for check in block.get("checks", []):
            status = "PASS" if check["passed"] else "FAIL"
            detail = ""
            if "value" in check:
                detail = f"  value={check['value']:.3e}"
                if "tol" in check:
                    detail += f" tol={check['tol']:.1e}"
            print(f"  {status} {check['name']}{detail}")
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


def _add_bank_args(p):
    p.add_argument("--spec", required=True, help="network spec JSON file")
    p.add_argument("--bank", choices=("frame", "random", "file"), default="frame",
                   help="bank source (default frame factory)")
    p.add_argument("--bank-path", help="bank JSON file for --bank file")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="pooling frame constant (frame factory)")
    p.add_argument("--pooling", choices=("identity", "orthogonal"),
                   default="orthogonal", help="frame factory pooling kind")
    p.add_argument("--scale", type=float, default=1.0, help="random bank scale")
    p.add_argument("--seed", type=int, default=0, help="global seed")
    p.add_argument("--out", help="also write report.json and side files here")
    p.add_argument("--enforce", action="store_true",
                   help="exit 2 when this analysis' checks fail")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="framelets",
                     description="encoder-decoder framelet verification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a config-driven experiment")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out", help="output directory (overrides config/output_dir)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify-frames", help="frame-condition residual table")
    _add_bank_args(p)
    p.add_argument("--mode", choices=("no_skip", "skip"),
                   help="frame constant mode (default: follow spec skip flag)")
    p.set_defaults(func=cmd_verify_frames)

    p = sub.add_parser("reconstruct", help="perfect-reconstruction error")
    _add_bank_args(p)
    p.add_argument("--no-relu", action="store_true",
                   help="evaluate the linear network")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("regions", help="activation-pattern census")
    _add_bank_args(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--distribution", choices=("gaussian", "sphere"),
                   default="gaussian")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("lipschitz", help="region Lipschitz constants")
    _add_bank_args(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--distribution", choices=("gaussian", "sphere"),
                   default="gaussian")
    p.set_defaults(func=cmd_lipschitz)

    p = sub.add_parser("jacobian", help="analytic vs finite-difference Jacobian")
    _add_bank_args(p)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--margin", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-6)
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("landscape", help="gradient bound certificates")
    _add_bank_args(p)
    p.add_argument("--samples", type=int, default=2, help="training samples T")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("train", help="gradient-descent demonstration")
    _add_bank_args(p)
    p.add_argument("--samples", type=int, default=2, help="training samples T")
    p.add_argument("--step-size", type=float, default=0.25)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--stop-loss", type=float, default=0.0)
    p.set_defaults(func=cmd_train)

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
