"""Benchmark worker: the measurements, each in a fresh single process.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py run --workload W --seed N --seconds T --trace 0|1 --workdir D

``setup`` times ``import framelets``, building the workload's first bank
and a first ``netbuild.realize``.  ``run`` repeats ``framelets run`` verdicts over the
workload's configs for at least ``T`` seconds and, with ``--trace 1``,
adds one traced verdict.  Both print one JSON object as their last line.
``perfbench/run.py`` starts them with BLAS pinned to one thread and
``src/`` on the path; this file imports nothing from numpy before then.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from layers import per_layer_metrics
from pace import Pace
from tracer import Tracer
from workloads import BANK_SEEDS, bank_config, bank_path, make_configs

#: every config runs at least this often, so that repeats can be compared
MIN_PASSES = 2


def write_bank(workload: str, index: int, workdir: str) -> None:
    """Save bank ``index`` of the workload's pool where its configs read it."""
    from framelets import cli, netbuild

    cfg = bank_config(workload, index)
    spec = netbuild.NetworkSpec.from_dict(cfg["network"])
    netbuild.save_bank(spec, cli._build_bank(cfg, spec, cfg["seed"])[0],
                       bank_path(workdir, index))


def setup_seconds(cfg: dict) -> float:
    """Seconds at the nominal pace for the import, the bank and a first realize."""
    with Pace() as pace:
        from framelets import cli, netbuild

        spec = netbuild.NetworkSpec.from_dict(cfg["network"])
        netbuild.realize(spec, cli._build_bank(cfg, spec, cfg["seed"])[0])
    return pace.seconds


@dataclasses.dataclass
class Verdict:
    """One ``cli.execute`` + ``cli.write_report`` into a fresh directory.

    ``seconds`` is at the nominal pace of ``pace.Pace``.
    """

    seconds: float = 0.0
    report: dict | None = None
    digests: dict = dataclasses.field(default_factory=dict)
    error: str | None = None


def run_verdict(cfg: dict, workdir: str) -> Verdict:
    """Time one verdict; keep the report and a digest of every output file.

    The digest of ``report.json`` covers its body without ``timings``.
    """
    from framelets import cli

    outdir = tempfile.mkdtemp(dir=workdir)
    try:
        with Pace() as pace:
            try:
                report, _ = cli.execute(cfg, outdir)
                cli.write_report(report, outdir)
            except Exception as exc:  # the gate counts and names it
                where = [f.name[len("run_"):]
                         for f in traceback.extract_tb(exc.__traceback__)
                         if f.name.startswith("run_")]
                return Verdict(error=f"{where[-1] if where else 'execute'} raised "
                                     f"{type(exc).__name__}: {exc}")
        digests = {}
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                data = fh.read()
            if name == "report.json":
                body = json.loads(data)
                body.pop("timings")
                data = json.dumps(body, indent=1).encode()
            digests[name] = hashlib.sha256(data).hexdigest()
        return Verdict(seconds=pace.seconds, report=report, digests=digests)
    finally:
        shutil.rmtree(outdir)


class Gate:
    """Correctness gate: every check passes, every repeat is identical.

    ``attempted`` counts analyses, emitted checks and comparisons with the
    first verdict of the same config; ``failed`` those that raised, did not
    pass or differed.  ``problems`` names each failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def _fail(self, message: str):
        self.failed += 1
        self.problems.append(message)

    def check(self, label: str, cfg: dict, verdict: Verdict, reference: Verdict | None):
        analyses = len(cfg["analyses"])
        self.attempted += analyses
        if verdict.error is not None:
            self.failed += analyses - 1
            self._fail(f"{label}: {verdict.error}")
            return
        for name, block in verdict.report["results"].items():
            for check in block["checks"]:
                self.attempted += 1
                if not check["passed"]:
                    self._fail(f"{label}: check {name}:{check['name']} failed")
        if reference is not None and reference.error is None:
            self.attempted += 1
            names = sorted(reference.digests.keys() | verdict.digests.keys())
            differ = [n for n in names if reference.digests.get(n) != verdict.digests.get(n)]
            if differ:
                self._fail(f"{label}: {', '.join(differ)} differ from the first verdict")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def provenance() -> dict:
    """Library versions and the BLAS thread count of this process."""
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": _blas_threads(numpy),
    }


def _blas_threads(numpy):
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Closed loop over the run's configs, one verdict at a time.

    The pool's banks are written first, untimed.  Passes over all configs
    repeat until ``seconds`` have elapsed and at least MIN_PASSES are done.
    ``verdict_s`` is the median over configs of each config's median
    verdict at the nominal pace: every verdict feeds its own config's
    median, and configs of different cost are never pooled.  With four
    configs that is the mean of the middle two, so a config whose cost the
    seed makes extreme does not move it: in ``train-d16`` a config whose
    line search backtracks costs up to twice the others, which would move
    a mean over configs by a fifth.  The traced verdict reruns config 0
    and is compared with its first verdict.
    """
    import framelets

    for k in range(len(BANK_SEEDS)):
        write_bank(workload, k, workdir)
    configs = make_configs(workload, seed, workdir)
    gate = Gate()
    refs = [None] * len(configs)
    times = [[] for _ in configs]
    first_timings = []
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for k, cfg in enumerate(configs):
            verdict = run_verdict(cfg, workdir)
            gate.check(f"{workload}[{k}] pass {passes}", cfg, verdict, refs[k])
            if verdict.error is not None:
                continue
            refs[k] = refs[k] or verdict
            times[k].append(verdict.seconds)
            if k == 0:
                first_timings.append(verdict.report["timings"])
        passes += 1
    if not all(times):
        raise RuntimeError("a config had no successful verdict: " + "; ".join(gate.problems))
    result = {
        "framelets": framelets.__file__,
        "configs": [cfg["seed"] for cfg in configs],
        "passes": passes,
        "verdicts": sum(map(len, times)),
        "config_verdict_s": [statistics.median(t) for t in times],
    }
    result["verdict_s"] = statistics.median(result["config_verdict_s"])
    if trace:
        with Tracer() as tracer:  # also times the bank construction setup_s covers
            write_bank(workload, 0, workdir)
            traced = run_verdict(configs[0], workdir)
        gate.check(f"{workload}[0] traced", configs[0], traced, refs[0])
        if traced.error is not None:
            raise RuntimeError(f"traced verdict failed: {traced.error}")
        analysis_s = {name: statistics.median(t[name] for t in first_timings)
                      for name in first_timings[0]}
        result["per_layer"] = per_layer_metrics(
            tracer, traced.report, configs[0]["network"], analysis_s,
            traced.seconds, statistics.median(times[0]), gate.failed_frac)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=gate.attempted, failed=gate.failed, problems=gate.problems,
                  provenance=provenance())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = {"setup_s": setup_seconds(bank_config(args.workload, 0))}
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
