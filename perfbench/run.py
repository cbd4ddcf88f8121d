"""framelets benchmark: time to a PASS/FAIL verdict on desk-scale workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-d16 --seed 1 --seconds 20 --trace 0

Workloads are listed in ``perfbench/workloads.py``.  With ``--trace 0`` the
run reports the end-to-end metrics:

    verdict_s    seconds of one ``framelets run`` equivalent (``cli.execute``
                 + ``cli.write_report``, side files included): the median
                 over the run's configs of each config's median verdict
    setup_s      median over fresh processes of ``import framelets``, bank
                 construction and a first ``netbuild.realize``
    peak_rss_mb  peak resident memory of the measuring process

Both times are seconds at the nominal pace of ``perfbench/pace.py``: a
reference kernel sampled all through each measurement takes out the
slow-down that other work on a shared machine causes.

With ``--trace 1`` it reports the per-layer metrics of ``perfbench/layers.py``
from one extra traced verdict.  Every verdict goes through the correctness gate of
``worker.Gate``; ``failed``/``attempted`` in the result is the failed share.

Each measurement runs in a fresh single process with BLAS pinned to one
thread and ``src/`` on the path, one process at a time.  The last line of
standard output is the result as JSON; the line before it records the
provenance (machine, library versions, seeds).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: fresh processes timed for setup_s, after one that is discarded
SETUP_PROBES = 10
#: wall-clock budget of a whole run
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def worker(args: list, deadline: float) -> dict:
    """Run the worker to completion; relay its output and return its result."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} ran out of time") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(args) -> tuple:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work)
    try:
        setups = []
        if not args.trace:
            setups = [worker(["setup", "--workload", args.workload], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES + 1)][1:]
        run = worker(["run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--workdir", workdir], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work.iterdir()):
            work.rmdir()
    src = (ROOT / "src").resolve()
    if src not in Path(run["framelets"]).resolve().parents:
        raise BenchError(f"framelets was imported from {run['framelets']}, not from {src}")
    return setups, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "framelets" / "__init__.py").is_file():
        print(f"perfbench: no framelets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, run = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for problem in run["problems"]:
        print(f"FAIL {problem}")
    print(f"{args.workload} seed {args.seed}: {run['verdicts']} verdicts over "
          f"{len(run['configs'])} configs in {run['passes']} passes; "
          f"{run['failed']} of {run['attempted']} gated items failed")
    if args.trace:
        from layers import UNITS

        metrics = {name: {"value": run["per_layer"][name], "unit": unit}
                   for name, unit in UNITS.items()}
    else:
        values = {"verdict_s": run["verdict_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": run["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
    if setups:
        per_config = ", ".join(f"{t:.4g}" for t in run["config_verdict_s"])
        print(f"  (verdict_s: median over {len(run['configs'])} configs of the median of "
              f"{run['passes']} passes, per config {per_config}; "
              f"setup_s: median of {len(setups)} processes)")
    prov = {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
            "config_seeds": run["configs"], **run["provenance"]}
    print("provenance " + json.dumps(prov))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
