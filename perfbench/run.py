"""Benchmark for the partitioning advisor service and the reproduction pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-rpc --seed 1 --seconds 10 --trace 0

Workloads: ``serve-rpc`` and ``pipeline`` (see ``perfbench/NOTES.md``).  The program is driven only
from outside: servers are ``python -m repro.service`` processes loaded
over sockets, the pipeline runs in child processes through its public
functions.  Every program process runs in a process group this script
stops before it returns.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".state"

WORKLOADS = ("serve-rpc", "pipeline")


class Context:
    """What a workload needs: paths, environments, its process groups."""

    def __init__(self, args, programs, run_dir: pathlib.Path) -> None:
        self.root = ROOT
        self.python = sys.executable
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.programs = programs
        self.run_dir = run_dir
        self.nproc = len(os.sched_getaffinity(0))
        self.sweep_dir = STATE / "sweep-cache"
        self.trace_dir = STATE / "traces"
        self.sweep_dir.mkdir(parents=True, exist_ok=True)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.env = program_env(run_dir / "cache")
        self.sweep_env = program_env(self.sweep_dir)

    @staticmethod
    def log(message: str) -> None:
        print(message, flush=True)


def program_env(cache_dir: pathlib.Path) -> dict:
    """The caller's environment minus every ``REPRO_*`` override, with
    the checkout's sources on the path and a SimCache the benchmark owns."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _interrupt(signum, _frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    import procs

    procs.become_subreaper()
    signal.signal(signal.SIGTERM, _interrupt)
    token = procs.new_token()
    run_dir = STATE / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # in-process checks and replays use the same hermetic environment
    os.environ.clear()
    os.environ.update(program_env(run_dir / "cache"))
    sys.path.insert(0, str(ROOT / "src"))

    try:
        with procs.Programs(token) as programs:
            ctx = Context(args, programs, run_dir)
            if args.workload == "pipeline":
                import pipeline

                result = pipeline.run(ctx)
            else:
                import serve

                result = serve.run(ctx)
    finally:
        procs.reap_orphans()
        left = procs.survivors(token)
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        shutil.rmtree(run_dir, ignore_errors=True)
    if left:
        print(f"FAILED: program processes {left} outlived the workload", flush=True)
        result["failed"] += len(left)

    if args.trace:
        # a layer the workload does not exercise reports 0
        values = {m["name"]: result["per_layer"].get(m["name"], 0.0) for m in wanted}
    else:
        values = {m["name"]: result["end_to_end"][m["name"]] for m in wanted}
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
