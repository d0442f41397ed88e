"""One pipeline phase in a fresh process: compile, execute, assemble.

Run as ``python perfbench/pipeline_child.py --phase cold|warm|import
--workers N --out result.json [--trace]`` with ``REPRO_CACHE_DIR``
pointing at the benchmark's own SimCache directory.  The phase goes
through the public ``compile_plan``, ``execute_plan`` and
``run_exhibit`` and writes its timings, the rendered exhibits' digest
and the dispatcher's statistics to ``--out``.  ``ready_monotonic`` is
the moment the pipeline modules were imported; the parent measures
set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

EXHIBITS = ("figure2", "figure3", "extension", "ablation")
EXTRA_RENDERS = 1


def _group_peak_rss_mb() -> float:
    from procs import group_members, peak_rss_mb

    return peak_rss_mb(group_members(os.getpgrp()))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=("cold", "warm", "import"), required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.experiments.__main__ import run_exhibit
    from repro.experiments.dispatch import execute_plan, shutdown_dispatchers
    from repro.experiments.plan import compile_plan

    out = {"ready_monotonic": time.monotonic()}
    if args.phase == "import":
        pathlib.Path(args.out).write_text(json.dumps(out))
        return 0

    clock = time.perf_counter
    t0 = clock()
    plan = compile_plan(EXHIBITS, quick=True)
    t1 = clock()
    results = execute_plan(plan, max_workers=args.workers)
    t2 = clock()
    spans = [["compile_plan", "experiments.plan", t0, t1],
             ["execute_plan", "experiments.dispatch", t1, t2]]
    texts, assemble = [], []
    for name in EXHIBITS:
        a = clock()
        texts.append(run_exhibit(name, quick=True, plan_results=results))
        b = clock()
        assemble.append(b - a)
        spans.append(["run_exhibit:" + name, "experiments.assemble", a, b])
    t3 = clock()

    # re-render every exhibit, off the phase's clock, for steadier
    # per-exhibit render times; in a traced warm phase, render once more
    # with a span around each call to measure the spans' own cost
    renders = {name: [t] for name, t in zip(EXHIBITS, assemble)}
    for _ in range(EXTRA_RENDERS):
        started = clock()
        for name in EXHIBITS:
            a = clock()
            run_exhibit(name, quick=True, plan_results=results)
            renders[name].append(clock() - a)
        untraced_pass = clock() - started
    if args.trace and args.phase == "warm":
        from spans import Recorder

        rec = Recorder()
        traced = clock()
        for name in EXHIBITS:
            with rec.span("run_exhibit:" + name, "experiments.assemble"):
                run_exhibit(name, quick=True, plan_results=results)
        out["trace_overhead_pct"] = ((clock() - traced) / untraced_pass - 1.0) * 100.0

    stats = results.stats
    out.update({
        "total_s": t3 - t0,
        "compile_s": t1 - t0,
        "exec_s": t2 - t1,
        "assemble_s": assemble,
        "renders_s": renders,
        "unique_tasks": plan.n_unique,
        "demanded": plan.n_demanded,
        "dedup_ratio": plan.dedup_ratio,
        "tasks_run": stats.n_tasks,
        "profile_cache_hits": stats.n_cache_hits,
        "steals": stats.n_steals,
        "utilization": stats.utilization,
        "busy_s": stats.busy_us / 1e6,
        "workers": stats.workers,
        "digest": hashlib.sha256("\n".join(texts).encode()).hexdigest(),
        "peak_rss_mb": _group_peak_rss_mb(),
        "spans": spans,
    })
    results.close()
    shutdown_dispatchers()
    pathlib.Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
