"""The pipeline workload: figure2, figure3, extension, ablation (quick).

Each phase runs in a fresh child process (``pipeline_child.py``) in its
own process group, because the dispatcher's forkserver outlives
``shutdown_dispatchers()`` until its parent exits.  A pair is a cold
phase on an empty SimCache directory, then a warm phase on the cache
the cold one left, as a user re-running would.  Pairs repeat until
``--seconds`` is spent, three at the least; cold and warm times are
their medians.  The rendered exhibits of every
phase must be byte-identical and match :data:`PINNED_DIGEST`.
"""

from __future__ import annotations

import json
import statistics
import time

import stats
from pipeline_child import EXHIBITS
from procs import log_tail
from spans import Recorder, layer_table

#: sha256 of the four exhibits rendered at quick settings, joined by "\n"
PINNED_DIGEST = "5d9f6054fc6d67cf8d47c76766d5ae28cb4ba665e179b7f653d976586799d8c7"
PHASE_TIMEOUT_S = 120
#: cold/warm pairs per run, at the least
MIN_PAIRS = 3


def _phase(ctx, name: str, cache_dir, tag: str) -> dict:
    out = ctx.run_dir / f"pipeline-{tag}.json"
    argv = [ctx.python, str(ctx.root / "perfbench" / "pipeline_child.py"),
            "--phase", name, "--workers", str(ctx.nproc), "--out", str(out)]
    if ctx.trace:
        argv.append("--trace")
    with open(ctx.run_dir / "pipeline.log", "ab") as log:
        group = ctx.programs.start(
            argv, env=dict(ctx.env, REPRO_CACHE_DIR=str(cache_dir)), cwd=ctx.root,
            stdout=log, stderr=log)
        try:
            code = group.wait(timeout=PHASE_TIMEOUT_S)
        finally:
            ctx.programs.stop(group)
    if code != 0:
        raise RuntimeError(f"pipeline {name} phase exited with {code}:\n"
                           f"{log_tail(ctx.run_dir / 'pipeline.log')}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready_monotonic"] - group.started
    return result


def sim_engine_probe(rec: Recorder, reps: int = 3) -> float:
    """Median kcycles/s of in-process quick-config simulations of a 4-app mix."""
    from repro.experiments.plan import default_config
    from repro.sim.engine import simulate
    from repro.sim.mc.fcfs import FCFSScheduler
    from repro.workloads.mixes import mix_core_specs

    config = default_config(quick=True)
    specs = mix_core_specs("hetero-1")
    rates = []
    for _ in range(reps):
        with rec.span("simulate", "sim.engine"):
            t0 = time.perf_counter()
            simulate(specs, lambda n: FCFSScheduler(n), config)
            elapsed = time.perf_counter() - t0
        rates.append((config.warmup_cycles + config.measure_cycles) / 1e3 / elapsed)
    return statistics.median(rates)


def run(ctx) -> dict:
    setups = [_phase(ctx, "import", ctx.run_dir, "import")["setup_s"]]
    pairs = []
    started = time.monotonic()
    while len(pairs) < MIN_PAIRS or time.monotonic() - started < ctx.seconds:
        cache_dir = ctx.run_dir / f"pipeline-cache-{len(pairs)}"
        cache_dir.mkdir()
        cold = _phase(ctx, "cold", cache_dir, f"cold-{len(pairs)}")
        warm = _phase(ctx, "warm", cache_dir, f"warm-{len(pairs)}")
        cold["cache_entries"] = sum(1 for p in cache_dir.rglob("*.json") if p.is_file())
        pairs.append((cold, warm))
        setups += [cold["setup_s"], warm["setup_s"]]

    phases = [p for pair in pairs for p in pair]
    failed = 0
    for i, phase in enumerate(phases):
        if phase["digest"] != PINNED_DIGEST:
            failed += len(EXHIBITS)
            ctx.log(f"FAILED: {'cold' if i % 2 == 0 else 'warm'} phase rendered "
                    f"exhibits with digest {phase['digest'][:16]}, pinned {PINNED_DIGEST[:16]}")
    if len({p["digest"] for p in phases}) != 1:
        ctx.log("FAILED: cold and warm phases rendered different exhibits")
        failed = max(failed, len(EXHIBITS))

    render_ms = [s * 1e3 for p in phases for r in p["renders_s"].values() for s in r]
    tail_ms, tail_label, n_beyond = stats.tail(render_ms)
    # each exhibit's median render time, then the median over exhibits
    typical_ms = statistics.median([
        statistics.median([s * 1e3 for p in phases for s in p["renders_s"][name]])
        for name in EXHIBITS])
    cold_s = statistics.median([c["total_s"] for c, _ in pairs])
    warm_s = statistics.median([w["total_s"] for _, w in pairs])
    first_cold, first_warm = pairs[0]
    ctx.log(f"pipeline: {len(pairs)} cold/warm pair(s) on {first_cold['workers']} workers; "
            f"cold {cold_s:.2f} s ({first_cold['tasks_run']} sims run, "
            f"{first_cold['profile_cache_hits']} cache hits), warm {warm_s:.2f} s "
            f"({first_warm['tasks_run']} sims run, {first_warm['profile_cache_hits']} cache "
            f"hits); exhibit render tail = {tail_label} {tail_ms:.1f} ms "
            f"({n_beyond} of {len(render_ms)} samples beyond)")
    result = {
        "attempted": 1 + len(phases) * len(EXHIBITS),
        "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "solves_per_s": statistics.median([c["tasks_run"] / c["total_s"] for c, _ in pairs]),
            "latency_p50_ms": typical_ms,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in phases),
        },
    }
    if ctx.trace:
        result["per_layer"] = _layers(ctx, first_cold, first_warm)
        result["per_layer"]["latency_tail_ms"] = tail_ms
        result["per_layer"]["latency_tail_beyond"] = float(n_beyond)
    return result


def _layers(ctx, cold: dict, warm: dict) -> dict:
    rec = Recorder()
    for tag, phase in (("cold", cold), ("warm", warm)):
        spans = phase["spans"]
        root = rec.add(f"phase:{tag}", "pipeline", spans[0][2], spans[-1][3], rid=tag)
        for name, layer, start, end in spans:
            rec.add(name, layer, start, end, rid=tag, parent=root)
    kcycles = sim_engine_probe(rec)
    trace_path = ctx.trace_dir / f"pipeline-seed{ctx.seed}.jsonl"
    rec.write(trace_path)
    ctx.log(f"pipeline spans -> {trace_path}; tracing overhead "
            f"{warm['trace_overhead_pct']:+.1f}% (assembly replayed untraced, then traced)")
    ctx.log(layer_table(rec, "Total (pipeline cold + warm)"))
    return {
        "experiments.plan.compile_s": cold["compile_s"],
        "experiments.plan.unique_tasks": float(cold["unique_tasks"]),
        "experiments.plan.dedup_ratio": cold["dedup_ratio"],
        "experiments.dispatch.exec_s_cold": cold["exec_s"],
        "experiments.dispatch.exec_s_warm": warm["exec_s"],
        "experiments.dispatch.utilization": cold["utilization"],
        "experiments.dispatch.steals": float(cold["steals"]),
        "experiments.dispatch.tasks_run_cold": float(cold["tasks_run"]),
        "experiments.dispatch.tasks_run_warm": float(warm["tasks_run"]),
        "experiments.dispatch.profile_cache_hits_warm": float(warm["profile_cache_hits"]),
        "experiments.dispatch.busy_s": cold["busy_s"],
        "experiments.assemble_s": sum(warm["assemble_s"]),
        "util.cache.entries": float(cold["cache_entries"]),
        "sim.engine.kcycles_per_s": kcycles,
        "trace.overhead_pct": warm["trace_overhead_pct"],
        "trace.spans": float(len(rec)),
    }
