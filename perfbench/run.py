#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb-point --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run is single-process and single-threaded.  A run executes the
workload's fixed set of seeded trials (trial seeds derive from ``--seed``),
then repeats them while ``--seconds`` allows.  Simulated metrics pool the
distinct trials and are exact for a seed; ``sim_ops_per_wall_s`` is the
median over every execution and ``setup_s`` the median over every build
(at least ``MIN_SETUPS``), each timed call and build rescaled to the
reference speed by a reference loop timed around it
(``metrics.reference_time``; the raw medians are printed beside them).
A repeated trial must reproduce its ``sim_digest`` exactly, and digests
are also compared with earlier runs of the same seed recorded in
``perfbench/out/digests.json``; a mismatch is an error.

``--trace 1`` runs trial 0 untraced, then again with the outside-in span
tracer (``tracing.py``), checks both give the same digest, and reports the
per-layer metrics; the spans go to ``perfbench/out/`` as Chrome
trace-event JSON.  End-to-end numbers never come from a traced run.

Every run writes a manifest (seed, parameters, git rev, versions, nproc,
traced or not) next to its numbers in ``perfbench/out/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit codes: 0 pass, 1 wrong results,
non-determinism or a metric ``BENCHMARK.json`` declares but the run does
not make, 2 the simulator cannot be imported or ``BENCHMARK.json``
cannot be read or names other workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fewest builds whose set-up times a run's ``setup_s`` is the median of.
MIN_SETUPS = 3


class BenchError(Exception):
    """A run that must not report numbers (exit code 1)."""


#: Trial seeds lie in ``[0, TRIAL_SEED_LIMIT)``.  numpy's legacy seeding
#: takes only ``[0, 2**32)``, and the simulator adds per-component offsets
#: to a store's seed, so the limit leaves headroom below that.
TRIAL_SEED_LIMIT = 1 << 30


def trial_seeds(scenario_cls, seed: int):
    """A run's distinct trial seeds.  The simulated metrics of one trial
    depend on which keys its seed makes hot; pooling the scenario's
    ``trials`` keeps a run's figures steady from seed to seed.  Any
    integer ``--seed``, negative or past 32 bits, maps to valid trial
    seeds: each is a hash of ``(seed, i)`` reduced below
    ``TRIAL_SEED_LIMIT``."""
    return [
        int.from_bytes(hashlib.sha256(f"{seed}:{i}".encode()).digest()[:8],
                       "big") % TRIAL_SEED_LIMIT
        for i in range(scenario_cls.trials)
    ]


def measure(workloads, workload: str, seed: int, seconds: float):
    """Untraced trials, then repeats while time allows.

    Returns the distinct trials, every execution, and every build's
    ``ReferenceClock``.  The time budget counts set-ups and timed run
    calls, not the output checks or reference loops around them.
    """
    scenario_cls = workloads[workload]
    seeds = trial_seeds(scenario_cls, seed)
    built = {}
    first = {}
    executions = []
    setups = []

    def build(trial_seed):
        gc.collect()
        scenario = scenario_cls(trial_seed)
        setups.append(scenario.clock)
        return scenario

    while True:
        index = len(executions)
        trial_seed = seeds[index % len(seeds)]
        scenario = built.get(trial_seed) or build(trial_seed)
        next_cost = scenario.setup_s
        if scenario_cls.rerunnable:
            built[trial_seed] = scenario
            next_cost = 0.0
        kwargs = {}
        if workload == "cluster-failover":
            # The full primary/backup comparison rescans every table, so
            # it runs once per run; every trial reads back every key.
            kwargs["check_replicas"] = index == 0
        gc.collect()
        trial = scenario.run(**kwargs)
        # Only ``built`` keeps a scenario alive: a spent build must be
        # freed before the next one, or peak RSS counts two.
        del scenario
        if trial_seed in first:
            if trial.sim_digest != first[trial_seed].sim_digest:
                raise BenchError(
                    f"{workload} trial seed {trial_seed} is not "
                    f"deterministic: {first[trial_seed].sim_digest} then "
                    f"{trial.sim_digest}"
                )
        else:
            first[trial_seed] = trial
        executions.append(trial)
        if len(executions) < len(seeds):
            continue
        # setup_s is a median over several builds even when a rerunnable
        # workload builds each trial only once.
        while len(setups) < MIN_SETUPS:
            build(seeds[len(setups) % len(seeds)])
        measured = (sum(clock.raw_s for clock in setups)
                    + sum(t.run_wall_s for t in executions))
        if measured + next_cost + trial.run_wall_s > seconds:
            return [first[s] for s in seeds], executions, setups


def traced(workloads, workload: str, seed: int):
    """Trial 0 untraced, then traced; both must agree exactly."""
    from tracing import SpanTracer

    scenario_cls = workloads[workload]
    trial_seed = trial_seeds(scenario_cls, seed)[0]
    gc.collect()
    base = scenario_cls(trial_seed).run()
    tracer = SpanTracer()
    gc.collect()
    kwargs = {}
    if workload == "cluster-failover":
        kwargs["check_replicas"] = False
    trial = scenario_cls(trial_seed).run(tracer=tracer, **kwargs)
    if trial.sim_digest != base.sim_digest:
        raise BenchError(
            f"{workload}: tracing changed simulated behaviour "
            f"({base.sim_digest} untraced, {trial.sim_digest} traced)"
        )
    return base, trial, tracer


def check_digests(workload: str, params: dict, trials) -> None:
    """Compare trial digests with earlier runs of the same trial seeds."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    shape = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()
    ).hexdigest()[:16]
    for trial in trials:
        key = f"{workload}|{trial.seed}|{shape}"
        if key in known and known[key] != trial.sim_digest:
            raise BenchError(
                f"{workload} trial seed {trial.seed} gave sim_digest "
                f"{trial.sim_digest}, an earlier run gave {known[key]}"
            )
        known[key] = trial.sim_digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


def git_rev():
    """HEAD of the checkout, read from ``.git`` (None outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workload, seed, seconds, trace, params, trials) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trial_seeds": [t.seed for t in trials],
        "run_seconds": seconds,
        "traced": bool(trace),
        "params": params,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "nic_dram_cache": "starts empty after the functional preload",
    }


def oracle_report(trials) -> dict:
    wrong = [w for t in trials for w in t.oracle.wrong]
    return {
        "checked": sum(t.oracle.checked for t in trials),
        "wrong_results": len(wrong),
        "first_wrong": wrong[:10],
    }


def run_workload(workloads, contract, workload, seed, seconds, trace):
    """Run one workload; returns its result line and the human report."""
    from metrics import (
        LAYER_METRICS,
        REFERENCE_NOMINAL_S,
        end_to_end,
        per_layer,
    )

    params = workloads[workload].params
    units = {m["name"]: m["unit"] for m in
             contract["per_layer" if trace else "end_to_end"]}
    if trace:
        base, trial, tracer = traced(workloads, workload, seed)
        trials = [base]
        values = per_layer(trial, tracer, base.run_wall_s)
        trace_path = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.write_chrome(trace_path)
        extra = {
            "trace_file": str(trace_path.relative_to(ROOT)),
            "spans_recorded": len(tracer.records),
            "spans_dropped": tracer.dropped,
            "untraced_wall_s": base.run_wall_s,
            "traced_wall_s": trial.run_wall_s,
        }
        notes = {
            name: f"{what} [should move {moves} on {where}]"
            for name, (what, moves, where) in LAYER_METRICS.items()
        }
        extra["layer_contract"] = notes
    else:
        trials, executions, setups = measure(workloads, workload, seed,
                                             seconds)
        values = end_to_end(trials, executions, setups)
        extra = {
            "executions": [
                {"seed": t.seed, "run_wall_s": t.run_wall_s,
                 "run_scaled_s": t.run_scaled_s}
                for t in executions
            ],
            "setups": [{"setup_raw_s": clock.raw_s,
                        "setup_s": clock.scaled_s} for clock in setups],
            "reference_nominal_s": REFERENCE_NOMINAL_S,
            "sim_ops_per_raw_wall_s": values["sim_ops_per_raw_wall_s"],
            "setup_raw_s": values["setup_raw_s"],
            "latency_samples": int(values["latency_samples"]),
            "failed_frac": values["failed_frac"],
        }
        notes = {}
    check_digests(workload, params, trials)
    if set(units) - set(values):
        raise BenchError(f"BENCHMARK.json declares metrics the run does "
                         f"not make: {sorted(set(units) - set(values))}")
    oracle = oracle_report(trials)
    sim_digest = hashlib.sha256(
        "".join(t.sim_digest for t in trials).encode()
    ).hexdigest()
    result = {
        "correct": oracle["wrong_results"] == 0,
        "attempted": sum(t.attempted for t in trials),
        "failed": sum(t.failed for t in trials),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "manifest": manifest(workload, seed, seconds, trace, params, trials),
        "result": result,
        "sim_digest": sim_digest,
        "trial_digests": {str(t.seed): t.sim_digest for t in trials},
        "work_counts": {str(t.seed): t.counts for t in trials},
        "oracle": oracle,
        **extra,
    }
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    lines = [f"== {workload} (seed {seed}, trial seeds "
             f"{[t.seed for t in trials]}, "
             f"{'traced' if trace else 'untraced'}) =="]
    for name in units:
        line = f"  {name:44s} {values[name]:14.6g} {units[name]}"
        if name in ("sim_p50_us", "sim_p99_us"):
            line += f"   (n={int(values['latency_samples'])})"
        if name in notes:
            line += f"   {notes[name]}"
        lines.append(line)
    if not trace:
        lines += [
            f"  {'failed_frac':44s} {values['failed_frac']:14.6g} ratio",
            f"  {'sim_ops_per_raw_wall_s':44s} "
            f"{values['sim_ops_per_raw_wall_s']:14.6g} ops/s",
            f"  {'setup_raw_s':44s} {values['setup_raw_s']:14.6g} s",
            f"  (host times above the raw ones are at the reference speed: "
            f"reference loop {REFERENCE_NOMINAL_S * 1e3:.0f} ms)",
        ]
    lines += [
        f"  oracle: {oracle['checked']} checks, "
        f"wrong_results={oracle['wrong_results']}",
        *(f"    {w}" for w in oracle["first_wrong"]),
        f"  sim_digest: {sim_digest}",
        "  NIC-DRAM cache starts empty after the functional preload",
        f"  manifest: {path.relative_to(ROOT)}",
    ]
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from scenarios import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    try:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    declared = {w["name"] for w in contract["workloads"]}
    if declared != set(WORKLOADS):
        print(f"perfbench: BENCHMARK.json declares {sorted(declared)}, "
              f"the benchmark runs {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose all or "
                     f"one of {sorted(WORKLOADS)}")
    seconds = args.seconds or contract["run_seconds"]
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = run_workload(WORKLOADS, contract, name,
                                         args.seed, seconds, args.trace)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        # One process for every workload: peak_rss_mib is the high-water
        # mark of the whole process, not of each workload.
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
