"""One cold repetition of one workload, in its own interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --workdir DIR [--trace | --setup-only]

Builds the workload's inputs from the seed, times the workload's span,
checks the outcome, and prints one JSON object on its last stdout line.
``setup_done`` is wall-clock (``time.time``) so the parent can measure
interpreter start + imports + input generation from its spawn instant.
With ``--trace`` the layer wrappers of :mod:`tracing` are installed
first and the JSON carries the span aggregates.  With ``--setup-only``
it stops after input generation and prints only ``setup_done``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _worker_snapshots(workdir: Path):
    paths = sorted(workdir.glob("worker-*.json"))
    snaps = [json.loads(p.read_text()) for p in paths]
    for p in paths:
        p.unlink()
    return snaps


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--trace", action="store_true")
    group.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy

    import tracing
    from repro.net.routing_table import make_routing_table
    from workloads import WORKLOADS, net_counters

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        if args.workload.endswith("shard2"):
            tracing.install_shard_hooks(tracer, args.workdir, net_counters)
    inputs = workload.setup(args.seed, args.workdir)
    setup_done = time.time()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.start_root()
    t0 = time.perf_counter()
    result = workload.run(inputs)
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    trace = None
    if tracer is not None:
        tracer.stop_root()
        # Snapshot before the outcome checks call into wrapped code.
        trace = {"parent": tracer.snapshot(), "workers": _worker_snapshots(args.workdir)}

    out = workload.outcome(inputs, result)
    out.update(
        setup_done=setup_done,
        run_s=run_s,
        cpu_s=cpu_s,
        peak_rss_mb=rss_kb / 1024.0,
        placement_s=inputs["placement_s"],
        # Resolved the way every node resolves it (config "auto").
        routing_impl=type(make_routing_table(0x0001)).__name__,
        python=platform.python_version(),
        numpy=numpy.__version__,
        nproc=len(os.sched_getaffinity(0)),
    )
    if trace is not None:
        trace["counters"] = workload.counters(inputs, result)
        out["trace"] = trace
    store = inputs.get("store")
    if store is not None:
        for suffix in ("", "-wal", "-shm"):
            Path(f"{store}{suffix}").unlink(missing_ok=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        sys.exit(1)
