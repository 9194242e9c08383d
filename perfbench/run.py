"""The repository benchmark: one command, four workloads, every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs the workload in a
fresh interpreter (``rep.py``) with an environment cleared of every
``REPRO_*`` variable, so module-level memos (codec and packet caches)
start cold, as they do for a user's ``repro simulate``.  Repetitions
continue until ``--seconds`` have passed (at least ``MIN_REPS``); host
metrics are medians over them.  Set-up-only repetitions bring the
``setup_s`` samples to ``SETUP_REPS``.  Every repetition of a seed must
produce the identical simulated fingerprint and pass the workload's
output checks, or the run fails.  Before each repetition a fixed
pure-Python loop is timed (``host.probe_s``), so a shift in host speed
between runs can be told apart from a change in the program.

``--trace 1`` adds one traced repetition (layer wrappers from
``tracing.py``) after the untraced ones and reports per-layer metrics,
the tracing overhead, and the reconciliation residual: the part of the
traced span that no layer's self time or kernel dispatch covers.  A
residual above ``RESIDUAL_TOLERANCE`` of the span fails the run.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts
repetitions and ``failed`` those that crashed or failed a check.  The
exit code is 0 only when the run is correct.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import end_to_end_metrics, per_layer_metrics  # noqa: E402

WORKLOADS = ("converge-n300", "converge-n300-shard2", "sensor-grid-8x8", "flows-mixed-500")
MIN_REPS = 3
#: ``setup_s`` is the median of this many set-ups (cheap, and noisier
#: than the timed span).
SETUP_REPS = 7
#: Stop starting repetitions once one more would end past this many
#: seconds of the whole run (the run must finish well inside 180 s).
BUDGET_S = 150.0
#: A traced repetition is assumed to take this many untraced ones.
TRACE_COST = 2.0
#: Largest unattributed share of the traced span.
RESIDUAL_TOLERANCE = 0.05


def _clean_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _host_probe() -> float:
    """Seconds for a fixed loop of the heap, dict and struct work the
    simulator's hot paths do; the program under test plays no part."""
    pack = struct.Struct(">HHd").pack
    heap, table = [], {}
    t0 = time.perf_counter()
    for i in range(60_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 256:
            t, j = heapq.heappop(heap)
            row = table.setdefault(j & 4095, [0, 0.0])
            row[0] += 1
            row[1] += t * 0.5
            pack(j & 4095, row[0] & 0xFFFF, row[1])
    return time.perf_counter() - t0


def _run_rep(root: Path, args, workdir: Path, env: dict, mode: str, timeout_s: float) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    if mode:
        cmd.append(mode)
    spawned = time.time()
    wall0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"repetition exceeded {timeout_s:.0f} s", "wall_s": time.perf_counter() - wall0}
    finally:
        # Reap anything the repetition left behind (shard workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wall_s = time.perf_counter() - wall0
    lines = stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1]) if lines else {"error": "no output"}
    except json.JSONDecodeError:
        rep = {"error": f"unparsable output: {lines[-1][:200]}"}
    if proc.returncode != 0 and "error" not in rep:
        rep["error"] = f"exit code {proc.returncode}"
    if "error" in rep and stderr:
        rep["error"] += "\n" + stderr[-2000:]
    rep["wall_s"] = wall_s
    if "setup_done" in rep:
        rep["setup_s"] = rep["setup_done"] - spawned
    return rep


def _check_rep(rep: dict, reference: dict) -> list:
    if "error" in rep:
        return [rep["error"]]
    problems = list(rep["checks"])
    if reference is not None and rep["fingerprint"] != reference["fingerprint"]:
        problems.append(f"fingerprint differs between repetitions of one seed: "
                        f"{rep['fingerprint']} != {reference['fingerprint']}")
    return problems


def _baseline_note(workload: str, seed: int, fingerprint: dict) -> str:
    path = HERE / "BASELINE.json"
    if not path.exists():
        return "no baseline file"
    recorded = json.loads(path.read_text()).get("seeds", {}).get(workload, {})
    for role, entry in recorded.items():
        if entry.get("seed") == seed:
            same = entry.get("fingerprint") == fingerprint
            return f"{'matches' if same else 'DIFFERS FROM'} the recorded {role} seed's fingerprint"
    return "seed not recorded in BASELINE.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {root / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    start = time.perf_counter()
    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = _clean_env(root)
    # Byte-compile once so every repetition's set-up pays the same
    # import cost (a fresh checkout has no bytecode yet).
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/repro", str(HERE)],
                   cwd=root, env=env, stdout=subprocess.DEVNULL, check=False)

    reps, problems, traced, setups = [], [], None, []
    try:
        while True:
            elapsed = time.perf_counter() - start
            longest = max((r["wall_s"] for r in reps), default=30.0)
            reserve = TRACE_COST * longest if args.trace else 0.0
            if reps and elapsed + longest + reserve > BUDGET_S:
                break
            if len(reps) >= MIN_REPS and elapsed >= args.seconds:
                break
            probe = _host_probe()
            rep = _run_rep(root, args, workdir, env, "", BUDGET_S + 20 - elapsed)
            rep["host_probe_s"] = probe
            problems += _check_rep(rep, reps[0] if reps and "error" not in reps[0] else None)
            reps.append(rep)
            if "error" in rep:
                break
        setups = [r["setup_s"] for r in reps if "error" not in r]
        while not args.trace and not problems and len(setups) < SETUP_REPS:
            rep = _run_rep(root, args, workdir, env, "--setup-only", 30.0)
            if "error" in rep:
                problems.append(rep["error"])
                break
            setups.append(rep["setup_s"])
        if args.trace and not problems:
            elapsed = time.perf_counter() - start
            traced = _run_rep(root, args, workdir, env, "--trace", 170.0 - elapsed)
            problems += _check_rep(traced, reps[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [r for r in reps if "error" not in r]
    attempted = len(reps) + (traced is not None)
    failed = sum(1 for r in reps + ([traced] if traced else []) if "error" in r or r["checks"])
    metrics, report = {}, []
    if not problems:
        if args.trace:
            metrics, report, trace_problems = per_layer_metrics(good, traced, RESIDUAL_TOLERANCE)
            problems += trace_problems
            (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(traced["trace"], sort_keys=True))
        else:
            metrics, report = end_to_end_metrics(good, setups)

    first = good[0] if good else {}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} reps={len(reps)} "
          f"routing={first.get('routing_impl')} "
          f"python={first.get('python')} numpy={first.get('numpy')} nproc={first.get('nproc')}")
    for line in report:
        print("  " + line)
    if first:
        print(f"  fingerprint {json.dumps(first['fingerprint'], sort_keys=True)}")
        print(f"  baseline: {_baseline_note(args.workload, args.seed, first['fingerprint'])}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if correct else max(1, failed),
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
