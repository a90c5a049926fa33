"""ficd benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 ficdbench/run.py --workload wide-ddim --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; nothing needs building, the
workers import ``ficd`` from ``src``. Set-up is timed from process start
in three fresh processes (median); the last of them goes on to run the
workload closed-loop for ``--seconds``. With ``--trace 0`` the result
line holds the end-to-end metrics of untraced operations; with
``--trace 1`` it holds the per-layer metrics of traced operations and
the spans are written to ``.ficdbench-out/``. The last stdout line is
the JSON result; the lines above it print every figure with its unit,
the provenance and the output digests. The full record is also written
to ``.ficdbench-out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

SETUP_PROCESSES = 3
# A run must end within 180 s; leave room to report.
DEADLINE_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class WorkerError(RuntimeError):
    pass


def run_worker(args, out_dir: str, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Start one worker; return (seconds from start to ready, its report)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tiny", str(int(args.tiny)), "--setup-only", str(int(setup_only)),
        "--root", ROOT, "--out", out_dir,
    ]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    # Kills the worker at the deadline; the reads below then hit EOF.
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if first.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return ready, json.loads(rest.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="ficd benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="self-check sizes (tiny N and T); no oracle bounds"
    )
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ficd", "__init__.py")):
        print(f"ficdbench: no ficd source tree under {ROOT}/src; nothing to run", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    out_dir = os.path.join(ROOT, ".ficdbench-out", args.workload)
    setup_s, reports = [], []
    try:
        for i in range(SETUP_PROCESSES):
            ready, report = run_worker(args, out_dir, i < SETUP_PROCESSES - 1, deadline)
            setup_s.append(ready)
            reports.append(report)
    except WorkerError as err:
        print(f"ficdbench: {err}", file=sys.stderr)
        return 3
    result = reports[-1]

    figures = {"setup_s": statistics.median(setup_s)}
    figures.update(result["end_to_end"])
    figures.update(result["reported"])
    figures.update(result.get("layers", {}))
    for key in reports[0]["setup"]:
        figures[key] = statistics.median(r["setup"][key] for r in reports)
    chosen = PER_LAYER if args.trace else END_TO_END
    metrics = {m.name: {"value": figures.get(m.name, 0.0), "unit": m.unit} for m in chosen}

    attempted, failed = result["attempted"], result["failed"]
    counts = result["counts"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"setup_s samples {[round(s, 4) for s in setup_s]}")
    print(
        f"operations ficd {counts['ficd.ops']} exact {counts['exact.ops']} untraced, "
        f"{counts['step_samples']} ficd step samples"
    )
    for m in END_TO_END + PER_LAYER:
        if m.name in figures:
            print(f"{m.name:44s} {figures[m.name]:14.6g} {m.unit:6s} -> {m.moves}")
    print(f"{'failed_frac':44s} {failed / attempted:14.6g} {'1':6s} ({failed} of {attempted})")
    # samples.csv digests recorded at full size, by workload, strategy and
    # seed, so a claim of byte-identical output can be checked against them.
    with open(os.path.join(HERE, "digests.json")) as fh:
        reference = json.load(fh)
    for strategy, digest in sorted(result["digests"].items()):
        known = reference.get(args.workload, {}).get(strategy, {}).get(str(args.seed))
        same = "not recorded" if args.tiny or known is None else known == digest
        print(f"digest {args.workload} {strategy} samples.csv sha256 {digest} "
              f"same as digests.json: {same}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny, "setup_s_samples": setup_s,
        "figures": figures, "counts": counts,
        "run_s_samples": result["run_s_samples"], "attempted": attempted, "failed": failed,
        "digests": result["digests"], "provenance": result["provenance"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(os.path.dirname(out_dir), name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
