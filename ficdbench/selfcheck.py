"""Reduced-size self-check of the benchmark; runs in well under a minute.

    python3 ficdbench/selfcheck.py

Checks that ``BENCHMARK.json`` matches the metric registry and the
format limits, then runs every workload at tiny N and T in both modes
and asserts that each declared metric is emitted with its unit, that
the traced run's span tree is well formed (every child inside its
parent, in its parent's run), and that the benchmark refuses to run in
a directory that holds only ``BENCHMARK.json`` and its own files.
Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

from metrics import END_TO_END, PER_LAYER, benchmark_json
from spans import check_tree
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_declaration(problems: list[str]) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    if declared != benchmark_json():
        problems.append("BENCHMARK.json differs from metrics.benchmark_json(); regenerate it")
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    for m in declared["end_to_end"] + declared["per_layer"]:
        if not UNIT.fullmatch(m["unit"]):
            problems.append(f"bad unit {m['unit']!r} of {m['name']}")
    for m in declared["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    for w in declared["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"why of {w['name']} is not one line of at most 200 characters")
    if "setup_s" not in {m["name"] for m in declared["end_to_end"]}:
        problems.append("setup_s missing from end_to_end")


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "ficdbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(workload, trace: int, problems: list[str]) -> None:
    where = f"{workload.name} trace {trace}"
    out = run(workload.name, trace)
    if out.returncode != 0:
        problems.append(f"{where}: exit code {out.returncode}: {out.stderr[-400:]}")
        return
    line = json.loads(out.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(line)}")
        return
    if not (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1):
        problems.append(f"{where}: correct={line['correct']} failed={line['failed']}")
    declared = {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}
    got = line["metrics"]
    if set(got) != set(declared):
        problems.append(f"{where}: metric names differ: {sorted(set(got) ^ set(declared))}")
    for name, unit in declared.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
            problems.append(f"{where}: {name} = {entry}, expected a number in {unit}")
    if not trace:
        for name in declared:
            if got.get(name, {}).get("value", 0) <= 0:
                problems.append(f"{where}: end-to-end {name} is not positive")
        return

    layer = "scoremodel.mlp" if workload.oracle == "normal-score" else "scoremodel.gmm"
    for s in workload.strategies:
        for name in (f"{s}.sampler.steps", f"{s}.{layer}.score.calls",
                     f"{s}.guidance.energy_grad.calls"):
            if got.get(name, {}).get("value", 0) <= 0:
                problems.append(f"{where}: {name} is not positive")
    if "exact" in workload.strategies and got[f"exact.{layer}.score_vjp.calls"]["value"] <= 0:
        problems.append(f"{where}: exact made no score_vjp calls")
    with open(os.path.join(ROOT, ".ficdbench-out", workload.name, "spans.json")) as fh:
        spans = json.load(fh)
    problems += [f"{where}: {p}" for p in check_tree(spans)]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"].startswith(("scoremodel.", "guidance.")) and s["run"] != "setup":
            parent = by_id.get(s["parent"], {})
            if parent.get("name") != "sampler.sample":
                problems.append(f"{where}: {s['name']} span is not under sampler.sample")
                break
    names = {s["name"] for s in spans}
    for needed in ("op", "sampler.sample", "analytics.csv_write", "ficd.import",
                   "config.resolve"):
        if needed not in names:
            problems.append(f"{where}: no {needed} span")


def check_bare_directory(problems: list[str]) -> None:
    """Only BENCHMARK.json and ficdbench/: the benchmark must refuse to run."""
    bare = os.path.join(ROOT, ".ficdbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "ficdbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = run("wide-ddim", 0, cwd=bare)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        problems.append("benchmark ran without the ficd source tree")
    shutil.rmtree(bare)


def main() -> int:
    problems: list[str] = []
    check_declaration(problems)
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            check_run(workload, trace, problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
