"""Helpers for tests that read what ``ficd`` commands write."""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import ficd
from ficd.sampler import BLOCK_SIZE


def read_csv_rows(path):
    """The rows of a CSV ``ficd`` wrote, read through csv.reader, after
    checking that every line ends with CRLF."""
    data = path.read_bytes()
    assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), path.name
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def timing_free_sha256(path):
    """sha256 of a trace CSV with its step_wall_time_s column removed."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("step_wall_time_s")
    text = "\n".join(",".join(row[:col] + row[col + 1:]) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def sample_under_blas_threads(out_root, strategy):
    """``python -m ficd sample`` on the wide-ddim shape (d = 16, A = I, DDIM
    eta = 1, T = 40) over three blocks, the last partial, under
    OPENBLAS_NUM_THREADS = 1 and then 2, each in its own process. Returns
    the two output directories."""
    d = 16
    identity = ";".join(",".join("1.0" if i == j else "0.0" for j in range(d)) for i in range(d))
    overrides = {
        "model.gmm.means": ",".join(["0.0"] * d),
        "energy.A": identity,
        "energy.y": ",".join(["1.0"] * d),
        "sampler.discretization": "ddim",
        "sampler.ddim_eta": "1.0",
        "sampler.n_chains": str(2 * BLOCK_SIZE + 76),
    }
    argv = [sys.executable, "-m", "ficd", "sample", "--preset", "linear-inverse", "--T", "40",
            "--strategy", strategy]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    src = str(Path(ficd.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = Path(out_root) / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([*argv, "--out", str(out)], env=env, check=True, capture_output=True)
        outs.append(out)
    return outs
