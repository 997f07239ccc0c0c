"""Training, extraction and evaluation bytes do not depend on the BLAS
thread count.

A tiny synth -> stage 1/2/3 -> extract -> eval runs in two fresh
interpreters, with OPENBLAS_NUM_THREADS set to 1 and to 2 before numpy loads.
Both must write the same checkpoints, descriptor files and recall CSVs, byte
for byte, so neither the training GEMMs nor the float32 shortlist GEMM of
the search reaches an output.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vxp

# argv: work directory. After the CLI's own output, prints "threads N" with
# the BLAS thread count numpy's OpenBLAS uses (-1 when it cannot be read),
# then one "sha256 name digest" line per output file.
PIPELINE = r"""
import ctypes, glob, hashlib, os, sys
from pathlib import Path
import numpy as np
from vxp import cli

root = Path(sys.argv[1])
data = root / "data"
manifest = str(data / "manifest.csv")
assert cli.main(["synth", "--scenes", "8", "--seed", "3", "--out", str(data)]) == 0
common = ["--manifest", manifest, "--calib", str(data / "calib.vxpcal"),
          "--seed", "0", "--epochs", "2", "--batch-size", "4"]
resume = []
for i, stage in enumerate(("image", "local", "global"), start=1):
    assert cli.main(["train", "--stage", stage, "--out", str(root / f"stage{i}.vxpc"),
                     *common, *resume]) == 0
    resume = ["--resume", str(root / f"stage{i}.vxpc")]
for modality in ("2d", "3d"):
    assert cli.main(["extract", "--modality", modality, "--ckpt", str(root / "stage3.vxpc"),
                     "--manifest", manifest, "--out", str(root / f"{modality}.vxpd")]) == 0
for protocol, recall in (("plain", "1,1pct,curve25"), ("oxford", "1,1pct")):
    assert cli.main(["eval", "--query", str(root / "2d.vxpd"), "--db", str(root / "3d.vxpd"),
                     "--query-manifest", manifest, "--db-manifest", manifest,
                     "--protocol", protocol, "--recall", recall,
                     "--out", str(root / f"{protocol}.csv")]) == 0

libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas64_*.so"))
try:
    get_num_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
    threads = get_num_threads()
except (IndexError, OSError, AttributeError):
    threads = -1
print("threads", threads)
for name in ("stage1.vxpc", "stage2.vxpc", "stage3.vxpc", "2d.vxpd", "3d.vxpd",
             "plain.csv", "plain.csv.curve.csv", "oxford.csv"):
    print("sha256", name, hashlib.sha256((root / name).read_bytes()).hexdigest())
"""


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs for OpenBLAS to run two threads")
    src = str(Path(vxp.__file__).resolve().parents[1])
    procs = {}
    for threads in (1, 2):
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", PIPELINE, str(work)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    outputs = {}
    for threads, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        lines = out.splitlines()
        assert int(next(line for line in lines if line.startswith("threads "))[8:]) in (
            -1, threads)
        outputs[threads] = [line for line in lines if line.startswith("sha256 ")]
    assert len(outputs[1]) == 8
    assert outputs[1] == outputs[2]
