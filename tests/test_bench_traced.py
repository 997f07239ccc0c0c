"""The benchmark's own checks pass on a traced run of every workload.

A traced run (`perfbench/run.py --trace 1`) fails a span on its workload's
REQUIRED_ON list that records no calls, besides every oracle check of the
plain run; a refactor that routes a layer around the function a span wraps
would otherwise only fail in a benchmark run. Each workload runs one pass
(`--seconds 0`) in a temporary directory holding a link to `src`, so the work
and trace files the run leaves stay out of the checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["train_small", "encode_db", "retrieve"])
def test_traced_run_is_correct(tmp_path, workload):
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    failed = [line for line in run.stderr.splitlines() if "check failed" in line]
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True, failed
