"""Stdout digests of the paper's largest scans, an opt-in slow suite.

Tier-1 stops its polynomial checks near order 20; the scans reach
further (`scan conj7.7 --k-max 4 --n-max 12` computes `convpoly:m=8` to
order 49), and a wrong packing width or zero-block rule shows only there.
Each case runs one CLI command in a fresh interpreter and compares its
exit code and the SHA-256 of its stdout with the values recorded from
the code before the packed polynomial product.  Run it with

    PYTHONPATH=src python -m pytest -q slow

It takes a few minutes at most; it is not under `testpaths`.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CASES = [
    ("hankel convpoly:m=8 --n-max 30",
     "67e060c493c53d223c627dfb8b3ad43edbc2461f159af28a3e278b511d931f36"),
    ("hankel catconv:r=3 --n-max 300",
     "805bcf38e1a7143aa19043f9d3ebfb3a3dd834bef14f466cfb24fa6c12b405d1"),
    ("scan conj7.7 --k-max 4 --n-max 12",
     "9cdc6deabb2cf2c016a5e0e80f0b449a78b0672061598d8b86a8423f1d85cad3"),
]


@pytest.mark.parametrize("command, digest", CASES, ids=[c for c, _ in CASES])
def test_a_large_command_prints_its_recorded_digest(command, digest):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "hankelab", *command.split()],
                          env=env, capture_output=True, check=False)
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == digest
