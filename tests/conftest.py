"""Test-suite settings: Hypothesis runs a fixed, bounded set of examples
with no deadline, so the property tests give the same verdict on every
run and on a slow or busy machine.  No test, and no Python process a
test starts, writes bytecode: a later process that imports `src/` then
compiles it afresh, as in a fresh checkout."""

import os
import sys

from hypothesis import settings

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

settings.register_profile(
    "hankelab", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("hankelab")
