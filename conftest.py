"""No test, and no Python process a test starts, writes bytecode: a later
process that imports `src/` then compiles it afresh, as in a fresh
checkout.  This file sits at the repository root so that it holds for
every suite under it, `tests/` and `perfbench/` alike."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
