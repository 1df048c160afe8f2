"""Test-suite settings: Hypothesis runs a fixed, bounded set of examples
with no deadline, so the property tests give the same verdict on every
run and on a slow or busy machine.  The root `conftest.py` keeps tests
from writing bytecode."""

from hypothesis import settings

settings.register_profile(
    "hankelab", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("hankelab")
