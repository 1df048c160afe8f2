"""The benchmark's fixed workloads: lists of hankelab CLI argument vectors.

Each command runs in a fresh interpreter, because the package's caches
(`_U_CACHE`, `_CONV_CACHE`, `lattice._path_atoms`) live for one process and
a CLI user fills them on every invocation.  The seed only reorders the
commands; every order is checked against the same per-command references.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

REGISTRY_IDS = (
    "thm2.1-d0", "thm2.1-d1", "thm2.2-D0", "thm2.2-D1", "thm2.3-d0",
    "thm2.3-d1", "thm2.4-D0", "thm2.4-D1", "eq3.6", "eq3.7", "eq3.10",
    "eq3.12", "thm4.1", "cor4.3", "eq4.10", "thm5.1", "thm5.2", "eq1.22",
    "eq1.23", "u-d0", "u-d1", "thm7.3", "thm7.4", "d-n-5", "d-n-6",
    "d-n-7", "d-n-8", "conj7.2", "conj7.5", "conj7.6", "conj7.7",
)

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Acceptance-gate traffic: mostly interpreter start and import, plus
    # small determinants; set-up and registry changes show here.
    "registry-sweep": tuple(("verify", i) for i in REGISTRY_IDS)
    + (("lgv", "--n", "4"),),
    # Fraction Bareiss on rational sequences, some determinants zero; the
    # polynomial and series layers are bypassed.  Sizes keep a pass near
    # 5 s, so a run holds enough passes for steady per-command medians.
    "numeric-elimination": (
        ("hankel", "catalan", "--n-max", "40"),
        ("hankel", "catalan|double-signed", "--n-max", "32"),
        ("hankel", "catconv:r=5", "--n-max", "32"),
        ("hankel", "catalan|double-signed|aerate", "--n-max", "32", "--offset", "1"),
        ("hankel", "u:r=3|double-signed", "--n-max", "24"),
        ("fit", "catalan|double-signed", "--depth", "160"),
    ),
    # The same elimination on Polynomial entries, per-term series rebuilds
    # in conv_poly, and RationalFunction arithmetic in fit.  A pass takes
    # about 4 s, for the same reason.
    "polynomial-series": (
        ("seq", "convpoly:m=5", "--terms", "20"),
        ("hankel", "narayana", "--n-max", "10"),
        ("hankel", "narayana-b", "--n-max", "10"),
        ("hankel", "convpoly:m=4", "--n-max", "8"),
        ("fit", "narayana", "--depth", "20"),
        ("scan", "conj7.7", "--k-max", "3", "--n-max", "2"),
    ),
}


def command_key(argv) -> str:
    """The reference-table key of one command: its arguments, space-joined."""
    return " ".join(argv)


def passes(workload: str, seed: int) -> Iterator[list[tuple[str, ...]]]:
    """Endless passes over the workload, each in an order drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    commands = list(WORKLOADS[workload])
    while True:
        rng.shuffle(commands)
        yield list(commands)
