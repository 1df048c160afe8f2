"""Write perfbench/references.json: each workload command's exit code,
stdout and the SHA-256 of its stdout, from one untraced run per command.

    python3 perfbench/record.py

Run it only on a commit whose outputs are known good: the tests in
perfbench/test_perfbench.py tie the recorded outputs to independent oracles.
"""

import hashlib
import json

from run import COMMAND_LIMIT_S, REFERENCES, run_command
from workloads import WORKLOADS


def main() -> None:
    table = {}
    for commands in WORKLOADS.values():
        for argv in commands:
            result = run_command(argv, False, COMMAND_LIMIT_S, {})
            if result.code is None:
                raise SystemExit(f"{result.key}: {result.reason}")
            table[result.key] = {
                "exit": result.code,
                "sha256": hashlib.sha256(result.stdout).hexdigest(),
                "stdout": result.stdout.decode(),
            }
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
