"""hankelab CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the source checkout that holds this file.
Every command of the workload runs in a fresh interpreter with
PYTHONPATH=src, one at a time (a closed loop with one client), in an order
the seed fixes.  Passes over the workload repeat while another pass fits in
S seconds; there is always at least one.  Each command's exit code and the
SHA-256 of its stdout are checked against perfbench/references.json.  A
short fixed host probe runs between commands, and each command's times are
also given scaled to a reference host speed.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 untraced and traced passes alternate and it reports the per-layer
metrics.  The lines before it are a readable summary.  perfbench/README.md
defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, command_key, passes  # noqa: E402

ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCES = HERE / "references.json"

# A command past this is killed and counted as failed; the slowest command
# takes about 1.6 s at the first benchmarked commit.
COMMAND_LIMIT_S = 30.0
# No command runs past this point of a run, so a run ends well within the
# three minutes it is allowed even when the program has become very slow.
RUN_LIMIT_S = 150.0

# The host probe's reading at the reference host speed.  A command's
# reference-speed time is its measured time times PROBE_REF_S over the mean
# of the probe readings just before and just after it.
PROBE_REF_S = 0.03

END_TO_END_UNITS = {
    "wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "registry.self_s": "s",
    "registry.calls": "count",
    "lattice.lgv_s": "s",
    "sequences.terms_s": "s",
    "sequences.values_requested": "count",
    "sequences.series_builds": "count",
    "sequences.series_builds_per_value": "ratio",
    "hankel.self_s": "s",
    "hankel.det_exact_calls": "count",
    "hankel.exact_divide_calls": "count",
    "hankel.divides_per_order": "ratio",
    "hankel.divide_bits_max": "bits",
    "hankel.zero_det_share": "ratio",
    "orthopoly.fit_s": "s",
    "orthopoly.fit_calls": "count",
    "exactnum.poly_mul_calls": "count",
    "exactnum.poly_add_calls": "count",
    "exactnum.series_mul_calls": "count",
    "exactnum.rf_ops": "count",
    "exactnum.poly_gcd_calls": "count",
    "trace.overhead_s": "s",
    "host.calib_s": "s",
}
# Layer self time (tracer.self_times) behind each per-layer time metric.
LAYER_TIMES = {
    "registry.self_s": "registry",
    "lattice.lgv_s": "lattice",
    "sequences.terms_s": "sequences",
    "hankel.self_s": "hankel",
    "orthopoly.fit_s": "orthopoly",
}


@dataclass
class CommandResult:
    key: str
    code: int | None  # None when killed at the time limit
    reason: str  # empty when the command passed every check
    wall_s: float
    cpu_s: float
    rss_kib: int
    stdout: bytes
    report: dict
    probe_s: float = 0.0  # mean host probe reading around the command

    @property
    def ok(self) -> bool:
        return not self.reason


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def run_command(argv, trace: bool, limit_s: float, references: dict) -> CommandResult:
    """Run one CLI command in a fresh interpreter and check it against its
    reference.  Exit status and rusage come from os.wait4 on this one
    process, so its CPU time and peak RSS are its own."""
    report_r, report_w = os.pipe()
    env = dict(os.environ, PYTHONPATH="src")
    spawned = time.monotonic()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(report_w), "1" if trace else "0", "--", *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(report_w,),
        )
    finally:
        os.close(report_w)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: [], report_r: []}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            deadline = spawned + limit_s
            while sel.get_map():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    proc.kill()
                    killed = True
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        os.close(report_r)

    stdout = b"".join(chunks[out_fd])
    raw = b"".join(chunks[report_r])
    report = json.loads(raw) if raw and not killed else {}
    code = None if killed else proc.returncode
    key = command_key(argv)
    ref = references.get(key)
    if code is None:
        reason = f"killed after {limit_s:.1f} s"
    elif ref is None:
        reason = "no reference output"
    elif code != ref["exit"]:
        tail = b"".join(chunks[err_fd]).decode(errors="replace").strip().splitlines()
        reason = f"exit {code}, expected {ref['exit']}: {tail[-1] if tail else ''}"
    elif hashlib.sha256(stdout).hexdigest() != ref["sha256"]:
        reason = "stdout differs from the reference"
    elif not report:
        reason = "no child report"
    else:
        reason = ""
    if report:
        report["setup_s"] = report["imported"] - spawned
    return CommandResult(key, code, reason, ended - spawned,
                         usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stdout, report)


def run_pass(commands, trace: bool, hard_deadline: float, references: dict):
    """One closed-loop pass, a host probe before and after every command;
    returns the command results."""
    results = []
    before = probe()
    for argv in commands:
        limit = min(COMMAND_LIMIT_S, hard_deadline - time.monotonic())
        if limit <= 0:
            results.append(CommandResult(command_key(argv), None, "run time limit reached",
                                         0.0, 0.0, 0, b"", {}, before))
            continue
        result = run_command(argv, trace, limit, references)
        after = probe()
        result.probe_s = (before + after) / 2
        results.append(result)
        before = after
    return results


def sum_of_medians(passes: list, field: str, reference: bool = False) -> float:
    """One pass of typical commands: for each command the median of `field`
    over the passes, summed.  With `reference`, each time is first scaled to
    the reference host speed (see PROBE_REF_S)."""
    samples: dict[str, list[float]] = {}
    for results in passes:
        for r in results:
            value = getattr(r, field)
            if reference:
                value *= PROBE_REF_S / r.probe_s
            samples.setdefault(r.key, []).append(value)
    return sum(statistics.median(values) for values in samples.values())


def probe() -> float:
    """Host speed: seconds for one fixed elimination in stdlib Fractions.

    It shares no code with the package, so no program change moves it.  It
    runs once rather than best-of, so that it feels the same contention as
    the commands on either side of it.
    """
    start = time.perf_counter()
    n = 24
    a = [[Fraction(1, i + j + 1) + i * j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return time.perf_counter() - start


def layer_metrics(traced: list) -> dict:
    """Per-layer metrics from the traced passes (lists of CommandResult).

    Times are medians over the passes; counts come from the first pass,
    because they repeat exactly from pass to pass.
    """
    times = {name: [] for name in LAYER_TIMES}
    for results in traced:
        totals: dict[str, float] = {}
        for r in results:
            for layer, seconds in tracer.self_times(r.report.get("spans", [])).items():
                totals[layer] = totals.get(layer, 0.0) + seconds
        for name, layer in LAYER_TIMES.items():
            times[name].append(totals.get(layer, 0.0))
    out = {name: statistics.median(values) for name, values in times.items()}
    out["cli.import_s"] = statistics.median(
        r.report["import_s"] for results in traced for r in results if r.report)

    counts: dict[str, int] = {}
    registry_calls = 0
    for r in traced[0]:
        for name, value in r.report.get("counts", {}).items():
            if name == "hankel.divide_bits_max":
                counts[name] = max(counts.get(name, 0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        registry_calls += sum(1 for s in r.report.get("spans", [])
                              if s[0].startswith("registry."))
    delivered = counts.pop("hankel.values_delivered", 0)
    zeros = counts.pop("hankel.zero_values", 0)
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("count", "bits") and name not in out:
            out[name] = counts.get(name, 0)
    out["registry.calls"] = registry_calls
    requested = out["sequences.values_requested"]
    out["sequences.series_builds_per_value"] = (
        out["sequences.series_builds"] / requested if requested else 0.0)
    out["hankel.divides_per_order"] = (
        out["hankel.exact_divide_calls"] / delivered if delivered else 0.0)
    out["hankel.zero_det_share"] = zeros / delivered if delivered else 0.0
    return {name: out[name] for name in PER_LAYER_UNITS if name in out}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hankelab" / "cli.py").is_file():
        print(f"error: no hankelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = load_references()

    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    # Untraced passes only, or untraced and traced passes in turn.
    modes = (False, True) if args.trace else (False,)
    results = {False: [], True: []}
    longest = 0.0
    for commands in passes(args.workload, args.seed):
        round_start = time.monotonic()
        for traced in modes:
            results[traced].append(run_pass(commands, traced, hard_deadline, references))
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if now + longest > start + args.seconds or now >= hard_deadline:
            break

    every = [r for mode in modes for pass_results in results[mode] for r in pass_results]
    failed = [r for r in every if not r.ok]
    for r in failed:
        print(f"FAILED {r.key}: {r.reason}", file=sys.stderr)
    untraced = results[False]
    setups = [r.report["setup_s"] for p in untraced for r in p if r.report]
    end_to_end = {
        "wall_ref_s": sum_of_medians(untraced, "wall_s", reference=True),
        "cpu_ref_s": sum_of_medians(untraced, "cpu_s", reference=True),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mib": max(r.rss_kib for p in untraced for r in p) / 1024,
    }
    probes = [r.probe_s for r in every]
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced"
          f" and {len(results[True])} traced passes, {len(every)} commands,"
          f" {len(failed)} failed, error_rate {len(failed) / len(every):.4f}")
    print(f"  wall_s         {sum_of_medians(untraced, 'wall_s'):12.6f} s (as measured)")
    print(f"  cpu_s          {sum_of_medians(untraced, 'cpu_s'):12.6f} s (as measured)")
    for name, value in end_to_end.items():
        print(f"  {name:<14} {value:12.6f} {END_TO_END_UNITS[name]}")
    print(f"  host probe     min {min(probes):.6f} s, median {statistics.median(probes):.6f} s,"
          f" max {max(probes):.6f} s (reference {PROBE_REF_S} s)")

    if args.trace:
        metrics = layer_metrics(results[True])
        metrics["trace.overhead_s"] = (sum_of_medians(results[True], "wall_s", reference=True)
                                       - end_to_end["wall_ref_s"])
        metrics["host.calib_s"] = statistics.median(probes)
        for name, value in metrics.items():
            print(f"  {name:<34} {value:>14.6g} {PER_LAYER_UNITS[name]}")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
