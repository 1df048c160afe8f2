"""Checks of the benchmark itself; they are not part of the package tests.

    PYTHONPATH=src python3 -m pytest -q perfbench

The reference outputs are tied to independent oracles here, so a digest
cannot bless a wrong output, and the tracer is checked to wrap every alias
and to leave stdout byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from workloads import WORKLOADS, command_key

REFERENCES = run.load_references()
ALL_COMMANDS = [argv for commands in WORKLOADS.values() for argv in commands]


def _hankel_args(argv):
    spec, rest = argv[1], list(argv[2:])
    opts = dict(zip(rest[::2], rest[1::2]))
    return spec, int(opts["--n-max"]), int(opts.get("--offset", 0))


def test_benchmark_json_declares_what_run_reports():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER_UNITS


def test_every_command_has_a_consistent_reference():
    assert sorted(REFERENCES) == sorted(command_key(a) for a in ALL_COMMANDS)
    for ref in REFERENCES.values():
        assert ref["exit"] == 0
        assert hashlib.sha256(ref["stdout"].encode()).hexdigest() == ref["sha256"]


@pytest.mark.parametrize(
    "argv", [a for a in ALL_COMMANDS if a[0] == "hankel"], ids=command_key)
def test_hankel_references_match_cofactor_oracle(argv):
    from hankelab.hankel import csv_cell, det_cofactor, hankel_matrix

    spec, n_max, offset = _hankel_args(argv)
    lines = REFERENCES[command_key(argv)]["stdout"].splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == n_max + 2
    for n in range(min(n_max, 6) + 1):
        expected = csv_cell(det_cofactor(hankel_matrix(spec, n, offset)))
        assert lines[n + 1] == f"{n},{expected}"


@pytest.mark.parametrize(
    "argv", [a for a in ALL_COMMANDS if a[0] in ("verify", "scan")], ids=command_key)
def test_report_references_end_in_match(argv):
    lines = REFERENCES[command_key(argv)]["stdout"].splitlines()
    assert lines[-1] == "verdict,match"
    assert not any(line.endswith(",mismatch") for line in lines)


def test_lgv_reference_matches_path_oracle():
    header, row = REFERENCES["lgv --n 4"]["stdout"].splitlines()
    assert header == "n,lgv,det,status"
    assert row.endswith(",match")


def test_tracer_wraps_every_alias_and_restores_them():
    import hankelab.cli

    recorder = tracer.Recorder()
    recorder.install()
    try:
        held = [
            (module.__name__, attr)
            for module in tracer._hankelab_modules()
            for attr, value in vars(module).items()
            if id(value) in recorder.originals and recorder.originals[id(value)] is value
        ]
        assert held == []
        from hankelab import cli, hankel, orthopoly, registry
        for module, name in [(hankel, "terms"), (orthopoly, "terms"), (cli, "terms"),
                             (registry, "det_sequence"), (cli, "det_sequence"),
                             (orthopoly, "det_exact"), (cli, "det_exact"),
                             (hankel, "exact_divide"), (cli, "fit_spec")]:
            assert hasattr(getattr(module, name), "__wrapped__"), (module.__name__, name)
    finally:
        recorder.uninstall()
    assert not hasattr(hankelab.cli.terms, "__wrapped__")
    assert not hasattr(hankelab.exactnum.Polynomial.__mul__, "__wrapped__")


def test_counters_on_a_known_elimination():
    from hankelab import hankel

    recorder = tracer.Recorder()
    recorder.install()
    try:
        dets = hankel.det_sequence("catalan", 40)
    finally:
        recorder.uninstall()
    assert list(dets.values) == [1] * 41
    counts = recorder.summary()["counts"]
    assert counts["hankel.exact_divide_calls"] == 213_200
    assert counts["hankel.det_exact_calls"] == 40
    assert counts["hankel.values_delivered"] == 41
    assert counts["sequences.values_requested"] == 79
    assert not any(k.startswith("exactnum.") for k in counts)


@pytest.mark.parametrize("argv", [
    ("verify", "thm2.1-d0"),
    ("verify", "thm5.2"),
    ("verify", "conj7.7"),
    ("lgv", "--n", "4"),
    ("hankel", "u:r=3|double-signed", "--n-max", "24"),
    ("fit", "narayana", "--depth", "20"),
], ids=command_key)
def test_traced_stdout_is_byte_identical(argv):
    plain = run.run_command(argv, False, run.COMMAND_LIMIT_S, REFERENCES)
    traced = run.run_command(argv, True, run.COMMAND_LIMIT_S, REFERENCES)
    assert plain.ok and traced.ok, (plain.reason, traced.reason)
    assert traced.stdout == plain.stdout
    assert traced.report["spans"] and "spans" not in plain.report


def test_numeric_commands_bypass_the_polynomial_layer():
    argv = ("hankel", "catconv:r=5", "--n-max", "12")
    result = run.run_command(argv, True, run.COMMAND_LIMIT_S, {})
    counts = result.report["counts"]
    assert counts["hankel.det_exact_calls"] == 12
    assert not any(k.startswith("exactnum.") for k in counts)


def test_reference_times_are_per_command_medians_scaled_by_the_probe():
    def result(key, wall, probe_s):
        return run.CommandResult(key, 0, "", wall, wall / 2, 0, b"", {}, probe_s)

    ref = run.PROBE_REF_S
    passes = [
        [result("a", 1.0, ref), result("b", 2.0, 2 * ref)],
        [result("a", 3.0, ref), result("b", 9.0, ref)],
        [result("a", 2.0, 2 * ref), result("b", 4.0, 2 * ref)],
    ]
    # a: medians of 1, 3 and 1; b: medians of 1, 9 and 2.
    assert run.sum_of_medians(passes, "wall_s", reference=True) == 1.0 + 2.0
    assert run.sum_of_medians(passes, "wall_s") == 2.0 + 4.0
    assert run.sum_of_medians(passes, "cpu_s", reference=True) == 0.5 + 1.0


def test_the_probe_is_independent_of_the_package():
    assert "hankelab" not in run.probe.__code__.co_names
    assert 0 < run.probe() < 5


def test_a_command_past_its_limit_is_killed_and_failed():
    argv = ("hankel", "catalan", "--n-max", "50")
    result = run.run_command(argv, False, 0.3, REFERENCES)
    assert not result.ok
    assert result.reason.startswith("killed after")


def test_run_prints_metrics_and_fails_without_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "registry-sweep",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 32
    assert sorted(result["metrics"]) == sorted(run.END_TO_END_UNITS)

    shutil.copytree(bench, tmp_path / "perfbench")
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    bare = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "registry-sweep", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert bare.returncode != 0
    assert bare.stdout == ""
