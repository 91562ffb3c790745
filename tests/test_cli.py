"""Tests for the command-line front end and its report serialization."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tristage
from tristage import family_names
from tristage.cli import main, parse_arguments, run_experiment


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentParsing:
    def test_run_defaults(self):
        cfg = parse_arguments(["run", "--family", "pauli"])
        assert cfg.family == "pauli"
        assert cfg.blocks == 100
        assert cfg.trials == 1
        assert cfg.eve_stages == ()
        assert cfg.eve_basis is None
        assert cfg.noise == 0.0
        assert cfg.parity_rounds == 5
        assert cfg.seed == 0
        assert cfg.mode == "monte-carlo"
        assert cfg.output == "json"

    def test_bare_invocation_defaults_to_run(self):
        cfg = parse_arguments(["--family", "hadamard", "--blocks", "7"])
        assert cfg.family == "hadamard"
        assert cfg.blocks == 7

    def test_eve_stages_parsed_and_sorted(self):
        cfg = parse_arguments(
            ["run", "--family", "pauli", "--eve-stages", "3,1"]
        )
        assert cfg.eve_stages == (1, 3)

    def test_exact_mode_forces_single_trial(self):
        cfg = parse_arguments(
            ["run", "--family", "pauli", "--mode", "exact", "--trials", "9"]
        )
        assert cfg.trials == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--family", "nope"],
            ["run", "--family", "pauli", "--noise", "1.5"],
            ["run", "--family", "pauli", "--noise", "-0.1"],
            ["run", "--family", "pauli", "--blocks", "0"],
            ["run", "--family", "pauli", "--trials", "0"],
            ["run", "--family", "pauli", "--seed", "-1"],
            ["run", "--family", "pauli", "--eve-stages", "0"],
            ["run", "--family", "pauli", "--eve-stages", "1,4"],
            ["run", "--family", "pauli", "--eve-stages", "one"],
            ["run", "--family", "pauli", "--eve-basis", "H"],
            ["run", "--family", "pauli", "--eve-stages", "1", "--eve-basis", "DFT4"],
        ],
    )
    def test_usage_errors_exit_two(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            parse_arguments(argv)
        assert excinfo.value.code == 2


class TestRunCommand:
    def test_clean_run_reports_zero_errors(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["run", "--family", "pauli", "--blocks", "50", "--seed", "3"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["config"]["family"] == "pauli"
        assert payload["bit_error_rate_mean"] == 0.0
        assert all(not t["parity_detected"] for t in payload["per_trial"])
        assert payload["eve_guess_success_rate"] is None

    def test_eavesdropped_run_reports_errors(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "run",
                "--family",
                "hadamard",
                "--blocks",
                "400",
                "--eve-stages",
                "1",
                "--seed",
                "12",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.15 < payload["bit_error_rate_mean"] < 0.35
        assert 0.6 < payload["eve_guess_success_rate"] < 0.9

    def test_repeat_runs_identical_apart_from_wall_time(self, capsys):
        argv = [
            "run",
            "--family",
            "dft",
            "--blocks",
            "60",
            "--trials",
            "3",
            "--eve-stages",
            "2",
            "--seed",
            "5",
        ]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        a = json.loads(first)
        b = json.loads(second)
        a.pop("wall_time_seconds")
        b.pop("wall_time_seconds")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_csv_output_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "run",
                "--family",
                "pauli",
                "--blocks",
                "20",
                "--trials",
                "4",
                "--output",
                "csv",
                "--seed",
                "8",
            ],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert rows[0]["schema_version"] == "1"
        assert rows[0]["family"] == "pauli"
        assert [r["trial"] for r in rows] == ["0", "1", "2", "3"]
        assert all(r["parity_detected"] in {"true", "false"} for r in rows)
        assert all(r["eve_guess_success_rate"] == "" for r in rows)

    def test_exact_mode_includes_reference_rates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "run",
                "--family",
                "hadamard",
                "--blocks",
                "500",
                "--mode",
                "exact",
                "--eve-stages",
                "1",
                "--seed",
                "4",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        exact = payload["exact"]
        assert exact["bit_error_rate"] == pytest.approx(0.25, abs=1e-12)
        assert exact["detection_relevant_disturbance"] == pytest.approx(0.25, abs=1e-12)
        assert exact["eve_guess_success_rate"] == pytest.approx(0.75, abs=1e-12)
        deltas = payload["deltas"]
        assert abs(deltas["bit_error_rate"]) < 0.07
        assert payload["exact"]["branch_count"] > 0

    def test_exact_mode_clean_channel_is_zero(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["run", "--family", "quaternion", "--blocks", "30", "--mode", "exact"],
        )
        payload = json.loads(out)
        assert payload["exact"]["bit_error_rate"] == 0.0
        assert payload["exact"]["eve_guess_success_rate"] is None
        # One branch per (Alice, Bob, secret) row: 4 * 4 members, 4 secrets.
        assert payload["exact"]["branch_count"] == 64

    def test_exact_mode_on_noisy_channel(self, capsys):
        """Exact mode enumerates the flip patterns too, so Eve's guess rate
        is MAP for the noisy channel, and the session samples it."""
        blocks = 4000
        code, out, _ = run_cli(
            capsys,
            ["run", "--family", "dft", "--mode", "exact", "--eve-stages", "1,2,3",
             "--noise", "0.05", "--blocks", str(blocks)],
        )
        assert code == 0
        payload = json.loads(out)
        expected = payload["exact"]["eve_guess_success_rate"]
        assert expected == pytest.approx(0.625, abs=1e-12)
        observed = payload["per_trial"][0]["eve_guess_success_rate"]
        tolerance = 5 * math.sqrt(expected * (1 - expected) / blocks) + 3 / blocks
        assert abs(observed - expected) <= tolerance

    def test_pre_rotation_basis_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "run",
                "--family",
                "pauli",
                "--blocks",
                "80",
                "--eve-stages",
                "1",
                "--eve-basis",
                "H",
                "--seed",
                "6",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["eve_basis"] == "H"


class TestOtherCommands:
    def test_list_families_names_every_catalog_entry(self, capsys):
        code, out, _ = run_cli(capsys, ["list-families"])
        assert code == 0
        for name in family_names():
            assert name in out

    def test_verify_families_reports_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-families"])
        assert code == 0
        for name in family_names():
            assert name in out
        assert "PASS" in out

    def test_module_entry_point(self):
        """The child finds the package this test imported, even when only
        pytest's own path setting put it on the path."""
        proc = subprocess.run(
            [sys.executable, "-m", "tristage", "list-families"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "pauli" in proc.stdout


def _child_env() -> dict:
    """The environment of a child process that imports the package this test imported."""
    source = str(Path(tristage.__file__).parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}


#: A `tristage run` that prints its own peak resident memory, in kB, to stderr.
_PEAK_CHILD = """
import sys
from tristage.cli import main
code = main(["run", *sys.argv[1:]])
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM")).split()[1], file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_session_memory_is_bounded_in_blocks():
    """From 0.5M to 2.5M dft blocks, Eve at every stage and noise 0.05, a
    run's peak memory grows by at most 10 bytes per block: each block keeps
    its four key bits as bytes, and the draws and the sifting work in
    chunks or on the packed keys."""
    peaks = {}
    for blocks in (500_000, 2_500_000):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_CHILD, "--family", "dft", "--blocks", str(blocks),
             "--eve-stages", "1,2,3", "--noise", "0.05", "--seed", "5"],
            capture_output=True, text=True, env=_child_env(), check=True)
        peaks[blocks] = int(proc.stderr.split()[-1]) * 1024
    growth = (peaks[2_500_000] - peaks[500_000]) / 2_000_000
    assert growth <= 10, f"{growth:.1f} bytes per block, peaks {peaks}"


class TestReportSerialization:
    def test_json_keys_are_sorted(self):
        cfg = parse_arguments(["run", "--family", "pauli", "--blocks", "5"])
        report = run_experiment(cfg)
        payload = json.loads(report.to_json())
        assert list(payload) == sorted(payload)

    def test_stderr_absent_for_single_trial(self):
        cfg = parse_arguments(["run", "--family", "pauli", "--blocks", "5"])
        report = run_experiment(cfg)
        assert report.bit_error_rate_stderr is None

    def test_stderr_present_for_repeated_trials(self):
        cfg = parse_arguments(
            [
                "run",
                "--family",
                "hadamard",
                "--blocks",
                "30",
                "--trials",
                "5",
                "--eve-stages",
                "1",
                "--seed",
                "2",
            ]
        )
        report = run_experiment(cfg)
        assert report.bit_error_rate_stderr is not None
        assert report.bit_error_rate_stderr >= 0.0
