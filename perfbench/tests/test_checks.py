"""Each workload's check passes on real program output and fails on a
corrupted copy of it."""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np

import checks
from reference import reference_rates
from workloads import WorkloadRun
from scenarios import CliSpec
from tristage import (
    ChannelContext,
    Outcome,
    basis_state,
    cli,
    get_family,
    parity_check,
    run_three_stage,
    verify_recovery,
)


def _members(name):
    return [m.matrix for m in get_family(name).members]


def _sifted(errors=3, length=300):
    rng = np.random.default_rng(4)
    alice = rng.integers(0, 2, length, dtype=np.uint8)
    bob = alice.copy()
    bob[rng.choice(length, errors, replace=False)] ^= 1
    report = parity_check(alice.tolist(), bob.tolist(), 8, np.random.default_rng(1))
    return alice, bob, report


def _cli_report(spec, seed=5):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(spec.argv(seed)) == 0
    return out.getvalue()


class TestSift:
    def test_real_report_passes(self):
        for errors in (0, 3):
            assert checks.sift_failures(*_sifted(errors)) == []

    def test_flipped_round_parity_fails(self):
        alice, bob, report = _sifted()
        first = report.rounds[0]
        flipped = dataclasses.replace(first, alice_parity=1 - first.alice_parity)
        corrupted = dataclasses.replace(report, rounds=(flipped, *report.rounds[1:]))
        assert checks.sift_failures(alice, bob, corrupted)

    def test_removed_disclosed_index_fails(self):
        alice, bob, report = _sifted()
        fewer = report.disclosed_indices - {min(report.disclosed_indices)}
        corrupted = dataclasses.replace(report, disclosed_indices=fewer)
        assert checks.sift_failures(alice, bob, corrupted)

    def test_detection_on_identical_keys_fails(self):
        alice, bob, report = _sifted(errors=0)
        assert not report.detected
        corrupted = dataclasses.replace(report, detected=True)
        assert checks.sift_failures(alice, bob, corrupted)


class TestRates:
    def test_rate_moved_by_many_standard_errors_fails(self):
        expected, n = 0.25, 2000
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert checks.rate_failures("rate", expected + sigma, expected, n) == []
        assert checks.rate_failures("rate", expected + 10 * sigma, expected, n)

    def test_exact_rate_off_by_more_than_tolerance_fails(self):
        assert checks.exact_failures("rate", 0.25 + 1e-12, 0.25) == []
        assert checks.exact_failures("rate", 0.25 + 1e-6, 0.25)

    def test_noisy_guess_rate_must_lie_in_the_band(self):
        ref = reference_rates(_members("dft"), (1, 2, 3), noise=0.1)
        n = 400_000
        assert checks.guess_failures("guess", ref.clean_table_guess_rate, ref, n) == []
        assert checks.guess_failures("guess", ref.aware_guess_rate, ref, n) == []
        assert checks.guess_failures("guess", ref.clean_table_guess_low - 0.02, ref, n)
        assert checks.guess_failures("guess", ref.aware_guess_rate + 0.02, ref, n)


class TestCliReports:
    def test_rate_moved_by_many_standard_errors_fails(self):
        spec = CliSpec("hadamard", 400, eve_stages=(1,))
        text = _cli_report(spec)
        ref = reference_rates(_members("hadamard"), (1,))
        assert checks.cli_report_failures(text, spec.echoed_config(5), ref) == []
        report = json.loads(text)
        report["per_trial"][0]["bit_error_rate"] += 10 * math.sqrt(0.25 * 0.75 / 400)
        assert checks.cli_report_failures(json.dumps(report), spec.echoed_config(5), ref)

    def test_exact_block_off_the_reference_fails(self):
        spec = CliSpec("dft", 200, eve_stages=(1,), mode="exact")
        text = _cli_report(spec)
        ref = reference_rates(_members("dft"), (1,))
        assert checks.cli_report_failures(text, spec.echoed_config(5), ref) == []
        report = json.loads(text)
        report["exact"]["eve_guess_success_rate"] += 1e-6
        assert checks.cli_report_failures(json.dumps(report), spec.echoed_config(5), ref)

    def test_clean_session_with_a_detection_fails(self):
        spec = CliSpec("controlled-pair", 200)
        text = _cli_report(spec)
        ref = reference_rates(_members("controlled-pair"))
        assert checks.cli_report_failures(text, spec.echoed_config(5), ref) == []
        report = json.loads(text)
        report["per_trial"][0]["parity_detected"] = True
        assert checks.cli_report_failures(json.dumps(report), spec.echoed_config(5), ref)

    def test_repeated_reports_may_differ_only_in_wall_time(self):
        text = _cli_report(CliSpec("pauli", 100, eve_stages=(2,)))
        report = json.loads(text)
        report["wall_time_seconds"] += 1.5
        slower = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert checks.strip_wall_time(slower) == checks.strip_wall_time(text)
        report["per_trial"][0]["bit_error_rate"] += 0.01
        changed = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert checks.strip_wall_time(changed) != checks.strip_wall_time(text)


def test_clean_run_that_lost_its_secret_fails():
    family = get_family("pauli")
    transcript = run_three_stage(basis_state(0, 1), family.member("X"), family.member("Y"),
                                 ChannelContext(), np.random.default_rng(3))
    assert checks.transcript_failures(
        transcript, 0, verify_recovery(transcript), 0, clean=True) == []
    lost = dataclasses.replace(
        transcript, recovered=basis_state(1, 1), measured=Outcome.from_index(1, 1))
    assert checks.transcript_failures(lost, 0, verify_recovery(lost), 0, clean=True)


def test_failed_operation_is_counted_but_does_not_fail_the_checks():
    run = WorkloadRun("long-key-sift", 0, in_process=True, root=None, env=None)

    def broken():
        raise OverflowError("boom")

    assert run._timed("sift_s", "bits", 10, "parity_check", broken) is None
    assert (run.attempted, run.failed, run.correct) == (1, 1, True)
    run._timed("sift_s", "bits", 10, "parity_check", lambda: None)
    assert list(run._samples) == [("sift_s", 0, 1)]  # the failed call kept its place
    run._fail("parity_check", ["round 0: parities disagree"])
    assert not run.correct


def test_throughput_takes_each_place_median_over_rounds():
    run = WorkloadRun("long-key-sift", 0, in_process=True, root=None, env=None)
    for seconds in ((1.0, 3.0), (1.0, 3.0), (10.0, 30.0)):  # the last round is slow
        run._place = (0, 0)
        for s in seconds:
            run._record("sift_s", s, "bits", 100)
    value, unit = run.end_to_end()["sift_bits_per_s"]
    assert (value, unit) == (200 / 4.0, "bits/s")
    assert run.totals["sift_s"] == 48.0 and run.totals["bits"] == 600
