"""Output checks for the benchmark workloads.

Each function takes what the program returned plus what the benchmark knows
independently (the reference enumerator, the inputs it generated) and
returns a list of failure messages; an empty list means the output passed.
Nothing here compares against saved copies of earlier output.

Sampled rates are judged by a tolerance of ``K_SIGMA`` standard errors plus
``SMALL_COUNT / n``.  The standard error uses ``p (1 - p) / n``, which
bounds the variance of any per-sample fraction in [0, 1] with mean p; the
small-count term keeps rates near 0 or 1, where the normal approximation
fails, from raising false alarms.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

K_SIGMA = 5.0
SMALL_COUNT = 3.0
EXACT_TOL = 1e-9

#: Keys up to this length also have ``ParityRound.indices`` compared with the
#: subset decoded here; the property costs time quadratic in key length.
INDICES_CHECK_LIMIT = 25_000

_WALL_TIME = re.compile(r'"wall_time_seconds": [^,\n}]+')


def rate_tolerance(expected: float, n: int) -> float:
    variance = max(expected * (1.0 - expected), 0.0)
    return K_SIGMA * math.sqrt(variance / n) + SMALL_COUNT / n


def rate_failures(name: str, observed, expected: float, n: int) -> list[str]:
    """A sampled rate over ``n`` samples must lie near its exact value."""
    if observed is None:
        return [f"{name}: missing, expected {expected:.6f}"]
    tol = rate_tolerance(expected, n)
    if abs(observed - expected) > tol:
        return [f"{name}: {observed:.6f} is not within {tol:.6f} of {expected:.6f} (n={n})"]
    return []


def band_failures(name: str, observed, low: float, high: float, n: int) -> list[str]:
    """A sampled rate must lie between two exact rates, up to sampling error."""
    if observed is None:
        return [f"{name}: missing, expected within [{low:.6f}, {high:.6f}]"]
    if observed < low - rate_tolerance(low, n) or observed > high + rate_tolerance(high, n):
        return [f"{name}: {observed:.6f} outside [{low:.6f}, {high:.6f}] (n={n})"]
    return []


def exact_failures(name: str, observed: float, expected: float) -> list[str]:
    if abs(observed - expected) > EXACT_TOL:
        return [f"{name}: {observed!r} differs from reference {expected!r}"]
    return []


def guess_failures(name: str, observed, ref, n: int) -> list[str]:
    """Eve's sampled guess rate against the reference for uniform secrets.

    On a noisy channel the program may decide from the noise-free MAP table
    or from a noise-aware one, so the rate must lie in the band between the
    lowest noise-free-table rate and the noise-aware MAP rate.
    """
    if ref.aware_guess_rate is None:
        return [] if observed is None else [f"{name}: {observed} reported without Eve"]
    return band_failures(name, observed, ref.clean_table_guess_low, ref.aware_guess_rate, n)


def mask_indices(mask: int) -> np.ndarray:
    """Bit positions set in a subset mask, least significant bit first."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def sift_failures(alice: np.ndarray, bob: np.ndarray, report) -> list[str]:
    """Check a `SiftReport` against numpy parities of the generated keys."""
    failures = []
    length = alice.size
    disclosed = np.zeros(length, dtype=bool)
    mismatch = False
    for number, parity_round in enumerate(report.rounds):
        idx = mask_indices(parity_round.subset_mask)
        if idx.size == 0 or idx[-1] >= length:
            failures.append(f"round {number}: subset {idx[:3]}... is empty or out of range")
            continue
        disclosed[idx] = True
        if length <= INDICES_CHECK_LIMIT and parity_round.indices != tuple(idx.tolist()):
            failures.append(f"round {number}: indices disagree with subset_mask")
        a_parity = int(alice[idx].sum() & 1)
        b_parity = int(bob[idx].sum() & 1)
        mismatch |= a_parity != b_parity
        if (parity_round.alice_parity, parity_round.bob_parity) != (a_parity, b_parity):
            failures.append(
                f"round {number}: parities {parity_round.alice_parity},"
                f"{parity_round.bob_parity}, numpy gives {a_parity},{b_parity}"
            )
    if set(report.disclosed_indices) != set(np.flatnonzero(disclosed).tolist()):
        failures.append("disclosed_indices differ from the union of the round subsets")
    if report.detected != mismatch:
        failures.append(f"detected={report.detected}, but some round mismatches: {mismatch}")
    if report.detected and np.array_equal(alice, bob):
        failures.append("detected an error on identical keys")
    return failures


def strip_wall_time(text: str) -> str:
    return _WALL_TIME.sub('"wall_time_seconds": _', text)


def cli_report_failures(text: str, args: dict, ref) -> list[str]:
    """Check one ``tristage run`` JSON report against the reference rates.

    ``args`` holds the ``config`` fields the report must echo (family,
    blocks, trials, Eve's stages and basis, noise, mode, seed); ``ref`` is
    the `ReferenceRates` of its family and channel.
    """
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    failures = []
    config = report["config"]
    for key, value in args.items():
        if config[key] != value:
            failures.append(f"config.{key} echoes {config[key]!r}, expected {value!r}")
    rows = report["per_trial"]
    if len(rows) != args["trials"]:
        failures.append(f"{len(rows)} per-trial rows, expected {args['trials']}")
    clean = ref.aware_guess_rate is None and args["noise"] == 0.0
    for row in rows:
        name = f"trial {row['trial']}"
        failures += rate_failures(
            f"{name} bit_error_rate", row["bit_error_rate"], ref.mean_bit_error_rate,
            args["blocks"],
        )
        failures += guess_failures(
            f"{name} eve_guess_success_rate", row["eve_guess_success_rate"], ref,
            args["blocks"],
        )
        if clean and (row["bit_error_rate"] != 0.0 or row["parity_detected"]):
            failures.append(f"{name}: clean channel gave errors or a parity detection")
    if args["mode"] == "exact" and ref.aware_guess_rate is not None:
        exact = report["exact"]
        failures += exact_failures("exact.bit_error_rate", exact["bit_error_rate"],
                                   ref.mean_bit_error_rate)
        failures += exact_failures("exact.detection_relevant_disturbance",
                                   exact["detection_relevant_disturbance"], ref.mean_disturbance)
        failures += exact_failures("exact.eve_guess_success_rate",
                                   exact["eve_guess_success_rate"], ref.aware_guess_rate)
        failures += exact_failures(
            "deltas.bit_error_rate", report["deltas"]["bit_error_rate"],
            report["bit_error_rate_mean"] - exact["bit_error_rate"],
        )
    return failures


def recovered_secret(recovered: np.ndarray, secret_index: int) -> bool:
    """True when the recovered amplitudes are the basis secret up to phase."""
    return abs(abs(recovered[secret_index]) - 1.0) <= EXACT_TOL


def transcript_failures(transcript, secret_index: int, verified: bool, attacked: int,
                        clean: bool) -> list[str]:
    """Per-run checks of one `Transcript` from `run_three_stage`."""
    failures = []
    recovered = recovered_secret(np.asarray(transcript.recovered.amplitudes), secret_index)
    if verified != recovered:
        failures.append(f"verify_recovery={verified}, but the overlap test gives {recovered}")
    if len(transcript.eve_records) != attacked:
        failures.append(f"{len(transcript.eve_records)} Eve records, expected {attacked}")
    if clean and not (recovered and verified and transcript.measured.index == secret_index):
        failures.append(
            f"clean run did not recover secret {secret_index} "
            f"(measured {transcript.measured.index})"
        )
    return failures
