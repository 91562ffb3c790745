"""A process started through ``peakrss.py`` reports its own peak memory,
not that of the larger process that started it."""

import subprocess
import sys
from pathlib import Path

import pytest

from peakrss import MARKER, peak_rss_mb, split_marker

LAUNCHER = Path(__file__).resolve().parent.parent / "peakrss.py"


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc")
def test_child_reports_its_own_peak_not_its_parents():
    ballast = bytearray(128 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    assert peak_rss_mb() > 128
    child = subprocess.run([sys.executable, str(LAUNCHER), "json.tool", "--help"],
                           capture_output=True, text=True, check=True)
    err, peak = split_marker(child.stderr)
    assert MARKER not in err
    assert "json.tool" in child.stdout
    assert 0 < peak < 64
    del ballast


def test_split_marker_keeps_other_lines_and_exit_status():
    child = subprocess.run(
        [sys.executable, str(LAUNCHER), "json.tool", "/no/such/file"],
        capture_output=True, text=True)
    err, peak = split_marker(child.stderr)
    assert child.returncode != 0
    assert "No such file" in err and MARKER not in err
    assert peak is not None and peak > 0
