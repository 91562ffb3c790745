"""Peak resident memory of one process image, and a launcher that reports it.

On Linux a child's ``ru_maxrss`` keeps its parent's peak across fork and
exec, so a small program started from a larger one reports the larger
figure.  ``VmHWM`` in ``/proc/self/status`` starts afresh with each program
image, so `peak_rss_mb` reads that and falls back to ``ru_maxrss`` where
there is no ``/proc``.

Usage: ``python3 perfbench/peakrss.py <module> [args...]`` runs the module
as ``python3 -m <module> [args...]`` would and, when it ends, writes one
``perfbench-peak-rss-kb <n>`` line to standard error.
"""

import os
import resource
import runpy
import sys

MARKER = "perfbench-peak-rss-kb"


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def split_marker(stderr: str) -> tuple[str, float | None]:
    """Standard error without the launcher's line, and the peak it gave (MB)."""
    kept, peak = [], None
    for line in stderr.splitlines(keepends=True):
        if line.startswith(MARKER + " "):
            peak = int(line.split()[1]) / 1024.0
        else:
            kept.append(line)
    return "".join(kept), peak


if __name__ == "__main__":
    sys.argv = sys.argv[1:]
    sys.path[0] = os.getcwd()  # as ``python -m`` has it
    try:
        runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        print(f"{MARKER} {round(peak_rss_mb() * 1024)}", file=sys.stderr, flush=True)
