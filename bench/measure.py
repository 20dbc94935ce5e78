"""Summary statistics, child-process timing and the machine record.

Everything here is independent of chaincast, so the benchmark's own tests
can check it without running the program.
"""

from __future__ import annotations

import os
import platform
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# A tail percentile needs this many samples beyond it to mean anything.
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile of ``samples`` with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With nearest-rank percentiles the
    sample of rank ``n - 10`` (1-based, ascending) has exactly ten samples
    above it, and it is the ``100 * (n - 10) / n`` percentile.  With ten or
    fewer samples no percentile qualifies, and the largest sample alone is
    too noisy to compare runs by; from three samples on, the sample of rank
    ``n - 1`` is returned instead, the highest with a sample beyond it, and
    below that the largest.  ``percentile`` and ``n`` tell the caller which
    case it got.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else int(n >= 3)
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, n


@dataclass(frozen=True)
class ChildResult:
    """One finished child process."""

    argv: tuple[str, ...]
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def run_child(argv, *, env: dict[str, str], cwd: Path, log_stem: Path,
              timeout: float) -> ChildResult:
    """Run one child to completion and time it from spawn to reap.

    Output goes to ``log_stem`` + ``.out``/``.err`` files rather than pipes,
    so the child can never block on a full pipe, and the process is reaped
    with ``wait4`` to read its own peak RSS.  A child still running after
    ``timeout`` seconds is killed and reported as timed out.
    """
    out_path = log_stem.with_suffix(".out")
    err_path = log_stem.with_suffix(".err")
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err, env=env, cwd=cwd)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted (SIGTERM, alarm): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        argv=tuple(argv), returncode=proc.returncode, wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=killed.is_set(),
    )


_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


def machine_record(package_dir: Path) -> dict:
    """Machine and program state that a timing depends on.

    The BLAS thread variables are recorded as inherited; the benchmark
    never sets them, because the threading choice OpenBLAS makes on its own
    is behaviour users see.
    """
    import numpy
    import scipy

    def blas_of(module) -> str:
        try:
            blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{blas['name']} {blas['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(package_dir.glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(numpy),
        "scipy_blas": blas_of(scipy),
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in _BLAS_ENV},
        "src_lines": lines,
    }
