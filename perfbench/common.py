"""Shared plumbing of the repository benchmark.

Paths, the program's pinned environment, child-process lifetime,
``/proc`` readers, host context, statistics and the result line.

Nothing in this module imports ``repro``. The benchmark process drives
the program through child processes and HTTP only, so the benchmark's
own imports never count toward the program's set-up time or memory.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root: the benchmark lives one directory below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Everything the benchmark writes lives here (ignored by git).
WORK = ROOT / ".bench_build" / "perfbench"

#: Every ``REPRO_*`` knob the program reads, pinned to its default so an
#: ambient setting can never change what is measured. ``REPRO_CACHE_DIR``
#: is set per run to a fresh directory (see :func:`program_env`).
PINNED_KNOBS = {
    "REPRO_SCALE": "0.08",
    "REPRO_MAX_MODELS": "8",
    "REPRO_ADAPTER_CACHE_MB": "512",
    "REPRO_ENTITY_CACHE_MB": "256",
}

#: Thread-pool knobs of the BLAS libraries numpy may be built on.
BLAS_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Iterations of the host reference loop (about 0.1-0.2 s of pure Python).
CPU_REF_ITERATIONS = 2_000_000

#: ``FS_IOC_GETFLAGS``/``FS_IOC_SETFLAGS`` and ``FS_TOPDIR_FL`` (linux/fs.h).
_FS_IOC_GETFLAGS = 0x80086601
_FS_IOC_SETFLAGS = 0x40086602
_FS_TOPDIR_FL = 0x00020000


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, child crashed...)."""


def check_layout() -> None:
    """Fail fast when the program's source tree is not beside us."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program source under {SRC}; run from a checkout")


def program_env(cache_dir: Path, blas_threads: int | None = None) -> dict[str, str]:
    """The environment every program process gets.

    Inherited ``REPRO_*`` variables are dropped, every knob is pinned,
    and the on-disk caches point at ``cache_dir``, which the caller
    creates fresh for each run: the default ``.repro_cache`` would leave
    every run after the first one warm. Hash randomization is fixed so
    that every run lays out its sets and dicts alike. ``blas_threads``,
    when given, caps the BLAS thread pool (see :data:`BLAS_KNOBS`);
    otherwise an inherited cap is dropped and the library default holds.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH" and key not in BLAS_KNOBS
    }
    env.update(PINNED_KNOBS)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    if blas_threads is not None:
        env.update({knob: str(blas_threads) for knob in BLAS_KNOBS})
    return env


def compile_sources() -> None:
    """Byte-compile the program once, outside every timed region.

    Without it the first interpreter of a checkout would pay compilation
    inside its set-up time and every later one would not.
    """
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=300,
    )


def source_digest(*extra: Path) -> str:
    """Content digest of the program's sources plus ``extra`` files."""
    digest = hashlib.sha256()
    files = sorted(
        path for path in SRC.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    for path in [*files, *extra]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ------------------------------------------------------------ processes

_CHILDREN: list[subprocess.Popen] = []


def _raise_exit(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def install_signal_handlers() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks reap children."""
    signal.signal(signal.SIGTERM, _raise_exit)


def spawn(args: list[str], env: dict[str, str], log: Path, cwd: Path) -> subprocess.Popen:
    """Start a child whose output goes to ``log``; it is reaped by :func:`reap`."""
    with log.open("ab") as handle:
        proc = subprocess.Popen(
            args, env=env, cwd=cwd, stdout=handle, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
    _CHILDREN.append(proc)
    return proc


def reap(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Stop ``proc`` (SIGINT, then SIGKILL after ``grace``) and wait for it."""
    if proc.returncode is None and proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in _CHILDREN:
        _CHILDREN.remove(proc)


def reap_all() -> None:
    for proc in list(_CHILDREN):
        reap(proc, grace=5.0)


def wait_rusage(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc``; return (exit code, peak RSS in MiB) from wait4."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc in _CHILDREN:
                _CHILDREN.remove(proc)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            raise BenchError(f"child {proc.args[:3]} timed out after {timeout:.0f}s")
        time.sleep(0.02)


def log_tail(log: Path, lines: int = 30) -> str:
    try:
        return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def run_python(script: str, args: list[str], env: dict[str, str], log: Path,
               cwd: Path, timeout: float) -> float:
    """Run ``perfbench/<script>`` to completion; return its peak RSS (MiB)."""
    proc = spawn([sys.executable, str(BENCH_DIR / script), *args], env, log, cwd)
    try:
        code, peak_mb = wait_rusage(proc, timeout)
    finally:
        reap(proc)
    if code != 0:
        raise BenchError(f"{script} {args[:1]} exited {code}:\n{log_tail(log)}")
    return peak_mb


def settle() -> None:
    """Write dirty pages back now, outside every timed window.

    The kernel writes a dirty page back about 30 s after it was written.
    Without this, the thousands of entity-store files one phase writes
    are flushed during whichever phase happens to run 30 s later.
    """
    os.sync()


def spread_subdirectories(directory: Path) -> None:
    """Ask ext4 to put each subdirectory of ``directory`` in a block group
    of its own (the "top directory" flag); elsewhere this does nothing.

    Each run deletes the tens of thousands of entity-store files it
    wrote. An ext4 file system without a journal will not hand out an
    inode again for a minute or more after it was freed, and each new
    inode then costs a scan past the group's recently freed ones. Without
    the flag the next run's directory lands in the same block group, and
    its first file creations cost several times more CPU (measured: 4,000
    creates took 1.2-2.2 s instead of 0.2-0.3 s), by an amount that
    depends on how long ago the previous run ended.
    """
    try:
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return
    try:
        flags = int.from_bytes(fcntl.ioctl(fd, _FS_IOC_GETFLAGS, bytes(4)), sys.byteorder)
        if not flags & _FS_TOPDIR_FL:
            fcntl.ioctl(fd, _FS_IOC_SETFLAGS,
                        (flags | _FS_TOPDIR_FL).to_bytes(4, sys.byteorder))
    except OSError:
        pass
    finally:
        os.close(fd)


class RunDir:
    """A fresh per-run directory under :data:`WORK`, removed afterwards."""

    def __init__(self, workload: str, seed: int) -> None:
        self.path = WORK / f"run-{workload}-{seed}-{os.getpid()}"

    def __enter__(self) -> Path:
        WORK.mkdir(parents=True, exist_ok=True)
        spread_subdirectories(WORK)
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir()
        settle()
        return self.path

    def __exit__(self, *exc_info) -> None:
        reap_all()
        shutil.rmtree(self.path, ignore_errors=True)


# ------------------------------------------------------------------ /proc

def proc_status_mb(pid: int, field: str) -> float:
    """A ``VmRSS``/``VmHWM``-style field of ``/proc/<pid>/status``, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"{field} missing from /proc/{pid}/status")


def count_files(directory: Path) -> tuple[int, float]:
    """(number of files, MiB) under ``directory`` (0, 0 when absent)."""
    files = 0
    size = 0
    if directory.is_dir():
        for entry in directory.rglob("*"):
            if entry.is_file():
                files += 1
                size += entry.stat().st_size
    return files, size / (1024.0 * 1024.0)


# ------------------------------------------------------------ host context

def cpu_ref_ms() -> float:
    """Milliseconds of a fixed pure-Python loop: a host-speed reading.

    Recorded beside every run so machine drift can be told apart from a
    program change; never used to normalize a metric (dividing by it was
    measured to double the spread of a 5-s transform).
    """
    start = time.perf_counter()
    total = 0
    for i in range(CPU_REF_ITERATIONS):
        total += i & 7
    return (time.perf_counter() - start) * 1000.0


def loadavg() -> list[float]:
    with open("/proc/loadavg") as handle:
        return [float(x) for x in handle.read().split()[:3]]


def host_context() -> dict:
    return {"cpu_ref_ms": cpu_ref_ms(), "loadavg": loadavg(),
            "nproc": os.cpu_count()}


# ------------------------------------------------------------ statistics

def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count). With N samples that is the
    nearest-rank percentile 100*(N-10)/N, i.e. the 11th-largest sample.
    """
    n = len(values)
    if n < 20:
        raise BenchError(f"tail needs at least 20 samples, got {n}")
    ordered = sorted(values)
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def median_tail(slices: list[list[float]]) -> tuple[float, float, int]:
    """The median over ``slices`` of each slice's :func:`tail`.

    One tail percentile rests on its ten largest samples, i.e. on the
    host's few worst moments in the slice; the median over slices spread
    across a run does not. Returns (value, percentile, sample count) with
    the percentile and count of the smallest slice.
    """
    tails = [tail(values) for values in slices]
    smallest = min(tails, key=lambda t: t[2])
    return median([t[0] for t in tails]), smallest[1], smallest[2]


# ------------------------------------------------------------ reporting

def emit(correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def note(text: str) -> None:
    """A human-readable line before the result (the result stays last)."""
    print(text, flush=True)


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)
