"""Host control and host record for the benchmark process tree.

Everything here acts on the benchmark's own processes and only reads
``/proc``. The recorded host figures (nproc, affinity, burn calibration,
steal) are printed beside the metrics and never used to scale them.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def nproc() -> int:
    """What ``nproc`` prints: the affinity count, capped by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT``."""
    exe = shutil.which("nproc")
    if exe:
        return int(subprocess.run([exe], capture_output=True, text=True, check=True).stdout)
    return len(os.sched_getaffinity(0))


def restrict_affinity(n: int) -> list[int]:
    """Pin this process (and so every child it starts later) to the
    first ``n`` CPUs it may run on."""
    cpus = sorted(os.sched_getaffinity(0))[:n]
    os.sched_setaffinity(0, cpus)
    return cpus


def burn_s(n: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python loop: a record of host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i
    return time.perf_counter() - t0


def steal_s() -> float:
    """Machine-wide steal seconds since boot (``/proc/stat``)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return None
    return s[s.rfind(")") + 2 :].split()  # fields from 3 (state) on


def descendants(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and every descendant that has
    not exited (zombies are left out)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None and st[0] != "Z":
                children.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def tree_cpu_s(pids: list[int]) -> float:
    """user+sys CPU seconds of ``pids``, including their reaped children."""
    total = 0
    for pid in pids:
        st = _stat(pid)
        if st is not None:
            total += sum(int(x) for x in st[11:15])  # utime stime cutime cstime
    return total / _TICK


def tree_rss_mb(pids: list[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1])
        except (OSError, IndexError):
            pass
    return total * _PAGE / 1e6


class RoundMonitor:
    """Samples one round from a background thread: the peak summed RSS
    of the process tree (every 50 ms, tree re-listed every second) and
    the first moment ``watch_path`` exists (polled every 2 ms until it
    does). Use as a context manager around the round."""

    def __init__(self, watch_path: str, t0: float):
        self.watch_path = watch_path
        self.t0 = t0
        self.peak_rss_mb = 0.0
        self.first_seen_s: float | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pids, listed, sampled = descendants(), time.monotonic(), 0.0
        while not self._stop.is_set():
            now = time.monotonic()
            if self.first_seen_s is None and os.path.exists(self.watch_path):
                self.first_seen_s = now - self.t0
            if now - sampled >= 0.05:
                if now - listed >= 1.0:
                    pids, listed = descendants(), now
                self.peak_rss_mb = max(self.peak_rss_mb, tree_rss_mb(pids))
                sampled = now
            self._stop.wait(0.002 if self.first_seen_s is None else 0.05)

    def __enter__(self) -> RoundMonitor:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def stop_descendants(timeout_s: float = 20.0) -> list[int]:
    """Wait for every descendant of this process to end; SIGKILL those
    left after ``timeout_s`` and wait 5 s more. Returns the killed pids."""
    if _wait_gone(timeout_s):
        return []
    left = _live_descendants()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _wait_gone(5.0)
    return left


def _live_descendants() -> list[int]:
    me = os.getpid()
    return [p for p in descendants() if p != me]


def _wait_gone(timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while True:
        _reap()
        if not _live_descendants():
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.1)


def _reap() -> None:
    """Collect exited children of this process so none stays a zombie."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
