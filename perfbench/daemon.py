"""sdafd lifecycle for the service_mix workload.

Every run gets a socket path of its own, and the daemon is reaped and its
socket removed on every exit path, including a failed or interrupted run.
"""

import itertools
import os
import secrets
import select
import signal
import subprocess
import time
from pathlib import Path

_counter = itertools.count()

READY_TIMEOUT_S = 10.0


class DaemonError(RuntimeError):
    pass


class Daemon:
    """Context manager around one sdafd process.

    argv is the daemon command without the socket flag; run_dir is where the
    socket and the daemon's stderr file live (relative to cwd, inside the
    checkout); cpus, when given, are the CPUs it may run on. spawn_ns and
    ready_ns are CLOCK_MONOTONIC just before the spawn and when the
    daemon's "listening" line arrived: its start-up time is the difference.
    """

    def __init__(self, argv, run_dir, cwd, cpus=None):
        self.argv = list(argv)
        self.cpus = cpus
        self.run_dir = Path(run_dir)
        self.cwd = Path(cwd)
        tag = f"{os.getpid()}-{next(_counter)}-{secrets.token_hex(4)}"
        self.socket = str(self.run_dir / f"sdafd-{tag}.sock")
        self.err_path = self.cwd / self.run_dir / f"sdafd-{tag}.err"
        self.proc = None
        self.spawn_ns = 0
        self.ready_ns = 0
        self.stderr = ""

    def __enter__(self):
        (self.cwd / self.run_dir).mkdir(parents=True, exist_ok=True)
        if (self.cwd / self.socket).exists():
            raise DaemonError(f"socket {self.socket} already exists")
        try:
            with open(self.err_path, "w") as err:
                self._spawn(err)
            self._wait_ready()
        except BaseException:
            self._reap()
            raise
        return self

    def _spawn(self, err):
        # The daemon inherits this process's CPUs. Setting them here rather
        # than in a preexec_fn lets Popen use vfork, so the spawn costs the
        # daemon's exec, not a copy of this interpreter.
        saved = os.sched_getaffinity(0)
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)
        try:
            self.spawn_ns = time.monotonic_ns()
            self.proc = subprocess.Popen(
                self.argv + [f"--unix={self.socket}"], cwd=self.cwd,
                stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL)
        finally:
            os.sched_setaffinity(0, saved)

    def _wait_ready(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in line:
            left = deadline - time.monotonic()
            if left <= 0:
                raise DaemonError("daemon did not report readiness in time")
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise DaemonError(
                    f"daemon exited before it was ready: {self._read_err()}")
            line += chunk
        self.ready_ns = time.monotonic_ns()
        if not line.startswith(b"listening unix"):
            raise DaemonError(f"unexpected daemon greeting {line!r}")

    def drain(self, timeout=10.0):
        """SIGTERM and wait: True when the daemon drained and exited 0."""
        if self.proc is None or self.proc.poll() is not None:
            return False
        self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
        self.stderr = self._read_err()
        return rc == 0 and "sdafd: done" in self.stderr

    def _read_err(self):
        try:
            return self.err_path.read_text()
        except OSError:
            return ""

    def _reap(self):
        proc = self.proc
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        for path in (self.cwd / self.socket, self.err_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def __exit__(self, *exc):
        self._reap()
        return False
