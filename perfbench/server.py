"""The served system under test: ``python -m repro serve`` as a child.

Also the stdlib-only ``/proc`` readings (CPU and peak resident set of the
server and its worker processes) and the leak check that runs after
each shutdown.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

SHM_DIR = "/dev/shm"
_TICKS = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def shm_segments() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    # The command name may hold spaces; fields resume after its ")".
    return text[text.rindex(")") + 2:].split()


def _alive(pid: int, start_ticks: str) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z" and fields[19] == start_ticks


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        found.append(pid)
        frontier.extend(children.get(pid, ()))
    return found


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """User + system CPU of each live pid."""
    out = {}
    for pid in pids:
        fields = _stat(pid)
        if fields is not None:
            out[pid] = (int(fields[11]) + int(fields[12])) / _TICKS
    return out


def peak_rss_mb(pids: list[int]) -> float:
    """The largest peak resident set (VmHWM) among ``pids``."""
    peak = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except (FileNotFoundError, ProcessLookupError):
            continue
    return peak / 1024.0


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


class Server:
    """One ``repro serve`` process over the generated CSV networks."""

    def __init__(self, root: str, dirs: dict[str, str], workers: int, log_path: str) -> None:
        self.root = root
        self.log_path = log_path
        self.dirs = dirs
        self.workers = workers
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.launched_at = 0.0
        self._seen: dict[int, str] = {}

    def launch(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        cmd = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
               "--port", "0", "--workers", str(self.workers)]
        for name, path in self.dirs.items():
            cmd += ["--register", f"{name}={path}"]
        self.launched_at = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while self.port is None:
            with open(self.log_path) as log:
                text = log.read()
            match = re.search(r"on http://[^:]+:(\d+) ", text)
            if match:
                self.port = int(match.group(1))
            elif time.monotonic() > deadline or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError(f"server did not start: {text.strip()[-2000:]}")
            else:
                time.sleep(0.005)
        self.remember_processes()

    def remember_processes(self) -> list[int]:
        """Record the server's process tree (for the leak check)."""
        pids = descendants(self.proc.pid)
        for pid in pids:
            fields = _stat(pid)
            if fields is not None:
                self._seen.setdefault(pid, fields[19])
        return pids

    def request(self, method: str, path: str, body: dict | None = None,
                timeout: float = 120.0) -> tuple[int, bytes]:
        """One request on its own connection (the server closes each)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> list[str]:
        """SIGINT (the server's clean shutdown), wait, then check for leaks.

        Returns one line per leaked worker process; any process that
        outlived the server is killed so the benchmark leaves none
        behind.  Shared-memory leaks are checked by the caller against
        its own snapshot.
        """
        if self.proc is None:
            return []
        leaks = []
        if self.proc.poll() is None:
            self.remember_processes()
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                leaks.append(f"server pid {self.proc.pid} ignored SIGINT")
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 5.0
        while True:
            survivors = [p for p, start in self._seen.items()
                         if p != self.proc.pid and _alive(p, start)]
            if not survivors or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        for pid in survivors:
            leaks.append(f"process {pid} outlived the server: {_cmdline(pid)}")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc = None
        return leaks


def wait_for_segments(baseline: set[str], timeout: float = 5.0) -> list[str]:
    """Segments created since ``baseline`` that are still present after a
    short grace period (the resource tracker unlinks asynchronously)."""
    deadline = time.monotonic() + timeout
    while True:
        extra = sorted(shm_segments() - baseline)
        if not extra or time.monotonic() > deadline:
            return extra
        time.sleep(0.05)
