"""Process hygiene: every program process runs in a group the benchmark owns.

Each program process (server, surrogate fit, pipeline phase) is started
with ``start_new_session=True``, so it leads a fresh process group that
its own children inherit: pre-fork workers, the dispatcher's forkserver
and pool workers, the multiprocessing resource tracker.  Stopping a
group sends SIGTERM to all of it, then SIGKILL after a grace period,
and returns only once no member is left.

The benchmark process makes itself a child subreaper, so members that
outlive their parent are re-parented here and reaped, instead of
lingering as zombies under an init that may never wait for them.

Every program process also carries ``PERFBENCH_RUN=<token>`` in its
environment; :func:`survivors` finds any process that still carries it,
whatever group it moved to.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
import uuid

RUN_ENV = "PERFBENCH_RUN"

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``prctl``); False if unavailable."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def new_token() -> str:
    return uuid.uuid4().hex


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("latin-1")
    except OSError:
        return None
    # the command name may contain spaces; fields resume after its ')'
    return raw[raw.rfind(")") + 2:].split()


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or fields[0] == "Z":
            continue
        if int(fields[2]) == pgid:
            out.append(int(entry))
    return out


def survivors(token: str) -> list[int]:
    """Live processes whose environment carries ``PERFBENCH_RUN=token``."""
    needle = f"{RUN_ENV}={token}".encode()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or fields[0] == "Z":
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                env = fh.read().split(b"\0")
        except OSError:
            continue
        if needle in env:
            out.append(int(entry))
    return out


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one process, from ``/proc``."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids) -> float:
    """Largest ``VmHWM`` (peak resident set) among ``pids``, in MB."""
    peak_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak_kb / 1024.0


def log_tail(path, size: int = 2000) -> str:
    """The end of a program's log, for an error message (the run
    directory holding it is removed when the workload ends)."""
    try:
        return path.read_bytes()[-size:].decode(errors="replace")
    except OSError:
        return ""


def reap_orphans() -> None:
    """Collect exit statuses of adopted descendants (never blocks)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


class ProgramGroup:
    """One program process and the process group it leads."""

    def __init__(self, argv, *, env, cwd, stdout=subprocess.DEVNULL,
                 stderr=subprocess.DEVNULL) -> None:
        self.argv = list(argv)
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            self.argv, env=env, cwd=cwd, stdout=stdout, stderr=stderr,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        self.pgid = self.proc.pid

    @property
    def pid(self) -> int:
        return self.proc.pid

    def members(self) -> list[int]:
        return group_members(self.pgid)

    def wait(self, timeout: float) -> int:
        return self.proc.wait(timeout)

    def stop(self, grace_s: float = 5.0, empty_timeout_s: float = 10.0) -> None:
        """SIGTERM the group, SIGKILL what is left after ``grace_s``, and
        return once the group is empty (raises if it never empties)."""
        self._signal(signal.SIGTERM)
        try:
            self.proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + grace_s
        while self.members() and time.monotonic() < deadline:
            reap_orphans()
            time.sleep(0.02)
        self._signal(signal.SIGKILL)
        if self.proc.poll() is None:
            self.proc.wait(empty_timeout_s)
        deadline = time.monotonic() + empty_timeout_s
        while True:
            reap_orphans()
            left = self.members()
            if not left:
                return
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"process group {self.pgid} ({self.argv[:3]}) still has "
                    f"members {left} after SIGKILL"
                )
            self._signal(signal.SIGKILL)
            time.sleep(0.02)

    def _signal(self, sig: int) -> None:
        try:
            os.killpg(self.pgid, sig)
        except ProcessLookupError:
            pass


class Programs:
    """Every group a workload started; stops all of them on exit."""

    def __init__(self, token: str) -> None:
        self.token = token
        self.groups: list[ProgramGroup] = []

    def start(self, argv, *, env, cwd, **kw) -> ProgramGroup:
        env = dict(env, **{RUN_ENV: self.token})
        group = ProgramGroup(argv, env=env, cwd=cwd, **kw)
        self.groups.append(group)
        return group

    def stop(self, group: ProgramGroup) -> None:
        group.stop()
        self.groups.remove(group)

    def stop_all(self) -> None:
        errors = []
        while self.groups:
            group = self.groups.pop()
            try:
                group.stop()
            except RuntimeError as exc:
                errors.append(str(exc))
        if errors:
            raise RuntimeError("; ".join(errors))

    def __enter__(self) -> "Programs":
        return self

    def __exit__(self, *exc) -> None:
        self.stop_all()
