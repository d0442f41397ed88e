"""No program process outlives a workload: group stop, SIGINT, full runs."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import procs

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# a group leader and a grandchild that both ignore SIGTERM, plus a
# double-forked orphan that leaves the leader's process tree; "ready"
# comes once all three are alive and the orphan's parent has exited
STUBBORN = r"""
import os, signal, subprocess, sys, time
signal.signal(signal.SIGTERM, signal.SIG_IGN)
subprocess.Popen([sys.executable, "-c",
    "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(120)"])
r, w = os.pipe()
middle = os.fork()
if middle == 0:
    if os.fork() == 0:
        os.write(w, b"x")
        time.sleep(120)
    os._exit(0)
os.read(r, 1)
os.waitpid(middle, 0)
print("ready", flush=True)
time.sleep(120)
"""


def _tagged() -> set[int]:
    """Live processes carrying a benchmark run token in their environment."""
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                if fh.read().rsplit(b")", 1)[1].split()[0] == b"Z":
                    continue
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if b"\0" + procs.RUN_ENV.encode() + b"=" in b"\0" + fh.read():
                    out.add(int(entry))
        except (OSError, IndexError):
            continue
    return out


def test_group_stop_kills_stubborn_members_and_orphans():
    procs.become_subreaper()
    token = procs.new_token()
    programs = procs.Programs(token)
    group = programs.start([sys.executable, "-c", STUBBORN], env=dict(os.environ),
                           cwd=str(ROOT), stdout=subprocess.PIPE)
    assert group.proc.stdout.readline().strip() == b"ready"
    assert len(group.members()) == 3
    assert len(procs.survivors(token)) == 3
    group.proc.stdout.close()
    programs.stop_all()
    assert group.members() == []
    assert procs.survivors(token) == []


def test_programs_context_stops_groups_on_error():
    token = procs.new_token()
    with pytest.raises(RuntimeError, match="boom"):
        with procs.Programs(token) as programs:
            programs.start([sys.executable, "-c", "import time; time.sleep(120)"],
                           env=dict(os.environ), cwd=str(ROOT))
            raise RuntimeError("boom")
    assert procs.survivors(token) == []


def _bench(workload: str, *extra, **kw):
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", *extra],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True, **kw)


@pytest.mark.parametrize("workload", ["serve-rpc", "pipeline"])
def test_no_descendant_survives_a_workload(workload):
    before = _tagged()
    proc = _bench(workload)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err.decode()[-2000:]
    result = json.loads(out.decode().strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert _tagged() - before == set()


def test_sigint_mid_run_leaves_no_process():
    before = _tagged()
    proc = _bench("serve-rpc")
    deadline = time.monotonic() + 120
    while not (_tagged() - before) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _tagged() - before, "the benchmark never started a program process"
    proc.send_signal(signal.SIGINT)
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert b'"correct"' not in out
    assert _tagged() - before == set()


def test_refuses_a_tree_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "serve-rpc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
