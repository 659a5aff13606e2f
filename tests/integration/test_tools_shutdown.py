"""The service entry points stop cleanly on SIGTERM.

A process started with SIGINT ignored (a background job of a
non-interactive shell, many supervisors) never sees Ctrl-C; SIGTERM
must take the same shutdown path and exit 0 promptly instead of waiting
out a supervisor's kill timeout.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]


def _start(args: list[str], ready: str, stream: str) -> subprocess.Popen:
    """Start a tool with SIGINT ignored and wait for its ``ready`` line."""
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, *args],
        cwd=_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT if stream == "stdout" else subprocess.PIPE,
        text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    pipe = process.stdout if stream == "stdout" else process.stderr
    for line in pipe:
        if ready in line:
            return process
    process.kill()
    raise AssertionError(f"{args[0]} exited before printing {ready!r}")


def _stop(process: subprocess.Popen) -> int:
    process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise
    finally:
        for pipe in (process.stdout, process.stderr):
            if pipe is not None:
                pipe.close()


@pytest.mark.parametrize(
    "args",
    [
        ["tools/serve.py", "cache", "--port", "0"],
        ["tools/serve.py", "redesign", "--port", "0", "--workers", "1"],
    ],
    ids=["cache", "redesign"],
)
def test_serve_exits_zero_on_sigterm_with_sigint_ignored(args):
    process = _start(args, "listening on", "stdout")
    assert _stop(process) == 0


def test_fleet_exits_zero_on_sigterm_with_sigint_ignored(tmp_path):
    process = _start(
        [
            "tools/serve.py", "fleet", "--shards", "1", "--fleet-workers", "1",
            "--port", "0", "--shard-port-base", "0",
            "--queue", str(tmp_path / "jobs.sqlite"),
        ],
        "listening on",
        "stdout",
    )
    assert _stop(process) == 0


def test_worker_exits_zero_on_sigterm_with_sigint_ignored(tmp_path):
    process = _start(
        ["tools/worker.py", "--queue", str(tmp_path / "jobs.sqlite")], "draining", "stderr"
    )
    assert _stop(process) == 0
