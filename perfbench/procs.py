"""Process hygiene: every process a benchmark run starts ends with it.

A process-backend batch leaves helpers the standard library never waits
for: the fork server and resource tracker of the measuring process, and
those of every ``repro batch`` subprocess, which outlive it as orphans.
:func:`supervise` therefore runs the measurement in a child process
while this one is a child subreaper (Linux): orphans below it are
re-parented here, reaped as they exit, and once the measurement has
ended whatever is left gets a grace period, then SIGTERM, then SIGKILL,
and is reaped before this process exits.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from typing import Sequence

from stats import children

#: Set in the measuring child's environment.
CHILD_ENV = "PERFBENCH_MEASURING"
#: prctl option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds a leftover process gets to exit before each escalation.
GRACE_S = 5.0


def _become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _reap_ready() -> None:
    """Reap every child that has already exited."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _end_leftovers() -> None:
    """Wait, then SIGTERM, then SIGKILL what is still below us; reap all."""
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for pid in children(os.getpid()):
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + GRACE_S
        while time.monotonic() < deadline:
            _reap_ready()
            if not children(os.getpid()):
                return
            time.sleep(0.01)
    raise RuntimeError(f"processes {sorted(children(os.getpid()))} did not end")


def supervise(command: Sequence[str]) -> int:
    """Run *command* (the measurement) and return its exit code once it
    and every process it left behind have ended."""
    _become_subreaper()
    child = subprocess.Popen(list(command), env=dict(os.environ, **{CHILD_ENV: "1"}))
    forward = lambda signum, _frame: child.send_signal(signum)  # noqa: E731
    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    code = None
    while code is None:
        # Blocking wait on any child: adopted orphans are reaped as they
        # exit, and the measuring child's status ends the loop.
        pid, status = os.waitpid(-1, 0)
        if pid == child.pid:
            code = os.waitstatus_to_exitcode(status)
    child.returncode = code
    _end_leftovers()
    sys.stdout.flush()
    return code
