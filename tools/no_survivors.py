"""Run a command in a new session; fail if any process of it outlives it.

    python tools/no_survivors.py python3 perfbench/run.py --workload steer --seed 1 --seconds 2

The command runs as the leader of a fresh session (``setsid``), so every
process it starts, directly or not, carries its session id unless it
deliberately leaves.  Once the command returns, every live process of
that session (read from ``/proc/*/stat``; zombies do not count) is
listed on stderr and killed, the tool waits for each to exit, and it
exits 1.  Otherwise it exits with the command's own status.  Linux only.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
from typing import List, Optional, Tuple


def session_members(sid: int) -> List[Tuple[int, str]]:
    """``(pid, command line)`` of every live process in session *sid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid pgrp session ..."; comm may hold
                # spaces or parentheses, so split after the last ")".
                state, _ppid, _pgrp, session = fh.read().rsplit(")", 1)[1].split()[:4]
            if state == "Z" or int(session) != sid:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
        except (OSError, ValueError):
            continue  # exited while we looked
        members.append((int(entry), cmd))
    return members


def _kill_and_wait(pid: int) -> None:
    """SIGKILL *pid* and block until it has exited (no timeout, no polling)."""
    try:
        fd = os.pidfd_open(pid)
    except ProcessLookupError:
        return
    try:
        signal.pidfd_send_signal(fd, signal.SIGKILL)
        select.select([fd], [], [])  # a pidfd turns readable when the process exits
    except ProcessLookupError:
        pass
    finally:
        os.close(fd)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: no_survivors.py CMD [ARG...]", file=sys.stderr)
        return 2
    proc = subprocess.Popen(argv, start_new_session=True)
    code = proc.wait()
    survivors = session_members(proc.pid)
    for pid, cmd in survivors:
        print(f"no_survivors: pid {pid} outlived the command: {cmd}", file=sys.stderr)
        _kill_and_wait(pid)
    return 1 if survivors else code


if __name__ == "__main__":
    sys.exit(main())
