"""tools/no_survivors.py: a command's session must be empty when it returns."""

import os
import sys

from tools import no_survivors

# Starts a grandchild that sleeps far longer than the test, records its
# pid and returns without waiting for it.
DETACHED = (
    "import subprocess, sys\n"
    "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(600)'])\n"
    "open(sys.argv[1], 'w').write(str(child.pid))\n"
)


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_clean_command_passes_its_status_through():
    assert no_survivors.main([sys.executable, "-c", "pass"]) == 0
    assert no_survivors.main([sys.executable, "-c", "raise SystemExit(3)"]) == 3


def test_survivor_is_listed_killed_and_fails_the_run(tmp_path, capsys):
    pid_file = tmp_path / "pid"
    code = no_survivors.main([sys.executable, "-c", DETACHED, str(pid_file)])
    pid = int(pid_file.read_text())
    assert code == 1
    assert f"pid {pid} outlived the command" in capsys.readouterr().err
    assert not _alive(pid)


def test_session_members_sees_only_that_session():
    own = no_survivors.session_members(os.getsid(0))
    assert os.getpid() in [pid for pid, _ in own]
    assert no_survivors.session_members(-1) == []


def test_no_command_is_a_usage_error():
    assert no_survivors.main([]) == 2
