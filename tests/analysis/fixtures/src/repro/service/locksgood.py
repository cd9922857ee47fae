"""Fixture: disciplined locking — must produce no findings.

Every guarded access is under ``with self._lock``, and
``finish_locked`` relies on the ``*_locked`` caller-holds-it convention.
"""

import threading


class GoodScheduler:
    def __init__(self):
        self._lock = threading.Lock()
        self._inflight = {}  #: guarded-by: _lock
        self._executing = 0  #: guarded-by: _lock

    def submit(self, key, job):
        with self._lock:
            if len(self._inflight) - self._executing >= 4:
                return False
            self._inflight[key] = job
        return True

    def finish_locked(self, key):
        self._inflight.pop(key, None)

    def snapshot(self):
        with self._lock:
            return dict(self._inflight)
