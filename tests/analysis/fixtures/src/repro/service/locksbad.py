"""Fixture: guarded attributes touched outside their declared lock.

Seeds every shape the lock-discipline checker must catch: an unlocked
``len(self._inflight)``, a plain unlocked read, a read inside a closure
created under the lock (the closure outruns it) and an inherited guard
in a same-module subclass.  ``drain_locked`` exercises the ``*_locked``
exemption.
"""

import threading


class BadScheduler:
    def __init__(self):
        self._lock = threading.Lock()
        self._inflight = {}  #: guarded-by: _lock
        self._executing = 0  #: guarded-by: _lock

    def submit(self, key, job):
        if len(self._inflight) >= 4:
            return False
        with self._lock:
            self._inflight[key] = job
        return True

    def drain_locked(self):
        self._inflight.clear()
        self._executing = 0

    def snapshot(self):
        return dict(self._inflight)

    def deferred(self):
        with self._lock:
            def flush():
                self._inflight.clear()
            return flush


class ChildScheduler(BadScheduler):
    def peek(self):
        return len(self._inflight)
