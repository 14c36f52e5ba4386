"""Fixture: L004 near-misses — every write path holds the guard: the
writer opens a scope on it, inherits it from all its callers, or
receives a grant parameter."""


class Store:
    def __init__(self, locks):
        self.locks = locks
        self._sizes = {}  # repro: guarded_by(locks)

    def locked_write(self, key, size):
        with self.locks.writing(key) as lock:
            yield lock.grant
            self._record(key, size)

    def _record(self, key, size):
        self._sizes[key] = size

    def grant_write(self, key, size, grant):
        self._sizes[key] = size
