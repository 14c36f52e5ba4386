"""Fixture: L004 — a guarded field written without holding its lock."""


class Store:
    def __init__(self, locks):
        self.locks = locks
        self._sizes = {}  # repro: guarded_by(locks)

    def locked_write(self, key, size):
        with self.locks.writing(key) as lock:
            yield lock.grant
            self._sizes[key] = size

    def unlocked_write(self, key, size):
        self._sizes[key] = size
