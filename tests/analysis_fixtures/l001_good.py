"""Fixture: L001 near-misses — every lock is taken in a ``with`` header."""


class Server:
    def __init__(self, locks):
        self.locks = locks

    def scoped(self, key):
        with self.locks.writing(key) as lock:
            yield lock.grant
            self.mutate(key)

    def upgraded(self, key):
        with self.locks.reading(key) as lock:
            yield lock.grant
            yield lock.upgrade()
            self.mutate(key)

    def adopts_a_raw_grant(self, key):
        with self.locks.adopt(self.locks.acquire_write(key)) as lock:
            yield lock.grant
