"""Fixture: L001 lock-leak — raw acquires outside a ``with`` header."""


class Server:
    def __init__(self, locks):
        self.locks = locks

    def discarded(self):
        self.locks.acquire_write(7)

    def hand_released(self, key):
        grant = self.locks.acquire_write(key)
        try:
            yield grant
            self.mutate(key)
        finally:
            self.locks.release(grant)

    def inside_a_scope_body(self, key):
        with self.locks.reading(key) as lock:
            yield lock.grant
            return self.locks.acquire_read(key + 1)
