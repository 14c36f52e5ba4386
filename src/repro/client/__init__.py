"""Client library (S12): Bullet stubs, the workstation caching plane,
the open-by-name coherence plane, and retry/backoff."""

from .bullet_client import BulletClient, CachingBulletClient, LocalBulletStub
from .directory_client import DirectoryClient
from .named import CoherenceStats, CurrencyPolicy, NamedFile, NamedFileClient
from .retry import TRANSIENT_ERRORS, Retrier, RetryPolicy
from .workstation import WorkstationCache, WorkstationCacheStats

__all__ = ["BulletClient", "CachingBulletClient", "CoherenceStats",
           "CurrencyPolicy", "DirectoryClient", "LocalBulletStub",
           "NamedFile", "NamedFileClient", "Retrier", "RetryPolicy",
           "TRANSIENT_ERRORS", "WorkstationCache", "WorkstationCacheStats"]
