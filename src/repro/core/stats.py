"""Operation statistics for the Bullet server.

The counters live in a :class:`~repro.obs.MetricsRegistry` —
``ServerStats`` is a facade over registry counters
(``repro_server_<field>_total{server=...}``), so the values reported by
``std_status``, the Prometheus/JSON exporters, and the bench emitter are
one and the same.
"""

from __future__ import annotations

from ..obs import RegistryStats


class ServerStats(RegistryStats):
    """Counters the server maintains for std_status-style reporting."""

    _PREFIX = "repro_server"
    _COUNTER_FIELDS = (
        "creates",
        "reads",
        "sizes",
        "deletes",
        "modifies",
        "restricts",
        "errors",
        "bytes_created",
        "bytes_read",
        "bytes_modified",
        "cap_checks",
        "cap_check_cache_hits",
    )
