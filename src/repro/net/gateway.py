"""Wide-area gateways (§2.1).

"Gateways provide transparent communication among Amoeba sites
currently operating in four different countries." And: "The directory
service provides a single global naming space for objects. This has
allowed us to link multiple Bullet file servers together providing one
single large file service that crosses international borders."

A :class:`WideAreaLink` is a point-to-point line (think 64 kbit/s –
2 Mbit/s leased line of the era) with real propagation delay; a
:class:`Gateway` joins two sites' RPC transports so a ``trans`` to a
port served at the far site is forwarded transparently — the client
cannot tell, except by the latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import Environment, Resource

__all__ = ["WideAreaProfile", "WideAreaLink", "Gateway", "connect_sites"]


@dataclass(frozen=True)
class WideAreaProfile:
    """A leased line between sites."""

    bandwidth_bits: float = 2e6
    propagation_delay: float = 0.015  # one way, seconds (Amsterdam–Berlin)
    per_packet_overhead: float = 2e-3  # X.25-era gateway processing


class WideAreaLink:
    """A full-duplex point-to-point line: each direction serializes."""

    def __init__(self, env: Environment, profile: WideAreaProfile = WideAreaProfile()):
        self.env = env
        self.profile = profile
        self._directions = (Resource(env, capacity=1), Resource(env, capacity=1))
        self.bytes_carried = 0

    def transfer(self, nbytes: int, direction: int):
        """Process: move ``nbytes`` one way; returns after the last bit
        lands at the far end."""
        line = self._directions[direction & 1]
        grant = line.request()
        # Crash-safe like the Ethernet medium: an interrupted transfer
        # must release (or withdraw) its claim on the line.
        try:
            yield grant
            serialization = (nbytes * 8) / self.profile.bandwidth_bits
            yield self.env.timeout(
                self.profile.per_packet_overhead + serialization)
        finally:
            if grant.triggered:
                line.release(grant)
            else:
                line.cancel(grant)
        # Propagation happens after the line is free for the next packet.
        yield self.env.timeout(self.profile.propagation_delay)
        self.bytes_carried += nbytes


class Gateway:
    """One half of a site-to-site connection.

    Installed into the local site's :class:`~repro.net.rpc.RpcTransport`
    as a route: transactions addressed to ports unknown locally are
    shipped across the link and executed as a transaction on the remote
    transport, and the reply is shipped back.
    """

    def __init__(self, env: Environment, link: WideAreaLink, direction: int,
                 remote_transport, name: str = "gateway"):
        self.env = env
        self.link = link
        self.direction = direction
        self.remote = remote_transport
        self.name = name
        self.forwarded = 0

    def serves(self, port: int) -> bool:
        """Can this gateway reach ``port``? (Remote registry lookup —
        real Amoeba broadcast-located ports; our registry query stands
        in for the locate protocol.)"""
        endpoint = self.remote.lookup(port)
        return endpoint is not None and not endpoint.down

    def forward(self, port: int, request, timeout: Optional[float] = None):
        """Process: carry one transaction across the link and back."""
        self.forwarded += 1
        yield self.env.process(self.link.transfer(request.wire_size,
                                                  self.direction))
        reply = yield self.env.process(self.remote.trans(port, request, timeout))
        yield self.env.process(self.link.transfer(reply.wire_size,
                                                  1 - self.direction))
        return reply


def connect_sites(env: Environment, transport_a, transport_b,
                  profile: WideAreaProfile = WideAreaProfile()) -> WideAreaLink:
    """Join two sites' transports with one wide-area line, installing a
    gateway in each direction. Returns the link (for statistics)."""
    link = WideAreaLink(env, profile)
    transport_a.add_route(Gateway(env, link, 0, transport_b, name="gw-a>b"))
    transport_b.add_route(Gateway(env, link, 1, transport_a, name="gw-b>a"))
    return link
