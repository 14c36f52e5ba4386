"""Network substrate (S6): shared Ethernet + Amoeba-style RPC."""

from .ethernet import Ethernet, EthernetStats
from .gateway import Gateway, WideAreaLink, WideAreaProfile, connect_sites
from .rpc import (RpcReply, RpcRequest, RpcService, RpcTransport,
                  ServiceEndpoint)

__all__ = [
    "Ethernet",
    "EthernetStats",
    "Gateway",
    "WideAreaLink",
    "WideAreaProfile",
    "connect_sites",
    "RpcReply",
    "RpcRequest",
    "RpcService",
    "RpcTransport",
    "ServiceEndpoint",
]
