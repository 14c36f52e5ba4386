"""RPC stub for the directory service, including cross-server walking.

Because directory entries hold full capabilities (port + object), a
path can cross server boundaries: "/amsterdam/src" may resolve to a
directory object living on a *different* directory server, possibly at
another site reached through a gateway. :meth:`DirectoryClient.walk`
follows the capabilities wherever they point — the transport routes
each hop, so one global name space spans sites (§2.1).
"""

from __future__ import annotations

from typing import Optional

from ..capability import Capability
from ..directory import DIR_OPCODES
from ..directory.records import pack_cap_set, pack_changes
from ..net import RpcRequest, RpcTransport
from ..sim import SeededStream
from .retry import RetryPolicy, RpcStub

__all__ = ["DirectoryClient"]


class DirectoryClient(RpcStub):
    """Client-side stub speaking the directory protocol to any port.

    Retry semantics mirror :class:`~repro.client.BulletClient`: lookups
    and listings retry freely under a policy; mutations (APPEND,
    REPLACE, REMOVE, UPDATE_MANY, CREATE_DIR, DELETE_DIR) retry under
    the pre-assigned-txid dedupe guard.
    """

    def __init__(self, env, rpc: RpcTransport,
                 default_port: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 retry_stream: Optional[SeededStream] = None):
        super().__init__(env, rpc, timeout, retry, retry_stream,
                         name="directory-client")
        self.default_port = default_port

    #: Opcodes safe to re-issue without a dedupe guard.
    _IDEMPOTENT = frozenset({"LOOKUP", "LIST", "LOOKUP_PATH", "HISTORY"})

    def _call(self, port: int, opcode: str, cap: Optional[Capability] = None,
              args: tuple = (), body: bytes = b""):
        return self.transact(
            port,
            RpcRequest(opcode=DIR_OPCODES[opcode], cap=cap, args=args,
                       body=body),
            idempotent=opcode in self._IDEMPOTENT,
        )

    # ----------------------------------------------------- single-server

    @property
    def port(self) -> Optional[int]:
        """The default directory server's port (so the client can stand
        in wherever a :class:`~repro.directory.DirectoryServer` is
        expected, e.g. under :class:`~repro.unixemu.UnixEmulation`)."""
        return self.default_port

    def create_directory(self, port: Optional[int] = None):
        """Process: a new directory on the given (or default) server."""
        port = port if port is not None else self.default_port
        reply = yield from self._call(port, "CREATE_DIR")
        return reply.caps[0]

    def lookup(self, dir_cap: Capability, name: str):
        """Process: one-component lookup; returns the primary capability."""
        reply = yield from self._call(dir_cap.port, "LOOKUP", cap=dir_cap,
                                      args=(name,))
        return reply.caps[0]

    def lookup_set(self, dir_cap: Capability, name: str):
        """Process: the full capability set bound to ``name`` (one
        member per replica)."""
        reply = yield from self._call(dir_cap.port, "LOOKUP", cap=dir_cap,
                                      args=(name,))
        return list(reply.caps)

    def append(self, dir_cap: Capability, name: str, target):
        """Process: bind ``name`` to a capability or a capability set
        (replicas on several servers)."""
        yield from self._call(dir_cap.port, "APPEND", cap=dir_cap,
                              args=(name,), body=pack_cap_set(target))

    def replace(self, dir_cap: Capability, name: str, target):
        """Process: atomic rebind; returns the old primary capability."""
        reply = yield from self._call(dir_cap.port, "REPLACE", cap=dir_cap,
                                      args=(name,),
                                      body=pack_cap_set(target))
        return reply.caps[0]

    def update_many(self, dir_cap: Capability, changes: dict):
        """Process: atomic multi-entry update. ``changes`` maps names to
        a capability / capability set, or None to remove."""
        pairs, body = pack_changes(changes)
        yield from self._call(dir_cap.port, "UPDATE_MANY", cap=dir_cap,
                              args=pairs, body=body)

    def remove_entry(self, dir_cap: Capability, name: str):
        """Process: unbind; returns the removed capability."""
        reply = yield from self._call(dir_cap.port, "REMOVE", cap=dir_cap,
                                      args=(name,))
        return reply.caps[0]

    def list_names(self, dir_cap: Capability):
        """Process: sorted entry names."""
        reply = yield from self._call(dir_cap.port, "LIST", cap=dir_cap)
        return list(reply.args)

    def delete_directory(self, dir_cap: Capability):
        """Process: delete an empty directory object."""
        yield from self._call(dir_cap.port, "DELETE_DIR", cap=dir_cap)

    def lookup_path(self, dir_cap: Capability, path: str):
        """Process: server-side path resolution (single server; for
        cross-server paths use :meth:`walk`)."""
        reply = yield from self._call(dir_cap.port, "LOOKUP_PATH",
                                      cap=dir_cap, args=(path,))
        return reply.caps[0]

    def history(self, dir_cap: Capability):
        """Process: the directory's version-chain capabilities."""
        reply = yield from self._call(dir_cap.port, "HISTORY", cap=dir_cap)
        return list(reply.caps)

    # ------------------------------------------------------ cross-server

    def walk(self, root_cap: Capability, path: str):
        """Process: resolve a ``/``-separated path, hopping servers.

        Each component is looked up on whichever server the current
        capability names — local or behind a gateway, the transport
        decides. Descending *through* a file fails at the file's server,
        which refuses the directory opcode.
        """
        current = root_cap
        for component in path.split("/"):
            if component:
                current = yield from self.lookup(current, component)
        return current
