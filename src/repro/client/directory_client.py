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
from ..errors import NotADirectoryError_
from ..net import RpcRequest, RpcTransport
from ..sim import SeededStream, Tracer
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
                 retry_stream: Optional[SeededStream] = None,
                 tracer: Optional[Tracer] = None):
        super().__init__(env, rpc, timeout, retry, retry_stream, tracer,
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

    @staticmethod
    def _pack_targets(target) -> bytes:
        caps = (target,) if isinstance(target, Capability) else tuple(target)
        return b"".join(cap.pack() for cap in caps)

    def append(self, dir_cap: Capability, name: str, target):
        """Process: bind ``name`` to a capability or a capability set
        (replicas on several servers)."""
        yield from self._call(dir_cap.port, "APPEND", cap=dir_cap,
                              args=(name,), body=self._pack_targets(target))

    def replace(self, dir_cap: Capability, name: str, target):
        """Process: atomic rebind; returns the old primary capability."""
        reply = yield from self._call(dir_cap.port, "REPLACE", cap=dir_cap,
                                      args=(name,),
                                      body=self._pack_targets(target))
        return reply.caps[0]

    def update_many(self, dir_cap: Capability, changes: dict):
        """Process: atomic multi-entry update. ``changes`` maps names to
        a capability / capability set, or None to remove."""
        args = []
        body_parts = []
        for name, value in changes.items():
            if value is None:
                args.append((name, 0))
            else:
                caps = (value,) if isinstance(value, Capability) else tuple(value)
                args.append((name, len(caps)))
                body_parts.extend(cap.pack() for cap in caps)
        yield from self._call(dir_cap.port, "UPDATE_MANY", cap=dir_cap,
                              args=tuple(args), body=b"".join(body_parts))

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

    def walk(self, root_cap: Capability, path: str, dir_ports=None):
        """Process: resolve a ``/``-separated path, hopping servers.

        Each component is looked up on whichever server the current
        capability names — local or behind a gateway, the transport
        decides. ``dir_ports`` (optional) is the set of ports that are
        directory services; when given, descending *through* a
        non-directory raises immediately instead of confusing a file
        server with directory opcodes.
        """
        current = root_cap
        parts = [p for p in path.split("/") if p]
        for i, component in enumerate(parts):
            if dir_ports is not None and current.port not in dir_ports:
                raise NotADirectoryError_(
                    f"{'/'.join(parts[:i])!r} is not a directory service object"
                )
            current = yield from self.lookup(current, component)
        return current
