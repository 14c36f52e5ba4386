"""C001 missing-rights-check: the capability-discipline rule.

Paper §2.2: every Bullet operation starts by verifying the presented
capability's check field and rights mask (``require(...)`` in
:mod:`repro.capability.rights`). BuffetFS (arXiv 2110.13551) makes the
same argument structurally: a permission check that is only a convention
will eventually be skipped by a refactor. C001 therefore demands that
every RPC opcode handler taking a capability (or NFS file handle) reach
a rights check on some path.
"""

from __future__ import annotations

from typing import Iterator

from ..framework import FileContext, Finding, Rule, register
from ..index import FunctionInfo

__all__ = ["MissingRightsCheck"]

#: Parameter names that mark a handler as operating on a protected
#: object: Amoeba capabilities and NFS file handles.
_CAP_PARAM_NAMES = ("cap", "fh")
_CAP_ANNOTATIONS = ("Capability", "FileHandle")


def _takes_protected_object(fn: FunctionInfo) -> bool:
    for name, annotation in fn.params:
        if name == "self":
            continue
        if name in _CAP_PARAM_NAMES or any(
            name.endswith("_" + suffix) for suffix in _CAP_PARAM_NAMES
        ):
            return True
        if annotation and any(tag in annotation for tag in _CAP_ANNOTATIONS):
            return True
    return False


@register
class MissingRightsCheck(Rule):
    id = "C001"
    title = "missing-rights-check"
    rationale = (
        "Paper §2.2: an opcode handler must verify the capability "
        "(require(...)) before touching the inode/record table. A "
        "handler reachable from _dispatch that takes a capability or "
        "file handle but never reaches a rights check is an open door."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.config.path_matches(ctx.path, ctx.config.server_scope):
            return
        info = ctx.index.modules.get(ctx.module)
        if info is None:
            return
        checkers = ctx.index.rights_checkers(ctx.config.extra_validators)
        for (cls, name), dispatch in sorted(info.functions.items(),
                                            key=lambda kv: kv[1].lineno):
            if name != "_dispatch" or cls is None:
                continue
            handler_names = sorted({
                ref.name for ref in dispatch.calls if ref.kind == "self"
            })
            for handler_name in handler_names:
                handler = info.functions.get((cls, handler_name))
                if handler is None or handler.name == "_dispatch":
                    continue
                if not _takes_protected_object(handler):
                    continue
                if handler.key in checkers:
                    continue
                yield Finding(
                    rule=self.id,
                    path=ctx.path,
                    line=handler.lineno,
                    col=1,
                    message=(
                        f"opcode handler `{handler.qualname}` takes a "
                        f"capability/handle but never reaches a "
                        f"require(...)/rights check on any call path"
                    ),
                )
