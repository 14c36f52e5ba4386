"""Workload generation (S13).

File sizes follow the measurements the paper cites ([1] Mullender &
Tanenbaum, "Immediate Files": **median file size 1 Kbyte, 99 % of files
under 64 Kbytes**), modeled as a bounded log-normal. Access popularity
is Zipf (a small set of hot files dominates), and ~75 % of accesses
read a file in its entirety [4] — which in this system is every access,
since transfer is whole-file by construction.

:func:`replay_bullet` and :func:`replay_nfs` run one such trace against
either server of a rig, one client operation at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..sim import SeededStream
from ..units import KB
from .harness import Rig, timed

__all__ = ["FileSizeDistribution", "Op", "TraceGenerator", "PAPER_SIZES",
           "replay_bullet", "replay_nfs"]

#: The file-size column of the paper's figures 2 and 3. The OCR of the
#: paper preserves the row pattern (1 byte / bytes / bytes / Kbytes /
#: Kbytes / 1 Mbyte); these are our concrete choices, recorded in
#: EXPERIMENTS.md.
PAPER_SIZES = [1, 16, 256, 1 * KB, 64 * KB, 1024 * KB]


@dataclass(frozen=True)
class FileSizeDistribution:
    """Bounded log-normal file sizes of at least one byte.

    With median 1 KB, sigma is solved so that P(size < 64 KB) = 0.99:
    sigma = ln(64) / z_0.99 = 4.159 / 2.326 ≈ 1.788.
    """

    median: float = 1 * KB
    maximum: int = 1024 * KB

    SIGMA = math.log(64) / 2.326

    def sample(self, stream: SeededStream) -> int:
        value = stream.lognormal_bounded(self.median, self.SIGMA,
                                         1, self.maximum)
        return max(int(value), 1)


@dataclass(frozen=True)
class Op:
    """One trace operation."""

    kind: str            # "create" | "read" | "delete"
    file_id: int         # logical file identity within the trace
    size: int = 0        # bytes, for creates


class TraceGenerator:
    """Generates create/read/delete traces with Zipf-popular reads.

    The trace maintains a live-file set: reads and deletes only target
    files that exist, creates introduce new ones. The default mix is
    read-heavy, matching the BSD trace study's observation that reads
    dominate.
    """

    #: Popularity skew of reads over the live files.
    ZIPF_SKEW = 0.9

    def __init__(self, seed: int, sizes: Optional[FileSizeDistribution] = None,
                 read_fraction: float = 0.7, delete_fraction: float = 0.1):
        if not (0 <= read_fraction <= 1 and 0 <= delete_fraction <= 1
                and read_fraction + delete_fraction <= 1):
            raise ValueError("fractions must each lie in [0, 1] and sum "
                             "to at most 1")
        self.sizes = sizes or FileSizeDistribution()
        self.read_fraction = read_fraction
        self.delete_fraction = delete_fraction
        self._stream = SeededStream(seed, "trace")
        self._next_id = 0
        self._live: list[int] = []
        self._size_of: dict[int, int] = {}

    def generate(self, n_ops: int, prepopulate: int = 0) -> list[Op]:
        """A trace of ``n_ops`` operations, optionally preceded by
        ``prepopulate`` creates (which are part of the returned trace)."""
        ops: list[Op] = [self._create() for _ in range(prepopulate)]
        for _ in range(n_ops):
            roll = self._stream.random()
            if self._live and roll < self.read_fraction:
                ops.append(self._read())
            elif self._live and roll < self.read_fraction + self.delete_fraction:
                ops.append(self._delete())
            else:
                ops.append(self._create())
        return ops

    def _create(self) -> Op:
        file_id = self._next_id
        self._next_id += 1
        size = self.sizes.sample(self._stream)
        self._live.append(file_id)
        self._size_of[file_id] = size
        return Op(kind="create", file_id=file_id, size=size)

    def _read(self) -> Op:
        # Zipf over live files in creation order: long-lived files are
        # the hot set (system binaries, shared headers), giving a stable
        # popularity skew.
        index = self._stream.zipf_index(len(self._live), self.ZIPF_SKEW)
        file_id = self._live[index]
        return Op(kind="read", file_id=file_id,
                  size=self._size_of[file_id])

    def _delete(self) -> Op:
        index = self._stream.randint(0, len(self._live) - 1)
        file_id = self._live.pop(index)
        return Op(kind="delete", file_id=file_id)


# ---------------------------------------------------------------- replay


def _replay(env, trace, process_for) -> dict[str, float]:
    """Run ``process_for(op)`` for each op in turn; returns simulated
    seconds per op kind, each kind's elapsed times added in trace
    order."""
    per_kind = {"create": 0.0, "read": 0.0, "delete": 0.0}
    for op in trace:
        elapsed, _ = timed(env, process_for(op))
        per_kind[op.kind] += elapsed
    return per_kind


def replay_bullet(rig: Rig, trace, p_factor: int) -> dict[str, float]:
    """Replay ``trace`` against the rig's Bullet server (creates at
    ``p_factor``); returns simulated seconds per op kind."""
    client = rig.bullet_client
    caps: dict = {}

    def process_for(op: Op):
        if op.kind == "create":
            caps[op.file_id] = yield from client.create(bytes(op.size),
                                                        p_factor)
        elif op.kind == "read":
            yield from client.read(caps[op.file_id])
        else:
            yield from client.delete(caps.pop(op.file_id))

    return _replay(rig.env, trace, process_for)


def replay_nfs(rig: Rig, trace) -> dict[str, float]:
    """Replay ``trace`` against the rig's NFS server, each op as the
    system calls §4 measures (creat/write/close, open/lseek/read/close,
    unlink); returns simulated seconds per op kind."""
    client = rig.nfs_client

    def process_for(op: Op):
        path = f"/f{op.file_id}"
        if op.kind == "create":
            fd = yield from client.creat(path)
            yield from client.write(fd, bytes(op.size))
            yield from client.close(fd)
        elif op.kind == "read":
            fd = yield from client.open(path)
            yield from client.lseek(fd, 0)
            yield from client.read(fd, op.size)
            yield from client.close(fd)
        else:
            yield from client.unlink(path)

    return _replay(rig.env, trace, process_for)
