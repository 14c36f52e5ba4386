"""Hardware calibration profiles (substrate S2).

Every latency and bandwidth constant of the simulated 1989 testbed lives
here, in one place, so experiments can state exactly what hardware they
model and ablations can vary one knob at a time.

Calibration sources:

* Network: the companion Amoeba performance papers (van Renesse et al.,
  "The Performance of the World's Fastest Distributed Operating System",
  OSR 1988; SP&E 1989) report a **null RPC of ~1.4 ms** and **bulk RPC
  throughput of ~680 KB/s** between 16.7 MHz MC68020s on a 10 Mb/s
  Ethernet. Our per-packet software overhead + wire-rate model is tuned
  to land on those two numbers.
* Disk: a late-80s 800 MB SMD-class drive: ~16 ms average seek, 3600 RPM
  (8.33 ms average rotational latency), ~1.8 MB/s media transfer rate,
  512-byte sectors.
* CPU: MC68020-era memory copy near 4 MB/s; per-request server dispatch
  cost of a few hundred microseconds.
* SunOS 3.5 NFS constants (client syscall overhead, per-RPC server CPU,
  8 KB transfer size, 3 MB buffer cache) follow the paper's §4 setup and
  typical SunOS 3.x measurements.

The defaults reproduce the paper's testbed; tests and ablations build
modified profiles via :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .units import KB, MB, msec, usec

__all__ = [
    "DiskProfile",
    "EthernetProfile",
    "CpuProfile",
    "NfsProfile",
    "BulletProfile",
    "WorkstationProfile",
    "Testbed",
    "DEFAULT_TESTBED",
]


@dataclass(frozen=True)
class DiskProfile:
    """Timing and geometry of one disk drive."""

    name: str = "smd-800mb"
    capacity_bytes: int = 800 * MB
    block_size: int = 512
    cylinders: int = 1630
    heads: int = 15
    sectors_per_track: int = 64
    rpm: int = 3600
    # Seek model: fixed settle time + per-cylinder component with a
    # square-root profile (arm acceleration), calibrated to ~16 ms
    # average (one-third stroke), ~3 ms minimum, ~30 ms full stroke.
    seek_settle: float = msec(2.5)
    seek_full_stroke: float = msec(28.0)
    transfer_rate: float = 1.8 * MB  # bytes/second off the media

    @property
    def rotation_time(self) -> float:
        """One full platter revolution, seconds."""
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency(self) -> float:
        return self.rotation_time / 2

    @property
    def blocks_per_cylinder(self) -> int:
        return self.heads * self.sectors_per_track

    @property
    def total_blocks(self) -> int:
        return self.capacity_bytes // self.block_size


@dataclass(frozen=True)
class EthernetProfile:
    """The shared 10 Mb/s Ethernet segment.

    ``per_packet_overhead`` is the end-to-end software cost of one packet
    (driver, interrupt, protocol) split across sender and receiver; with
    the 1500-byte MTU this lands bulk RPC throughput at ~680 KB/s and the
    null RPC near 1.4 ms, matching the Amoeba measurements.
    """

    name: str = "ethernet-10mbit"
    bandwidth_bits: float = 10e6
    mtu: int = 1500                      # max bytes on the wire per packet
    header_bytes: int = 46               # Ethernet + Amoeba transaction header
    per_packet_overhead: float = usec(560.0)
    min_frame_bytes: int = 64
    # "Normally loaded Ethernet": mean utilization by background traffic.
    background_utilization: float = 0.08
    background_packet_bytes: int = 600
    # Per-packet loss probability (collisions the hardware gave up on,
    # receiver overruns). Zero for the calibrated testbed; the RPC layer
    # recovers losses by retransmission with duplicate suppression.
    loss_probability: float = 0.0

    @property
    def wire_time_per_byte(self) -> float:
        return 8.0 / self.bandwidth_bits

    def wire_time(self, payload_bytes: int) -> float:
        """Wire occupancy of one packet carrying ``payload_bytes``."""
        frame = max(payload_bytes + self.header_bytes, self.min_frame_bytes)
        return frame * self.wire_time_per_byte

    @property
    def max_payload(self) -> int:
        return self.mtu - self.header_bytes


@dataclass(frozen=True)
class CpuProfile:
    """Per-host processing costs (16.7 MHz MC68020 class)."""

    name: str = "mc68020-16.7mhz"
    # Server-side dispatch of one request (decode, table lookups, reply
    # construction), excluding data movement.
    request_dispatch: float = usec(200.0)
    # One in-memory copy of file data (RAM cache <-> network buffers);
    # longword block moves on a 16.7 MHz 68020 reach ~8 MB/s.
    memcpy_per_byte: float = 1.0 / (8.0 * MB)
    # Verifying a capability check field (one-way function); the paper
    # notes verified capabilities can be cached, making repeats cheap.
    capability_check: float = usec(150.0)
    capability_check_cached: float = usec(15.0)


@dataclass(frozen=True)
class NfsProfile:
    """SunOS 3.5 NFS constants for the §4 comparison (Sun 3/50 client,
    Sun 3/180 server)."""

    name: str = "sunos-3.5-nfs"
    transfer_size: int = 8 * KB          # NFS rsize/wsize
    fs_block_size: int = 8 * KB          # FFS block size
    direct_blocks: int = 12              # before the single-indirect block
    buffer_cache_bytes: int = 3 * MB     # the server's buffer cache (§4)
    # Client syscall + NFS client layer per operation (VFS, XDR encode,
    # UDP) on the slow diskless 3/50.
    client_op_overhead: float = msec(2.2)
    # Server-side NFS/RPC/XDR/UFS path per request.
    server_op_overhead: float = msec(2.8)
    # Per-byte data handling (XDR marshalling, UDP checksums in software,
    # extra copies through mbufs) on each end — the dominant NFS data-path
    # cost on 68020s, absent from Amoeba's lean RPC.
    data_cost_per_byte_client: float = 1.5e-6
    data_cost_per_byte_server: float = 1.5e-6
    attr_cache_timeout: float = 3.0
    # Background pressure on the shared server's buffer cache (fraction
    # of the cache recycled per second by other users of a departmental
    # server on a "normally loaded" network).
    background_cache_churn: float = 0.035


@dataclass(frozen=True)
class BulletProfile:
    """Bullet server configuration (§3 implementation)."""

    name: str = "bullet-mc68020"
    ram_bytes: int = 16 * MB
    # RAM reserved for the resident inode table, free lists, and code;
    # the remainder is the file cache ("all of the server's remaining
    # memory will be used for file caching").
    reserved_ram_bytes: int = 2 * MB
    inode_count: int = 8192
    # Default paranoia factor used by the paper's create benchmark: the
    # file is written to both disks before the reply.
    default_p_factor: int = 2
    rnode_count: int = 4096
    # Amoeba-style object aging: every file starts with this many lives;
    # each GC sweep (std_age) decrements, std_touch resets, zero lives
    # reclaims the file. The directory service touches everything it can
    # reach, so only orphans die.
    max_lives: int = 24
    # Capacity of the verified-capability cache ("capabilities can be
    # cached to avoid decryption for each access"). It models a finite
    # slice of server RAM, so it is LRU-bounded rather than unbounded.
    cap_cache_entries: int = 4096


@dataclass(frozen=True)
class WorkstationProfile:
    """A diskless client workstation running several user processes.

    §5: "Client caching of immutable files is straightforward" — each
    workstation dedicates a slice of its RAM to a whole-file cache
    shared by every local process (:class:`repro.client.WorkstationCache`).
    A 1989 Sun-3/60-class machine had 4–12 MB total; the size of that
    slice is each experiment's own variable, passed to the cache it
    builds.
    """

    name: str = "sun3-workstation"
    # Typical number of concurrent client processes sharing the cache
    # (login shells, compiler passes, editors); the bench default.
    processes: int = 8


@dataclass(frozen=True)
class Testbed:
    """A complete simulated hardware configuration."""

    disk: DiskProfile = field(default_factory=DiskProfile)
    ethernet: EthernetProfile = field(default_factory=EthernetProfile)
    cpu: CpuProfile = field(default_factory=CpuProfile)
    nfs: NfsProfile = field(default_factory=NfsProfile)
    bullet: BulletProfile = field(default_factory=BulletProfile)
    workstation: WorkstationProfile = field(default_factory=WorkstationProfile)


DEFAULT_TESTBED = Testbed()
