#!/usr/bin/env python3
"""A file service that crosses international borders (§2.1).

"Gateways provide transparent communication among Amoeba sites
currently operating in four different countries. ... The directory
service provides a single global naming space for objects. This has
allowed us to link multiple Bullet file servers together providing one
single large file service that crosses international borders."

Two sites — Amsterdam and Berlin — each with their own Ethernet,
Bullet server, and directory server, joined by a 2 Mb/s leased line.
One name space spans both: a client in Amsterdam resolves
``/berlin/projects/mandis.txt`` and reads the file from the Berlin
Bullet server without knowing a gateway was involved (except for the
latency).

Run:  python examples/wide_area_namespace.py
"""

from repro import (
    DEFAULT_TESTBED,
    BulletClient,
    BulletServer,
    DirectoryServer,
    Environment,
    Ethernet,
    LocalBulletStub,
    MirroredDiskSet,
    RpcTransport,
    VirtualDisk,
    run_process,
)
from repro.client import TRANSIENT_ERRORS, DirectoryClient
from repro.errors import ServerDownError
from repro.net import WideAreaProfile, connect_sites
from repro.units import to_msec


def build_site(env, city):
    """One Amoeba site: Ethernet, RPC, Bullet pair, directory server."""
    ethernet = Ethernet(env, DEFAULT_TESTBED.ethernet)
    rpc = RpcTransport(env, ethernet, DEFAULT_TESTBED.cpu)
    disks = [VirtualDisk(env, DEFAULT_TESTBED.disk, name=f"{city}-d{i}")
             for i in (0, 1)]
    bullet = BulletServer(env, MirroredDiskSet(env, disks), DEFAULT_TESTBED,
                          name=f"bullet-{city}", transport=rpc)
    bullet.format()
    run_process(env, bullet.boot())
    dirs = DirectoryServer(env, VirtualDisk(env, DEFAULT_TESTBED.disk,
                                            name=f"{city}-dirdisk"),
                           LocalBulletStub(bullet), DEFAULT_TESTBED,
                           name=f"directory-{city}", transport=rpc)
    dirs.format()
    run_process(env, dirs.boot())
    return rpc, bullet, dirs


def main():
    env = Environment()
    rpc_ams, bullet_ams, dirs_ams = build_site(env, "amsterdam")
    rpc_ber, bullet_ber, dirs_ber = build_site(env, "berlin")
    link = connect_sites(env, rpc_ams, rpc_ber,
                         WideAreaProfile(bandwidth_bits=2e6,
                                         propagation_delay=0.015))
    print("sites up: amsterdam, berlin; 2 Mb/s line, 15 ms one-way\n")

    # --- Build the global name space from Amsterdam ----------------------
    names = DirectoryClient(env, rpc_ams, default_port=dirs_ams.port)
    root = run_process(env, names.create_directory())
    ams_home = run_process(env, names.create_directory())
    berlin_projects = run_process(env, names.create_directory(port=dirs_ber.port))
    run_process(env, names.append(root, "amsterdam", ams_home))
    run_process(env, names.append(root, "berlin", berlin_projects))

    # Store a file at each site, bind both into the one tree.
    bullet_local = BulletClient(env, rpc_ams, bullet_ams.port)
    bullet_remote = BulletClient(env, rpc_ams, bullet_ber.port)  # via gateway
    local_file = run_process(env, bullet_local.create(
        b"Vrije Universiteit: Bullet server design notes.", 2))
    remote_file = run_process(env, bullet_remote.create(
        b"MANDIS/Amoeba: widely dispersed object-oriented OS.", 2))
    run_process(env, names.append(ams_home, "design.txt", local_file))
    run_process(env, names.append(berlin_projects, "mandis.txt", remote_file))

    # --- Resolve and read across the border -------------------------------
    for path in ("amsterdam/design.txt", "berlin/mandis.txt"):
        t0 = env.now
        cap = run_process(env, names.walk(root, path))
        data = run_process(env, BulletClient(env, rpc_ams, cap.port).read(cap))
        delay = env.now - t0
        where = "local" if cap.port == bullet_ams.port else "remote (gateway)"
        print(f"/{path:<24} -> {data[:35]!r}...")
        print(f"   resolved + read in {to_msec(delay):7.1f} ms [{where}]")

    print(f"\nwide-area line carried {link.bytes_carried} bytes; "
          f"the client code never mentioned a gateway.")

    # The same namespace is reachable from Berlin too (reverse direction).
    names_from_berlin = DirectoryClient(env, rpc_ber)
    cap = run_process(env, names_from_berlin.walk(root, "amsterdam/design.txt"))
    data = run_process(env, BulletClient(env, rpc_ber, cap.port).read(cap))
    print(f"\nfrom Berlin, /amsterdam/design.txt -> {data[:30]!r}...")

    # --- Cross-border replication via capability sets ---------------------
    # Copy the bytes, bind both capabilities under the name. There is no
    # coherence protocol to run because neither copy can ever change.
    print("\nreplicating /amsterdam/design.txt to Berlin (capability set):")
    design = run_process(env, LocalBulletStub(bullet_ams).read(local_file))
    replica = run_process(env, LocalBulletStub(bullet_ber).create(design, 2))
    run_process(env, names.replace(ams_home, "design.txt",
                                   (local_file, replica)))
    cap_set = run_process(env, names.lookup_set(ams_home, "design.txt"))
    print(f"  bound set: {len(cap_set)} replicas "
          f"(amsterdam + berlin); readers try them in order")

    def read_first_reachable(caps):
        """Process: the bytes from the first member whose server
        answers, and how many members were skipped to get there."""
        for failovers, cap in enumerate(caps):
            try:
                client = BulletClient(env, rpc_ams, cap.port, timeout=1.0)
                return (yield from client.read(cap)), failovers
            except TRANSIENT_ERRORS:
                continue
        raise ServerDownError("no replica reachable")

    bullet_ams.crash()
    print("  amsterdam Bullet server crashed!")
    data, failovers = run_process(env, read_first_reachable(cap_set))
    print(f"  read via replica set still succeeds ({failovers} "
          f"failover): {data[:30]!r}...")


if __name__ == "__main__":
    main()
