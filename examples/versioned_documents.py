#!/usr/bin/env python3
"""A versioned document store on immutable files (§2, §5, ref [6]/[7]).

Every save creates a new immutable Bullet file; the directory service
atomically rebinds the name and — because directory versions chain to
their predecessors — the full edit history stays recoverable, exactly
the Cedar-style version mechanism the paper points to.

Also demonstrates the §5 client-cache currency check: "Checking if a
cached copy of a file is still current is simply done by looking up its
capability in the directory service, and comparing it to the capability
on which the copy is based."

Run:  python examples/versioned_documents.py
"""

from repro import (
    DEFAULT_TESTBED,
    BulletServer,
    CachingBulletClient,
    DirectoryServer,
    Environment,
    LocalBulletStub,
    MirroredDiskSet,
    VirtualDisk,
    WorkstationCache,
    run_process,
)
from repro.capability import RIGHT_READ
from repro.client import CurrencyPolicy, NamedFileClient
from repro.directory import DirectoryRows
from repro.units import KB


def main():
    env = Environment()
    disks = [VirtualDisk(env, DEFAULT_TESTBED.disk, name=f"d{i}") for i in (0, 1)]
    bullet = BulletServer(env, MirroredDiskSet(env, disks), DEFAULT_TESTBED)
    bullet.format()
    run_process(env, bullet.boot())
    stub = LocalBulletStub(bullet)

    dirs = DirectoryServer(env, VirtualDisk(env, DEFAULT_TESTBED.disk,
                                            name="dir-disk"),
                           stub, DEFAULT_TESTBED)
    dirs.format()
    run_process(env, dirs.boot())

    docs = run_process(env, dirs.create_directory())
    print(f"document directory: {docs}")

    # --- Save three versions of a paper draft ---------------------------
    drafts = [
        b"Draft 1: block-based file servers are slow.",
        b"Draft 2: store files contiguously, make them immutable.",
        b"Draft 3: the Bullet server outperforms NFS by 3-6x.",
    ]
    cap = run_process(env, stub.create(drafts[0], 1))
    run_process(env, dirs.append(docs, "paper.txt", cap))
    for draft in drafts[1:]:
        new_cap = run_process(env, stub.create(draft, 1))
        old = run_process(env, dirs.replace(docs, "paper.txt", new_cap))
        print(f"saved new version; superseded file {old.object} "
              f"(kept immutably — that's the version store)")

    # --- The history is the directory's version chain -------------------
    chain = run_process(env, dirs.history(docs))
    print(f"\ndirectory version chain: {len(chain)} versions")
    for i, version_cap in enumerate(chain):
        raw = run_process(env, stub.read(version_cap))
        rows = DirectoryRows.decode(raw)
        bound = rows.rows.get("paper.txt")
        if bound is not None:
            content = run_process(env, stub.read(bound[0]))
            print(f"  version -{i}: paper.txt -> {content[:40]!r}")
        else:
            print(f"  version -{i}: (before paper.txt existed)")

    # --- Client cache + currency check -----------------------------------
    client = CachingBulletClient(stub, WorkstationCache(256 * KB))
    current_cap = run_process(env, dirs.lookup(docs, "paper.txt"))
    # Cache under a *read-only restriction* of the published capability:
    # the currency check is evidence-based (object + secret lineage), so
    # a restricted copy still compares current against the directory's
    # owner capability — rights bits never fake a version change.
    read_only = run_process(env, stub.restrict(current_cap, RIGHT_READ))
    text = run_process(env, client.read(read_only))
    print(f"\nclient cached (read-only cap): {text[:30]!r}...")

    is_current, latest = run_process(
        env, client.lookup_validated(dirs, docs, "paper.txt", read_only))
    print(f"cache still current? {is_current}")

    final = run_process(env, stub.create(b"Draft 4: camera-ready.", 1))
    run_process(env, dirs.replace(docs, "paper.txt", final))
    is_current, latest = run_process(
        env, client.lookup_validated(dirs, docs, "paper.txt", read_only))
    print(f"after another save, cache still current? {is_current} "
          f"-> refetch under {latest}")
    print(f"fresh contents: {run_process(env, client.read(latest))!r}")

    # --- Open-by-name: the session layer runs the protocol for you ------
    session = NamedFileClient(client, dirs, docs,
                              policy=CurrencyPolicy.always(), name="editor")
    print(f"\nopen-by-name: {run_process(env, session.read('paper.txt'))!r}")
    run_process(env, session.publish("paper.txt", b"Draft 5: in press."))
    print(f"after publish: {run_process(env, session.read('paper.txt'))!r}")
    print(f"coherence counters: {session.stats.snapshot()}")

    # --- Reclaim old directory versions at leisure -----------------------
    deleted = run_process(env, dirs.prune_history(docs, keep=2))
    print(f"\npruned {deleted} old directory versions "
          f"(old *file* versions remain until pruned separately)")


if __name__ == "__main__":
    main()
