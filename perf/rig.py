"""The benchmark's own rig builder.

Assembles the §4 testbed from the program's public constructors (the
way ``examples/request_anatomy.py`` does), so the program's own rig
helpers can be refactored without moving the yardstick. One registry
and, in the span pass, one tracer are shared by every component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import api


@dataclass
class Rig:
    """One assembled testbed; servers a workload did not ask for are None."""

    seed: int
    env: api.Environment
    metrics: api.MetricsRegistry
    ethernet: api.Ethernet
    rpc: api.RpcTransport
    disks: list = field(default_factory=list)
    bullet: Optional[api.BulletServer] = None
    bullet_client: Optional[api.BulletClient] = None
    directory: Optional[api.DirectoryServer] = None
    directory_client: Optional[api.DirectoryClient] = None
    nfs: Optional[api.NfsServer] = None
    nfs_client: Optional[api.NfsClient] = None
    tracer: Optional[api.Tracer] = None

    def workstation(self, name: str, cache_bytes: int, dir_cap,
                    policy: api.CurrencyPolicy) -> api.NamedFileClient:
        """One §5 workstation: a byte cache plus an open-by-name session."""
        cache = api.WorkstationCache(cache_bytes, name=name,
                                     metrics=self.metrics,
                                     cpu=api.DEFAULT_TESTBED.cpu)
        caching = api.CachingBulletClient(self.bullet_client, cache=cache)
        return api.NamedFileClient(caching, self.directory_client, dir_cap,
                                   policy=policy, name=name)


def build_rig(seed: int, *, background_load: bool, bullet_workers: int = 0,
              directory: bool = False, nfs: bool = False,
              traced: bool = False) -> Rig:
    """Build, format and boot the servers a workload needs.

    ``bullet_workers`` > 0 adds the Bullet server on two mirrored disks;
    ``directory`` adds the directory server (rows stored on Bullet
    through the local plane) and ``nfs`` the NFS baseline with its
    background cache churn. ``traced`` (the span pass) hands one
    ``Tracer`` to every constructor that takes one; otherwise tracing is
    off, as in every timed pass.
    """
    testbed = api.DEFAULT_TESTBED
    env = api.Environment()
    tracer = api.Tracer(env=env) if traced else None
    metrics = api.MetricsRegistry()
    ethernet = api.Ethernet(
        env, testbed.ethernet,
        stream=api.SeededStream(seed, "ethernet") if background_load else None,
        background_load=background_load, tracer=tracer, metrics=metrics)
    rpc = api.RpcTransport(env, ethernet, testbed.cpu, tracer=tracer,
                           metrics=metrics)
    rig = Rig(seed=seed, env=env, metrics=metrics, ethernet=ethernet, rpc=rpc,
              tracer=tracer)

    def disk(name: str) -> api.VirtualDisk:
        made = api.VirtualDisk(env, testbed.disk, name=name, tracer=tracer,
                               metrics=metrics)
        rig.disks.append(made)
        return made

    if bullet_workers:
        mirror = api.MirroredDiskSet(
            env, [disk("bullet-d0"), disk("bullet-d1")])
        rig.bullet = api.BulletServer(
            env, mirror, testbed, transport=rpc, master_seed=seed,
            tracer=tracer, metrics=metrics, workers=bullet_workers)
        rig.bullet.format()
        api.run_process(env, rig.bullet.boot())
        rig.bullet_client = api.BulletClient(
            env, rpc, rig.bullet.port, tracer=tracer, metrics=metrics)
    if directory:
        rig.directory = api.DirectoryServer(
            env, disk("dir-disk"), api.LocalBulletStub(rig.bullet), testbed,
            transport=rpc, master_seed=seed, tracer=tracer)
        rig.directory.format()
        api.run_process(env, rig.directory.boot())
        rig.directory_client = api.DirectoryClient(
            env, rpc, default_port=rig.directory.port)
    if nfs:
        rig.nfs = api.NfsServer(
            env, disk("nfs-disk"), testbed, transport=rpc,
            background_churn=True, master_seed=seed, tracer=tracer,
            metrics=metrics)
        rig.nfs.format()
        api.run_process(env, rig.nfs.boot())
        # lockf in force, as in §4: no client page cache.
        rig.nfs_client = api.NfsClient(env, testbed, rpc=rpc,
                                       server_port=rig.nfs.port)
    return rig
