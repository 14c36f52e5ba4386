"""Acceptance tests for the public surface: the README quickstart runs
verbatim, every exported name is importable and documented, and the five
headline claims hold at reduced scale in one sitting."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    BulletClient,
    BulletServer,
    DEFAULT_TESTBED,
    Environment,
    Ethernet,
    MirroredDiskSet,
    RIGHT_READ,
    RpcTransport,
    VirtualDisk,
    restrict,
    run_process,
)
from repro.units import KB


def test_readme_quickstart_verbatim():
    """The exact code block from README.md."""
    env = Environment()
    ethernet = Ethernet(env, DEFAULT_TESTBED.ethernet)
    rpc = RpcTransport(env, ethernet, DEFAULT_TESTBED.cpu)
    disks = [VirtualDisk(env, DEFAULT_TESTBED.disk, name=f"d{i}") for i in (0, 1)]
    server = BulletServer(env, MirroredDiskSet(env, disks), DEFAULT_TESTBED,
                          transport=rpc)
    server.format()
    run_process(env, server.boot())

    client = BulletClient(env, rpc, server.port)
    cap = run_process(env, client.create(b"immutable, contiguous, whole-file", 2))
    assert run_process(env, client.read(cap)) == b"immutable, contiguous, whole-file"
    reader = restrict(cap, RIGHT_READ)
    assert env.now > 0
    assert reader.rights == RIGHT_READ


def test_every_exported_name_resolves_and_is_documented():
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) and not isinstance(obj, type(repro.Status.OK)):
            assert obj.__doc__, f"repro.{name} lacks a docstring"


def test_import_repro_does_not_load_the_linter():
    """The server runs without its analyzer: the lockset hooks the lock
    plane calls live in ``repro.core.lockset``, so a fresh interpreter
    that imports ``repro`` has no ``repro.analysis`` module loaded."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; "
         "print(sorted(m for m in sys.modules if 'repro.analysis' in m))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ,
             "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])})
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_module_docstring_mentions_the_paper():
    assert "ICDCS 1989" in repro.__doc__
    assert "High-Performance File" in repro.__doc__


def test_version():
    assert repro.__version__ == "1.0.0"


def test_claims_end_to_end_small_scale():
    """All five §4/§5 claims in one sitting on the full testbed with a
    reduced size set — the cheap always-on guard behind the benchmark
    suite's strict version."""
    from repro.bench import bullet_figure2, make_rig, nfs_figure3

    rig = make_rig()
    sizes = [1 * KB, 64 * KB, 256 * KB]
    fig2 = bullet_figure2(rig, sizes=sizes, repeats=1)
    fig3 = nfs_figure3(rig, sizes=sizes, repeats=1)

    # C1-direction: Bullet faster at every size.
    for size in sizes:
        assert fig3.delay(size, "READ") > 2 * fig2.delay(size, "READ")
    # C3: write bandwidth beats NFS read bandwidth at 64 KB+.
    for size in (64 * KB, 256 * KB):
        assert (fig2.bandwidth(size, "CREATE+DEL")
                > fig3.bandwidth(size, "READ"))
    # C5: Bullet large-read bandwidth near the wire's bulk-RPC rate.
    assert fig2.bandwidth(256 * KB, "READ") > 500
