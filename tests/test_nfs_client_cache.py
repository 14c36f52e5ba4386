"""Tests for the NFS client page/attribute cache — the machinery the
paper disabled with lockf, including its weak-consistency window."""

import pytest

from repro.nfs import NfsClient, NfsServer
from repro.disk import VirtualDisk
from repro.net import Ethernet, RpcTransport
from repro.profiles import CpuProfile, EthernetProfile
from repro.sim import Environment, run_process
from repro.units import KB

from conftest import SMALL_DISK, small_testbed


def make_server(env):
    """An NFS server behind the network; returns (rpc, server)."""
    rpc = RpcTransport(env, Ethernet(env, EthernetProfile()), CpuProfile())
    disk = VirtualDisk(env, SMALL_DISK, name="nfsdisk")
    server = NfsServer(env, disk, small_testbed(), transport=rpc)
    server.format()
    run_process(env, server.boot())
    return rpc, server


def make_pair(env, caching=True):
    rpc, server = make_server(env)
    client = NfsClient(env, small_testbed(), rpc=rpc, server_port=server.port,
                       client_caching=caching)
    return client, server


def write_file(env, client, path, payload):
    def gen():
        fd = yield from client.creat(path)
        yield from client.write(fd, payload)
        yield from client.close(fd)

    run_process(env, gen())


def read_file(env, client, path, size):
    def gen():
        fd = yield from client.open(path)
        yield from client.lseek(fd, 0)
        data = yield from client.read(fd, size)
        yield from client.close(fd)
        return data

    return run_process(env, gen())


def test_cached_reread_is_local(env):
    client, server = make_pair(env)
    payload = bytes(range(256)) * 64  # 16 KB
    write_file(env, client, "/f", payload)
    assert read_file(env, client, "/f", len(payload)) == payload
    reads_at_server = server.incarnation.fs.cache.stats  # server-side state
    misses_before = client.cache_misses
    t0 = env.now
    assert read_file(env, client, "/f", len(payload)) == payload
    # Second read: all chunks from the client cache, no READ RPCs.
    assert client.cache_misses == misses_before
    assert client.cache_hits >= 2


def test_cached_reread_faster(env):
    client, _server = make_pair(env)
    payload = bytes(64 * KB)
    write_file(env, client, "/f", payload)

    def timed_read():
        t0 = env.now
        assert read_file(env, client, "/f", len(payload)) == payload
        return env.now - t0

    cold = timed_read()
    warm = timed_read()
    assert warm < cold / 3


def test_unaligned_reads_from_cache(env):
    client, _server = make_pair(env)
    payload = bytes(range(256)) * 80  # 20 KB, crosses chunk boundaries
    write_file(env, client, "/f", payload)
    read_file(env, client, "/f", len(payload))  # warm

    def gen():
        fd = yield from client.open("/f")
        yield from client.lseek(fd, 8000)
        return (yield from client.read(fd, 9000))

    assert run_process(env, gen()) == payload[8000:17000]


def test_own_write_invalidates_pages(env):
    client, _server = make_pair(env)
    write_file(env, client, "/f", b"A" * (10 * KB))
    assert read_file(env, client, "/f", 10 * KB) == b"A" * (10 * KB)

    def rewrite():
        fd = yield from client.open("/f")
        yield from client.lseek(fd, 0)
        yield from client.write(fd, b"B" * 100)
        yield from client.close(fd)

    run_process(env, rewrite())
    data = read_file(env, client, "/f", 10 * KB)
    assert data[:100] == b"B" * 100
    assert data[100:] == b"A" * (10 * KB - 100)


def test_stale_window_then_revalidation(env):
    """The §5 contrast: another client's update is invisible until the
    attribute cache times out — NFS's weak consistency, which immutable
    files never suffer."""
    env_local = env
    rpc, server = make_server(env_local)
    reader = NfsClient(env_local, small_testbed(), rpc=rpc,
                       server_port=server.port, client_caching=True)
    writer = NfsClient(env_local, small_testbed(), rpc=rpc,
                       server_port=server.port)

    write_file(env_local, writer, "/shared", b"version one....")
    assert read_file(env_local, reader, "/shared", 64) == b"version one...."

    # Another client rewrites the file.
    def rewrite():
        fd = yield from writer.open("/shared")
        yield from writer.lseek(fd, 0)
        yield from writer.write(fd, b"version TWO!...")
        yield from writer.close(fd)

    run_process(env_local, rewrite())

    # Within the attribute-cache window the reader sees STALE data.
    stale = read_file(env_local, reader, "/shared", 64)
    assert stale == b"version one...."

    # After the window expires, revalidation flushes and fetches fresh.
    env_local.run(until=env_local.now + small_testbed().nfs.attr_cache_timeout + 0.1)
    fresh = read_file(env_local, reader, "/shared", 64)
    assert fresh == b"version TWO!..."


def test_lockf_mode_has_no_cache(env):
    client, _server = make_pair(env, caching=False)
    payload = bytes(16 * KB)
    write_file(env, client, "/f", payload)
    read_file(env, client, "/f", len(payload))
    read_file(env, client, "/f", len(payload))
    assert client.cache_hits == 0
    assert client.cache_misses == 0
