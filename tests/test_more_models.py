"""Model-based tests for the log server and the UNIX emulation."""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.capability import Capability
from repro.client import LocalBulletStub
from repro.directory import DirectoryServer
from repro.disk import VirtualDisk
from repro.logsvc import LogServer
from repro.sim import Environment, run_process
from repro.unixemu import UnixEmulation

from conftest import SMALL_DISK, make_bullet, small_testbed


# ------------------------------------------------------------- log server


log_ops = st.lists(
    st.tuples(
        st.sampled_from(["append", "read", "reboot"]),
        st.binary(min_size=0, max_size=200),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=30,
)


@given(script=log_ops)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_log_server_matches_list_model(script):
    """Appends/reads against a log, with reboots interleaved: the log
    must always equal the reference list (append-only durability)."""
    env = Environment()
    disk = VirtualDisk(env, SMALL_DISK, name="logd")
    logs = LogServer(env, disk, small_testbed())
    logs.format()
    env.run(until=env.process(logs.boot()))
    cap = run_process(env, logs.create_log())
    model: list = []

    for op, payload, from_seq in script:
        if op == "append":
            seq = run_process(env, logs.append(cap, payload))
            assert seq == len(model)
            model.append(payload)
        elif op == "read":
            start = from_seq % (len(model) + 1)
            got = run_process(env, logs.read(cap, from_seq=start))
            assert got == model[start:]
        else:  # reboot
            logs = LogServer(env, disk, small_testbed())
            env.run(until=env.process(logs.boot()))
            cap = Capability(port=logs.port, object=cap.object,
                             rights=cap.rights, check=cap.check)
    assert run_process(env, logs.read(cap)) == model
    assert run_process(env, logs.length(cap)) == len(model)


# ---------------------------------------------------------- unix emulation


unix_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "lseek", "truncate", "read"]),
        st.integers(min_value=0, max_value=6000),
        st.binary(min_size=0, max_size=700),
    ),
    max_size=25,
)


@given(script=unix_ops)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_unixemu_fd_matches_bytearray_model(script):
    """One open file descriptor driven by random writes/seeks/truncates
    vs a local bytearray; then close-and-reopen must read back the
    committed image exactly."""
    env = Environment()
    bullet = make_bullet(env, testbed=small_testbed(inode_count=2048))
    dirs = DirectoryServer(env, VirtualDisk(env, SMALL_DISK, name="dd"),
                           LocalBulletStub(bullet), small_testbed())
    dirs.format()
    env.run(until=env.process(dirs.boot()))
    root = run_process(env, dirs.create_directory())
    unix = UnixEmulation(env, LocalBulletStub(bullet), dirs, root)

    def scenario():
        fd = yield from unix.open("/model-file", "w")
        model = bytearray()
        offset = 0
        for op, arg, payload in script:
            if op == "write":
                yield from unix.write(fd, payload)
                end = offset + len(payload)
                if end > len(model):
                    model.extend(bytes(end - len(model)))
                model[offset:end] = payload
                offset = end
            elif op == "lseek":
                offset = arg
                yield from unix.lseek(fd, arg, os.SEEK_SET)
            elif op == "truncate":
                length = arg % (len(model) + 1)
                yield from unix.ftruncate(fd, length)
                del model[length:]
            else:
                data = yield from unix.read(fd, arg)
                expected = bytes(model[offset:offset + arg])
                assert data == expected
                offset += len(data)
        yield from unix.close(fd)
        fd = yield from unix.open("/model-file", "r")
        final = yield from unix.read(fd, len(model) + 1)
        yield from unix.close(fd)
        assert final == bytes(model)
        return True

    assert run_process(env, scenario())
