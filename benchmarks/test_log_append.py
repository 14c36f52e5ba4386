"""A7 — the append pathology and the log server (§2).

"Each append to a log file, for example, would require the whole file
to be copied. ... For log files we have implemented a separate server."

We append 100-byte records to a growing log two ways:

* naive Bullet: BULLET.MODIFY derives a new file per append (server-side
  whole-file copy — already better than shipping the file both ways,
  and still O(file));
* the log server: O(record) tail-block writes.

The naive cost must grow with log length; the log server's must not.
"""

from repro.bench import make_rig, timed
from repro.disk import VirtualDisk
from repro.logsvc import LogServer
from repro.sim import run_process
from repro.units import to_msec

from conftest import save_result

RECORD = b"x" * 256
APPENDS = 600
WINDOW = 40  # measure the mean of the first/last WINDOW appends


def naive_bullet_appends(rig):
    env, client = rig.env, rig.bullet_client
    _t, cap = timed(env, client.create(b"", 1))
    per_append = []
    for _ in range(APPENDS):
        def append(cap=cap):
            size = yield from client.size(cap)
            new_cap = yield from client.modify(cap, size, 0, RECORD, 1)
            yield from client.delete(cap)
            return new_cap

        elapsed, cap = timed(env, append())
        per_append.append(elapsed)
    return per_append


def log_server_appends(rig):
    env = rig.env
    disk = VirtualDisk(env, rig.testbed.disk, name="log-disk")
    logs = LogServer(env, disk, rig.testbed, transport=rig.rpc)
    logs.format()
    run_process(env, logs.boot())
    from repro.net import RpcRequest
    from repro.logsvc import LOG_OPCODES

    cap = run_process(env, logs.create_log())
    per_append = []
    for _ in range(APPENDS):
        def append():
            yield env.process(rig.rpc.trans(
                logs.port,
                RpcRequest(opcode=LOG_OPCODES["APPEND"], cap=cap, body=RECORD),
            ))

        elapsed, _ = timed(env, append())
        per_append.append(elapsed)
    return per_append


def test_log_append_vs_naive_bullet():
    rig = make_rig(with_nfs=False, background_load=False)
    naive, logged = naive_bullet_appends(rig), log_server_appends(rig)
    naive_early = sum(naive[:WINDOW]) / WINDOW
    naive_late = sum(naive[-WINDOW:]) / WINDOW
    log_early = sum(logged[:WINDOW]) / WINDOW
    log_late = sum(logged[-WINDOW:]) / WINDOW
    save_result(
        "log_append",
        "\n".join([
            f"A7: appending {len(RECORD)}-byte records, naive Bullet vs log server",
            "=" * 62,
            f"{APPENDS} appends; window = {WINDOW}",
            f"naive Bullet : first {to_msec(naive_early):8.2f} ms/append, "
            f"last {to_msec(naive_late):8.2f} ms/append "
            f"(growth {naive_late / naive_early:.1f}x)",
            f"log server   : first {to_msec(log_early):8.2f} ms/append, "
            f"last {to_msec(log_late):8.2f} ms/append "
            f"(growth {log_late / log_early:.1f}x)",
            f"final-append advantage: {naive_late / log_late:.1f}x",
        ]),
    )
    # The naive cost grows with the file; the log server's stays flat.
    assert naive_late > 2 * naive_early
    assert log_late < 1.5 * log_early
    assert naive_late > 3 * log_late
