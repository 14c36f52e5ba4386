#!/usr/bin/env python3
"""The §5 UNIX emulation: POSIX-style files over immutable storage.

"Recently we have implemented a UNIX emulation on top of the Bullet
service supporting a wealth of existing software."

A familiar open/write/lseek/close session runs unchanged; underneath,
every close of a dirty file creates a new immutable Bullet file and
atomically rebinds the name in the directory service. A reader that
opened the file before a writer's close keeps its version — snapshot
isolation for free.

Run:  python examples/unix_emulation.py
"""

import os

from repro import (
    DEFAULT_TESTBED,
    BulletServer,
    DirectoryServer,
    Environment,
    LocalBulletStub,
    MirroredDiskSet,
    UnixEmulation,
    VirtualDisk,
    run_process,
)


def build_unix(env):
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
    root = run_process(env, dirs.create_directory())
    return UnixEmulation(env, stub, dirs, root), bullet


def main():
    env = Environment()
    unix, bullet = build_unix(env)

    def sh(gen):
        return run_process(env, gen)

    # --- A normal-looking session ---------------------------------------
    sh(unix.mkdir("/home"))
    sh(unix.mkdir("/home/ast"))
    fd = sh(unix.open("/home/ast/.profile", "w"))
    sh(unix.write(fd, b"export EDITOR=ed\n"))
    sh(unix.close(fd))

    fd = sh(unix.open("/home/ast/todo", "w"))
    sh(unix.write(fd, b"1. make file server fast\n"))
    sh(unix.close(fd))
    fd = sh(unix.open("/home/ast/todo", "a"))
    sh(unix.write(fd, b"2. name it Bullet\n"))
    sh(unix.close(fd))

    fd = sh(unix.open("/home/ast/todo", "r"))
    print("$ cat /home/ast/todo")
    print(sh(unix.read(fd, 4096)).decode(), end="")
    sh(unix.close(fd))

    print("\n$ ls /home/ast")
    print("  ".join(sh(unix.listdir("/home/ast"))))

    # --- lseek / partial rewrite ----------------------------------------
    fd = sh(unix.open("/home/ast/todo", "r+"))
    sh(unix.lseek(fd, 0, os.SEEK_SET))
    sh(unix.write(fd, b"X."))
    sh(unix.close(fd))
    fd = sh(unix.open("/home/ast/todo", "r"))
    print("\nafter in-place edit (new immutable version under the hood):")
    print(sh(unix.read(fd, 4096)).decode(), end="")
    sh(unix.close(fd))

    # --- Snapshot isolation across a concurrent rewrite ------------------
    reader_fd = sh(unix.open("/home/ast/todo", "r"))
    first_bytes = sh(unix.read(reader_fd, 2))  # whole file now loaded
    writer_fd = sh(unix.open("/home/ast/todo", "w"))
    sh(unix.write(writer_fd, b"entirely new contents\n"))
    sh(unix.close(writer_fd))
    rest = sh(unix.read(reader_fd, 4096))
    print("\nreader that opened before the rewrite still sees:")
    print((first_bytes + rest).decode(), end="")
    sh(unix.close(reader_fd))

    fd = sh(unix.open("/home/ast/todo", "r"))
    print("a fresh open sees:")
    print(sh(unix.read(fd, 4096)).decode(), end="")
    sh(unix.close(fd))

    # --- rename / unlink --------------------------------------------------
    sh(unix.rename("/home/ast/todo", "/home/ast/done"))
    sh(unix.unlink("/home/ast/.profile"))
    print("\n$ ls /home/ast")
    print("  ".join(sh(unix.listdir("/home/ast"))))

    print(f"\nBullet server did {bullet.stats.creates.value} creates / "
          f"{bullet.stats.deletes.value} deletes for this session "
          f"(one create per dirty close — versions, not updates)")


if __name__ == "__main__":
    main()
