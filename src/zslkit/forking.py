"""Forked children that share out work between the CPUs this process may use.

`io` reads and writes large text bodies in parts, `evaluate` trains the models
of an ablation grid as tasks, and `train` sweeps the row blocks of W_e, each
through `_forked`.
"""

from __future__ import annotations

import contextlib
import os
import threading


@contextlib.contextmanager
def _forked(parts: int, send, duplex: bool = False):
    """Yields n, the allowed CPUs up to `parts` (1 unless fork works and no
    other thread runs), and a pipe from each child k = 1 .. n-1, pinned to its
    own CPU, that runs send(pipe, k, n). With `duplex`, child k also gets the
    read end of a pipe from this process, as send((fd, pipe), k, n), and each
    yielded item is a (from child, to child) pair, the second unbuffered.
    While children run, this process is pinned to the first CPU, so that work
    it forks in turn stays serial. If a pipe or a process cannot be made, the
    children made are killed and reaped and n is 1. On leaving, all are
    killed and reaped and this process's CPU mask is restored."""
    allowed = (os.sched_getaffinity(0) if hasattr(os, "fork") and hasattr(
        os, "sched_getaffinity") and threading.active_count() == 1 else set())
    cpus, children, pinned = sorted(allowed)[:parts], [], False

    def reap():
        for pid, *pipes in children:
            for pipe in pipes:
                pipe.close()
            os.kill(pid, 9)  # SIGKILL; importing signal would add 0.1-0.2 MB of RSS
            os.waitpid(pid, 0)
        children.clear()

    try:
        try:
            for k in range(1, len(cpus)):
                fds = []  # from the child: read, write; to the child: read, write
                try:
                    for _ in range(1 + duplex):
                        fds += os.pipe()
                    pid = os.fork()
                except OSError:
                    for fd in fds:
                        os.close(fd)
                    raise
                if pid == 0:
                    try:
                        for fd in fds[0::3]:  # the ends this process keeps
                            os.close(fd)
                        os.sched_setaffinity(0, {cpus[k]})
                        with open(fds[1], "wb") as out:
                            send((fds[2], out) if duplex else out, k, len(cpus))
                    finally:
                        os._exit(0)
                for fd in fds[1:3]:
                    os.close(fd)
                children.append((pid, open(fds[0], "rb"),
                                 *(open(fd, "wb", buffering=0) for fd in fds[3:])))
        except OSError:  # out of processes or open files: the work is done here
            reap()
            cpus = []
        if pinned := len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[0]})
        yield max(len(cpus), 1), [tuple(pipes) if duplex else pipes[0]
                                  for _, *pipes in children]
    finally:
        reap()
        if pinned:
            os.sched_setaffinity(0, allowed)
