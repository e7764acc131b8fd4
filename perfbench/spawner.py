"""Start one request process at a time and report what `os.wait4` says about it.

Run as `python -S -E spawner.py STDIN_FILE`.  Each line on stdin is

    OUT_PATH <tab> ERR_PATH <tab> ARG0 <0x1f> ARG1 <0x1f> ...

and for each the spawner starts ARG0 with the given arguments, stdin read
from STDIN_FILE and stdout/stderr written to the two paths, waits for it, and
answers one line: exit code, wall nanoseconds from spawn to reap, user and
system CPU seconds, and max RSS in KiB.

The spawner exists so that ru_maxrss is the request's own: a child started
with vfork or posix_spawn inherits the high-water RSS of the process that
starts it, and this process stays far smaller than any request.
"""

import os
import signal
import sys
import time

_child = 0


def _stop(signum, frame):
    if _child:
        os.kill(_child, signal.SIGKILL)
        os.waitpid(_child, 0)
    raise SystemExit(1)


def main() -> None:
    global _child
    signal.signal(signal.SIGTERM, _stop)
    stdin_path = sys.argv[1]
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        out_path, err_path, args = line.rstrip("\n").split("\t")
        argv = args.split("\x1f")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, stdin_path, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, write, 0o644),
        ]
        t0 = time.perf_counter_ns()
        _child = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _pid, status, ru = os.wait4(_child, 0)
        wall = time.perf_counter_ns() - t0
        _child = 0
        sys.stdout.write(f"{os.waitstatus_to_exitcode(status)} {wall} "
                         f"{ru.ru_utime!r} {ru.ru_stime!r} {ru.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
