"""Call server: imports su2haar.cli once, then runs each CLI call in a fresh fork.

Started by run.py with the benchmark's environment (one CPU, fixed hash
seed, single-threaded BLAS).  It reads one JSON request per line on stdin
and answers one JSON line on stdout:

* {"op": "call", "argv": [...], "stdout": path, "stderr": path, "trace": bool,
  "calibration": kind} forks, points the child's fds 1 and 2 at the two files, optionally
  installs the tracer, and times `su2haar.cli.main(argv)` in the child,
  output flush included.  The answer carries the child's time, exit code,
  peak resident size (from wait4) and trace summary.
* {"op": "spawn"} times a fresh interpreter importing su2haar.cli.
* {"op": "quit"} ends the server.

Every answer also carries the calibration loop timed right before and right
after the measured work, and this process's own peak resident size, which
must not grow: the children inherit its pages.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback

import su2haar.cli
from calibration import LOOPS, calibrate

import tracer


def _write_all(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _child(req: dict, wfd: int) -> None:
    for fd, path in ((1, req["stdout"]), (2, req["stderr"])):
        out = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(out, fd)
        os.close(out)
    trace = tracer.install() if req["trace"] else None
    start = time.perf_counter()
    try:
        rc = su2haar.cli.main(req["argv"])
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    except BaseException:
        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    sys.stderr.flush()
    elapsed = time.perf_counter() - start
    _write_all(wfd, json.dumps({"raw_s": elapsed, "rc": rc,
                                "trace": trace.summary() if trace else None}).encode())


def _call(req: dict) -> bytes:
    rfd, wfd = os.pipe()
    before = calibrate(req["calibration"])
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(rfd)
            _child(req, wfd)
        except BaseException:
            status = 70
        finally:
            os._exit(status)
    os.close(wfd)
    payload = _read_all(rfd)
    os.close(rfd)
    _, status, usage = os.wait4(pid, 0)
    after = calibrate(req["calibration"])
    if status != 0 or not payload:
        raise RuntimeError(f"call child ended with status {status}")
    return (b'{"calib": [%r, %r], "maxrss_kb": %d, "child": ' % (before, after, usage.ru_maxrss)
            + payload + b"}")


def _spawn() -> bytes:
    before = calibrate("interpreter")
    start = time.perf_counter()
    rc = subprocess.call([sys.executable, "-c", "import su2haar.cli"],
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    after = calibrate("interpreter")
    return json.dumps({"calib": [before, after], "raw_s": elapsed, "rc": rc}).encode()


def main() -> int:
    proto_in = os.fdopen(os.dup(0), "rb")
    proto_out = os.dup(1)
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1):
        os.dup2(devnull, fd)
    threads = len(os.listdir("/proc/self/task"))
    for kind in LOOPS:
        for _ in range(3):
            calibrate(kind)
    ready = {"threads": threads,
             "module": su2haar.cli.__file__, "backend": su2haar.cli.backend_name()}
    _write_all(proto_out, json.dumps(ready).encode() + b"\n")
    for line in proto_in:
        req = json.loads(line)
        if req["op"] == "quit":
            break
        body = _call(req) if req["op"] == "call" else _spawn()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _write_all(proto_out, b'{"server_maxrss_kb": %d, "reply": ' % rss + body + b"}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
