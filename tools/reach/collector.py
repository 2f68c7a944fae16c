"""Record which Python functions a process calls, one file per process.

``install(out_dir)`` turns on a ``sys.setprofile`` hook in the calling
thread and in every thread started after it.  On a ``call`` event it
keeps the frame's code object: one set insertion per call.  When the
process ends, the ``(realpath, first line)`` of every code object seen
goes to ``<out_dir>/<pid>.txt``.

A process ends in one of two ways, and each one writes the file:
- a normal interpreter exit runs ``atexit``;
- a forked ``multiprocessing`` worker leaves through ``os._exit``, which
  this module wraps.  The child inherits the parent's hook and what the
  parent had seen, and writes under its own pid.

``run.py`` loads this module into every interpreter of the shipping runs
through a generated ``sitecustomize``.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading

_seen = set()
_out_dir = ""


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _flush():
    lines = {f"{os.path.realpath(code.co_filename)}\t{code.co_firstlineno}"
             for code in list(_seen)}
    path = os.path.join(_out_dir, f"{os.getpid()}.txt")
    with open(path + ".part", "w") as handle:
        handle.write("\n".join(sorted(lines)))
    os.replace(path + ".part", path)


def install(out_dir: str) -> None:
    global _out_dir
    _out_dir = out_dir
    atexit.register(_flush)
    hard_exit = os._exit

    def _exit(status):
        _flush()
        hard_exit(status)

    os._exit = _exit
    threading.setprofile(_hook)
    sys.setprofile(_hook)
