"""Function-reach census: which functions of ``src/repro`` does a run call?

Put this directory first on ``PYTHONPATH`` and name an output directory; every
Python process started with that environment (the e2e runner starts one per
workload) imports this file at start-up, installs ``sys.setprofile`` and
``threading.setprofile``, and at exit dumps the ``(file, name, first line)``
of every ``repro`` code object it saw a call event for, one JSON file per
process.  Standard library only, nothing under ``src/`` or ``benchmarks/`` is
edited.  ``report.py`` (same directory) turns the dumps into the per-package
table; its docstring has the whole command.

A child forked by ``multiprocessing`` leaves through ``os._exit`` and dumps
nothing; the four e2e workloads fork none (``runtime.tasks_per_op`` is 0).
"""

import atexit
import json
import os
import sys
import threading

_OUT = os.environ.get("REPRO_CENSUS_DIR")
_MARK = os.sep + os.path.join("src", "repro") + os.sep
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    reached = sorted(
        {
            (code.co_filename.split(_MARK, 1)[1], code.co_name, code.co_firstlineno)
            for code in list(_seen)
            if _MARK in code.co_filename
        }
    )
    os.makedirs(_OUT, exist_ok=True)
    with open(os.path.join(_OUT, f"reached-{os.getpid()}.json"), "w") as stream:
        json.dump({"argv": sys.argv, "reached": reached}, stream)


if _OUT:
    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
