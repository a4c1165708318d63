"""A fixed reference task that measures how fast the machine is right now.

``run.py`` starts this script in a fresh interpreter between the timed
pieces of a run and scales the timings by how long it took to get
ready, so the reported times do not move when other tenants of a shared
host slow the whole machine down.  The task is an interpreter start and
the numpy import, nothing else: it never imports ordpoly, so a change to
the library cannot change it.

The last line of standard output is one JSON object whose ``ready`` is a
``time.monotonic`` reading once numpy is imported, comparable with the
parent's clock.
"""

import json
import time

import numpy  # noqa: F401 - loading it is the task

print(json.dumps({"ready": time.monotonic()}))
