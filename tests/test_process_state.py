"""No state outlives an instance: a long-running process behaves as a fresh one."""

import gc
import hashlib
import importlib
import json
import pkgutil
import random
import tracemalloc

import ordpoly
from ordpoly.combinat import Params
from ordpoly.verify import grid_instances, verify_instance

# SHA-256 of the stdout of a fresh `ordpoly verify 5 5 5 --grid --format json`.
GRID_JSON_SHA256 = "bb14792847757658a6daa6adf8dab649d9df9c7ee2df2d52538af6bfc1df0791"

# The caches keyed by a size alone, which d bounds; every other memo holds
# the current instance only.
SIZE_TABLES = {"hvector._x_minus_one_power", "shelling._multiplex_walls"}


def test_a_long_running_process_keeps_no_old_instance():
    # The grid in shuffled order, a wide instance, then a small one: what
    # stays allocated afterwards is what the memos hold for their latest
    # calls, and every verdict is the fresh process's.
    grid = grid_instances()
    order = random.Random(33).sample(grid, len(grid))
    tracemalloc.start()
    try:
        results = {p: verify_instance(p) for p in order}
        verify_instance(Params(5, 6, 120))
        verify_instance(Params(5, 5, 5))
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    doc = {
        "instances": [
            {"d": p.d, "k": p.k, "n": p.n, "checks": [r._asdict() for r in results[p]]}
            for p in grid
        ]
    }
    out = json.dumps(doc, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_JSON_SHA256
    assert kept < 256 * 1024


def test_no_process_wide_cache_but_the_size_tables():
    unbounded = set()
    for info in pkgutil.iter_modules(ordpoly.__path__):
        module = importlib.import_module(f"ordpoly.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                if obj.cache_parameters()["maxsize"] is None:
                    unbounded.add(f"{info.name}.{name}")
    assert unbounded == SIZE_TABLES
