"""Per-layer spans for a traced pass, recorded from outside the library.

``install`` replaces each public function listed in ``TARGETS`` with a
wrapper that adds the call's duration to one metric.  The wrapper is set
on the defining module and on every package module that imported the
same function by name (``ordpoly.verify``, ``ordpoly.cli``), so calls the
benchmark makes, calls the verification checks make and calls a CLI verb
makes are all seen.  Calls one library module makes through a name it
imported itself stay untraced.

A metric's time is inclusive: a call to ``shelling_contributions`` that
rebuilds the lattice counts fully in ``hvector.contributions_s`` and the
rebuild also counts in ``lattice.build_s``.  Only the outermost call of
a metric is recorded, so recursion is not counted twice.  Untraced
passes never import this module and run the library unpatched.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from collections import defaultdict


# (module, function, time metric, count metric or None)
TARGETS = [
    ("ordinary", "enumerate_facets", "ordinary.enumerate_s", "ordinary.facets"),
    ("ordinary", "facets_by_recursion", "ordinary.recursion_s", None),
    ("lattice", "build_face_lattice", "lattice.build_s", "lattice.faces"),
    ("lattice", "euler_check", "lattice.euler_s", None),
    ("hvector", "toric_tables", "hvector.toric_s", None),
    ("hvector", "multiplicial_h", "hvector.multiplicial_s", None),
    ("hvector", "h_closed_form", "hvector.closed_s", None),
    ("hvector", "shelling_contributions", "hvector.contributions_s", None),
    ("shelling", "colex_shelling", "shelling.colex_s", "shelling.steps"),
    ("shelling", "minimal_new_face_recursive", "shelling.recursive_s", None),
    ("shelling", "verify_shelling_partition", "shelling.partition_s", None),
    ("shelling", "boolean_interval_check", "shelling.boolean_s", None),
    ("shelling", "verify_shelling_topological", "shelling.topological_s", None),
    ("triangulation", "triangulation_shelling", "triangulation.shelling_s",
     "triangulation.simplices"),
    ("triangulation", "boundary_triangulation", "triangulation.direct_s", None),
    ("triangulation", "shelling_restriction_faces", "triangulation.wall_oracle_s",
     None),
    ("triangulation", "shallowness_check", "triangulation.shallow_s", None),
    ("bijection", "count_by_size", "bijection.counts_s", None),
    ("bijection", "bijection_records", "bijection.roundtrip_s", None),
    ("bijection", "subset_to_facet", "bijection.roundtrip_s", None),
]

# Modules that import library functions by name and call them later.
_IMPORTERS = ("ordpoly.verify", "ordpoly.cli")

_BUILD = "lattice.build_s"


class Tracer:
    """Accumulates seconds and counts per metric over one pass."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._open: set[str] = set()

    def span(self, metric: str, fn, *args, **kwargs):
        """Call ``fn`` and add its duration to ``metric``; returns its result."""
        if metric in self._open:
            return fn(*args, **kwargs)
        self._open.add(metric)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.values[metric] += time.perf_counter() - start
            self._open.discard(metric)

    def _wrap(self, fn, metric: str, count: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = metric not in self._open
            if metric == _BUILD and outermost:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result = self.span(metric, fn, *args, **kwargs)
            if outermost:
                if count is not None:
                    self.values[count] += len(result)
                if metric == _BUILD:
                    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    self.values["lattice.build_rss_mb"] += (after - before) / 1024
                    self.values["lattice.builds"] += 1
            return result

        return traced

    def install(self) -> None:
        """Patch every target at its defining module and its importers."""
        importers = [importlib.import_module(name) for name in _IMPORTERS]
        for module_name, fn_name, metric, count in TARGETS:
            module = importlib.import_module(f"ordpoly.{module_name}")
            original = getattr(module, fn_name)
            wrapper = self._wrap(original, metric, count)
            for target in [module, *importers]:
                if getattr(target, fn_name, None) is original:
                    setattr(target, fn_name, wrapper)
