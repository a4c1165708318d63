"""The four benchmark workloads: fixed inputs, one pass each, checked outputs.

Each workload is a fixed list of inputs.  The seed only permutes their
order inside a pass, because process-global memo caches in the library
make later inputs cheaper when an earlier one shared their work, and the
order also moves the peak RSS (on ``ladder``, by about 4%).  Every
output is compared with a reference that does not come from the code
path being timed: frozen values in ``reference.json`` (captured from the
library at the commit that introduced this benchmark), closed forms, or
an independent route of the library.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

LADDER = [(7, 9, 20), (7, 10, 30)]
WIDE_N = [(9, 11, 40), (5, 6, 120)]
# (argv, small): the small calls make up the cold-start metric.
CLI_CALLS = [
    ("hvector 5 6 8", True),
    ("shell 5 6 8", True),
    ("triangulate 7 9 15", True),
    ("bijection 7 9 15 --i 3", True),
    ("multiplex 5 5 8", True),
    ("verify 5 6 8", True),
    ("facets 5 6 8 --format json", True),
    ("hvector 7 9 20 --format json", False),
]
# InstanceBundle stages, materialised in this order before a traced
# grid pass times the checks, so no check is charged for a shared stage.
GRID_STAGES = ("facets", "lattice", "steps", "tri_steps", "toric")
CALL_TIMEOUT_S = 120

WORKLOADS = ("grid", "ladder", "wide_n", "cli")


def _key(p) -> str:
    return f"{p.d},{p.k},{p.n}"


class Gate:
    """Counts checked outputs and keeps a message per failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def compare(self, label: str, outputs) -> None:
        """``outputs()`` maps names to (got, want) pairs, one output each;
        if it raises, that counts as one failed output."""
        try:
            pairs = outputs()
        except Exception as exc:  # noqa: BLE001 - a raise is a failed output
            self.attempted += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        for name, (got, want) in pairs.items():
            self.attempted += 1
            if got != want:
                self.failures.append(f"{label} {name}: got {got!r}, want {want!r}")


def inputs(workload: str, seed: int, index: int) -> list:
    """The workload's inputs in the order of pass ``index`` under ``seed``."""
    if workload == "cli":
        items = list(CLI_CALLS)
    else:
        from ordpoly.combinat import Params
        from ordpoly.verify import grid_instances

        triples = {"ladder": LADDER, "wide_n": WIDE_N}
        items = (
            grid_instances()
            if workload == "grid"
            else [Params(*t) for t in triples[workload]]
        )
    random.Random(seed).shuffle(items)
    # Pass i rotates the seed's order by i, so a ladder run alternates
    # which rung comes first and its peak RSS does not hang on the seed.
    k = index % len(items)
    return items[k:] + items[:k]


# -- grid -------------------------------------------------------------------


def grid_pass(instances, gate: Gate, tracer) -> None:
    """``verify_instance`` on every grid instance; a traced pass runs the
    same checks one by one after materialising the shared stages."""
    from ordpoly import verify

    gate.compare("grid", lambda: {"size": (len(instances), len(REFERENCE["grid"]))})
    for p in instances:
        if tracer is None:
            results = lambda: [(r.name, r.ok, r.detail) for r in verify.verify_instance(p)]
        else:
            results = lambda: _traced_checks(verify, p, tracer)

        def verdicts():
            expected = REFERENCE["grid"][_key(p)]
            got = results()
            pairs = {"names": ([name for name, _, _ in got], REFERENCE["check_names"])}
            for name, ok, detail in got:
                pairs[name] = ((ok, detail), (True, expected.get(name, "")))
            return pairs

        gate.compare(str(p), verdicts)


def _traced_checks(verify, p, tracer) -> list[tuple[str, bool, str]]:
    bundle = verify.InstanceBundle(p)
    for stage in GRID_STAGES:
        try:
            getattr(bundle, stage)
        except Exception:  # noqa: BLE001 - the checks that need it fail below
            pass
    out = []
    # Same verdict rule as verify_instance, one span per check.
    for name, check in verify._CHECKS:
        try:
            detail = tracer.span(f"verify.{name}_s", check, bundle)
        except Exception as exc:  # noqa: BLE001 - verdicts must not abort
            out.append((name, False, f"{type(exc).__name__}: {exc}"))
            continue
        out.append((name, detail == "" or detail.startswith("skipped"), detail))
    return out


# -- ladder -----------------------------------------------------------------


def ladder_pass(instances, gate: Gate, tracer) -> None:
    """Lattice build, Euler check, toric h and the four h routes per rung."""
    from ordpoly import hvector, lattice as lattice_mod, triangulation, verify

    for p in instances:
        ref = REFERENCE["ladder"][_key(p)]
        want_h = tuple(ref["h"])
        bundle = verify.InstanceBundle(p)

        def rung():
            lattice = bundle.lattice
            f = lattice.f_vector()
            return {
                "faces": (len(lattice), ref["faces"]),
                "f_vector": (f, tuple(ref["f"])),
                "eulerian": (lattice_mod.euler_check(lattice), True),
                "toric_h": (bundle.h, want_h),
                "closed_h": (hvector.h_closed_form(p), want_h),
                "multiplicial_h": (hvector.multiplicial_h(f, lattice.flag_f0()), want_h),
                "triangulation_h": (
                    triangulation.simplicial_h(bundle.tri_steps, p.d),
                    want_h,
                ),
            }

        gate.compare(str(p), rung)


# -- wide_n -----------------------------------------------------------------


def wide_n_pass(instances, gate: Gate, tracer) -> None:
    """Every lattice-free route on instances with labels up to 120."""
    from ordpoly import bijection, hvector, ordinary, shelling, triangulation

    for p in instances:
        ref = REFERENCE["wide_n"][_key(p)]

        def routes():
            facets = ordinary.enumerate_facets(p)
            recursed = ordinary.facets_by_recursion(p)
            steps = shelling.colex_shelling(p)
            recursive = [shelling.minimal_new_face_recursive(s.facet, p) for s in steps]
            tri = triangulation.triangulation_shelling(p)
            direct = triangulation.boundary_triangulation(p)
            oracle = triangulation.shelling_restriction_faces([s.simplex for s in tri])
            closed = hvector.h_closed_form(p)
            below = hvector.h_closed_form(type(p)(p.d, p.k, p.n - 1))
            increment = [closed[i] - below[i] for i in range(1, p.d)]
            return {
                "facet_count": (len(facets), ref["facets"]),
                "facet_routes": (recursed, facets),
                "new_face_routes": (recursive, [s.new_face for s in steps]),
                "simplex_count": (len(tri), ref["simplices"]),
                "triangulation_cover": ({s.simplex for s in tri}, set(direct)),
                "wall_oracle": (oracle, [s.new_face for s in tri]),
                "closed_h": (closed, tuple(ref["h"])),
                "triangulation_h": (triangulation.simplicial_h(tri, p.d), closed),
                "lsh_monotone": (_lsh_monotone(ordinary, p, facets), ""),
                "bijection_counts": (
                    [bijection.count_by_size(p, i) for i in range(1, p.d)],
                    increment,
                ),
                "bijection_roundtrip": (_roundtrip(bijection, p), ""),
            }

        gate.compare(str(p), routes)


def _lsh_monotone(ordinary, p, facets) -> str:
    from ordpoly.combinat import colex_key

    smaller = set(ordinary.enumerate_facets(type(p)(p.d, p.k, p.n - 1)))
    shifted = [ordinary.lsh(f, p) for f in facets if f[-1] >= p.k]
    missing = [f for f in shifted if f not in smaller]
    if missing:
        return f"left shift {missing[0]} is not a facet one size down"
    if any(colex_key(a) > colex_key(c) for a, c in zip(shifted, shifted[1:])):
        return "left shifts break colex order"
    return ""


def _roundtrip(bijection, p) -> str:
    size = p.k - p.d
    for i in range(1, (p.d - 1) // 2 + 1):
        records = bijection.bijection_records(p, i)
        subsets = [r.A for r in records]
        wanted = set(combinations(range(1, size + i), size))
        if len(set(subsets)) != len(subsets) or set(subsets) != wanted:
            return f"size {i}: subset map is not a bijection onto {len(wanted)} sets"
        for r in records:
            if bijection.subset_to_facet(r.A, p, i) != r.simplex:
                return f"size {i}: round trip fails at {r.A}"
    return ""


# -- cli --------------------------------------------------------------------


def cli_pass(calls, gate: Gate, traced: bool) -> dict:
    """Each call in a fresh interpreter, its stdout digest checked.

    Returns the spawn-to-exit seconds of each small call and, when traced,
    the per-layer values the traced calls reported.
    """
    worker = str(HERE / "worker.py")
    cold: list[float] = []
    values: dict[str, float] = {}
    imports: list[float] = []
    for argv, small in calls:
        if traced:
            cmd = [sys.executable, worker, "call", *argv.split()]
        else:
            cmd = [sys.executable, "-m", "ordpoly.cli", *argv.split()]
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, timeout=CALL_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            gate.compare(argv, lambda: {"exit": ("timeout", 0)})
            continue
        elapsed = time.monotonic() - start
        if traced:
            report = _last_json(proc.stdout)
            code, digest = report.get("code"), report.get("digest")
            if "import_s" in report:
                imports.append(report["import_s"])
            for name, value in report.get("values", {}).items():
                values[name] = values.get(name, 0.0) + value
        else:
            code, digest = proc.returncode, hashlib.sha256(proc.stdout).hexdigest()
        gate.compare(
            argv,
            lambda: {
                "exit": ((proc.returncode, code), (0, 0)),
                "stdout_sha256": (digest, REFERENCE["cli"][argv]),
            },
        )
        if small:
            cold.append(elapsed)
    if imports:
        values["cli.import_s"] = statistics.median(imports)
    return {"cold_s": cold, "values": values}


def _last_json(stdout: bytes) -> dict:
    lines = stdout.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}
