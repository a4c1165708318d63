"""One fresh interpreter: set up a workload, run one pass, report one JSON line.

``run.py`` starts a new worker for every pass, so process-global caches
start empty and the peak RSS is that pass's own.  Modes:

  worker.py env                                  versions and BLAS threads
  worker.py setup --workload W --seed S --index I   stop once inputs are ready
  worker.py pass  --workload W --seed S --index I [--trace]
  worker.py call  VERB D K N [options]           one traced ordpoly CLI call

The last line of standard output is the JSON report.  ``ready`` is a
``time.monotonic`` reading, comparable with the parent's clock.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def _import_ordpoly() -> float:
    start = time.perf_counter()
    import ordpoly.cli  # noqa: F401 - the whole package, as the CLI loads it

    return time.perf_counter() - start


def _env() -> dict:
    import ctypes
    import glob
    import os

    import numpy
    import ordpoly

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
        try:
            getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        threads = getter()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_reported": threads,
        "ordpoly_file": ordpoly.__file__,
    }


def _call(argv: list[str]) -> dict:
    """Run ``ordpoly.cli.main(argv)`` traced, as ``python -m ordpoly.cli`` would."""
    import_s = _import_ordpoly()
    import ordpoly.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    out = io.BytesIO()
    stream = io.TextIOWrapper(out, encoding=sys.stdout.encoding, newline="\n")
    start = time.perf_counter()
    with contextlib.redirect_stdout(stream):
        code = ordpoly.cli.main(argv)
    main_s = time.perf_counter() - start
    stream.flush()
    values = dict(tracer.values)
    values["cli.lattice_builds"] = values.pop("lattice.builds", 0)
    values[f"cli.main_s.{argv[0]}"] = main_s
    return {
        "code": code,
        "digest": hashlib.sha256(out.getvalue()).hexdigest(),
        "import_s": import_s,
        "values": values,
    }


def _pass(workload: str, seed: int, index: int, trace: bool, run: bool) -> dict:
    import_s = _import_ordpoly()
    import workloads

    tracer = None
    if trace and workload != "cli":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    items = workloads.inputs(workload, seed, index)
    report: dict = {"ready": time.monotonic()}
    if not run:
        return report
    gate = workloads.Gate()
    start = time.perf_counter()
    if workload == "cli":
        extra = workloads.cli_pass(items, gate, trace)
    else:
        # Only grid reads the tracer; the patched functions trace the rest.
        getattr(workloads, f"{workload}_pass")(items, gate, tracer)
        extra = {"cold_s": [], "values": {}}
    report["wall_s"] = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    report["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    report["attempted"] = gate.attempted
    report["failures"] = gate.failures
    report["cold_s"] = extra["cold_s"]
    values = dict(tracer.values) if tracer else {}
    values.pop("lattice.builds", None)
    values.update(extra["values"])
    values.setdefault("cli.import_s", import_s)
    report["values"] = values
    return report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["call"]:
        report = _call(argv[1:])
    elif argv[:1] == ["env"]:
        report = _env()
    else:
        parser = argparse.ArgumentParser()
        parser.add_argument("mode", choices=["setup", "pass"])
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--index", type=int, required=True)
        parser.add_argument("--trace", action="store_true")
        args = parser.parse_args(argv)
        report = _pass(
            args.workload, args.seed, args.index, args.trace, args.mode == "pass"
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
