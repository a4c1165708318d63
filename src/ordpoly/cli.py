"""Command-line surface: tables, h-vectors, and the verification suite.

Every rendering decision lives here: each verb builds one list of row
tuples from an ``InstanceBundle`` and renders it as text, JSON records or
CSV.  All output is deterministic byte for byte: orderings are fixed by
colex or step index, and JSON is emitted with sorted keys.  Exit codes:
0 success, 1 verification or agreement failure, 2 argument errors, 3 not
evaluated because the face closure passed the face cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bijection import bijection_records
from .combinat import Params
from .lattice import FaceCapError, _max_faces
from .multiplex import (
    multiplex_boundary_triangulation,
    multiplex_facets,
    multiplex_g,
    multiplex_triangulation,
)
from .verify import H_ROUTES, InstanceBundle, grid_instances, h_routes, verify_instance

_METHODS = (*H_ROUTES, "shelling", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordpoly",
        description="Ordinary polytopes: facets, shellings, triangulations, "
        "toric h-vectors, and cross-verification.",
    )
    parser.add_argument("verb", choices=list(_VERBS))
    parser.add_argument("d", type=int)
    parser.add_argument("k", type=int)
    parser.add_argument("n", type=int)
    parser.add_argument("--i", type=int, default=None, help="new-face size (bijection)")
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
    parser.add_argument(
        "--method", choices=list(_METHODS), default=None, help="h route (hvector)"
    )
    parser.add_argument(
        "--grid", action="store_true", help="verify the whole standard grid"
    )
    return parser


def _fail_args(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# -- renderers --------------------------------------------------------------


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _envelope(p: Params, **fields) -> dict:
    """A JSON document naming its instance."""
    return {"d": p.d, "k": p.k, "n": p.n, **fields}


def _cell(value) -> str:
    """One CSV cell or text column: a vertex set or vector is space-joined."""
    return " ".join(str(v) for v in value) if isinstance(value, tuple) else str(value)


def _csv(columns: str, rows) -> str:
    """CSV text.  A cell holding a comma, a quote or a line break is quoted
    and its quotes doubled, as ``csv.writer`` does; importing ``csv`` would
    slow every start."""

    def quoted(value) -> str:
        cell = _cell(value)
        if any(c in cell for c in ',"\r\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    return "\n".join([columns, *(",".join(map(quoted, row)) for row in rows)])


def _records(columns: str, rows) -> list[dict]:
    return [dict(zip(columns.split(","), row)) for row in rows]


def _axis(n: int) -> str:
    return "".join(str(v % 10) for v in range(n + 1))


def _grid(face, n: int) -> str:
    """Vertex v printed as its last digit at column v, blank elsewhere."""
    members = set(face)
    return "".join(str(v % 10) if v in members else " " for v in range(n + 1))


def _digits(face, n: int) -> str:
    """Compact rendering of a face: digit string for n <= 9, else commas."""
    if not face:
        return "-"
    return ("" if n <= 9 else ",").join(str(v) for v in face)


def _table(p: Params, fmt: str, key: str, columns: str, rows, text, **extra) -> str:
    """Rows as JSON records under ``key``, as CSV, or as ``text(rows)`` lines."""
    if fmt == "json":
        return _dump(_envelope(p, **extra, **{key: _records(columns, rows)}))
    if fmt == "csv":
        return _csv(columns, rows)
    return "\n".join(text(rows))


# -- verbs ------------------------------------------------------------------


def _run_facets(b: InstanceBundle, args) -> tuple[int, str]:
    rows = list(enumerate(b.facets, 1))
    if args.format == "json":
        lat = b.lattice
        lattice = {"d": lat.d, "n": lat.n, "faces": list(lat.faces), "dims": lat.dims}
        return 0, _dump(_envelope(b.p, facets=b.facets, lattice=lattice))
    if args.format == "csv":
        return 0, _csv("j,facet", rows)
    n = b.p.n
    lines = [f"  j  {_axis(n)}", *(f"{j:>3}  {_grid(f, n)}" for j, f in rows)]
    return 0, "\n".join(lines)


def _run_shell(b: InstanceBundle, args) -> tuple[int, str]:
    n = b.p.n
    rows = [(s.index, s.facet, s.new_face) for s in b.steps]

    def text(rows):
        yield f"  j  {_axis(n)}  G"
        for j, facet, new_face in rows:
            yield f"{j:>3}  {_grid(facet, n)}  {_digits(new_face, n)}"

    return 0, _table(b.p, args.format, "steps", "j,F,G", rows, text)


def _run_triangulate(b: InstanceBundle, args) -> tuple[int, str]:
    n = b.p.n
    rows = [(s.facet_index, s.window_index, s.simplex, s.new_face) for s in b.tri_steps]

    def text(rows):
        yield f"  j  l  {_axis(n)}  U"
        for j, ell, simplex, new_face in rows:
            yield f"{j:>3} {ell:>2}  {_grid(simplex, n)}  {_digits(new_face, n)}"

    return 0, _table(b.p, args.format, "steps", "j,l,T,U", rows, text)


def _run_bijection(b: InstanceBundle, args) -> tuple[int, str]:
    n = b.p.n
    columns = "T,U,b,c,e,Y,a1,x,y,A"
    rows = [
        (r.simplex, r.new_face, r.b, r.c, r.e, r.Y, r.a1, r.x_values, r.y_counts, r.A)
        for r in bijection_records(b.p, args.i)
    ]

    def text(rows):
        records = _records(columns, rows)
        cells = [
            (_digits(r["Y"], n), _digits(r["x"], n), ",".join(str(v) for v in r["y"]))
            for r in records
        ]
        wy, wx, wc = (max([1] + [len(c[t]) for c in cells]) for t in range(3))
        title = "T (new-face vertices starred)"
        yield (
            f"  #  {title:<{2 * (n + 1)}}   b   c   e  {'Y':<{wy}}  a1  "
            f"{'x':<{wx}}  {'y':<{wc}}  A"
        )
        for idx, (r, (ys, xs, cs)) in enumerate(zip(records, cells), 1):
            grid = "".join(
                (str(v % 10) + ("*" if v in r["U"] else " ")) if v in r["T"] else "  "
                for v in range(n + 1)
            )
            yield (
                f"{idx:>3}  {grid}  {r['b']:>2}  {r['c']:>2}  {r['e']:>2}  "
                f"{ys:<{wy}}  {r['a1']:>2}  {xs:<{wx}}  {cs:<{wc}}  "
                f"{_digits(r['A'], n)}"
            )

    return 0, _table(b.p, args.format, "rows", columns, rows, text, i=args.i)


def _run_hvector(b: InstanceBundle, args) -> tuple[int, str]:
    p, method = b.p, args.method or "all"
    try:
        routes = h_routes(b, method)
    except ValueError as exc:
        return 2, f"error: {exc}"
    agree = len(set(routes.values())) == 1
    code = 0 if agree else 1
    if args.format == "json":
        a = {str(j): a_j for j, a_j in sorted(b.contributions.items())}
        h = next(iter(routes.values())) if agree else None
        return code, _dump(_envelope(p, h=h, h_prime=b.h_prime, a=a))
    if args.format == "csv":
        return code, _csv("method,h", routes.items())
    lines = [f"{name:<13}  {_cell(h)}" for name, h in routes.items()]
    if method == "all":
        lines.append(f"agreement: {'yes' if agree else 'NO'}")
    return code, "\n".join(lines)


def _run_multiplex(b: InstanceBundle, args) -> tuple[int, str]:
    d, n = b.p.d, b.p.n
    facets = multiplex_facets(d, n)
    solid = multiplex_triangulation(d, n)
    boundary = multiplex_boundary_triangulation(d, n)
    g = multiplex_g(d, n + 1)
    if args.format == "json":
        doc = {
            "d": d,
            "n": n,
            "facets": facets,
            "solid": solid,
            "boundary": [
                {"simplex": s.simplex, "tetra": s.tetra, "facet": s.facet}
                for s in boundary
            ],
            "g": g,
        }
        return 0, _dump(doc)
    if args.format == "csv":
        rows = [("facet", i, f) for i, f in enumerate(facets)]
        rows += [("solid", i, t) for i, t in enumerate(solid)]
        rows += [("boundary", i, s.simplex) for i, s in enumerate(boundary)]
        return 0, _csv("kind,index,vertices", rows)
    lines = ["facets (retracted windows):", f"  i  {_axis(n)}"]
    lines += [f"{i:>3}  {_grid(f, n)}" for i, f in enumerate(facets)]
    lines.append("solid triangulation:")
    lines += [f"{i:>3}  {_grid(t, n)}" for i, t in enumerate(solid)]
    lines.append("boundary triangulation (simplex, tetra, facet):")
    lines += [
        f"{idx:>3}  {_grid(s.simplex, n)}  {s.tetra:>2} {s.facet:>2}"
        for idx, s in enumerate(boundary, 1)
    ]
    lines.append(f"g coefficients: {_cell(g)}")
    return 0, "\n".join(lines)


def _result_line(r) -> str:
    if not r.ok:
        return f"FAIL {r.name}: {r.detail}"
    return f"PASS {r.name} ({r.detail})" if r.detail else f"PASS {r.name}"


def _run_verify(b: InstanceBundle, args) -> tuple[int, str]:
    targets = grid_instances() if args.grid else [b.p]
    runs = [(t, verify_instance(t)) for t in targets]
    all_ok = all(r.ok for _, results in runs for r in results)
    code = 0 if all_ok else 1
    if args.format == "json":
        docs = [
            _envelope(t, checks=[r._asdict() for r in results]) for t, results in runs
        ]
        return code, _dump({"instances": docs} if args.grid else docs[0])
    if args.format == "csv":
        rows = [
            (t.d, t.k, t.n, r.name, "pass" if r.ok else "fail", r.detail)
            for t, results in runs
            for r in results
        ]
        return code, _csv("d,k,n,check,status,detail", rows)
    if not args.grid:
        return code, "\n".join(_result_line(r) for r in runs[0][1])
    lines = []
    for t, results in runs:
        failed = [r for r in results if not r.ok]
        lines.append(f"{t}: {'FAILED' if failed else 'ok'}")
        lines += [f"  {_result_line(r)}" for r in failed]
    lines.append(f"{len(runs)} instances, {'all ok' if all_ok else 'FAILURES'}")
    return code, "\n".join(lines)


_VERBS = {
    "facets": _run_facets,
    "shell": _run_shell,
    "triangulate": _run_triangulate,
    "hvector": _run_hvector,
    "bijection": _run_bijection,
    "multiplex": _run_multiplex,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.grid and args.verb != "verify":
        return _fail_args("--grid only applies to the verify verb")
    if args.method is not None and args.verb != "hvector":
        return _fail_args("--method only applies to the hvector verb")
    if args.i is not None and args.verb != "bijection":
        return _fail_args("--i only applies to the bijection verb")
    try:
        p = Params(args.d, args.k, args.n)
    except ValueError as exc:
        return _fail_args(str(exc))

    try:
        _max_faces()  # a malformed face cap is a bad argument for every verb
        if args.verb == "bijection" and args.i is None:
            return _fail_args("bijection needs --i")
        if args.verb == "multiplex" and not p.is_multiplex:
            return _fail_args(f"multiplex mode needs k = d, got {p}")
        code, out = _VERBS[args.verb](InstanceBundle(p), args)
    except ValueError as exc:
        return _fail_args(str(exc))
    except FaceCapError as exc:
        print(f"not evaluated: {exc}", file=sys.stderr)
        return 3

    stream = sys.stderr if code == 2 else sys.stdout
    try:
        print(out, file=stream)
        stream.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``): drop the rest, and point
        # the stream at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
