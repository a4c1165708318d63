"""Command-line surface: tables, h-vectors, and the verification suite.

All text output is deterministic byte for byte: orderings are fixed by
colex or step index, and JSON is emitted with sorted keys.  Exit codes:
0 success, 1 verification or agreement failure, 2 argument errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bijection import bijection_table_rows, bijection_table_text
from .combinat import Params
from .lattice import _max_faces
from .multiplex import (
    multiplex_boundary_triangulation,
    multiplex_facets,
    multiplex_g,
    multiplex_triangulation,
)
from .shelling import colex_shelling, presence_grid, shelling_table_rows, shelling_table_text
from .triangulation import (
    triangulation_shelling,
    triangulation_table_rows,
    triangulation_table_text,
)
from .verify import H_ROUTES, InstanceBundle, grid_instances, h_routes, verify_instance

_METHODS = (*H_ROUTES, "shelling", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordpoly",
        description="Ordinary polytopes: facets, shellings, triangulations, "
        "toric h-vectors, and cross-verification.",
    )
    parser.add_argument(
        "verb",
        choices=[
            "facets",
            "shell",
            "triangulate",
            "hvector",
            "bijection",
            "multiplex",
            "verify",
        ],
    )
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


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _vertices(face) -> str:
    return " ".join(str(v) for v in face)


def _axis(n: int) -> str:
    return "".join(str(v % 10) for v in range(n + 1))


def _run_facets(p: Params, fmt: str) -> tuple[int, str]:
    b = InstanceBundle(p)
    facets = b.facets
    if fmt == "json":
        doc = {
            "d": p.d,
            "k": p.k,
            "n": p.n,
            "facets": [list(f) for f in facets],
            "lattice": json.loads(b.lattice.to_json()),
        }
        return 0, _dump(doc)
    if fmt == "csv":
        lines = ["j,facet"]
        lines += [f"{j},{_vertices(f)}" for j, f in enumerate(facets, 1)]
        return 0, "\n".join(lines)
    lines = [f"  j  {_axis(p.n)}"]
    lines += [f"{j:>3}  {presence_grid(f, p.n)}" for j, f in enumerate(facets, 1)]
    return 0, "\n".join(lines)


def _run_shell(p: Params, fmt: str) -> tuple[int, str]:
    if fmt == "json":
        doc = {"d": p.d, "k": p.k, "n": p.n, "steps": shelling_table_rows(p)}
        return 0, _dump(doc)
    if fmt == "csv":
        lines = ["j,F,G"]
        lines += [
            f"{s.index},{_vertices(s.facet)},{_vertices(s.new_face)}"
            for s in colex_shelling(p)
        ]
        return 0, "\n".join(lines)
    return 0, shelling_table_text(p).rstrip("\n")


def _run_triangulate(p: Params, fmt: str) -> tuple[int, str]:
    if fmt == "json":
        doc = {"d": p.d, "k": p.k, "n": p.n, "steps": triangulation_table_rows(p)}
        return 0, _dump(doc)
    if fmt == "csv":
        lines = ["j,l,T,U"]
        lines += [
            f"{s.facet_index},{s.window_index},{_vertices(s.simplex)},"
            f"{_vertices(s.new_face)}"
            for s in triangulation_shelling(p)
        ]
        return 0, "\n".join(lines)
    return 0, triangulation_table_text(p).rstrip("\n")


def _run_hvector(p: Params, fmt: str, method: str) -> tuple[int, str]:
    b = InstanceBundle(p)
    try:
        routes = h_routes(b, method)
    except ValueError as exc:
        return 2, f"error: {exc}"
    agree = len(set(routes.values())) == 1
    code = 0 if agree else 1
    if fmt == "json":
        h = next(iter(routes.values())) if agree else None
        doc = {
            "d": p.d,
            "k": p.k,
            "n": p.n,
            "h": list(h) if h is not None else None,
            "h_prime": list(b.h_prime),
            "a": {
                str(j): [poly.coefficient(p.d - i) for i in range(p.d + 1)]
                for j, poly in sorted(b.contributions.items())
            },
        }
        return code, _dump(doc)
    if fmt == "csv":
        lines = ["method,h"]
        lines += [f"{name},{_vertices(h)}" for name, h in routes.items()]
        return code, "\n".join(lines)
    lines = [f"{name:<13}  {_vertices(h)}" for name, h in routes.items()]
    if method == "all":
        lines.append(f"agreement: {'yes' if agree else 'NO'}")
    return code, "\n".join(lines)


def _run_bijection(p: Params, fmt: str, i: int) -> tuple[int, str]:
    if fmt == "json":
        doc = {"d": p.d, "k": p.k, "n": p.n, "i": i, "rows": bijection_table_rows(p, i)}
        return 0, _dump(doc)
    if fmt == "csv":
        lines = ["T,U,b,c,e,Y,a1,x,y,A"]
        for row in bijection_table_rows(p, i):
            lines.append(
                ",".join(
                    [
                        _vertices(row["T"]),
                        _vertices(row["U"]),
                        str(row["b"]),
                        str(row["c"]),
                        str(row["e"]),
                        _vertices(row["Y"]),
                        str(row["a1"]),
                        _vertices(row["x"]),
                        _vertices(row["y"]),
                        _vertices(row["A"]),
                    ]
                )
            )
        return 0, "\n".join(lines)
    return 0, bijection_table_text(p, i).rstrip("\n")


def _run_multiplex(p: Params, fmt: str) -> tuple[int, str]:
    d, n = p.d, p.n
    facets = multiplex_facets(d, n)
    solid = multiplex_triangulation(d, n)
    boundary = multiplex_boundary_triangulation(d, n)
    g = multiplex_g(d, n + 1)
    if fmt == "json":
        doc = {
            "d": d,
            "n": n,
            "facets": [list(f) for f in facets],
            "solid": [list(t) for t in solid],
            "boundary": [
                {"simplex": list(b.simplex), "tetra": b.tetra, "facet": b.facet}
                for b in boundary
            ],
            "g": list(g.coefficients),
        }
        return 0, _dump(doc)
    if fmt == "csv":
        lines = ["kind,index,vertices"]
        lines += [f"facet,{i},{_vertices(f)}" for i, f in enumerate(facets)]
        lines += [f"solid,{i},{_vertices(t)}" for i, t in enumerate(solid)]
        lines += [f"boundary,{i},{_vertices(b.simplex)}" for i, b in enumerate(boundary)]
        return 0, "\n".join(lines)
    axis = _axis(n)
    lines = ["facets (retracted windows):", f"  i  {axis}"]
    lines += [f"{i:>3}  {presence_grid(f, n)}" for i, f in enumerate(facets)]
    lines.append("solid triangulation:")
    lines += [f"{i:>3}  {presence_grid(t, n)}" for i, t in enumerate(solid)]
    lines.append("boundary triangulation (simplex, tetra, facet):")
    lines += [
        f"{idx:>3}  {presence_grid(b.simplex, n)}  {b.tetra:>2} {b.facet:>2}"
        for idx, b in enumerate(boundary, 1)
    ]
    coeffs = " ".join(str(c) for c in g.coefficients)
    lines.append(f"g coefficients: {coeffs}")
    return 0, "\n".join(lines)


def _result_lines(results) -> list[str]:
    lines = []
    for r in results:
        if r.ok and r.detail:
            lines.append(f"PASS {r.name} ({r.detail})")
        elif r.ok:
            lines.append(f"PASS {r.name}")
        else:
            lines.append(f"FAIL {r.name}: {r.detail}")
    return lines


def _run_verify(p: Params, fmt: str, grid: bool) -> tuple[int, str]:
    targets = grid_instances() if grid else [p]
    all_ok = True
    blocks: list[str] = []
    docs = []
    for target in targets:
        results = verify_instance(target)
        ok = all(r.ok for r in results)
        lines = _result_lines(results)
        all_ok = all_ok and ok
        if fmt == "json":
            docs.append(
                {
                    "d": target.d,
                    "k": target.k,
                    "n": target.n,
                    "checks": [
                        {"name": r.name, "ok": r.ok, "detail": r.detail}
                        for r in results
                    ],
                }
            )
        elif fmt == "csv":
            for r in results:
                status = "pass" if r.ok else "fail"
                blocks.append(
                    f"{target.d},{target.k},{target.n},{r.name},{status},{r.detail}"
                )
        else:
            if grid:
                verdict = "ok" if ok else "FAILED"
                blocks.append(f"{target}: {verdict}")
                if not ok:
                    blocks += [f"  {line}" for line in lines if line.startswith("FAIL")]
            else:
                blocks += lines
    code = 0 if all_ok else 1
    if fmt == "json":
        doc = docs[0] if not grid else {"instances": docs}
        return code, _dump(doc)
    if fmt == "csv":
        return code, "\n".join(["d,k,n,check,status,detail"] + blocks)
    if grid:
        total = len(targets)
        blocks.append(f"{total} instances, {'all ok' if all_ok else 'FAILURES'}")
    return code, "\n".join(blocks)


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
        if args.verb == "facets":
            code, out = _run_facets(p, args.format)
        elif args.verb == "shell":
            code, out = _run_shell(p, args.format)
        elif args.verb == "triangulate":
            code, out = _run_triangulate(p, args.format)
        elif args.verb == "hvector":
            code, out = _run_hvector(p, args.format, args.method or "all")
        elif args.verb == "bijection":
            if args.i is None:
                return _fail_args("bijection needs --i")
            code, out = _run_bijection(p, args.format, args.i)
        elif args.verb == "multiplex":
            if not p.is_multiplex:
                return _fail_args(f"multiplex mode needs k = d, got {p}")
            code, out = _run_multiplex(p, args.format)
        else:
            code, out = _run_verify(p, args.format, args.grid)
    except ValueError as exc:
        return _fail_args(str(exc))

    stream = sys.stderr if code == 2 else sys.stdout
    print(out, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
