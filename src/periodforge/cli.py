"""Command-line interface with reproducible, machine-readable output.

Exit codes: 0 success, 2 validation or usage error, 3 a --target z-test
failed (|z| > 3).  JSON output embeds a run manifest; re-running the same
command reproduces it bit for bit apart from the wall-time field.

Each subcommand imports the layers it runs when it runs, so a command pays
the start-up of those layers alone.  mpmath loads only when a --target is
evaluated, and numpy only with the engine (residue, canonical) or the
tropical subset tables (divergences).
"""

from __future__ import annotations

import json
import os
import sys
import time

from . import __version__


def evaluate_target(expr: str) -> float:
    """Evaluate a target expression: rationals, pi, zeta(s), zeta2(a,b),
    + - * / ^ and parentheses, at 30+ digits."""
    import ast
    import math

    import mpmath as mp

    from .zeta import pi as _pi, zeta as _zeta, zeta2 as _zeta2

    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse target expression {expr!r}") from exc

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return mp.mpf(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return _pi()
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                return a / b
            if isinstance(node.op, ast.Pow):
                return a ** b
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            args = [ev(a) for a in node.args]
            if any(a != int(a) for a in args):
                raise ValueError(f"zeta arguments must be integers: {expr!r}")
            args = [int(a) for a in args]
            if node.func.id == "zeta" and len(args) == 1:
                return _zeta(args[0])
            if node.func.id == "zeta2" and len(args) == 2:
                return _zeta2(args[0], args[1])
        raise ValueError(f"unsupported target expression: {expr!r}")

    with mp.workdps(40):
        try:
            value = ev(tree)
        except ZeroDivisionError as exc:
            raise ValueError(f"division by zero in target {expr!r}") from exc
    # an mpf past the float range, such as 2^10000, is finite to mpmath
    if not isinstance(value, mp.mpf) or not math.isfinite(float(value)):
        raise ValueError(f"target {expr!r} is not a finite real number")
    return value


def _load_graph(path: str):
    from .io import parse_graph

    with open(path) as fh:
        return parse_graph(fh.read())


def _load_matrix(path: str):
    from .io import parse_matrix

    with open(path) as fh:
        return parse_matrix(fh.read())


def _manifest(args, t0: float) -> dict:
    d = {
        "command": args.command,
        "arguments": {k: v for k, v in sorted(vars(args).items())
                      if k not in ("command", "func") and v is not None},
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
    }
    return d


def _emit(args, t0, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        payload["manifest"] = _manifest(args, t0)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_psi(args, t0):
    from .polynomials import graph_polynomial

    g = _load_graph(args.graph)
    psi = graph_polynomial(g)
    _emit(args, t0, {"psi": psi.to_json()}, [psi.to_text()])
    return 0


def _cmd_laplacian(args, t0):
    from .polynomials import laplacian

    g = _load_graph(args.graph)
    lam = laplacian(g)
    rows = [[f.to_text() for f in row] for row in lam.entries]
    text = ["[" + ", ".join(row) + "]" for row in rows]
    _emit(args, t0, {"laplacian": rows, "size": lam.size}, text)
    return 0


def _cmd_divergences(args, t0):
    from .polynomials import divergent_subgraphs

    g = _load_graph(args.graph)
    divs = divergent_subgraphs(g)
    lines = [" ".join(map(str, d)) for d in divs] or ["(subdivergence-free)"]
    _emit(args, t0, {"divergent_subgraphs": [list(d) for d in divs],
                     "subdivergence_free": not divs}, lines)
    return 0


def _target(args) -> float | None:
    """The --target value, evaluated before any sampling is spent."""
    return None if args.target is None else float(evaluate_target(args.target))


def _finish_integral(args, t0, g, est, target, extra):
    payload = {"graph": {"vertices": g.nv, "edges": g.ne},
               **est.to_json(), **extra}
    lines = [f"mean   = {est.mean:.10g}",
             f"stderr = {est.stderr:.4g}",
             f"samples = {est.samples}   seed = {est.seed}"]
    code = 0
    if target is not None:
        z = est.z(target) if target == 0 else est.abs_z(abs(target))
        payload["target"] = target
        payload["z"] = z
        lines.append(f"target = {target:.10g}   z = {z:+.3f}")
        if abs(z) > 3:
            code = 3
    _emit(args, t0, payload, lines)
    return code


def _cmd_residue(args, t0):
    from .engine import integrate, residue_integrand

    target = _target(args)
    g = _load_graph(args.graph)
    ig = residue_integrand(g)
    est = integrate(ig, args.samples, args.seed)
    return _finish_integral(args, t0, g, est, target, {"integrand": "residue"})


def _cmd_canonical(args, t0):
    from .engine import canonical_integrand, integrate
    from .forms import FormSpec

    target = _target(args)
    g = _load_graph(args.graph)
    spec = FormSpec(tuple(int(x) for x in args.form.split(",")))
    ig = canonical_integrand(g, spec)
    est = integrate(ig, args.samples, args.seed)
    return _finish_integral(args, t0, g, est, target,
                            {"integrand": f"canonical {list(spec)}"})


def _cmd_gc_homology(args, t0):
    from .graphcomplex import homology_report

    rows = homology_report(args.loops, max_loops=max(args.loops, 6)
                           if args.allow_big else 6)
    lines = [f"loops {args.loops}: bigraded report"]
    lines.append(f"{'edges':>6} {'degree':>7} {'basis':>6} {'rank':>5} "
                 f"{'kernel':>7} {'homology':>9}")
    for r in rows:
        lines.append(f"{r['edges']:>6} {r['degree']:>7} {r['basis']:>6} "
                     f"{r['rank']:>5} {r['kernel']:>7} {r['homology']:>9}")
    dims = {r["degree"]: r["homology"] for r in rows if r["homology"]}
    lines.append(f"homology by degree: {dims if dims else 'all zero'}")
    _emit(args, t0, {"report": rows, "homology": {str(k): v for k, v
                                                  in dims.items()}}, lines)
    return 0


def _cmd_stable(args, t0):
    from .graphs import enumerate_stable_weighted
    from .io import write_graph

    graphs = enumerate_stable_weighted(args.genus)
    lines = [f"{len(graphs)} stable weighted graphs of genus {args.genus}"]
    for g in graphs:
        lines.append("")
        lines.append(write_graph(g).rstrip())
    _emit(args, t0, {"count": len(graphs),
                     "graphs": [write_graph(g) for g in graphs]}, lines)
    return 0


def _cmd_minvec(args, t0):
    from .voronoi import minimal_vectors

    q = _load_matrix(args.matrix)
    vecs = minimal_vectors(q)
    lines = [" ".join(map(str, v)) for v in vecs]
    _emit(args, t0, {"minimal_vectors": [list(v) for v in vecs],
                     "minimum": str(q.value(vecs[0]))}, lines)
    return 0


def _cmd_cell(args, t0):
    from .voronoi import voronoi_cell

    q = _load_matrix(args.matrix)
    cell = voronoi_cell(q)
    lines = []
    for gen in cell.generators:
        lines.append("; ".join(" ".join(map(str, row)) for row in gen))
    _emit(args, t0, {"generators": [[list(r) for r in gen]
                                    for gen in cell.generators]}, lines)
    return 0


def _cmd_torelli(args, t0):
    from fractions import Fraction

    from .graphs import GraphError
    from .voronoi import torelli_point

    g = _load_graph(args.graph)
    try:
        lengths = [Fraction(x) for x in args.lengths.split(",")]
    except ZeroDivisionError:
        raise GraphError(
            f"edge length with a zero denominator in {args.lengths!r}") from None
    q = torelli_point(g, lengths)
    lines = [" ".join(str(x) for x in row) for row in q.matrix]
    _emit(args, t0, {"matrix": [[str(x) for x in row] for row in q.matrix],
                     "positive_definite": q.is_positive_definite()}, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse

    p = argparse.ArgumentParser(
        prog="periodforge",
        description="graph polynomials, canonical forms, periods and "
                    "Voronoi cells at desk scale")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=fn)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output with a run manifest")
        return sp

    sp = add("psi", _cmd_psi, help="graph polynomial")
    sp.add_argument("graph")
    sp = add("laplacian", _cmd_laplacian, help="cycle-basis Laplacian matrix")
    sp.add_argument("graph")
    sp = add("divergences", _cmd_divergences, help="divergent edge subsets")
    sp.add_argument("graph")

    sp = add("residue", _cmd_residue, help="Feynman residue by Monte Carlo")
    sp.add_argument("graph")
    sp.add_argument("--samples", type=int, default=1000000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--target", help="expression, e.g. '6*zeta(3)'")

    sp = add("canonical", _cmd_canonical, help="canonical integral")
    sp.add_argument("graph")
    sp.add_argument("--form", required=True, help="e.g. 5 or 5,9")
    sp.add_argument("--samples", type=int, default=500000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--target")

    sp = add("gc-homology", _cmd_gc_homology, help="graph complex homology")
    sp.add_argument("--loops", type=int, required=True)
    sp.add_argument("--allow-big", action="store_true",
                    help="lift the loop bound past 6 (loop 7 takes about "
                         "3 s, loop 8 about 82 s)")

    sp = add("stable", _cmd_stable, help="stable weighted graphs of a genus")
    sp.add_argument("--genus", type=int, required=True)

    sp = add("minvec", _cmd_minvec, help="minimal vectors of a form")
    sp.add_argument("matrix")
    sp = add("cell", _cmd_cell, help="Voronoi cell generators")
    sp.add_argument("matrix")

    sp = add("torelli", _cmd_torelli, help="Laplacian at given edge lengths")
    sp.add_argument("graph")
    sp.add_argument("--lengths", required=True, help="comma separated rationals")
    return p


def main(argv=None) -> int:
    t0 = time.time()
    # One BLAS thread unless the caller chose otherwise, set before any
    # subcommand loads numpy: a BLAS thread per core makes the small
    # Laplacian and Gram products many times slower.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, t0)
    # every layer's error class subclasses ValueError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
