"""Command-line surface: JSON in, JSON (or tables) out.

Exit codes: 0 success, 1 domain error (with a JSON error object on
stdout), a batch report with a failed row or a failed corollary check, 2
usage error.  Output is byte-deterministic for fixed inputs: keys are
sorted and every rational is a reduced-fraction string.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import re
import sys
import warnings
from pathlib import Path

from .errors import DomainError
from .fano import (
    NotATriangle,
    NotFano,
    diophantine_class,
    is_fano,
    markov_tree,
    multiplicity,
    triangle_from_weights,
    weights,
    weights_of_vertices,
)
from .geom import (
    Polygon,
    Vector2,
    area,
    dual,
    parse_vertices,
    polygon_from_json,
    polygon_to_json,
    vector_to_json,
)


@functools.cache
def _module(name: str):
    """polymut.<name>, imported on the first call and kept by this cli
    module, so a command imports only the modules it uses.  Later calls
    return the same module object, also after polymut was removed from
    sys.modules and imported again, so a module loaded before that still
    raises the DomainError this cli module catches."""
    return importlib.import_module(f"{__package__}.{name}")


def _emit(obj, fmt: str) -> None:
    if fmt == "table":
        print(_tableize(obj))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))


def _tableize(obj, indent: str = "") -> str:
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.append(_tableize(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(_tableize(v, indent + "  "))
                lines.append(indent + "-")
            else:
                lines.append(f"{indent}- {v}")
    else:
        lines.append(f"{indent}{obj}")
    return "\n".join(l for l in lines if l)


def _read_json_arg(arg: str):
    """Accept inline JSON, a file path, or '-' for stdin."""
    text = arg
    if arg == "-":
        text = sys.stdin.read()
    elif not arg.lstrip().startswith("{") and os.path.exists(arg):
        text = Path(arg).read_text()
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer over the digit limit
        raise DomainError(f"invalid JSON: {e}") from e


def _read_polygon(arg: str) -> Polygon:
    return polygon_from_json(_read_json_arg(arg))


def _field(obj, key: str, what: str):
    """obj[key] of a decoded JSON object, or DomainError naming what lacks it."""
    if not isinstance(obj, dict) or key not in obj:
        raise DomainError(f"{what} JSON needs a {key!r} entry")
    return obj[key]


def _json_weights(v) -> tuple[int, int, int]:
    if not (isinstance(v, list) and len(v) == 3 and all(type(x) is int for x in v)):
        raise DomainError(f"'weights' must be a list of three integers: {v!r}")
    return tuple(v)


_INTEGER = re.compile(r"-?[0-9]+")


def integer(s: str) -> int:
    """An integer option in the JSON schemas' integer grammar, ASCII digits
    with an optional '-', so '+3', ' 3', '1_0' and non-ASCII digits are
    refused.  argparse names the reader in its error: 'invalid integer value'."""
    if not _INTEGER.fullmatch(s):
        raise ValueError(f"not an integer: {s!r}")
    return int(s)


def _parse_w(s: str) -> Vector2:
    try:
        p, q = s.split(",")
        return Vector2(integer(p), integer(q))
    except (ValueError, TypeError) as e:
        raise DomainError(f"--w expects 'p,q' integers: {s!r}") from e


def _parse_dilation(s: str) -> int | None:
    if s == "auto":
        return None
    try:
        return integer(s)
    except ValueError as e:
        raise DomainError(f"--dilation expects 'auto' or a positive integer: {s!r}") from e


def _parse_weights(s: str) -> tuple[int, int, int]:
    try:
        a, b, c = (integer(x) for x in s.split(","))
        return a, b, c
    except (ValueError, TypeError) as e:
        raise DomainError(f"--weights expects 'a,b,c' integers: {s!r}") from e


# argparse takes '-1,0' for an option name, as it is no plain negative number
_W_NEGATIVE = "write a negative first coordinate as --w=-1,0"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per cli module; parse_args gives every call
    a fresh Namespace."""
    ap = argparse.ArgumentParser(
        prog="polymut",
        description="combinatorial mutations of Fano polygons and the matching toric deformations",
    )
    ap.add_argument("--format", choices=("json", "table"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, run, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument(
            "--format", choices=("json", "table"), default=argparse.SUPPRESS
        )
        p.set_defaults(run=run)
        return p

    p = add("hull", _cmd_hull, help="convex hull of a point set")
    p.add_argument("--points", required=True, help="polygon JSON whose vertices are hulled")

    p = add("dual", _cmd_dual, help="polar dual of a polygon with interior origin")
    p.add_argument("--polygon", required=True)

    p = add("weights", _cmd_weights, help="fake-plane weights of a Fano triangle (input vertex order)")
    p.add_argument("--polygon", required=True)

    p = add("multiplicity", _cmd_multiplicity, help="index of the vertex sublattice of a Fano triangle")
    p.add_argument("--polygon", required=True)

    p = add("triangle", _cmd_triangle, help="Fano triangle with given pairwise-coprime weights")
    p.add_argument("--weights", required=True)

    p = add("factors", _cmd_factors, help="mutation factors of a Fano polygon")
    p.add_argument("--polygon", required=True)
    p.add_argument("--w", help=f"height function p,q (default: scan edge normals); {_W_NEGATIVE}")

    p = add("mutate", _cmd_mutate, help="combinatorial mutation")
    p.add_argument("--polygon", required=True)
    p.add_argument("--w", required=True, help=f"height function p,q; {_W_NEGATIVE}")
    p.add_argument("--t", type=integer, default=1)

    p = add("graph", _cmd_graph, help="mutation graph of lattice-equivalence classes")
    p.add_argument("--polygon")
    p.add_argument("--weights")
    p.add_argument("--depth", type=integer, required=True)

    p = add("markov", _cmd_markov, help="Markov triples within a Vieta-step depth")
    p.add_argument("--depth", type=integer, required=True)

    p = add("diophantine", _cmd_diophantine, help="Diophantine class of a weight triple")
    p.add_argument("--weights", required=True)

    p = add("laurent-mutate", _cmd_laurent_mutate, help="algebraic mutation of a Laurent polynomial")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--divide", choices=("x", "y"), required=True)

    p = add("period", _cmd_period, help="period sequence (constant terms of powers)")
    p.add_argument("--f", required=True)
    p.add_argument("--dmax", type=integer, required=True)

    p = add("divpoly", _cmd_divpoly, help="divisorial polytope of a lattice polygon")
    p.add_argument("--polygon", required=True)

    p = add("deform", _cmd_deform, help="mutation-to-deformation pipeline with certificate")
    p.add_argument("--polygon")
    p.add_argument("--weights")
    p.add_argument("--w", help=f"height function p,q (default: a weight-decreasing factor); {_W_NEGATIVE}")
    p.add_argument("--t", type=integer, default=1)
    p.add_argument("--dilation", default="auto", help="'auto' or a positive integer")

    p = add("check-corollary", _cmd_check_corollary, help="re-check the corollary clauses of a certificate")
    p.add_argument("--certificate", required=True, help="certificate JSON (inline, path, or '-')")

    p = add("batch-verify", lambda args: batch_verify(args.corpus), help="run the cross-module checks over a corpus directory")
    p.add_argument("corpus")

    return ap


def _cmd_hull(args) -> dict:
    pts = parse_vertices(_read_json_arg(args.points))
    return polygon_to_json(Polygon(pts))


def _cmd_dual(args) -> dict:
    return polygon_to_json(dual(_read_polygon(args.polygon)))


def _cmd_weights(args) -> dict:
    verts = parse_vertices(_read_json_arg(args.polygon))
    if len(verts) != 3:
        raise NotATriangle("weights need exactly three vertices")
    P = Polygon(verts)
    if not is_fano(P):
        raise NotFano("weights are defined for Fano triangles only")
    return {"weights": list(weights_of_vertices(*verts))}


def _cmd_multiplicity(args) -> dict:
    P = _read_polygon(args.polygon)
    return {"multiplicity": multiplicity(P), "weights": sorted(weights(P))}


def _cmd_triangle(args) -> dict:
    return polygon_to_json(triangle_from_weights(_parse_weights(args.weights)))


def _cmd_factors(args) -> dict:
    mutation = _module("mutation")
    P = _read_polygon(args.polygon)
    if args.w:
        ws = [_parse_w(args.w)]
    else:
        ws = mutation.factor_directions(P)
    out = []
    for w in ws:
        for md in mutation.find_factors(P, w):
            out.append(md.to_json())
    return {"factors": out, "directions": [vector_to_json(w) for w in ws]}


def _cmd_mutate(args) -> dict:
    mutation = _module("mutation")
    P = _read_polygon(args.polygon)
    md = mutation.factor_for(P, _parse_w(args.w), args.t)
    Q = mutation.mutate(P, md)
    return {"polygon": polygon_to_json(Q), "certificate": md.to_json()}


def _triangle_arg(args) -> Polygon:
    if getattr(args, "polygon", None):
        return _read_polygon(args.polygon)
    if getattr(args, "weights", None):
        return triangle_from_weights(_parse_weights(args.weights))
    raise DomainError("need --polygon or --weights")


def _cmd_graph(args) -> dict:
    mutation = _module("mutation")
    P = _triangle_arg(args)
    return mutation.mutation_graph(P, args.depth).to_json()


def _cmd_markov(args) -> list:
    return [list(t) for t in sorted(markov_tree(args.depth))]


def _cmd_diophantine(args) -> dict:
    return diophantine_class(_parse_weights(args.weights)).to_json()


def _cmd_laurent_mutate(args) -> dict:
    laurent = _module("laurent")
    f = laurent.parse(args.f)
    spec = laurent.MutationSpec(args.divide, laurent.parse(args.g))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = laurent.algebraic_mutate(f, spec)
    md, shear = laurent.derive_mutation_data(f, spec)
    out = {
        "mutated": laurent.render(g),
        "newton_before": polygon_to_json(laurent.newton_polytope(f)),
        "newton_after": polygon_to_json(laurent.newton_polytope(g)),
        "mutation_data": md.to_json(),
        "factor_shear": vector_to_json(shear),
    }
    if caught:
        out["warnings"] = sorted(str(w.message) for w in caught)
    return out


def _cmd_period(args) -> list:
    laurent = _module("laurent")
    f = laurent.parse(args.f)
    return [str(c) for c in laurent.period_sequence(f, args.dmax)]


def _cmd_divpoly(args) -> dict:
    divpoly = _module("divpoly")
    return divpoly.from_polygon(_read_polygon(args.polygon)).to_json()


def _cmd_deform(args) -> dict:
    mutation = _module("mutation")
    deform = _module("deform")
    P = _triangle_arg(args)
    if args.w:
        md = mutation.factor_for(P, _parse_w(args.w), args.t)
    else:
        md = _default_reducing_factor(P)
    cert = deform.mutation_to_deformation(P, md, _parse_dilation(args.dilation))
    return cert.to_json()


def _default_reducing_factor(P: Polygon):
    mutation = _module("mutation")
    deform = _module("deform")
    for w in mutation.factor_directions(P):
        for md in mutation.find_factors(P, w):
            if deform.is_weight_reducing(P, md):
                return md
    raise DomainError("no weight-decreasing mutation exists for this triangle")


def _cmd_check_corollary(args) -> dict:
    deform = _module("deform")
    divpoly = _module("divpoly")
    dobj = _field(_read_json_arg(args.certificate), "decomposition", "certificate")
    d = deform.Decomposition(
        divpoly.PointLabel.parse(_field(dobj, "label", "decomposition")),
        divpoly.PLFunc.from_json(_field(dobj, "part0", "decomposition")),
        divpoly.PLFunc.from_json(_field(dobj, "part1", "decomposition")),
    )
    return deform.corollary_check(d).to_json()


# --- batch verification -----------------------------------------------------

def batch_verify(corpus: str) -> dict:
    """Cross-module invariants over a directory of JSON entries: duality
    commutation, Diophantine constancy, period invariance, and deformation
    certificates, with a pass/fail matrix."""
    results = []
    root = Path(corpus)
    if not root.is_dir():
        raise DomainError(f"corpus directory not found: {corpus}")
    for path in sorted(root.glob("*.json")):
        try:
            obj = json.loads(path.read_text())
        except (OSError, ValueError) as e:
            results.append(_entry(path, "parse", "error", str(e)))
            continue
        try:
            results.extend(_verify_entry(path, obj))
        except ValueError as e:
            results.append(_entry(path, "verify", "error", str(_domain_error(e))))
    failed = sum(1 for r in results if r["status"] != "pass")
    return {"results": results, "passed": len(results) - failed, "failed": failed}


def _entry(path: Path, check: str, status: str, detail: str = "") -> dict:
    return {"file": path.name, "check": check, "status": status, "detail": detail}


def _verify_entry(path: Path, obj) -> list[dict]:
    if not isinstance(obj, dict):
        return [_entry(path, "parse", "error", "entry must be a JSON object")]
    if "laurent" in obj:
        return _verify_laurent(path, obj)
    if "weights" in obj:
        T = triangle_from_weights(_json_weights(obj["weights"]))
    elif "vertices" in obj:
        T = polygon_from_json(obj)
    else:
        return [_entry(path, "parse", "error", "expected 'weights', 'vertices' or 'laurent'")]
    return _verify_polygon(path, T)


def _verify_polygon(path: Path, T: Polygon) -> list[dict]:
    mutation = _module("mutation")
    deform = _module("deform")
    out = []
    Tstar = dual(T)
    ok = dual(Tstar) == T
    out.append(_entry(path, "dual-involution", "pass" if ok else "fail"))
    if len(T.vertices) == 3:
        cls = diophantine_class(weights(T))
    else:
        cls = None
    for w in mutation.factor_directions(T):
        for md in mutation.find_factors(T, w):
            tag = f"w={w} t={md.t}"
            Q = mutation.mutate(T, md)
            ok = area(dual(Q)) == area(Tstar)
            out.append(_entry(path, f"dual-area [{tag}]", "pass" if ok else "fail"))
            ok = dual(mutation.dual_map(md, Tstar)) == Q
            out.append(_entry(path, f"duality-commutation [{tag}]", "pass" if ok else "fail"))
            if cls is not None and len(Q.vertices) == 3:
                ok = diophantine_class(weights(Q)) == cls
                out.append(_entry(path, f"diophantine-constancy [{tag}]", "pass" if ok else "fail"))
            if len(T.vertices) == 3 and deform.is_weight_reducing(T, md):
                try:
                    cert = deform.mutation_to_deformation(T, md)
                    ok = cert.corollary.passed
                    out.append(_entry(path, f"deformation-certificate [{tag}]", "pass" if ok else "fail"))
                except DomainError as e:
                    out.append(_entry(path, f"deformation-certificate [{tag}]", "fail", str(e)))
    return out


def _verify_laurent(path: Path, obj) -> list[dict]:
    mutation = _module("mutation")
    laurent = _module("laurent")
    out = []
    f = laurent.parse(obj["laurent"])
    spec = laurent.MutationSpec(
        obj.get("divide", "y"), laurent.parse(_field(obj, "g", "laurent entry"))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = laurent.algebraic_mutate(f, spec)
    ok = laurent.period_sequence(f, 8) == laurent.period_sequence(g, 8)
    out.append(_entry(path, "period-invariance", "pass" if ok else "fail"))
    md, shear = laurent.derive_mutation_data(f, spec)
    Q = mutation.mutate(laurent.newton_polytope(f), md)
    if not shear.is_zero():
        Q = Polygon([v + shear.scale(md.w.dot(v)) for v in Q.vertices])
    ok = laurent.newton_polytope(g) == Q
    out.append(_entry(path, "newton-compatibility", "pass" if ok else "fail"))
    return out


def _domain_error(e: ValueError) -> DomainError:
    """The error boundary of a command and of a batch entry: e if it is a
    DomainError, a DomainError if it is str() of an output integer past the
    interpreter's int-to-str digit limit, which products of accepted inputs
    can reach; any other ValueError is raised again."""
    if isinstance(e, DomainError):
        return e
    if "integer string conversion" not in str(e):
        raise e
    return DomainError(f"an output integer is too long to print: {e}")


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        out = args.run(args)
        _emit(out, args.format)
    except ValueError as e:
        e = _domain_error(e)
        print(json.dumps({"error": {"type": type(e).__name__, "message": str(e)}}, sort_keys=True))
        return 1
    # a batch report exits 1 when any of its rows failed, and a corollary
    # check when it did not pass (a batch report's "passed" is a count)
    if isinstance(out, dict) and (out.get("failed") or out.get("passed") is False):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
