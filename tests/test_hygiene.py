import ast
import importlib
import importlib.util
import json
import pkgutil
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polymut"
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_library_reads_no_environment():
    # configuration goes through function arguments and CLI options only
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
                offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(a.name in ENV_NAMES for a in node.names):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _nodes(home_file: str | None = None, home_function: str | None = None):
    """(file name, node, at home) for every AST node of src/polymut/*.py,
    where a node is at home inside the top-level function home_function of
    home_file, or anywhere in home_file when home_function is None; no node
    is at home when home_file is None."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        home = set()
        if path.name == home_file:
            scope = tree
            if home_function is not None:
                scope = next(
                    n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == home_function
                )
            home = {id(n) for n in ast.walk(scope)}
        for node in ast.walk(tree):
            yield path.name, node, id(node) in home


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_every_division_goes_through_qdiv():
    # a bare `/` on two ints is a float, and on integral Fractions keeps them
    # boxed; geom.qdiv is exact and returns an int for an integral quotient
    offenders = [
        f"{name}:{node.lineno}"
        for name, node, at_home in _nodes("geom.py", "qdiv")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div) and not at_home
    ]
    assert offenders == []


def test_only_height_basis_calls_extgcd():
    # geom.height_basis is the one unimodular frame of a height function;
    # another extgcd call would be a second basis that can drift from it
    offenders = [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node, at_home in _nodes("geom.py", "height_basis")
        if _name(node) == "extgcd" and not at_home
    ]
    assert offenders == []


def test_only_geom_names_fraction():
    # geom decides how an exact rational is stored (an int when integral);
    # a Fraction built elsewhere could keep an integral value boxed
    offenders = [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node, at_home in _nodes("geom.py")
        if _name(node) == "Fraction" and not at_home
    ]
    assert offenders == []


def test_only_height_basis_raises_not_primitive():
    # mutations are defined for primitive height functions only; every
    # height function reaches height_basis, the one place that refuses it
    offenders = []
    for name, node, at_home in _nodes("geom.py", "height_basis"):
        if isinstance(node, ast.Raise) and node.exc is not None and not at_home:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _name(exc) == "NotPrimitive":
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_every_budget_is_documented():
    # a *_LIMIT constant bounds the work that one input may ask for; the
    # README names each, so a refused input can be traced to its budget
    budgets = {
        target.id
        for _, node, _ in _nodes()
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_LIMIT")
    }
    assert {"SQUAREFREE_TRIAL_LIMIT", "PERIOD_DMAX_LIMIT"} <= budgets
    readme = (ROOT / "README.md").read_text()
    assert sorted(b for b in budgets if b not in readme) == []


def test_benchmark_trace_targets_resolve():
    # benchmarks/tracer.py wraps each TARGETS entry by module and attribute
    # name; a renamed or deleted function would break only traced runs
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "benchmarks" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    missing = []
    for modname, attr, _, _ in layers.TARGETS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_readme_citations_resolve():
    # every `module.name` or `module.Class.attr` the README cites for a
    # polymut submodule names something that exists, so a rename cannot
    # leave the docs stale; benchmark metric names look alike and are skipped
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    modules = {"polymut"} | {p.stem for p in SRC.glob("*.py")}
    cited = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", (ROOT / "README.md").read_text()))
    cited = sorted(c for c in cited if c.split(".")[0] in modules and c not in metrics)
    assert len(cited) >= 20
    missing = []
    for c in cited:
        try:
            pkgutil.resolve_name(c if c.startswith("polymut.") else f"polymut.{c}")
        except (ImportError, AttributeError):
            missing.append(c)
    assert missing == []


def test_only_geom_builds_polygons_without_a_hull():
    # Polygon._from_cycle trusts its input to be a strictly convex CCW
    # cycle; only geom's dual, dilate and translate can vouch for that
    offenders = [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node, at_home in _nodes("geom.py")
        if _name(node) == "_from_cycle" and not at_home
    ]
    assert offenders == []
    # geom._polygon_from_pairs trusts its cycle to be canonical; mutation
    # passes it only what geom._hull_pairs returned
    assert _named_outside("_polygon_from_pairs", {"geom.py", "mutation.py"}) == []


def _named_outside(attr: str, homes: set[str], owner: str | None = None) -> list[str]:
    """file:line of every node named attr (as owner.attr when owner is
    given) in a module of src/polymut outside homes."""
    return [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node, _ in _nodes()
        if _name(node) == attr
        and name not in homes
        and (owner is None or (isinstance(node, ast.Attribute) and _name(node.value) == owner))
    ]


def test_only_geom_divpoly_and_mutation_build_trusted_vectors():
    # Vector2._of skips to_fraction: its coordinates must be ints or
    # Fractions computed from stored coordinates, which these modules'
    # arithmetic vouches for; every other module goes through Vector2(...)
    assert _named_outside("_of", {"geom.py", "divpoly.py", "mutation.py"}) == []


def test_only_divpoly_builds_trusted_pl_functions():
    # PLFunc._canonical and DivPoly._of skip to_fraction (and DivPoly._of
    # the domain checks); only divpoly's own arithmetic vouches for them
    assert _named_outside("_canonical", {"divpoly.py"}) == []
    assert _named_outside("_of", {"divpoly.py"}, owner="DivPoly") == []


# the functions of geom and divpoly that read values from outside the
# library: the public constructors, the public functions that take a
# RationalLike or an outside PLFunc, and the JSON readers
BOUNDARY = {
    "geom.py": {"<module>", "to_fraction", "Vector2.__init__", "dilate", "vector_from_json", "parse_vertices", "polygon_from_json"},
    "divpoly.py": {
        "PLFunc.__init__", "PLFunc.constant", "PLFunc.affine", "PLFunc.min_of_affines", "PLFunc.__call__",
        "PLFunc.from_json", "DivPoly.__init__", "DivPoly.with_coefficient", "DivPoly.from_json", "shift_affine",
    },
}
# to_fraction, the public constructors, and the boundary functions that
# coerce their arguments
COERCING = {"to_fraction", "Vector2", "PLFunc", "DivPoly"} | {
    q.rsplit(".", 1)[-1] for qs in BOUNDARY.values() for q in qs if not q.endswith(("__", ">"))
}


def _calls(tree, scope="<module>"):
    """(qualified name of the enclosing function or class, call) for every
    call in tree."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _calls(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _calls(child, scope)


def test_geom_and_divpoly_coerce_only_at_the_boundary():
    # arithmetic on values the library computed builds its results through
    # Vector2._of, PLFunc._canonical and DivPoly._of; only the boundary
    # functions call to_fraction or a function that does
    offenders = []
    for fname, allowed in BOUNDARY.items():
        tree = ast.parse((SRC / fname).read_text(), fname)
        for scope, call in _calls(tree):
            if _name(call.func) in COERCING and scope not in allowed:
                offenders.append(f"{fname}:{call.lineno} {scope} calls {_name(call.func)}")
    assert offenders == []
