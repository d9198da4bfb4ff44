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
    if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
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
    # geom.height_basis takes the one unimodular frame of a height function
    # from geom._bezout; the extended Euclidean loop lives in tests/oracles.py
    # only, and an extgcd in the library would be a second basis that can
    # drift from it
    assert _named_outside("extgcd", set()) == []


def test_one_factor_walk():
    # mutation._factor_walk is the one walk over every factor of a polygon,
    # which mutants and mutation_graph share; find_factors reads one
    # direction and _validate_mutation_data the one of a given factor, both
    # by _profile, which proves P Fano and w primitive first
    tree = ast.parse((SRC / "mutation.py").read_text())
    calls = list(_calls(tree))
    callers = sorted(scope for scope, call in calls if _name(call.func) == "_Profile")
    assert callers == ["_factor_walk", "_profile"]
    callers = sorted(scope for scope, call in calls if _name(call.func) == "_profile")
    assert callers == ["_validate_mutation_data", "find_factors"]
    assert _named_outside("_Profile", {"mutation.py"}) == []
    # a mutant of a Fano polygon is Fano: the graph proves its root once,
    # before its loop, and no node it expands
    graph = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "mutation_graph")
    proofs = [n for n in ast.walk(graph) if _name(n) == "_require_fano"]
    loops = [n for n in ast.walk(graph) if isinstance(n, (ast.For, ast.While))]
    assert len(proofs) == 1 and not any(n in proofs for loop in loops for n in ast.walk(loop))


def test_polygons_are_read_by_their_cycle():
    # a Polygon stores one form, its canonical cycle of exact (x, y) pairs,
    # and its vertices are a Vector2 view of it: outside geom no loop over
    # a view builds (x, y) pairs again, by .x and .y or by as_ints
    offenders = []
    for name, node, _ in _nodes():
        if name == "geom.py":
            continue
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            iters, body = [g.iter for g in node.generators], [node.elt]
        elif isinstance(node, ast.For):
            iters, body = [node.iter], node.body
        else:
            continue
        if not any(_name(n) == "vertices" for it in iters for n in ast.walk(it)):
            continue
        built = [n for b in body for n in ast.walk(b) if isinstance(n, ast.Tuple) or _name(n) == "as_ints"]
        if any(_name(n) == "as_ints" or any(_name(a) in {"x", "y"} for a in ast.walk(n)) for n in built):
            offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def test_factor_kernel_runs_on_integer_pairs():
    # the profile with its rows and its two t-independent chains, the
    # mutant and the edge directions work on the integer vertex cycle and
    # name no Vector2; the mutant's hull is made of geom._hull_chain, the
    # one monotone chain: the profile builds the chain that the sign of t
    # does not move and the mutant the other, so mutation.py pops no hull
    # vertex of its own
    tree = ast.parse((SRC / "mutation.py").read_text())
    kernel = {n.name: n for n in tree.body if _name(n) in {"_Profile", "_mutant", "_directions"}}
    assert sorted(kernel) == ["_Profile", "_directions", "_mutant"]
    assert [n.lineno for k in kernel.values() for n in ast.walk(k) if _name(n) == "Vector2"] == []
    chains = {k: [_name(c.func) for c in ast.walk(kernel[k]) if isinstance(c, ast.Call)].count("_hull_chain") for k in kernel}
    assert chains == {"_Profile": 2, "_directions": 0, "_mutant": 2}
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.While) or _name(n) in {"pop", "_hull_pairs"}] == []


def test_one_factor_check():
    # mutation._validate_mutation_data is the one check of a given factor:
    # mutate and factor_for run it, and factor_for does not scan
    # find_factors beside it.  The CLI derives a Laurent entry's mutation
    # data before it mutates, which proves Newt(f) Fano, so no warning of
    # algebraic_mutate can reach it and it keeps no warning channel
    tree = ast.parse((SRC / "mutation.py").read_text())
    calls = list(_calls(tree))
    callers = sorted(scope for scope, call in calls if _name(call.func) == "_validate_mutation_data")
    assert callers == ["factor_for", "mutate"]
    assert _named_outside("_validate_mutation_data", {"mutation.py"}) == []
    assert not any(scope == "factor_for" and _name(call.func) == "find_factors" for scope, call in calls)
    cli = [node for name, node, _ in _nodes() if name == "cli.py"]
    assert [getattr(node, "lineno", "?") for node in cli if _name(node) == "warnings"] == []


def _exchanged_pairs(scope) -> list:
    """Line numbers in scope of a pair built in the reverse order of a
    pair it unpacked, (b, a) after a, b = ..., or of a coordinate pair,
    (e[1], e[0]) or (v.y, v.x), in a tuple or as the two arguments of a
    call."""
    unpacked = {
        (t.elts[0].id, t.elts[1].id)
        for t in ast.walk(scope)
        if isinstance(t, ast.Tuple) and isinstance(t.ctx, ast.Store)
        and len(t.elts) == 2 and all(isinstance(e, ast.Name) for e in t.elts)
    }

    def reversed_pair(a, b) -> bool:
        if isinstance(a, ast.Name) and isinstance(b, ast.Name):
            return (b.id, a.id) in unpacked
        if isinstance(a, ast.Attribute) and isinstance(b, ast.Attribute):
            return (a.attr, b.attr) == ("y", "x") and ast.dump(a.value) == ast.dump(b.value)
        return (
            isinstance(a, ast.Subscript) and isinstance(b, ast.Subscript)
            and ast.dump(a.value) == ast.dump(b.value)
            and [ast.dump(a.slice), ast.dump(b.slice)] == [ast.dump(ast.Constant(1)), ast.dump(ast.Constant(0))]
        )

    lines = []
    for node in ast.walk(scope):
        pair = node.elts if isinstance(node, ast.Tuple) else node.args if isinstance(node, ast.Call) else []
        if isinstance(getattr(node, "ctx", ast.Load()), ast.Load) and len(pair) == 2 and reversed_pair(*pair):
            lines.append(node.lineno)
    return lines


def test_one_laurent_mutation_path():
    # dividing x is dividing y with x and y exchanged: laurent._exchanged is
    # the one place that exchanges exponents, the parser the one reader of
    # the variable names' indices, and no axis-indexed path is left beside
    # the y path
    tree = ast.parse((SRC / "laurent.py").read_text())
    axis_names = [
        f"laurent.py:{getattr(node, 'lineno', '?')}"
        for node in ast.walk(tree)
        if (_name(node) or getattr(node, "arg", None)) in {"axis", "other_axis"}
    ]
    assert axis_names == []
    parser = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Parser")
    in_parser = {id(n) for n in ast.walk(parser)}
    readers = [
        f"laurent.py:{node.lineno}"
        for node in ast.walk(tree)
        if _name(node) == "_ALIASES" and isinstance(node.ctx, ast.Load) and id(node) not in in_parser
    ]
    assert readers == [] and _named_outside("_ALIASES", {"laurent.py"}) == []
    builders = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and _exchanged_pairs(n)]
    assert builders == ["_exchanged"]


def test_only_geom_names_bezout():
    # geom._bezout is the one extended gcd: the frame of height_basis and
    # the lattice basis; a second one elsewhere could return other
    # coefficients
    assert _named_outside("_bezout", {"geom.py"}) == []


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


def _trace_targets() -> list:
    """benchmarks/layers.py TARGETS, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "benchmarks" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


def test_benchmark_trace_targets_resolve():
    # benchmarks/tracer.py wraps each TARGETS entry by module and attribute
    # name; a renamed or deleted function would break only traced runs
    targets = _trace_targets()
    assert targets
    missing = []
    for modname, attr, _, _ in targets:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert missing == []


# public library code that no library code references, and why it stays
UNREFERENCED_PUBLIC = {
    "geom.dilate": "documented public constructor of r*P",
    "geom.mat_apply": "the certify workload's witness check calls it",
    "geom.mat_det": "the certify workload's witness check calls it",
    "geom.primitivize": "exported public helper; the factor walk divides integer pairs by their gcd itself",
    "geom.Polygon.translate": "documented public polygon operation",
    "geom.Polygon.vertices": "the Python API's vector view of a polygon, which the benchmark's workloads and layers.py read",
    "deform.standard_decomposition": "documented public step; the reference's first step",
    "divpoly.PLFunc.constant": "documented public constructor",
    "divpoly.PLFunc.min_of_affines": "documented public coercing constructor; the pipeline builds min(t*u, 0) off its breakpoints",
    "divpoly.DivPoly.from_json": "documented reader of the divisorial polytope a certificate carries",
    "laurent.LaurentPoly.coefficient": "documented public read of one coefficient",
    "mutation.MutationGraph.weight_triples": "the correctness check of the graph workloads",
}


def _annotation(node) -> str | None:
    """The class name an annotation reads as: C, "C", mod.C or Optional[C]."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Subscript) and _name(node.value) == "Optional":
        return _annotation(node.slice)
    return _name(node) if isinstance(node, (ast.Name, ast.Attribute)) else None


def _receiver_classes(classes: set[str]) -> dict[str, set]:
    """For each attribute name used in src/polymut, the classes its
    receivers read as: the class itself (C.m, mod.C.m), self in a method of
    C, a parameter annotated C, or a local assigned from C(...) or from a
    call of a library function annotated to return C.  None stands for a
    receiver whose class does not read off the code."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    returns = {
        node.name: _annotation(node.returns)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and _annotation(node.returns) in classes
    }
    uses: dict[str, set] = {}

    def visit(node, owner, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, {})
            elif isinstance(child, ast.FunctionDef):
                inner = dict(scope)
                for arg in child.args.args + child.args.kwonlyargs:
                    inner[arg.arg] = _annotation(arg.annotation)
                if owner and child.args.args and "staticmethod" not in map(_name, child.decorator_list):
                    inner[child.args.args[0].arg] = owner
                for n in ast.walk(child):
                    if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call):
                        f = _name(n.value.func)
                        for target in n.targets:
                            if isinstance(target, ast.Name):
                                inner[target.id] = f if f in classes else returns.get(f)
                visit(child, None, inner)
            else:
                if isinstance(child, ast.Attribute):
                    r = child.value
                    cls = _name(r) if _name(r) in classes else scope.get(r.id) if isinstance(r, ast.Name) else None
                    uses.setdefault(child.attr, set()).add(cls if cls in classes else None)
                visit(child, owner, scope)

    for tree in trees:
        visit(tree, None, {})
    return uses


def test_library_holds_no_test_only_public_code():
    # a public function, class or method that no library code uses is
    # a second path beside the one the library runs; the definitions the
    # tests check against live in tests/oracles.py.  A name counts as used
    # when src/polymut refers to it as a name or an attribute, not in a
    # string, or when benchmarks/layers.py traces it; a method is reached
    # only as an attribute, so a local variable of its name does not count.
    # A method whose name another public class also defines counts as used
    # only through a receiver that reads as its own class, or one whose
    # class does not read off the code (see _receiver_classes).
    nodes = [node for _, node, _ in _nodes()]
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    used = attrs | {node.id for node in nodes if isinstance(node, ast.Name)}
    traced = {f"{modname.rsplit('.', 1)[-1]}.{attr}" for modname, attr, _, _ in _trace_targets()}
    public, classes, methods = [], set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.append((f"{path.stem}.{node.name}", node.name in used))
                if isinstance(node, ast.ClassDef):
                    classes.add(node.name)
                    methods += [
                        (path.stem, node.name, m.name)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                    ]
    owners: dict[str, set] = {}
    for _, cls, name in methods:
        owners.setdefault(name, set()).add(cls)
    receivers = _receiver_classes(classes)
    for stem, cls, name in methods:
        if len(owners[name]) > 1:
            public.append((f"{stem}.{cls}.{name}", bool(receivers.get(name, set()) & {cls, None})))
        else:
            public.append((f"{stem}.{cls}.{name}", name in attrs))
    unused = [q for q, is_used in public if not is_used and q not in traced and q not in UNREFERENCED_PUBLIC]
    assert unused == []


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


def test_one_hull_and_one_trusted_polygon_constructor():
    # geom builds a polygon from exact pairs by its hull, hull_of_pairs
    # (which Polygon runs), or by _polygon_from_cycle, which trusts a
    # canonical cycle; only geom's hull and duals, the cycles of
    # mutation._mutant and those deform._deform holds vouch for that.  _deform's cycles are det-1 images and positive scalings of
    # canonical cycles, so in deform.py only _deform calls it
    assert _named_outside("_polygon_from_cycle", {"geom.py", "mutation.py", "deform.py"}) == []
    assert _calls_outside("_polygon_from_cycle", "deform.py", "_deform") == []
    gone = {"_hull_of", "_from_cycle", "_polygon_from_pairs"}
    assert [f"{name}:{getattr(node, 'lineno', '?')}" for name, node, _ in _nodes() if _name(node) in gone] == []
    # no other code makes a Polygon without running its __init__
    offenders = [
        f"{name}:{node.lineno}"
        for name, node, at_home in _nodes("geom.py", "_polygon_from_cycle")
        if isinstance(node, ast.Call)
        and _name(node.func) in {"__new__", "_new"}
        and any(_name(a) == "Polygon" for a in node.args)
        and not at_home
    ]
    assert offenders == []


def test_polygons_in_and_out_as_exact_pairs():
    # the JSON readers return exact (x, y) pairs, and the CLI hulls and
    # weighs them, so no Vector2 is built only to be read back; geom builds
    # a polygon by its hull or wraps a cycle its hull or duals proved
    # canonical, and Polygon.vertices is a view that only geom reads
    views = [
        f"{name}:{node.lineno}"
        for name, node, _ in _nodes()
        if name != "geom.py" and isinstance(node, ast.Attribute) and node.attr == "vertices"
    ]
    assert views == []
    readers = {
        "geom.py": {"parse_vertices", "polygon_from_json"},
        "mutation.py": {"MutationData.factor"},
        "cli.py": {"_cmd_hull", "_cmd_weights", "_verify_laurent"},
    }
    built = []
    for fname, scopes in readers.items():
        calls = [(scope, call) for scope, call in _calls(ast.parse((SRC / fname).read_text())) if scope in scopes]
        assert {scope for scope, _ in calls} == scopes
        built += [f"{fname}:{call.lineno}" for _, call in calls if _name(call.func) in {"Vector2", "Polygon"}]
    assert built == []
    gone = {"_canonical_cycle", "_exact", "vector_from_json", "weights_of_vertices", "_vertex_minors"}
    named = [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node, _ in _nodes()
        if _name(node) in gone or (isinstance(node, ast.Constant) and node.value in gone)
    ]
    assert named == []
    geom_calls = _calls(ast.parse((SRC / "geom.py").read_text()))
    assert sorted(scope for scope, call in geom_calls if _name(call.func) == "_polygon_from_cycle") == [
        "_lattice_dual", "dilated_dual", "hull_of_pairs",
    ]


def _calls_outside(attr: str, home_file: str, home_function: str) -> list[str]:
    """file:line of every call of attr in home_file outside its top-level
    function home_function."""
    return [
        f"{name}:{node.lineno}"
        for name, node, at_home in _nodes(home_file, home_function)
        if name == home_file and isinstance(node, ast.Call) and _name(node.func) == attr and not at_home
    ]


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
    # a vector has one constructor, Vector2(...), which keeps an int or a
    # Fraction by identity: there is no Vector2._of to skip it, so no
    # module outside divpoly (whose _of is DivPoly's) names an _of at all
    from polymut.geom import Vector2

    assert not hasattr(Vector2, "_of")
    assert _named_outside("_of", {"divpoly.py"}) == []


def test_only_divpoly_builds_trusted_pl_functions():
    # PLFunc._canonical and DivPoly._of skip to_fraction (and DivPoly._of
    # the domain checks); only divpoly's own arithmetic vouches for them
    assert _named_outside("_canonical", {"divpoly.py"}) == []
    assert _named_outside("_of", {"divpoly.py"}, owner="DivPoly") == []


# the functions of geom and divpoly that read values from outside the
# library: the public constructors, the public functions that take a
# RationalLike or an outside PLFunc, and the JSON readers
BOUNDARY = {
    "geom.py": {"<module>", "to_fraction", "Vector2.__init__", "dilate", "parse_vertices", "polygon_from_json"},
    "divpoly.py": {
        "PLFunc.__init__", "PLFunc.constant", "PLFunc.affine", "PLFunc.min_of_affines", "PLFunc.__call__",
        "PLFunc.from_json", "DivPoly.__init__", "DivPoly.from_json", "shift_affine",
    },
}
# to_fraction, the public constructors, and the boundary functions that
# coerce their arguments.  Vector2 is not among them: its one constructor
# keeps an int or a Fraction by identity and only folds an integral
# Fraction, at the cost a trusted constructor had
COERCING = {"to_fraction", "PLFunc", "DivPoly"} | {
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
    # PLFunc._canonical and DivPoly._of; only the boundary functions call
    # to_fraction or a function that does
    offenders = []
    for fname, allowed in BOUNDARY.items():
        tree = ast.parse((SRC / fname).read_text(), fname)
        for scope, call in _calls(tree):
            if _name(call.func) in COERCING and scope not in allowed:
                offenders.append(f"{fname}:{call.lineno} {scope} calls {_name(call.func)}")
    assert offenders == []


def test_one_vertex_map_search():
    # geom._cycle_maps is the one vertex-map search, on integer cycles:
    # lattice_equivalent and linear_equivalent call it on the polygons'
    # cycles, the deformation core on the cycles it holds, and the
    # mutation graph's class index on the cycles of an invariant bucket;
    # the rational pair solver it replaced and the _vertex_maps wrapper are
    # gone from the library
    tree = ast.parse((SRC / "geom.py").read_text())
    calls = list(_calls(tree))
    assert sorted(scope for scope, call in calls if _name(call.func) == "_cycle_maps") == [
        "lattice_equivalent", "linear_equivalent",
    ]
    assert _named_outside("_cycle_maps", {"geom.py", "deform.py", "mutation.py"}) == []
    gone = {"_solve_pair_map", "_vertex_maps"}
    assert [f"{name}:{getattr(node, 'lineno', '?')}" for name, node, _ in _nodes() if _name(node) in gone] == []
    # one search: only _cycle_maps compares the image of a vertex set
    setcmp = [
        scope for scope, node in _scoped(tree)
        if isinstance(node, ast.Compare) and any(isinstance(x, ast.SetComp) for x in [node.left, *node.comparators])
    ]
    assert setcmp == ["_cycle_maps"]


def test_no_normal_form_in_the_library():
    # the mutation graph decides classes by a vertex map inside an
    # invariant bucket, so the GL2(Z) normal form lives only in
    # tests/oracles.py, as the arbiter the class index is checked against;
    # a string constant counts too, so the package cannot export one
    names = {"_cycle_normal_form", "linear_normal_form", "_hermite_columns"}
    offenders = [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node, _ in _nodes()
        if _name(node) in names or (isinstance(node, ast.Constant) and node.value in names)
    ]
    assert offenders == []


def _scoped(tree, scope="<module>"):
    """(qualified name of the enclosing function or class, node) for every
    node in tree."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _scoped(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
            continue
        yield scope, child
        yield from _scoped(child, scope)


def test_deformation_core_runs_on_cycles():
    # deform._deform reads the dilation and the witness off integer vertex
    # cycles and the fiber steps off one integer table of the envelopes
    # (divpoly._envelope_table): it names no Polygon-level equivalence,
    # envelope reader, denominator, polygon map or second dual, none of the
    # public fiber steps (tests/oracles.py composes those as
    # deform_by_definition), runs no admissibility check of its own
    # (extends_over_p1 is written from its proof), builds its PL objects
    # through divpoly._certificate_divpolys only, and wraps the cycles it
    # holds as the polygons of a certificate, since they are det-1 images
    # and positive scalings of canonical cycles
    tree = ast.parse((SRC / "deform.py").read_text())
    core = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_deform")
    names = {_name(n) for n in ast.walk(core)}
    assert names & {
        "lattice_equivalent", "linear_equivalent", "from_polygon", "dual_denominator",
        "mat_image", "dilated_dual", "is_admissible", "_cycle_divpoly",
        "standard_decomposition", "general_fiber", "reduce_to_polygon", "to_polygon", "shift_affine",
        "hull_of_pairs", "PLFunc", "DivPoly", "_require_lattice_2d",
    } == set()
    built = {_name(n.func) for n in ast.walk(core) if isinstance(n, ast.Call)}
    assert built & {"Polygon", "hull_of_pairs", "dilate"} == set()
    assert {"_cycle_maps", "_envelope_table", "_certificate_divpolys", "_moves", "_dual_walk", "_polygon_from_cycle"} <= names
    # the core and reduce_to_polygon take their moves from one generator
    assert sorted(scope for scope, call in _calls(tree) if _name(call.func) == "_moves") == ["_deform", "reduce_to_polygon"]
    assert _named_outside("_moves", {"deform.py"}) == []
    assert _named_outside("_polygon_from_cycle", {"geom.py", "mutation.py", "deform.py"}) == []
    assert _calls_outside("_polygon_from_cycle", "deform.py", "_deform") == []
    assert _named_outside("dual_denominator", set()) == []
    # the normalizer's rows, the normalized mutation and the triangle of
    # given weights come off geom._height_frame's integer pairs: these
    # kernels map no vector and build none, but for the one a certificate
    # hands out, its witness translation
    kernels = {
        "deform.py": {"_deform", "_normalizer_for", "_transform_mutation"},
        "fano.py": {"triangle_from_weights"},
    }
    vectors = []
    for fname, fns in kernels.items():
        tree = ast.parse((SRC / fname).read_text())
        defs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in fns]
        assert sorted(d.name for d in defs) == sorted(fns)
        witness = [k for d in defs for k in ast.walk(d) if isinstance(k, ast.keyword) and k.arg == "witness"]
        handed_out = {id(n) for k in witness for n in ast.walk(k)}
        vectors += [
            f"{fname}:{n.lineno}"
            for d in defs
            for n in ast.walk(d)
            if _name(n) in {"mat_apply", "height_basis"}
            or (isinstance(n, ast.Call) and _name(n.func) == "Vector2" and id(n) not in handed_out)
        ]
    assert vectors == []
