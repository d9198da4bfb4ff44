import ast
import importlib
import importlib.util
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


def test_every_division_goes_through_qdiv():
    # a bare `/` on two ints is a float, and on integral Fractions keeps them
    # boxed; geom.qdiv is exact and returns an int for an integral quotient
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "geom.py":
            qdiv = next(
                n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "qdiv"
            )
            allowed = {id(n) for n in ast.walk(qdiv)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                if id(node) not in allowed:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_height_basis_calls_extgcd():
    # geom.height_basis is the one unimodular frame of a height function;
    # another extgcd call would be a second basis that can drift from it
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "geom.py":
            height_basis = next(
                n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "height_basis"
            )
            allowed = {id(n) for n in ast.walk(height_basis)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name == "extgcd" and id(node) not in allowed:
                offenders.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert offenders == []


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
