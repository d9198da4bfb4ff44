import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polymut"
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
