import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

try:
    import jsonschema
    from referencing import Registry, Resource
except ImportError:  # pragma: no cover
    jsonschema = None

from polymut import cli
from polymut.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "docs" / "schemas"
CORPUS = ROOT / "corpus"

P114 = '{"vertices":[["0","-1"],["1","2"],["-1","2"]]}'
P2 = '{"vertices":[[1,0],[0,1],[-1,-1]]}'
SQUARE = '{"vertices":[[0,0],[1,0],[1,1],[0,1]]}'

# a Fano triangle of accepted coordinates, each under the interpreter's
# 4,300-digit int-to-str limit, whose dual and weights have integers past it
_M, _N = 10**2999 + 7, 10**3999 + 3
WIDE = json.dumps({"vertices": [[_M, 1], [0, 1], [-_N, -_M]]})
_A = 6 * 10**4299

_HEXAGON = "x + y + x^-1 + y^-1 + x*y^-1 + x^-1*y"
_BIG = "3" + "1" * 198 + "7"  # a 200-digit coefficient
# (f, dmax) for `polymut period`: the Fano polygons of the benchmark, a
# mutation pair, rational and cancelling coefficients, supports on a
# sublattice, on a line and on one point, a wide coefficient, a far term
# and the zero polynomial, then the refused dmax on both sides
PERIOD_PINS = [
    ("x+y+x^-1*y^-1", 0), ("x+y+x^-1*y^-1", 1), ("x+y+x^-1*y^-1", 12), ("x+y+x^-1*y^-1", 40),
    ("x+x^-1+y+y^-1", 7), ("x+x^-1+y+y^-1", 40),
    (_HEXAGON, 2), (_HEXAGON, 30),
    ("y^-1 + x^-1*(1+x)^2*y^2", 9), ("y^-1 + x^-1*(1+x)^2*y^2", 30),
    ("(1+x)*y^-1 + x^-1*y^2", 9), ("(1+x)*y^-1 + x^-1*y^2", 30),
    ("1/2*x + y + x^-1*y^-1", 6), ("1/2*x + y + x^-1*y^-1", 24),
    ("2/3*x - 5/4*y + 7/6*x^-1*y^-1 + 1/9", 15),
    ("x + y - x^-1 - y^-1 + x*y^-1 - x^-1*y", 12),
    ("x^-1*y^-1 + 1 + x + y - x*y", 12),
    ("1/2*x^-1*y^-1 + 1 + 3*x + 2/3*y - 2*x*y", 10),
    ("x^2+y^3+x^-2*y^-3", 12), ("x^2+y^3+x^-2*y^-3", 36),
    ("x^2*y^2 + x^-2 + 3*y^-2 + x^4*y^-2", 16),
    ("x^3 + x^-3*y^6 + y^-3 - 2", 18),
    ("x^2 + 3 + x^-3", 20), ("x*y + x^-1*y^-1 + 2", 20), ("x^3*y^-3 - x^-2*y^2", 25),
    ("x", 5), ("7*x*y", 5), ("5", 9), ("(-3/4)", 9),
    (f"{_BIG}*x + y + x^-1*y^-1", 12), (f"x + {_BIG} + x^-1 - y^-1*{_BIG}/7 + y", 8),
    ("x^1000+x^-1+y+y^-1", 10), ("x^1000+x^-1+y+y^-1", 40),
    ("x + y", 9), ("1 + x + y", 9),
    ("0", 0), ("0", 7),
    ("x+y+x^-1*y^-1", 100),
    ("x+y", -1), ("x+y", 101),
]

# (f, g, divide, error type or None) of laurent-mutate runs: accepted on
# both axes, over a budget, and refused by the derivation of the mutation
# data, which comes before the mutation (at the parent the last five were
# refused as DivisibilityFails or the zero polynomial's mutation, or were
# accepted with t = 0, two of them printing the deformation-hypotheses
# warning)
LAURENT_MUTATE_INPUTS = [
    ("y^-1 + x^-1*(1+x)^2*y^2", "1+x", "y", None),
    ("y^-1 + x^-1*(1+x)^2*y^2", "x+x^2", "y", None),
    ("x^-1 + y^-1*(1+y)^2*x^2", "1+y", "x", None),
    ("x^-1 + y^-1*(1+y)^2*x^2", "y+y^2", "x", None),
    ("y^-1 + x^-1*y^2 + 2*y^2 + x*y^2", "1+x", "y", None),
    ("(1+x)^1000000", "1+x", "y", "DomainError"),
    ("x^-2001*y^2000 + x^2001*y^2000 + y^-1", "1+x", "y", "DomainError"),
    ("x + x^-1 + y^-1", "1+x", "y", "NotFano"),
    ("y + y^-1", "1+x", "y", "NotFano"),
    ("x + y + x^-1*y^-1", "(1+x)^2", "y", "InvalidFactor"),
    ("0", "1+x", "y", "ZeroPolynomial"),
    ("y + y^-1", "1", "y", "NotFano"),
    ("y + y^2 + x", "1", "y", "NotFano"),
]

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def _registry():
    resources = []
    for p in SCHEMA_DIR.glob("*.schema.json"):
        resources.append((p.name, Resource.from_contents(json.loads(p.read_text()))))
    return Registry().with_resources(resources)


def check_schema(obj, name):
    if jsonschema is None:  # pragma: no cover
        pytest.skip("jsonschema not installed")
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    jsonschema.Draft7Validator(schema, registry=_registry()).validate(obj)


class TestSubcommands:
    def test_hull(self, capsys):
        code, out = run_json(
            capsys, "hull", "--points", '{"vertices":[[0,0],[1,0],[0,1],[0,0]]}'
        )
        assert code == 0
        assert out == {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
        check_schema(out, "polygon")

    def test_dual(self, capsys):
        code, out = run_json(capsys, "dual", "--polygon", P2)
        assert code == 0
        assert out == {"vertices": [["-1", "-1"], ["2", "-1"], ["-1", "2"]]}
        check_schema(out, "polygon")

    def test_weights_input_order(self, capsys):
        code, out = run_json(capsys, "weights", "--polygon", P114)
        assert code == 0
        assert out == {"weights": [4, 1, 1]}
        check_schema(out, "weights")

    def test_multiplicity(self, capsys):
        code, out = run_json(capsys, "multiplicity", "--polygon", P114)
        assert code == 0
        assert out["multiplicity"] == 1
        check_schema(out, "multiplicity")

    def test_triangle(self, capsys):
        code, out = run_json(capsys, "triangle", "--weights", "1,1,4")
        assert code == 0
        check_schema(out, "polygon")

    def test_factors(self, capsys):
        code, out = run_json(capsys, "factors", "--polygon", P114)
        assert code == 0
        assert len(out["factors"]) == 3
        check_schema(out, "factors")

    def test_factors_proves_fano_once(self, capsys, monkeypatch):
        # without --w, one proof that P is Fano and one profile per edge that
        # holds a T-cone: on the (2,3,5) triangle 1 proof and 2 profiles, as
        # the edge normal (-4, -3) holds none; every normal is still listed
        from polymut import fano, mutation
        from polymut.geom import polygon_to_json, vector_to_json

        T = fano.triangle_from_weights((2, 3, 5))
        ws = mutation.factor_directions(T)
        want = [md.to_json() for w in ws for md in mutation.find_factors(T, w)]
        proofs, profiles = [], []
        is_fano, profile = fano.is_fano, mutation._Profile
        monkeypatch.setattr(fano, "is_fano", lambda P: proofs.append(P) or is_fano(P))
        monkeypatch.setattr(mutation, "_Profile", lambda *a: profiles.append(a[1]) or profile(*a))
        code, out = run_json(capsys, "factors", "--polygon", json.dumps(polygon_to_json(T)))
        assert code == 0
        assert (len(proofs), len(profiles)) == (1, 2)
        assert (-4, -3) in [(w.x, w.y) for w in ws] and (-4, -3) not in profiles
        assert out == {"factors": want, "directions": [vector_to_json(w) for w in ws]}

    def test_factors_single_direction(self, capsys):
        code, out = run_json(capsys, "factors", "--polygon", P114, "--w", "0,-1")
        assert code == 0
        assert len(out["factors"]) == 1
        assert out["factors"][0]["t"] == 1

    def test_mutate(self, capsys):
        code, out = run_json(capsys, "mutate", "--polygon", P114, "--w", "0,-1", "--t", "1")
        assert code == 0
        assert out["polygon"] == {"vertices": [["-1", "2"], ["0", "-1"], ["1", "-1"]]}
        check_schema(out, "mutate")

    @pytest.mark.parametrize("w,code,schema", [("-1,-1", 0, "mutate"), ("1,-1", 1, "error")])
    def test_mutate_proves_fano_once(self, capsys, monkeypatch, w, code, schema):
        # the factor is checked once, by mutate: one Fano proof and one
        # profile, for a factor and for a length that w has no factor of
        from polymut import fano, mutation

        proofs, profiles = [], []
        is_fano, profile = fano.is_fano, mutation._Profile
        monkeypatch.setattr(fano, "is_fano", lambda P: proofs.append(P) or is_fano(P))
        monkeypatch.setattr(mutation, "_Profile", lambda vs, w: profiles.append(w) or profile(vs, w))
        got, out = run_json(capsys, "mutate", "--polygon", P2, f"--w={w}", "--t", "1")
        assert got == code
        assert (len(proofs), profiles) == (1, [tuple(int(c) for c in w.split(","))])
        check_schema(out, schema)

    @pytest.mark.parametrize("t,code,schema", [("1", 0, "deform"), ("9", 1, "error")])
    def test_deform_w_checks_its_factor_once(self, capsys, monkeypatch, t, code, schema):
        # deform --w hands unchecked factor data to the pipeline, whose
        # mutate checks it: one profile, and one Fano proof beside the one
        # that builds the triangle from its weights
        from polymut import fano, mutation

        proofs, profiles = [], []
        is_fano, profile = fano.is_fano, mutation._Profile
        monkeypatch.setattr(fano, "is_fano", lambda P: proofs.append(P) or is_fano(P))
        monkeypatch.setattr(mutation, "_Profile", lambda vs, w: profiles.append(w) or profile(vs, w))
        got, out = run_json(capsys, "deform", "--weights", "1,1,4", "--w=2,1", "--t", t)
        assert got == code
        assert (len(proofs), profiles) == (2, [(2, 1)])
        check_schema(out, schema)

    @pytest.mark.parametrize("source,count", [
        (("--polygon", '{"vertices": [[0,-1],[1,2],[-1,2]]}'), 1),
        (("--weights", "1,1,4"), 2),
    ])
    def test_deform_without_w_proves_fano_once_before_the_pipeline(self, capsys, monkeypatch, source, count):
        # the default factor's search proves P Fano once, by mutants, and
        # reads its weights off the vertices; the pipeline's core takes the
        # chosen mutant from that search, and --weights adds the proof that
        # builds the triangle
        from polymut import fano

        proofs = []
        is_fano = fano.is_fano
        monkeypatch.setattr(fano, "is_fano", lambda P: proofs.append(P) or is_fano(P))
        code, out = run_json(capsys, "deform", *source)
        assert code == 0
        assert len(proofs) == count
        check_schema(out, "deform")

    def test_markov(self, capsys):
        code, out = run_json(capsys, "markov", "--depth", "2")
        assert code == 0
        assert out == [[1, 1, 1], [1, 1, 2], [1, 2, 5]]
        check_schema(out, "markov")

    def test_diophantine(self, capsys):
        code, out = run_json(capsys, "diophantine", "--weights", "1,1,4")
        assert code == 0
        assert out == {"c": [1, 1, 1], "k": 1, "m": 3}
        check_schema(out, "diophantine")

    def test_diophantine_large_prime_weight(self):
        # trial division stops at the cube root: about 5e5 divisions here,
        # where the square-root loop needed 5e8
        start = time.monotonic()
        r = subprocess.run(
            [sys.executable, "-m", "polymut", "diophantine", "--weights", "1,1,1000000000000000003"],
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SCHEMA_DIR.parents[1] / "src")},
        )
        elapsed = time.monotonic() - start
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        assert out == {"c": [1, 1, 1000000000000000003], "k": 1, "m": 1000000000000000005}
        check_schema(out, "diophantine")
        assert elapsed < 2.0

    def test_graph(self, capsys):
        code, out = run_json(capsys, "graph", "--polygon", P114, "--depth", "1")
        assert code == 0
        assert len(out["nodes"]) == 3
        check_schema(out, "graph")

    def test_laurent_mutate(self, capsys):
        code, out = run_json(
            capsys,
            "laurent-mutate",
            "--f",
            "y^-1 + x^-1*(1+x)^2*y^2",
            "--g",
            "1+x",
            "--divide",
            "y",
        )
        assert code == 0
        assert out["mutated"] == "x^-1*y^2 + y^-1 + x*y^-1"
        check_schema(out, "laurent_mutate")

    def test_laurent_mutate_divide_x(self, capsys):
        # dividing x by g(y) is dividing y by g(x) with x and y exchanged:
        # w = (-1, 0) and F = Newt(g) runs along +y
        code, out = run_json(
            capsys, "laurent-mutate", "--f", "x^-1 + y^-1*(1+y)^2*x^2", "--g", "1+y", "--divide", "x"
        )
        assert code == 0
        assert out["mutated"] == "x^-1 + x^-1*y + x^2*y^-1"
        md = out["mutation_data"]
        assert (md["w"], md["t"], md["f0"]) == (["-1", "0"], 1, ["0", "1"])
        assert md["F"] == {"a": ["0", "0"], "b": ["0", "1"]}
        assert out["factor_shear"] == ["0", "0"]
        check_schema(out, "laurent_mutate")

    @pytest.mark.parametrize("f, g, divide, refusal", LAURENT_MUTATE_INPUTS)
    def test_laurent_mutate_derives_first_and_never_warns(self, capsys, f, g, divide, refusal):
        # deriving the mutation data proves Newt(f) Fano: the origin is
        # inside it and f has grades on both sides of 0, so algebraic_mutate
        # has nothing to warn about
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_json(capsys, "laurent-mutate", "--f", f, "--g", g, "--divide", divide)
        assert caught == []
        assert "warnings" not in out
        if refusal is None:
            assert code == 0
            check_schema(out, "laurent_mutate")
        else:
            assert (code, out["error"]["type"]) == (1, refusal)
            check_schema(out, "error")

    def test_laurent_identity_on_non_fano_newton_polygon(self, capsys, tmp_path):
        # g = 1 is the identity t = 0, which is proved Fano as every length
        # is, so laurent-mutate and batch-verify refuse the entry alike
        code, out = run_json(capsys, "laurent-mutate", "--f", "y + y^-1", "--g", "1", "--divide", "y")
        assert code == 1
        assert out["error"] == {"type": "NotFano", "message": "operation requires a Fano polygon"}
        check_schema(out, "error")
        (tmp_path / "a.json").write_text(json.dumps({"laurent": "y + y^-1", "g": "1", "divide": "y"}))
        code, report = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 1
        check_schema(report, "batch_report")
        assert report["results"] == [
            {"file": "a.json", "check": "verify", "status": "error", "detail": out["error"]["message"]}
        ]

    def test_period(self, capsys):
        code, out = run_json(capsys, "period", "--f", "x + y + x^-1*y^-1", "--dmax", "6")
        assert code == 0
        assert out == ["1", "0", "0", "6", "0", "0", "90"]
        check_schema(out, "period")

    def test_divpoly(self, capsys):
        code, out = run_json(
            capsys, "divpoly", "--polygon", '{"vertices":[[-6,2],[6,2],[0,-1]]}'
        )
        assert code == 0
        assert out["box"] == ["-6", "6"]
        check_schema(out, "divpoly")

    def test_deform_by_weights(self, capsys):
        code, out = run_json(capsys, "deform", "--weights", "1,1,4")
        assert code == 0
        assert out["corollary"]["passed"] is True
        check_schema(out, "deform")

    def test_deform_explicit(self, capsys):
        code, out = run_json(
            capsys, "deform", "--polygon", P114, "--w", "0,-1", "--t", "1"
        )
        assert code == 0
        assert out["dilation"] == 2
        check_schema(out, "deform")

    def test_factors_of_deep_markov_node_are_small(self, capsys, p2_triangle):
        # the depth-5 class (841, 187489, 1418727556) reaches height -37,666
        # along w = (-4, -1); factor JSON must not grow with the height range
        from polymut.geom import polygon_to_json
        from polymut.mutation import mutation_graph

        g = mutation_graph(p2_triangle, 5)
        node = next(n for n in g.nodes if sorted(n.weights) == [841, 187489, 1418727556])
        code, out = run_json(
            capsys, "factors", "--polygon", json.dumps(polygon_to_json(node.polygon))
        )
        assert code == 0
        assert out["factors"]
        for md in out["factors"]:
            assert set(md) == {"w", "t", "f0", "F", "convention"}
            assert len(json.dumps(md)) < 1024
        check_schema(out, "factors")

    def test_check_corollary_roundtrip(self, capsys, tmp_path):
        code, cert = run_json(capsys, "deform", "--weights", "1,1,4")
        assert code == 0
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, out = run_json(capsys, "check-corollary", "--certificate", str(path))
        assert code == 0
        assert out["passed"] is True
        check_schema(out, "corollary")

    def test_check_corollary_failed_exit_1(self, capsys):
        # a failed check exits 1, as deform and batch-verify do, and its
        # report is still the corollary object
        part = {"breaks": [0, 3, 6], "values": [0, 5, 0]}
        cert = {"decomposition": {"label": "inf", "part0": part, "part1": part}}
        code, out = run_json(capsys, "check-corollary", "--certificate", json.dumps(cert))
        assert code == 1
        assert out["passed"] is False
        check_schema(out, "corollary")

    # a triangle of the K^2 = 8 family, weights (a^2, b^2, 2c^2) with
    # a^2 + b^2 + 2c^2 = 4abc; its last weight used to need trial division
    # past SQUAREFREE_TRIAL_LIMIT
    K2_EIGHT = "551357361,219438844249,967913776088168931842"

    def test_diophantine_k2_eight_family(self, capsys):
        code, out = run_json(capsys, "diophantine", "--weights", self.K2_EIGHT)
        assert code == 0
        assert out == {"c": [1, 1, 2], "k": 1, "m": 4}
        check_schema(out, "diophantine")

    def test_deform_k2_eight_family(self, capsys):
        code, out = run_json(capsys, "deform", "--weights", self.K2_EIGHT)
        assert code == 0
        assert out["corollary"]["passed"] is True
        check_schema(out, "deform")


class TestInputModes:
    def test_polygon_from_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(P114)
        code, out = run_json(capsys, "weights", "--polygon", str(path))
        assert code == 0
        assert out == {"weights": [4, 1, 1]}

    def test_polygon_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(P114))
        code, out = run_json(capsys, "weights", "--polygon", "-")
        assert code == 0
        assert out == {"weights": [4, 1, 1]}


# Fano polygons, a non-primitive vertex, rational vertices, a segment, a
# non-Fano square and the origin on a vertex: the inputs of the pinned sweeps
SWEEP_POLYGONS = [
    [[1, 0], [0, 1], [-1, -1]], [[-1, -1], [1, -1], [-1, 4]], [[1, 0], [0, 1], [-1, 0], [0, -1]],
    [[-2, 1], [2, 1], [1, -1], [-1, -1]], [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
    [[2, 0], [0, 1], [-1, -1]], [["1/2", 0], [0, 1], [-1, -1]], [[1, 0], [-1, 0]],
    [[-3, -2], [3, -2], [1, 3]], [[0, 0], [1, 0], [0, 1]],
]


class TestErrorsAndDeterminism:
    def test_mutate_sweep_output_pinned(self, capsys):
        # every success and every refusal of `mutate` over polygons x w x t:
        # 2,940 calls, 219 of them mutants, whose exit codes and stdout
        # bytes are pinned by one digest
        h, codes = hashlib.sha256(), []
        for vs in SWEEP_POLYGONS:
            for p in range(-3, 4):
                for q in range(-3, 4):
                    for t in ("-1", "0", "1", "2", "3", "5"):
                        code, out = run(capsys, "mutate", "--polygon", json.dumps({"vertices": vs}), f"--w={p},{q}", "--t", t)
                        h.update(f"{code}|{out}".encode())
                        codes.append(code)
        assert (len(codes), codes.count(0)) == (2940, 219)
        assert h.hexdigest() == "4b8f04d713bac37d03adb0f61626e47d3762b9921727aec41014d2096137da45"

    def test_polygon_commands_output_pinned(self, capsys):
        # every polygon command on the inputs of the mutate sweep, and
        # `deform` by each factor that `factors` lists: exit codes and stdout
        # bytes of each success and each refusal, by one digest
        commands = [
            ("hull", "--points"), ("dual", "--polygon"), ("weights", "--polygon"),
            ("multiplicity", "--polygon"), ("factors", "--polygon"), ("divpoly", "--polygon"),
            ("deform", "--polygon"), ("deform", "--dilation", "6", "--polygon"),
        ]
        h, codes = hashlib.sha256(), []
        for vs in SWEEP_POLYGONS:
            polygon, factors = json.dumps({"vertices": vs}), []
            for command in commands:
                code, out = run(capsys, *command, polygon)
                h.update(f"{code}|{out}".encode())
                codes.append(code)
                if command[0] == "factors" and code == 0:
                    factors = json.loads(out)["factors"]
            for md in factors:
                w = "--w=" + ",".join(md["w"])
                for dilation in ("auto", "6"):
                    code, out = run(capsys, "deform", w, "--t", str(md["t"]), "--dilation", dilation, "--polygon", polygon)
                    h.update(f"{code}|{out}".encode())
                    codes.append(code)
        assert (len(codes), codes.count(0)) == (138, 48)
        assert h.hexdigest() == "9210577124e3f832245da739341c618f43fd6db487a682529e456743ae362dcc"

    def test_polygon_reader_sweep_output_pinned(self, capsys, monkeypatch):
        # [argv, exit code, stdout] of every command that reads or writes a
        # polygon as JSON: the coprime triangles with c <= 15 in both vertex
        # orders, seeded rational point sets, malformed vertex lists,
        # Laurent mutations, the corpus and mutation graphs, by one digest;
        # the corpus is named relative to the repository root, so the digest
        # holds wherever the checkout lies
        monkeypatch.chdir(ROOT)
        triangle_commands = ("weights", "multiplicity", "dual", "divpoly", "factors")
        argvs = []
        for c in range(1, 16):
            for b in range(1, c + 1):
                for a in range(1, b + 1):
                    if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
                        cyc = cli.triangle_from_weights((a, b, c)).cycle
                        for order in (cyc, cyc[::-1]):
                            polygon = json.dumps({"vertices": [list(v) for v in order]})
                            argvs += [[command, "--polygon", polygon] for command in triangle_commands]
                        polygon = json.dumps({"vertices": [list(v) for v in cyc]})
                        argvs += [["hull", "--points", polygon], ["deform", "--polygon", polygon]]
        rng = random.Random(42)
        coords = [*range(-3, 4), "1/2", "-1/2", "2/3", "-3/2", "5/3", "-7/4"]
        for _ in range(400):
            polygon = json.dumps({"vertices": [[rng.choice(coords), rng.choice(coords)] for _ in range(rng.randint(1, 6))]})
            argvs += [["hull", "--points", polygon]]
            argvs += [[command, "--polygon", polygon] for command in triangle_commands]
        malformed = [
            {"vertices": [[1]]}, {"vertices": [[1, 2, 3]]}, {"vertices": [5]}, {"vertices": [[True, 1]]},
            {"vertices": [["a", 1]]}, {"vertices": []}, [[1, 0], [0, 1], [-1, -1]],
            {"vertices": [[1, 0], [0, 1], [-1, -1]], "extra": 1},
        ]
        for obj in malformed:
            polygon = json.dumps(obj)
            argvs += [["hull", "--points", polygon]]
            argvs += [[command, "--polygon", polygon] for command in ("dual", "weights", "multiplicity", "factors", "divpoly", "deform")]
            argvs += [["mutate", "--polygon", polygon, "--w", "0,-1"]]
        for f, g, divide in [
            ("x^-1 + y^-1*(1+y)^2*x^2", "1+y", "x"), ("x^-1 + y^-1*(1+y)^2*x^2", "y+y^2", "x"),
            ("y^-1 + x^-1*(1+x)^2*y^2", "1+x", "y"), ("y^-1 + x^-1*(1+x)^2*y^2", "x+x^2", "y"),
            ("x + y + x^-1*y^-1", "1+x", "y"),
        ]:
            argvs += [["laurent-mutate", "--f", f, "--g", g, "--divide", divide]]
        corpus = CORPUS.relative_to(ROOT).as_posix()
        argvs += [["batch-verify", corpus], ["--format", "table", "batch-verify", corpus]]
        argvs += [["graph", "--weights", w, "--depth", "3"] for w in ("1,1,1", "1,1,4", "1,2,3", "2,3,5")]
        h, codes = hashlib.sha256(), []
        for argv in argvs:
            code, out = run(capsys, *argv)
            h.update(json.dumps([argv, code, out]).encode())
            codes.append(code)
        assert (len(codes), codes.count(0)) == (4563, 2480)
        assert h.hexdigest() == "a1bf92c82ddd02ca5043ccff16b9f50ec5594aa5bb055120f43459b6fcfe188a"

    def test_domain_error_exit_1(self, capsys):
        code, out = run_json(capsys, "dual", "--polygon", '{"vertices":[[1,0],[0,1],[2,2]]}')
        assert code == 1
        assert out["error"]["type"] == "OriginNotInterior"
        check_schema(out, "error")

    @pytest.mark.parametrize("command", ["factors", "deform"])
    @pytest.mark.parametrize("vertices", [[[1, 0]], [[1, 0], [0, 1]]], ids=["point", "segment"])
    def test_polygon_that_is_not_full_dimensional_is_not_fano(self, capsys, command, vertices):
        # a point or a segment has no normal fan, so no factor directions,
        # and is refused before any factor is looked for
        polygon = json.dumps({"vertices": vertices})
        code, out = run_json(capsys, command, "--polygon", polygon)
        assert code == 1
        assert out["error"] == {"message": "operation requires a Fano polygon", "type": "NotFano"}
        check_schema(out, "error")

    @pytest.mark.parametrize("command", ["factors", "deform"])
    @pytest.mark.parametrize(
        "vertices",
        [[["1/2", 0], [0, 1], [-1, -1]], [["1/2", "1/2"], ["3/2", "1/2"], ["1/2", "3/2"]]],
        ids=["non-integral-edges", "translated"],
    )
    def test_polygon_that_is_not_lattice_is_not_fano(self, capsys, command, vertices):
        # a polygon with a non-integral vertex is refused as not Fano whether
        # or not its edges are integral, naming nothing outside the input
        polygon = json.dumps({"vertices": vertices})
        code, out = run_json(capsys, command, "--polygon", polygon)
        assert code == 1
        assert out["error"] == {"message": "operation requires a Fano polygon", "type": "NotFano"}

    @pytest.mark.parametrize(
        "vertices, error",
        [([[1, 0], [0, 1], [-1, 0], [0, -1]], "NotATriangle"), ([[2, 0], [0, 1], [-1, -1]], "NotFano")],
        ids=["four-vertices", "non-primitive-vertex"],
    )
    def test_weights_refuses_what_is_no_fano_triangle(self, capsys, vertices, error):
        code, out = run_json(capsys, "weights", "--polygon", json.dumps({"vertices": vertices}))
        assert code == 1
        assert out["error"]["type"] == error
        check_schema(out, "error")

    def test_weights_of_a_clockwise_triangle_in_input_order(self, capsys):
        # the (1, 2, 3) triangle listed clockwise: its vertex minors are all
        # negative and are negated, not sorted
        code, out = run_json(capsys, "weights", "--polygon", '{"vertices":[[0,1],[1,0],[-2,-3]]}')
        assert code == 0
        assert out == {"weights": [3, 2, 1]}
        check_schema(out, "weights")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["mutate", "--polygon", P2, "--w", "0,-1", "--t", "5"], "InvalidFactor"),
            (["graph", "--polygon", P2, "--depth", "-1"], "DomainError"),
            (["mutate", "--polygon", P2, "--w", "1"], "DomainError"),
            (["factors", "--polygon", P2, "--w", "1"], "DomainError"),
            # factor_for runs mutate's check: a negative length is refused,
            # and the identity --t 0 proves the polygon Fano, before deform
            # would refuse this square as no triangle
            (["mutate", "--polygon", P2, "--w", "0,-1", "--t", "-1"], "InvalidFactor"),
            (["deform", "--polygon", P2, "--w", "0,-1", "--t", "-1"], "InvalidFactor"),
            (["mutate", "--polygon", SQUARE, "--w", "0,-1", "--t", "0"], "NotFano"),
            (["deform", "--polygon", SQUARE, "--w", "0,-1", "--t", "0"], "NotFano"),
            (["graph", "--depth", "1"], "DomainError"),
            (["deform"], "DomainError"),
        ],
        ids=[
            "factor-too-long",
            "negative-depth",
            "mutate-w-one-number",
            "factors-w-one-number",
            "mutate-negative-t",
            "deform-negative-t",
            "mutate-identity-not-fano",
            "deform-identity-not-fano",
            "graph-without-polygon",
            "deform-without-polygon",
        ],
    )
    def test_refused_options_exit_1(self, capsys, argv, error):
        code, out = run_json(capsys, *argv)
        assert code == 1
        assert out["error"]["type"] == error
        check_schema(out, "error")

    def test_bad_json_exit_1(self, capsys):
        code, out = run_json(capsys, "dual", "--polygon", "{nope")
        assert code == 1
        check_schema(out, "error")

    @pytest.mark.parametrize("command, option", [("dual", "--polygon"), ("check-corollary", "--certificate")])
    def test_deeply_nested_json_exit_1(self, capsys, tmp_path, command, option):
        # json.loads raises RecursionError, which is no ValueError, on JSON
        # nested past the recursion limit; it used to end in a traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out = run_json(capsys, command, option, str(deep))
        assert code == 1
        assert out["error"]["type"] == "DomainError"
        assert out["error"]["message"].startswith("invalid JSON: ")
        check_schema(out, "error")

    @pytest.mark.parametrize(
        "argv",
        [["period", "--dmax", "2", "--f"], ["laurent-mutate", "--g", "1+x", "--divide", "y", "--f"]],
        ids=["period", "laurent-mutate"],
    )
    def test_nesting_past_the_parse_depth_budget_exit_1(self, capsys, argv):
        # 5,000 nested parentheses used to end in a RecursionError traceback
        from polymut.laurent import PARSE_DEPTH_LIMIT as n

        f = "y^-1 + x^-1*y^2 + 2*y^2 + x*y^2"
        code, out = run_json(capsys, *argv, "(" * 5000 + f + ")" * 5000)
        assert code == 1
        assert out["error"] == {
            "type": "LaurentSyntaxError",
            "message": f"nesting exceeds the parse budget PARSE_DEPTH_LIMIT = {n} at offset {n}",
        }
        check_schema(out, "error")
        # at the budget, with the caller's frames of this test runner
        code, out = run_json(capsys, *argv, "(" * n + f + ")" * n)
        assert code == 0
        code, flat = run_json(capsys, *argv, f)
        assert out == flat

    def test_deep_nesting_subprocess_has_no_traceback(self, tmp_path):
        # the same inputs from a fresh interpreter: exit 1, error JSON on
        # stdout and nothing on stderr
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        for argv in (
            ["dual", "--polygon", str(deep)],
            ["check-corollary", "--certificate", str(deep)],
            ["period", "--dmax", "2", "--f", "(" * 5000 + "x" + ")" * 5000],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "polymut", *argv], capture_output=True, text=True, env=env, timeout=60
            )
            assert (proc.returncode, proc.stderr) == (1, ""), argv[0]
            check_schema(json.loads(proc.stdout), "error")

    def test_non_numeric_coordinate_exit_1(self, capsys):
        code, out = run_json(
            capsys, "dual", "--polygon", '{"vertices":[["a","b"],[0,1],[-1,-1]]}'
        )
        assert code == 1
        assert out["error"]["type"] == "DomainError"
        check_schema(out, "error")

    def test_graph_over_class_budget_exit_1(self, capsys, monkeypatch):
        # a graph that would pass its class budget ends in exit 1, not in a
        # run without end; P(1,2,3) at depth 9 would pass the real budget
        from polymut import mutation

        monkeypatch.setattr(mutation, "GRAPH_CLASS_LIMIT", 10)
        code, out = run_json(capsys, "graph", "--weights", "1,2,3", "--depth", "9")
        assert code == 1
        assert out["error"]["type"] == "DomainError"
        assert "GRAPH_CLASS_LIMIT = 10" in out["error"]["message"]
        check_schema(out, "error")

    def test_period_dmax_over_budget_exit_1(self, capsys):
        code, out = run_json(capsys, "period", "--f", "x+y", "--dmax", "10000000000")
        assert code == 1
        assert out["error"]["type"] == "DomainError"
        assert "PERIOD_DMAX_LIMIT" in out["error"]["message"]
        check_schema(out, "error")

    @pytest.mark.parametrize(
        "argv, budget",
        [
            (["markov", "--depth", "40"], "VIETA_DEPTH_LIMIT"),
            (["markov", "--depth", "17"], "VIETA_DEPTH_LIMIT"),
            (["period", "--f", "(x+y+x^-1*y^-1)^400", "--dmax", "0"], "PARSE_POWER_LIMIT"),
            (["laurent-mutate", "--f", "(1+x)^1000000", "--g", "1+x", "--divide", "y"], "PARSE_POWER_LIMIT"),
            (["period", "--f", "(x+y+x^-1*y^-1)^99(x+y+x^-1*y^-1)^99", "--dmax", "0"], "PARSE_POWER_LIMIT"),
            (["period", "--f", "(x+y+x^-1*y^-1)^6", "--dmax", "100"], "PERIOD_WORK_LIMIT"),
            # a Fano Newton polygon whose grade 2000 needs (1+x)^2000
            (
                ["laurent-mutate", "--f", "x^-2001*y^2000 + x^2001*y^2000 + y^-1", "--g", "1+x", "--divide", "y"],
                "PARSE_POWER_LIMIT",
            ),
        ],
    )
    def test_work_over_budget_refused_before_it_starts(self, capsys, argv, budget):
        start = time.monotonic()
        code, out = run_json(capsys, *argv)
        assert time.monotonic() - start < 0.5
        assert code == 1
        assert out["error"]["type"] == "DomainError"
        assert budget in out["error"]["message"]
        check_schema(out, "error")

    def test_division_stops_at_the_budget(self, capsys):
        # grade 1 is 1 + x^(2*10^7) over 1+x: its division would take
        # 2*10^7 + 1 steps, about a minute, before it found no quotient.
        # Each step measures 3, so it stops some 166,000 steps in
        start = time.monotonic()
        code, out = run_json(capsys, "laurent-mutate", "--f", "x^-10000000*y + x^10000000*y + y^-1", "--g", "1+x", "--divide", "y")
        assert time.monotonic() - start < 2
        assert code == 1
        assert out["error"] == {"type": "DomainError", "message": "division steps pass the budget PARSE_POWER_LIMIT = 500000"}
        check_schema(out, "error")

    @pytest.mark.parametrize("missing", ["label", "part0", "part1"])
    def test_check_corollary_missing_field_exit_1(self, capsys, missing):
        code, cert = run_json(capsys, "deform", "--weights", "1,1,4")
        assert code == 0
        del cert["decomposition"][missing]
        code, out = run_json(capsys, "check-corollary", "--certificate", json.dumps(cert))
        assert code == 1
        assert repr(missing) in out["error"]["message"]
        check_schema(out, "error")

    def test_check_corollary_domain_mismatch_exit_1(self, capsys):
        # part0 + part1 is undefined when the parts' domains differ
        part0 = {"breaks": ["1", "6"], "values": ["0", "0"]}
        part1 = {"breaks": ["0", "3", "6"], "values": ["0", "0", "0"]}
        cert = {"decomposition": {"label": "inf", "part0": part0, "part1": part1}}
        code, out = run_json(capsys, "check-corollary", "--certificate", json.dumps(cert))
        assert code == 1
        assert out["error"]["type"] == "DomainMismatch"
        check_schema(out, "error")

    @pytest.mark.parametrize("command", ["mutate", "deform"])
    @pytest.mark.parametrize("t", ["0", "1"])
    def test_non_primitive_w_exit_1(self, capsys, command, t):
        # the identity factor --t 0 used to primitivize --w silently
        code, out = run_json(capsys, command, "--polygon", P2, "--w=0,-2", "--t", t)
        assert code == 1
        assert out["error"]["type"] == "NotPrimitive"
        check_schema(out, "error")

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([["1/2", 0], [0, 1], [-1, -1]], "triangle vertex is not a lattice point: (1/2, 0)"),
            ([[1, 0], [0, 1], [1, 1]], "vertices do not positively span the plane around the origin"),
        ],
        ids=["non-lattice", "origin-outside"],
    )
    def test_multiplicity_of_non_fano_triangle_exit_1(self, capsys, vertices, message):
        code, out = run_json(capsys, "multiplicity", "--polygon", json.dumps({"vertices": vertices}))
        assert code == 1
        assert out["error"] == {"type": "NotFano", "message": message}
        check_schema(out, "error")

    def test_check_corollary_parameter_label(self, capsys):
        # a parameter point s is read as a label of its own; the check reads
        # only the parts, so it passes as the certificate's inf does
        code, cert = run_json(capsys, "deform", "--weights", "1,1,4")
        assert code == 0
        reports = []
        for label in ("inf", "s"):
            cert["decomposition"]["label"] = label
            code, out = run_json(capsys, "check-corollary", "--certificate", json.dumps(cert))
            assert code == 0
            check_schema(out, "corollary")
            reports.append(out)
        assert reports[0] == reports[1] and reports[1]["passed"] is True

    @pytest.mark.parametrize(
        "label, part0, message",
        [
            ("", {"breaks": [0, 1], "values": [0, 0]}, "bad parameter label: ''"),
            ("inf", {"values": [0, 0]}, "PL function JSON needs 'breaks' and 'values'"),
        ],
        ids=["empty-label", "part-without-breaks"],
    )
    def test_check_corollary_bad_decomposition_exit_1(self, capsys, label, part0, message):
        part1 = {"breaks": [0, 1], "values": [0, 0]}
        cert = {"decomposition": {"label": label, "part0": part0, "part1": part1}}
        code, out = run_json(capsys, "check-corollary", "--certificate", json.dumps(cert))
        assert code == 1
        assert out["error"] == {"type": "DomainError", "message": message}
        check_schema(out, "error")

    def test_check_corollary_bool_break_exit_1(self, capsys):
        # JSON true is no exact rational; it used to be read as 1
        part = {"breaks": [0, 6], "values": [0, 0]}
        cert = {"decomposition": {"label": "inf", "part0": {"breaks": [True, 6], "values": [0, 6]}, "part1": part}}
        code, out = run_json(capsys, "check-corollary", "--certificate", json.dumps(cert))
        assert code == 1
        assert out["error"] == {"type": "DomainError", "message": "not an exact rational: True"}
        check_schema(out, "error")

    @pytest.mark.parametrize(
        "part1, message",
        [
            ({"breaks": [0, 1], "values": 5}, "PL function 'values' must be a list: 5"),
            ({"breaks": "01", "values": [0, 0]}, "PL function 'breaks' must be a list: '01'"),
        ],
        ids=["number", "string"],
    )
    def test_check_corollary_non_list_exit_1(self, capsys, part1, message):
        # a number used to end in a TypeError traceback, and a string was
        # read character by character as a list of breakpoints
        part0 = {"breaks": [0, 1], "values": [0, 0]}
        cert = {"decomposition": {"label": "inf", "part0": part0, "part1": part1}}
        code, out = run_json(capsys, "check-corollary", "--certificate", json.dumps(cert))
        assert code == 1
        assert out["error"] == {"type": "DomainError", "message": message}
        check_schema(out, "error")

    @pytest.mark.parametrize("label", [5, None, ["inf"]])
    def test_check_corollary_non_string_label_exit_1(self, capsys, label):
        # JSON 5 used to become a parameter point named 5
        part = {"breaks": [0, 1], "values": [0, 0]}
        cert = {"decomposition": {"label": label, "part0": part, "part1": part}}
        code, out = run_json(capsys, "check-corollary", "--certificate", json.dumps(cert))
        assert code == 1
        assert out["error"] == {"type": "DomainError", "message": f"point label must be a string: {label!r}"}
        check_schema(out, "error")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dual", "--polygon", WIDE],
            ["weights", "--polygon", WIDE],
            ["--format", "table", "weights", "--polygon", WIDE],
        ],
        ids=["dual", "weights-json", "weights-table"],
    )
    def test_output_integer_past_the_digit_limit_exit_1(self, capsys, argv):
        # str() of the dual's Fractions fails in the handler, and of the raw
        # weight integers in the output step; both end in one error object
        code, out = run_json(capsys, *argv)
        assert code == 1
        assert out["error"]["type"] == "DomainError"
        assert "too long to print" in out["error"]["message"]
        check_schema(out, "error")

    def test_output_integer_past_the_digit_limit_in_a_child_exit_1(self):
        r = subprocess.run(
            [sys.executable, "-m", "polymut", "dual", "--polygon", WIDE],
            capture_output=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(SCHEMA_DIR.parents[1] / "src")},
        )
        assert r.returncode == 1
        assert r.stderr == b""
        out = json.loads(r.stdout)
        assert "too long to print" in out["error"]["message"]
        check_schema(out, "error")

    def test_other_value_errors_propagate(self, monkeypatch):
        # only the digit-limit ValueError becomes an error object
        import polymut.cli

        def refuse(P):
            raise ValueError("not a digit limit")

        monkeypatch.setattr(polymut.cli, "dual", refuse)
        with pytest.raises(ValueError, match="not a digit limit"):
            main(["dual", "--polygon", P2])

    @pytest.mark.parametrize(
        "argv",
        [
            ["dual", "--polygon", '{"vertices":[["1e5000",0],[0,1],[-1,-1]]}'],
            ["dual", "--polygon", '{"vertices":[["1.5",0],[0,1],[-1,-1]]}'],
            ["dual", "--polygon", '{"vertices":[[%s,0],[0,1],[-1,-1]]}' % ("7" * 5000)],
            ["period", "--f", "%s*x+y+x^-1*y^-1" % ("7" * 5000), "--dmax", "1"],
            ["period", "--f", "x^%s+y" % ("7" * 5000), "--dmax", "1"],
            ["period", "--f", "2\u00b2*x+y", "--dmax", "2"],
            ["period", "--f", "\u0663*x+y", "--dmax", "2"],
            ["deform", "--weights", "1,1,4", "--dilation", "two"],
        ],
        ids=[
            "exponent-string",
            "decimal-string",
            "json-5000-digit-integer",
            "laurent-5000-digit-coefficient",
            "laurent-5000-digit-exponent",
            "laurent-superscript-digit",
            "laurent-non-ascii-digit",
            "non-integer-dilation",
        ],
    )
    def test_unreadable_number_exit_1(self, capsys, argv):
        code, out = run_json(capsys, *argv)
        assert code == 1
        check_schema(out, "error")

    @pytest.mark.parametrize(
        "argv",
        [
            ["triangle", "--weights", "\u0661,+1,1_0"],
            ["deform", "--weights", "1,1,4", "--dilation", "\u0666"],
        ],
        ids=["weights-digit-sign-underscore", "non-ascii-dilation"],
    )
    def test_integer_option_outside_the_schema_grammar_exit_1(self, capsys, argv):
        code, out = run_json(capsys, *argv)
        assert code == 1
        check_schema(out, "error")

    @pytest.mark.parametrize("depth", ["\u0663", "+3"], ids=["non-ascii-digit", "plus-sign"])
    def test_integer_argument_outside_the_schema_grammar_exit_2(self, capsys, depth):
        with pytest.raises(SystemExit) as ei:
            main(["graph", "--weights", "1,1,1", "--depth", depth])
        assert ei.value.code == 2
        assert "invalid integer value" in capsys.readouterr().err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["mutate", "--polygon", P114, "--bogus-flag"])
        assert ei.value.code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["frobnicate"])
        assert ei.value.code == 2

    def test_markov_output_digest(self, capsys):
        # stdout and exit code of `markov --depth d` for d = 0..12, pinned so
        # that a change to the Vieta tree keeps the output byte for byte
        h = hashlib.sha256()
        for d in range(13):
            code, out = run(capsys, "markov", "--depth", str(d))
            h.update(f"{d}\0{code}\0{out}".encode())
        assert h.hexdigest() == "8fcc4003c1a8ef87be5170f03d2019ab7db77621f75e2247e9fba377ebd21c51"

    def test_period_output_digest(self, capsys):
        # stdout and exit code of `period --f F --dmax d` over PERIOD_PINS,
        # pinned so that a change to the period kernel keeps the output
        # byte for byte
        h = hashlib.sha256()
        for f, d in PERIOD_PINS:
            code, out = run(capsys, "period", "--f", f, "--dmax", str(d))
            h.update(f"{f}\0{d}\0{code}\0{out}".encode())
        assert h.hexdigest() == "b831646e20227748089cfc8d03c8639bdfc6068551c922161c3c27935bb76ca4"

    def test_byte_determinism(self, capsys):
        _, out1 = run(capsys, "deform", "--weights", "1,1,4")
        _, out2 = run(capsys, "deform", "--weights", "1,1,4")
        assert out1 == out2

    def test_table_format(self, capsys):
        code, out = run(capsys, "weights", "--polygon", P114, "--format", "table")
        assert code == 0
        assert "weights" in out and "{" not in out


class TestBatchVerify:
    def test_shipped_corpus_passes(self, capsys):
        corpus = Path(__file__).resolve().parents[1] / "corpus"
        code, out = run_json(capsys, "batch-verify", str(corpus))
        assert code == 0
        assert out["failed"] == 0
        assert out["passed"] > 0
        check_schema(out, "batch_report")

    def test_corrupted_file(self, capsys, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 1
        assert out["results"][0]["status"] == "error"
        check_schema(out, "batch_report")

    @pytest.mark.parametrize(
        "bad",
        [
            '{"laurent": "y^-1 + x^-1*(1+x)^2*y^2", "divide": "y"}',
            '{"weights": [1, 1]}',
            '{"laurent": 5, "g": "1+x"}',
            '{"laurent": "%s*x+y+x^-1*y^-1", "g": "1+x"}' % ("7" * 5000),
            '{"weights": [1, 1, %s]}' % ("7" * 5000),
            '{"vertices": [["1e0", 0], [0, 1], [-1, -1]]}',
            # accepted 4,300-digit coordinates whose edge normal, printed in
            # a row tag, has 4,301 digits
            '{"vertices": [["%s", "1"], ["-%s", "-1"], ["-1", "0"]]}' % (_A, _A - 1),
            "[" * 100_000 + "]" * 100_000,
            '{"laurent": "%sx+y+x^-1*y^-1%s", "g": "1+x"}' % ("(" * 5000, ")" * 5000),
        ],
        ids=[
            "laurent-without-g",
            "two-weights",
            "laurent-not-a-string",
            "laurent-5000-digit-coefficient",
            "json-5000-digit-integer",
            "exponent-string",
            "output-integer-past-the-digit-limit",
            "json-100000-levels-deep",
            "laurent-5000-levels-deep",
        ],
    )
    def test_bad_entry_reported_and_batch_continues(self, capsys, tmp_path, bad):
        corpus = Path(__file__).resolve().parents[1] / "corpus"
        for entry in corpus.glob("*.json"):
            (tmp_path / entry.name).write_text(entry.read_text())
        (tmp_path / "bad.json").write_text(bad)
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 1
        check_schema(out, "batch_report")
        bad_rows = [r for r in out["results"] if r["file"] == "bad.json"]
        assert [r["status"] for r in bad_rows] == ["error"]
        others = [r for r in out["results"] if r["file"] != "bad.json"]
        assert {r["file"] for r in others} == {p.name for p in corpus.glob("*.json")}
        assert all(r["status"] == "pass" for r in others)

    def test_report_digest(self, capsys, tmp_path):
        # every pairwise-coprime triple with c <= 12, the hexagon, P^2/Z3
        # and the shipped entries: the report's stdout is pinned, so every
        # row, tag, status and detail stays byte for byte
        for c in range(1, 13):
            for b in range(1, c + 1):
                for a in range(1, b + 1):
                    if math.gcd(a, b) == math.gcd(b, c) == math.gcd(a, c) == 1:
                        (tmp_path / f"w_{a}_{b}_{c}.json").write_text(json.dumps({"weights": [a, b, c]}))
        hexagon = [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]
        (tmp_path / "hexagon.json").write_text(json.dumps({"vertices": hexagon}))
        (tmp_path / "p2_mod_3.json").write_text(json.dumps({"vertices": [[-1, -1], [2, -1], [-1, 2]]}))
        for entry in CORPUS.glob("*.json"):
            (tmp_path / entry.name).write_text(entry.read_text())
        code, out = run(capsys, "batch-verify", str(tmp_path))
        assert code == 0
        assert len(json.loads(out)["results"]) == 1270
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c25faa5972a9e24deee343d5b9a14a4c0966529e6605f7fa7bcc8dbf9f08a107"
        )

    def test_mutants_are_not_proved_fano_again(self, capsys, tmp_path, monkeypatch):
        # each entry proves T Fano through weights(T) and once more through
        # mutation.mutants, whose mutants the certificates take; a mutant's
        # weights are read off its vertices
        from polymut import fano

        calls = []
        is_fano = fano.is_fano
        monkeypatch.setattr(fano, "is_fano", lambda P: calls.append(P) or is_fano(P))
        total = 0
        for weights in ((1, 1, 4), (1, 4, 25), (2, 3, 5)):
            T = fano.triangle_from_weights(weights)
            del calls[:]
            rows = cli._verify_polygon(tmp_path / "t.json", T)
            certified = sum(r["check"].startswith("deformation-certificate") for r in rows)
            assert len(calls) == 2, weights
            total += certified
        assert total == 2

    @pytest.mark.parametrize("entry,rows", [
        ({}, 2),
        ({"divide": "x", "laurent": "x^-1 + y^-1*(1+y)^2*x^2", "g": "1+y"}, 2),
        ({"g": "(1+x)^5"}, 1),
        ({"laurent": "x + y", "g": "1"}, 1),
    ])
    def test_laurent_entry_proves_fano_once(self, capsys, tmp_path, monkeypatch, entry, rows):
        # a Laurent entry's mutation data are checked by the mutate that
        # builds Newt(f)'s mutant: one proof that Newt(f) is Fano, also for
        # an entry that the check refuses (t past t_max, Newt(f) not Fano)
        from polymut import fano

        proofs = []
        is_fano = fano.is_fano
        monkeypatch.setattr(fano, "is_fano", lambda P: proofs.append(P) or is_fano(P))
        obj = {**json.loads((CORPUS / "laurent_p114.json").read_text()), **entry}
        (tmp_path / "entry.json").write_text(json.dumps(obj))
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert len(proofs) == 1 and len(out["results"]) == rows
        assert code == (0 if rows == 2 else 1)
        check_schema(out, "batch_report")

    def test_dual_map_image_without_interior_origin_fails_its_row(self, capsys, tmp_path, monkeypatch):
        # the check compares dual_map(md, T*) with dual(Q), so an image that
        # is no dual of anything fails its own row, and the entry's other
        # rows are still reported
        from polymut.geom import Vector2

        monkeypatch.setattr(cli._module("mutation"), "dual_map", lambda md, Q: Q.translate(Vector2(5, 5)))
        (tmp_path / "p114.json").write_text(P114)
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 1
        check_schema(out, "batch_report")
        statuses = {r["check"].split(" [")[0]: set() for r in out["results"]}
        for r in out["results"]:
            statuses[r["check"].split(" [")[0]].add(r["status"])
        assert statuses == {
            "dual-involution": {"pass"},
            "dual-area": {"pass"},
            "duality-commutation": {"fail"},
            "diophantine-constancy": {"pass"},
            "deformation-certificate": {"pass"},
        }

    LAURENT_ENTRIES = [
        {"laurent": "x^-1 + y^-1*(1+y)^2*x^2", "g": "1+y", "divide": "x"},
        {"laurent": "x^-1 + y^-1*(1+y)^2*x^2", "g": "y+y^2", "divide": "x"},
        {"laurent": "y^-1 + x^-1*(1+x)^2*y^2", "g": "x+x^2", "divide": "y"},
        {"laurent": "y^-1 + x^-1*(1+x)^2*y^2", "g": "x^3+x^4", "divide": "y"},
        {"laurent": "x^-1 + y^-1*(1+y)^2*x^2", "g": "y^-2+y^-1", "divide": "x"},
    ]

    def test_laurent_entries_on_both_axes(self, capsys, tmp_path):
        # dividing x, with g with and without a constant term, and dividing
        # y by a g without one, which is checked through the recorded shear;
        # then shears of 3 and of -2 factor vectors
        for i, entry in enumerate(self.LAURENT_ENTRIES):
            (tmp_path / f"laurent_{i}.json").write_text(json.dumps(entry))
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 0
        check_schema(out, "batch_report")
        assert [(r["file"], r["check"], r["status"]) for r in out["results"]] == [
            (f"laurent_{i}.json", check, "pass")
            for i in range(5)
            for check in ("period-invariance", "newton-compatibility")
        ]

    def test_laurent_entry_with_a_wrong_shear_fails_newton_compatibility(self, capsys, monkeypatch, tmp_path):
        # a recorded shear one f0 off shears the mutant off Newt(g): the
        # newton-compatibility row fails and the period row still passes
        laurent = cli._module("laurent")
        mutation_data = laurent._mutation_data

        def off_by_f0(spec):
            md, shear = mutation_data(spec)
            return md, shear + md.f0

        monkeypatch.setattr(laurent, "_mutation_data", off_by_f0)
        for i, entry in enumerate(self.LAURENT_ENTRIES):
            (tmp_path / f"laurent_{i}.json").write_text(json.dumps(entry))
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 1
        check_schema(out, "batch_report")
        assert [(r["file"], r["check"], r["status"]) for r in out["results"]] == [
            (f"laurent_{i}.json", check, status)
            for i in range(5)
            for check, status in (("period-invariance", "pass"), ("newton-compatibility", "fail"))
        ]

    @pytest.mark.parametrize(
        "entry, detail",
        [("[1, 2]", "entry must be a JSON object"), ('{"g": "1+x"}', "expected 'weights', 'vertices' or 'laurent'")],
        ids=["list", "no-known-key"],
    )
    def test_entry_of_unknown_shape_is_a_parse_error(self, capsys, tmp_path, entry, detail):
        (tmp_path / "odd.json").write_text(entry)
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 1
        check_schema(out, "batch_report")
        assert out == {
            "results": [{"file": "odd.json", "check": "parse", "status": "error", "detail": detail}],
            "passed": 0,
            "failed": 1,
        }

    def test_polygon_entry_refusals_are_pinned(self, capsys, tmp_path):
        # a polygon entry is refused by dual(T) first, then by weights(T)
        # for a triangle, then by the Fano proof of mutation.mutants
        refusals = {
            "a_point": ([[0, 0]], "dual needs a full-dimensional polygon"),
            "b_segment": ([[-1, 0], [1, 0]], "dual needs a full-dimensional polygon"),
            "c_origin_on_edge": ([[-1, 0], [1, 0], [0, 1]], "dual needs the origin strictly inside"),
            "d_origin_outside": ([[1, 1], [2, 1], [1, 2]], "dual needs the origin strictly inside"),
            "e_rational_triangle": ([["1/2", 0], [0, 1], [-1, -1]], "weights are defined for Fano triangles only"),
            "f_non_primitive_triangle": ([[2, 0], [0, 1], [-1, -1]], "weights are defined for Fano triangles only"),
            "g_rational_quadrilateral": ([["1/2", 0], [0, 1], [-1, 0], [0, -1]], "operation requires a Fano polygon"),
            "h_non_primitive_quadrilateral": ([[2, 0], [0, 1], [-1, 0], [0, -1]], "operation requires a Fano polygon"),
        }
        for name, (vertices, _) in refusals.items():
            (tmp_path / f"{name}.json").write_text(json.dumps({"vertices": vertices}))
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 1
        check_schema(out, "batch_report")
        assert out == {
            "results": [
                {"file": f"{name}.json", "check": "verify", "status": "error", "detail": detail}
                for name, (_, detail) in refusals.items()
            ],
            "passed": 0,
            "failed": len(refusals),
        }

    @pytest.mark.parametrize(
        "entry, detail",
        [
            ({"laurent": 5}, "a Laurent polynomial must be a string, not int"),
            (
                {"laurent": "y*(1+x) + x^-1*y^-1 + x^1000000 + x^-1000000", "g": "1+x"},
                "operation requires a Fano polygon",
            ),
        ],
        ids=["laurent-before-g", "derive-first"],
    )
    def test_laurent_entry_refused_two_ways_reports_the_first(self, capsys, tmp_path, entry, detail):
        # the laurent is parsed before g is read, and the mutation data are
        # derived before f is mutated or its period is checked: this Newton
        # polygon is not Fano, and its period check is over budget
        (tmp_path / "a.json").write_text(json.dumps(entry))
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 1
        check_schema(out, "batch_report")
        assert out["results"] == [{"file": "a.json", "check": "verify", "status": "error", "detail": detail}]

    @pytest.mark.parametrize(
        "change, detail",
        [
            ({"divide": "z"}, "divide must be one of ('x', 'y'): 'z'"),
            ({"g": "0"}, "g must be nonzero"),
            ({"g": "1+y"}, "g may only involve x"),
        ],
        ids=["divide-z", "zero-g", "g-in-y"],
    )
    def test_laurent_entry_with_bad_mutation_spec(self, capsys, tmp_path, change, detail):
        entry = {"laurent": "y^-1 + x^-1*(1+x)^2*y^2", "g": "1+x", "divide": "y", **change}
        (tmp_path / "a.json").write_text(json.dumps(entry))
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 1
        check_schema(out, "batch_report")
        assert out == {
            "results": [{"file": "a.json", "check": "verify", "status": "error", "detail": detail}],
            "passed": 0,
            "failed": 1,
        }

    def test_missing_corpus_exit_1(self, capsys, tmp_path):
        code, out = run_json(capsys, "batch-verify", str(tmp_path / "missing"))
        assert code == 1
        assert out["error"]["type"] == "DomainError"
        assert out["error"]["message"].startswith("corpus directory not found")
        check_schema(out, "error")

    def test_empty_corpus(self, capsys, tmp_path):
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 0
        assert out == {"results": [], "passed": 0, "failed": 0}


def _scaling_cases():
    """Every pairwise-coprime triple with c <= 15, the hexagon, P^2/Z3 and
    60 seeded random Fano polygons."""
    import random

    from polymut.fano import is_fano, triangle_from_weights
    from polymut.geom import Polygon, Vector2

    cases = [
        triangle_from_weights((a, b, c))
        for c in range(1, 16)
        for b in range(1, c + 1)
        for a in range(1, b + 1)
        if math.gcd(a, b) == math.gcd(b, c) == math.gcd(a, c) == 1
    ]
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    cases += [Polygon([Vector2(x, y) for x, y in vs]) for vs in (hexagon, [(-1, -1), (2, -1), (-1, 2)])]
    rng = random.Random(71)
    found = 0
    while found < 60:
        Q = Polygon([Vector2(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 7))])
        if is_fano(Q):
            cases.append(Q)
            found += 1
    return cases


def _rational_verdicts(T, pairs):
    """The duality rows of T by their rational definitions, for the (md, Q)
    pairs that mutation.mutants handed over: (check, passed) in row order."""
    from polymut.geom import area, dual
    from polymut.mutation import dual_map

    Tstar = dual(T)
    out = [("dual-involution", dual(Tstar) == T)]
    for md, Q in pairs:
        tag = f"w={md.w} t={md.t}"
        Qstar = dual(Q)
        out.append((f"dual-area [{tag}]", area(Qstar) == area(Tstar)))
        out.append((f"duality-commutation [{tag}]", dual_map(md, Tstar) == Qstar))
    return out


def _scaled_verdicts(T):
    return [
        (r["check"], r["status"] == "pass")
        for r in cli._verify_polygon(Path("t.json"), T)
        if r["check"].startswith("dual")
    ]


class TestScaledDualityRows:
    """batch-verify reads its duality rows on a*T* and b*Q*, the least
    lattice dilations of the duals; these pin that scaling to the rational
    definitions of the rows."""

    def test_dual_map_and_involution_scale_with_the_dilation(self):
        from polymut.geom import _lattice_dual, dilate, dilated_dual, dual
        from polymut.mutation import dual_map, mutants

        factors = 0
        for T in _scaling_cases():
            a, Ta = _lattice_dual(T)
            assert Ta.is_lattice() and dilated_dual(Ta, a) == T
            Tstar = dual(T)
            for md, Q in mutants(T):
                assert dual_map(md, Ta) == dilate(dual_map(md, Tstar), a), (T, md)
                factors += 1
        assert factors >= 500

    def test_one_dual_walk_is_the_denominator_and_the_dilated_dual(self):
        # geom._dual_walk reads the least lattice dilation a and the integer
        # cycle of a*T* off one walk along T's edges, from any start, and
        # _lattice_dual wraps that cycle: both against the edge-by-edge
        # oracle and dilated_dual, types included
        from oracles import dual_denominator
        from polymut.geom import OriginNotInterior, _dual_walk, _lattice_dual, dilated_dual

        cases = _scaling_cases()
        assert len(cases) == 236
        for T in cases:
            a = dual_denominator(T)
            want = dilated_dual(T, a)
            assert want.is_lattice()
            starts = [T.cycle[i:] + T.cycle[:i] for i in range(len(T.cycle))]
            assert all(_dual_walk(c) == (a, list(want.cycle)) for c in starts), T
            b, Ta = _lattice_dual(T)
            assert (b, Ta) == (a, want) and all(type(c) is int for v in Ta.cycle for c in v), T
        for cyc in ([(0, 0), (1, 0), (0, 1)], [(1, 0), (2, 0), (1, 1)], [(-1, -1), (1, -1), (0, 0), (-1, 1)]):
            with pytest.raises(OriginNotInterior, match="^dual needs the origin strictly inside$"):
                _dual_walk(cyc)

    def test_rows_match_their_rational_definitions(self):
        from polymut.mutation import mutants

        for T in _scaling_cases():
            expected = _rational_verdicts(T, mutants(T))
            assert _scaled_verdicts(T) == expected
            assert all(ok for _, ok in expected)

    @pytest.mark.parametrize(
        "wrong, failing",
        [("other-factor", {"duality-commutation"}), ("translated", {"dual-area", "duality-commutation"})],
    )
    def test_wrong_mutant_fails_where_the_rational_rows_fail(self, monkeypatch, wrong, failing):
        # mutants hands each factor a Q that is not its mutant: the next
        # factor's, whose dual has the same area as mutation keeps it, or
        # its mutant moved by a unit step that keeps the origin strictly
        # inside
        from polymut.geom import Vector2
        from polymut.mutation import mutants

        def wrong_pairs(T):
            pairs = mutants(T)
            if wrong == "other-factor":
                return [(md, Q) for (md, _), (_, Q) in zip(pairs, pairs[1:] + pairs[:1])]
            out = []
            for md, Q in pairs:
                steps = [Q.translate(Vector2(x, y)) for x, y in ((1, 0), (0, 1), (-1, 0), (0, -1))]
                out.append((md, next((S for S in steps if S.contains_origin_interior()), Q)))
            return out

        monkeypatch.setattr(cli._module("mutation"), "mutants", wrong_pairs)
        # the other rows read the wrong Q too; only the duality rows are
        # compared here
        monkeypatch.setattr(cli._module("deform"), "weights_decrease", lambda wT, wQ: False)
        failed = set()
        for T in _scaling_cases():
            expected = _rational_verdicts(T, wrong_pairs(T))
            assert _scaled_verdicts(T) == expected, T
            failed |= {check.split(" [")[0] for check, ok in expected if not ok}
        assert failed == failing


# the public names of the polymut package, by the submodule that defines them
EXPORTS = {
    "geom": [
        "Polygon", "Vector2", "area", "dilate", "dual", "lattice_equivalent", "linear_equivalent",
        "primitivize",
    ],
    "fano": [
        "DiophantineClass", "diophantine_class", "is_fano", "markov_tree", "multiplicity",
        "triangle_from_weights", "vieta_tree", "weights",
    ],
    "mutation": ["MutationData", "dual_map", "factor_for", "find_factors", "mutate", "mutation_graph"],
    "laurent": [
        "LaurentPoly", "MutationSpec", "algebraic_mutate", "newton_polytope", "parse",
        "period_sequence", "render",
    ],
    "divpoly": [
        "INFINITY", "ZERO", "DivPoly", "PLFunc", "PointLabel", "from_polygon", "shift_affine",
        "to_polygon",
    ],
    "deform": [
        "Decomposition", "DeformationCertificate", "corollary_check", "general_fiber",
        "is_admissible", "mutation_to_deformation", "reduce_to_polygon",
    ],
}


def _child_polymut_modules(
    code: str, packages: tuple[str, ...] = ("polymut",)
) -> tuple[subprocess.CompletedProcess, list[str]]:
    """A child interpreter that runs `code`, and the modules of `packages`
    in its sys.modules afterwards, which it writes as the last line of
    stderr."""
    script = (
        "import sys\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "finally:\n"
        f"    print(*sorted(n for n in sys.modules if n.split('.')[0] in {packages!r}), file=sys.stderr)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return r, r.stderr.decode().splitlines()[-1].split()


def _polymut_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n.split(".")[0] == "polymut"}


@pytest.fixture
def reimport_polymut():
    """A function that removes polymut from sys.modules and imports
    polymut.cli again, as each set-up of the benchmark does; the modules
    loaded before are put back afterwards."""
    saved = _polymut_modules()

    def reimport():
        for name in _polymut_modules():
            del sys.modules[name]
        return importlib.import_module("polymut.cli")

    yield reimport
    for name in _polymut_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def _call(main_fn, argv) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of main_fn(argv) with the output
    captured; a usage error's code is read off its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main_fn(list(argv))
        except SystemExit as e:
            code = ("SystemExit", e.code)
    return code, out.getvalue(), err.getvalue()


# what `python -m polymut markov --depth 0` runs
MARKOV_DEPTH_0 = (
    "import runpy\n"
    "sys.argv = ['polymut', 'markov', '--depth', '0']\n"
    "runpy.run_module('polymut', run_name='__main__', alter_sys=True)"
)


class TestColdStart:
    def test_markov_imports_only_geom_and_fano(self):
        r, names = _child_polymut_modules(MARKOV_DEPTH_0)
        assert r.returncode == 0, r.stderr
        assert r.stdout == b"[[1, 1, 1]]\n"
        assert names == ["polymut", "polymut.cli", "polymut.errors", "polymut.fano", "polymut.geom"]

    def test_markov_loads_neither_dataclasses_nor_inspect(self):
        # dataclasses imports inspect, dis and tokenize, about 9 ms of a
        # cold start; geom's and fano's classes are plain __slots__ classes
        r, names = _child_polymut_modules(MARKOV_DEPTH_0, ("dataclasses", "inspect"))
        assert r.returncode == 0, r.stderr
        assert r.stdout == b"[[1, 1, 1]]\n"
        assert names == []

    def test_bare_import_loads_no_submodule(self):
        r, names = _child_polymut_modules("import polymut")
        assert r.returncode == 0, r.stderr
        assert names == ["polymut"]
        # a submodule is still an attribute of the package, loaded with
        # what it imports
        r, names = _child_polymut_modules("import polymut\npolymut.laurent.parse('x')")
        assert r.returncode == 0, r.stderr
        assert names == ["polymut", "polymut.errors", "polymut.fano", "polymut.geom", "polymut.laurent", "polymut.mutation"]

    def test_package_exports(self):
        import polymut

        names = [n for home in EXPORTS.values() for n in home]
        assert len(names) == 44
        assert polymut.__all__ == names
        for home, exported in EXPORTS.items():
            module = importlib.import_module(f"polymut.{home}")
            for name in exported:
                assert getattr(polymut, name) is getattr(module, name), name
        namespace: dict = {}
        exec("from polymut import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(names)
        assert all(namespace[n] is getattr(polymut, n) for n in names)
        assert set(names) <= set(dir(polymut))
        with pytest.raises(AttributeError, match="no_such_name"):
            polymut.no_such_name
        assert polymut.__version__ == "0.1.0"

    def test_stale_main_after_reimport(self, reimport_polymut):
        # the benchmark's set-ups import polymut afresh while its passes
        # keep calling the first set-up's cli.main; that main must keep
        # using the modules it loaded, whose DomainError it catches
        stale_main = cli.main
        batch = ["batch-verify", str(CORPUS)]
        before = _call(stale_main, batch)
        assert before[0] == 0
        fresh = reimport_polymut()
        assert fresh.main is not stale_main
        for argv in (batch, ["deform", "--weights", "1,1,4"], ["triangle", "--weights", "2,4,5"]):
            assert _call(stale_main, argv) == _call(fresh.main, argv), argv
        assert _call(stale_main, batch) == before
        code, out, _ = _call(stale_main, ["triangle", "--weights", "2,4,5"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotWellFormed"

    def test_parser_is_built_once_and_reused(self, monkeypatch):
        assert cli._build_parser() is cli._build_parser()
        sequence = [
            ["--format", "table", "weights", "--polygon", P114],
            ["weights", "--polygon", P114],
            ["markov", "--depth", "2", "--format", "table"],
            ["markov"],
            ["markov", "--depth", "2"],
            ["mutate", "--polygon", P114, "--bogus-flag"],
            ["triangle", "--weights", "2,4,5", "--format", "table"],
            ["triangle", "--weights", "2,4,5"],
            ["--format", "table", "deform", "--weights", "1,1,4"],
            ["deform", "--weights", "1,1,4"],
        ]
        reused = [_call(main, argv) for argv in sequence]
        assert [r[0] for r in reused] == [0, 0, 0, ("SystemExit", 2), 0, ("SystemExit", 2), 1, 1, 0, 0]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert cli._build_parser() is not cli._build_parser()
        assert reused == [_call(main, argv) for argv in sequence]
