import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

try:
    import jsonschema
    from referencing import Registry, Resource
except ImportError:  # pragma: no cover
    jsonschema = None

from polymut.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"

P114 = '{"vertices":[["0","-1"],["1","2"],["-1","2"]]}'
P2 = '{"vertices":[[1,0],[0,1],[-1,-1]]}'

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


class TestErrorsAndDeterminism:
    def test_domain_error_exit_1(self, capsys):
        code, out = run_json(capsys, "dual", "--polygon", '{"vertices":[[1,0],[0,1],[2,2]]}')
        assert code == 1
        assert out["error"]["type"] == "OriginNotInterior"
        check_schema(out, "error")

    def test_bad_json_exit_1(self, capsys):
        code, out = run_json(capsys, "dual", "--polygon", "{nope")
        assert code == 1
        check_schema(out, "error")

    def test_non_numeric_coordinate_exit_1(self, capsys):
        code, out = run_json(
            capsys, "dual", "--polygon", '{"vertices":[["a","b"],[0,1],[-1,-1]]}'
        )
        assert code == 1
        assert out["error"]["type"] == "DomainError"
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

    def test_check_corollary_bool_break_exit_1(self, capsys):
        # JSON true is no exact rational; it used to be read as 1
        part = {"breaks": [0, 6], "values": [0, 0]}
        cert = {"decomposition": {"label": "inf", "part0": {"breaks": [True, 6], "values": [0, 6]}, "part1": part}}
        code, out = run_json(capsys, "check-corollary", "--certificate", json.dumps(cert))
        assert code == 1
        assert out["error"] == {"type": "DomainError", "message": "not an exact rational: True"}
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
        ],
        ids=[
            "laurent-without-g",
            "two-weights",
            "laurent-not-a-string",
            "laurent-5000-digit-coefficient",
            "json-5000-digit-integer",
            "exponent-string",
            "output-integer-past-the-digit-limit",
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

    def test_empty_corpus(self, capsys, tmp_path):
        code, out = run_json(capsys, "batch-verify", str(tmp_path))
        assert code == 0
        assert out == {"results": [], "passed": 0, "failed": 0}
