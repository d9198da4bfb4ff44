"""The benchmark's five workloads.

Each ``setup_*`` function builds one workload's inputs and returns a
``Workload``: a fixed list of calls, each with its own output check. A pass
runs every call once, in order, from one caller (a closed loop). The setup
functions import polymut themselves, so they always use the modules of the
latest import, and the calls look functions up through their modules at call
time, so that a traced run sees the wrapped names.

Why each workload exists, what it measures and what it should leave alone is
recorded in ``workloads.json`` beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
SCHEMAS = ROOT / "docs" / "schemas"


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    # returns None when the output is right, else what is wrong with it
    check: Callable[[object], Optional[str]]
    # work units the call completes: classes, attempts, sequence terms or calls
    items: int


@dataclass
class Workload:
    calls: list[Call]
    # calls made once after the timed passes, untimed, and checked the same way
    afterwards: list[Call] = field(default_factory=list)


@dataclass
class CliRun:
    code: int
    stdout: bytes
    stderr: bytes = b""


def python_env() -> dict:
    """Environment for child interpreters that import polymut from src/."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def graph_digest(graph) -> str:
    return hashlib.sha256(json.dumps(graph.to_json(), sort_keys=True).encode()).hexdigest()


# --- graph_markov, graph_wide -----------------------------------------------

# (weights, depth) -> (classes, edges, sha256 of the sorted-key graph JSON),
# recorded from polymut 0.1.0 as committed at the start of the benchmark
GRAPH_REFERENCE = {
    ((1, 1, 1), 5): (17, 27, "b00d7c214bf917929f6a6a5323b961fc7ae0192fdac9cf9fcac8e441574bed06"),
    ((1, 1, 1), 3): (5, 9, "771236749906f1789aa4e2d2f48c14bb078e941b84e9ad01195278cd9a3ed2f2"),
    ((2, 3, 5), 4): (177, 371, "7228995a721ff7899a17e6b94a771f06ef5efa718a7e5e65ec30d45f4401fb5a"),
    ((2, 3, 5), 2): (19, 35, "68e5e5bff08e8339ef55e4659b360fd4ee8392a0fd95c18afb79765cf591f01c"),
}


def _graph_call(weights, depth, markov_depth=None) -> Call:
    from polymut import fano, mutation

    P = fano.triangle_from_weights(weights)
    classes, edges, digest = GRAPH_REFERENCE[(weights, depth)]
    squares = None
    if markov_depth is not None:
        squares = {tuple(sorted(x * x for x in t)) for t in fano.markov_tree(markov_depth)}

    def check(g) -> Optional[str]:
        if (len(g.nodes), len(g.edges)) != (classes, edges):
            return f"graph has {len(g.nodes)} classes and {len(g.edges)} edges, expected {classes} and {edges}"
        if squares is not None and g.weight_triples() != squares:
            return "weight triples differ from the squared Markov triples"
        got = graph_digest(g)
        if got != digest:
            return f"graph JSON digest {got} differs from the reference"
        return None

    def run():
        return mutation.mutation_graph(P, depth)

    return Call(f"graph {weights} depth {depth}", run, check, classes)


def setup_graph_markov(seed: int, smoke: bool) -> Workload:
    depth = 3 if smoke else 5
    return Workload([_graph_call((1, 1, 1), depth, markov_depth=depth)])


def setup_graph_wide(seed: int, smoke: bool) -> Workload:
    return Workload([_graph_call((2, 3, 5), 2 if smoke else 4)])


# --- certify ----------------------------------------------------------------

def _coprime_triples(cmax: int) -> list[tuple[int, int, int]]:
    return [
        (a, b, c)
        for c in range(1, cmax + 1)
        for b in range(1, c + 1)
        for a in range(1, b + 1)
        if math.gcd(a, b) == 1 and math.gcd(b, c) == 1 and math.gcd(a, c) == 1
    ]


CERTIFY_CMAX, CERTIFY_ATTEMPTS = 40, 150


def setup_certify(seed: int, smoke: bool) -> Workload:
    """One deformation attempt per stratum of the weight triples.

    The pairwise-coprime triples with c <= cmax, sorted by size, are cut into
    equal strata; in each, the seed picks a triangle that has a factor and
    one of its factors. Attempts alternate between certifying the mutation
    itself and, for a triangle whose mutant is a triangle too, the mutation
    back. One attempt per stratum and as many of each way keep the cost of a
    pass nearly the same for every seed.
    """
    from polymut import deform, fano, geom, mutation
    from polymut.divpoly import PLFunc, PointLabel
    from polymut.errors import DomainError

    def attempt(P, md):
        """A certificate, or the DomainError that refused it."""
        try:
            return deform.mutation_to_deformation(P, md)
        except DomainError as e:
            return e

    def check(out) -> Optional[str]:
        if isinstance(out, DomainError):
            return None
        U, t = out.witness
        if abs(geom.mat_det(U)) != 1:
            return "witness matrix is not unimodular"
        image = geom.Polygon([geom.mat_apply(U, v) + t for v in out.fiber_polygon.vertices])
        if image != out.target:
            return "witness does not map the fiber polygon onto the target"
        d = out.decomposition.to_json()
        replay = deform.Decomposition(
            PointLabel.parse(d["label"]), PLFunc.from_json(d["part0"]), PLFunc.from_json(d["part1"])
        )
        if deform.corollary_check(replay).clauses != out.corollary.clauses:
            return "corollary clauses differ when replayed from the certificate JSON"
        return None

    cmax, attempts = (12, 8) if smoke else (CERTIFY_CMAX, CERTIFY_ATTEMPTS)
    rng = random.Random(seed)
    triples = _coprime_triples(cmax)
    calls: list[Call] = []
    owed = 0
    for i in range(attempts):
        owed += 1
        stratum = triples[i * len(triples) // attempts:(i + 1) * len(triples) // attempts]
        rng.shuffle(stratum)
        for w in stratum:
            if not owed:
                break
            T = fano.triangle_from_weights(w)
            mds = [md for d in mutation.factor_directions(T) for md in mutation.find_factors(T, d)]
            if not mds:
                continue
            P, md, way = T, rng.choice(mds), "forward"
            if len(calls) % 2:
                Q = mutation.mutate(T, md)
                if len(Q.vertices) != 3:
                    continue
                P, md, way = Q, mutation.factor_for(Q, -md.w, md.t), "back"
            calls.append(Call(f"certify {w} {way} w={md.w} t={md.t}", partial(attempt, P, md), check, 1))
            owed -= 1
    return Workload(calls)


# --- period -----------------------------------------------------------------

HEXAGON = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1))


def _monomial(e: tuple[int, int]) -> str:
    parts = [f"{v}^{k}" if k != 1 else v for v, k in zip("xy", e) if k]
    return "*".join(parts) or "1"


def constant_terms(terms: dict[tuple[int, int], int], dmax: int) -> list[int]:
    """Constant terms of f^0..f^dmax by integer convolution; an oracle that
    shares no code with polymut.laurent."""
    out = [1]
    power = {(0, 0): 1}
    for _ in range(dmax):
        nxt: dict[tuple[int, int], int] = defaultdict(int)
        for (a, b), c in power.items():
            for (e, f), k in terms.items():
                nxt[(a + e, b + f)] += c * k
        power = nxt
        out.append(power.get((0, 0), 0))
    return out


def _p2_term(n: int) -> int:
    if n % 3:
        return 0
    k = n // 3
    return math.factorial(3 * k) // math.factorial(k) ** 3


def _p1p1_term(n: int) -> int:
    return 0 if n % 2 else math.comb(n, n // 2) ** 2


def _period_call(laurent, label: str, text: str, dmax: int, expect: Callable[[], list[int]]) -> Call:
    cache: list[list[int]] = []

    def check(seq) -> Optional[str]:
        if not cache:
            cache.append(expect())
        if list(seq) != cache[0]:
            return "period sequence differs from the oracle"
        return None

    def run():
        return laurent.period_sequence(laurent.parse(text), dmax)

    return Call(f"period {label} d={dmax}", run, check, dmax + 1)


def setup_period(seed: int, smoke: bool) -> Workload:
    from polymut import laurent

    d40, d30 = (8, 8) if smoke else (40, 30)
    rng = random.Random(seed)
    weighted = {e: rng.randint(1, 3) for e in HEXAGON}
    weighted_text = "+".join(f"{c}*{_monomial(e)}" for e, c in weighted.items())
    hexagon_text = "+".join(_monomial(e) for e in HEXAGON)
    calls = [
        _period_call(laurent, "P2", "x+y+x^-1*y^-1", d40, lambda: [_p2_term(n) for n in range(d40 + 1)]),
        _period_call(laurent, "P1xP1", "x+x^-1+y+y^-1", d40, lambda: [_p1p1_term(n) for n in range(d40 + 1)]),
        _period_call(laurent, "hexagon", hexagon_text, d30, lambda: constant_terms(dict.fromkeys(HEXAGON, 1), d30)),
        _p114_call(laurent, d30),
        _period_call(laurent, "weighted hexagon", weighted_text, d30, lambda: constant_terms(weighted, d30)),
    ]
    return Workload(calls)


def _p114_call(laurent, dmax: int) -> Call:
    entry = json.loads((CORPUS / "laurent_p114.json").read_text())

    def run():
        f = laurent.parse(entry["laurent"])
        spec = laurent.MutationSpec(entry["divide"], laurent.parse(entry["g"]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = laurent.algebraic_mutate(f, spec)
        return laurent.period_sequence(f, dmax), laurent.period_sequence(g, dmax)

    def check(out) -> Optional[str]:
        f_seq, g_seq = out
        return None if f_seq == g_seq else "p114 and its algebraic mutant have different period sequences"

    return Call(f"period p114 and mutant d={dmax}", run, check, 2 * (dmax + 1))


# --- cli --------------------------------------------------------------------

def cli_commands(smoke: bool) -> list[tuple[list[str], int, str]]:
    """(argv, expected exit code, schema of its stdout)."""
    return [
        (["batch-verify", str(CORPUS)], 0, "batch_report"),
        (["deform", "--weights", "1,1,4"], 0, "deform"),
        (["graph", "--weights", "1,1,1", "--depth", "2" if smoke else "4"], 0, "graph"),
        (["markov", "--depth", "3" if smoke else "6"], 0, "markov"),
        (["period", "--f", "x+y+x^-1*y^-1", "--dmax", "12"], 0, "period"),
        (["diophantine", "--weights", "1,2,9"], 0, "diophantine"),
        (["triangle", "--weights", "2,4,5"], 1, "error"),
        (["markov", "--depth", "0"], 0, "markov"),
    ]


def run_cli_child(argv: list[str], env: dict) -> CliRun:
    r = subprocess.run(
        [sys.executable, "-m", "polymut", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    return CliRun(r.returncode, r.stdout, r.stderr)


def _run_cli_in_process(cli, argv: list[str]) -> CliRun:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliRun(code, buf.getvalue().encode())


class SchemaChecker:
    """Validates CLI stdout against docs/schemas, loading jsonschema on first
    use so that its import is not part of any timed set-up."""

    def __init__(self) -> None:
        self._validators: dict[str, object] = {}

    def validate(self, obj, name: str) -> Optional[str]:
        if not self._validators:
            import jsonschema
            from referencing import Registry, Resource

            docs = {p.name: json.loads(p.read_text()) for p in SCHEMAS.glob("*.schema.json")}
            registry = Registry().with_resources(
                (n, Resource.from_contents(d)) for n, d in docs.items()
            )
            for n, d in docs.items():
                self._validators[n.removesuffix(".schema.json")] = jsonschema.Draft7Validator(d, registry=registry)
        err = next(iter(self._validators[name].iter_errors(obj)), None)
        return None if err is None else f"stdout does not match {name}.schema.json: {err.message}"


def setup_cli(seed: int, smoke: bool) -> Workload:
    """The command list through polymut.cli.main in this process, with
    stdout captured; afterwards each command once more as `python -m
    polymut` in a child process, which must print the same bytes."""
    from polymut import cli

    env = python_env()
    schemas = SchemaChecker()
    calls, afterwards = [], []
    for argv, code, schema in cli_commands(smoke):
        label = "polymut " + " ".join(argv)
        check = _cli_checker(schemas, code, schema)
        calls.append(Call(label, partial(_run_cli_in_process, cli, argv), check, 1))
        child_check = _child_checker(check, partial(_run_cli_in_process, cli, argv))
        afterwards.append(Call("python -m " + label, partial(run_cli_child, argv, env), child_check, 1))
    return Workload(calls, afterwards)


def _cli_checker(schemas: SchemaChecker, code: int, schema: str):
    def check(out: CliRun) -> Optional[str]:
        if out.code != code:
            return f"exit code {out.code}, expected {code}"
        if b"Traceback" in out.stderr:
            return "traceback on stderr"
        try:
            obj = json.loads(out.stdout)
        except ValueError:
            return "stdout is not JSON"
        return schemas.validate(obj, schema)

    return check


def _child_checker(check, in_process: Callable[[], CliRun]):
    def child_check(out: CliRun) -> Optional[str]:
        problem = check(out)
        if problem is None and out.stdout != in_process().stdout:
            problem = "stdout differs from the in-process run"
        return problem

    return child_check


SETUPS = {
    "graph_markov": setup_graph_markov,
    "graph_wide": setup_graph_wide,
    "certify": setup_certify,
    "period": setup_period,
    "cli": setup_cli,
}
