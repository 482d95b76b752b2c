"""The benchmark's four workloads: seeded inputs, ops and output checks.

Each workload's ``setup(seed, workdir)`` imports ``infodecomp`` and builds the
workload's inputs through the library; everything it does is set-up time.
It returns a :class:`Prepared` whose rounds are fixed lists of ops. An op
calls into the library and returns its output; the op's check then verifies
that output against the benchmark's own reference computation and raises
:class:`CheckFailed` if it disagrees.

Checks never call the code they check, with one exception the engine's own
contract asks for: a ``contradiction`` must pass ``replay_certificate``.
A certificate that does not replay, and propagation that stops without
converging, are known defects of the interval engine (ROADMAP item 3). They
count as failed ops like any other rejection, but they are flagged
``known_defect`` so that the run's ``correct`` verdict reports only failures
nobody has accounted for yet.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import io
import json
import math
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CONFTEST = ROOT / "tests" / "conftest.py"
CONFTEST_MODULE = "_bench_conftest"

SOURCES = (("S1",), ("S2",), ("S3",))
TARGET = ("T",)
MODES = ("all", "singletons")
TOL = 1e-9


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's reference."""

    def __init__(self, message: str, known_defect: bool = False):
        super().__init__(message)
        self.known_defect = known_defect


def is_known_defect(exc: BaseException) -> bool:
    """Failures ROADMAP item 3 already documents for the interval engine."""
    if isinstance(exc, CheckFailed):
        return exc.known_defect
    return isinstance(exc, RuntimeError) and "did not converge" in str(exc)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Prepared:
    """A workload's inputs as rounds of ops, with their digest and the
    percentile that ``latency_tail_ms`` reports for this workload.

    The tail percentile is fixed per workload rather than derived from the
    op count of a run. Each one leaves at least ten samples beyond it in
    every run, and sits where the latency distribution is dense: just below
    a sparse cluster of much slower ops, a percentile moves by a quarter or
    more between runs on a shared machine.
    """

    rounds: list[list[Op]]
    digest: str
    tail_percentile: int

    @property
    def min_ops(self) -> int:
        """The fewest ops that leave ten samples beyond the tail percentile."""
        return math.ceil(10 * 100 / (100 - self.tail_percentile))


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def purge_library() -> None:
    """Forget every loaded ``infodecomp`` module so the next import runs it."""
    for name in list(sys.modules):
        if name == "infodecomp" or name.startswith("infodecomp.") or name == CONFTEST_MODULE:
            del sys.modules[name]


def load_conftest():
    """Load the acceptance suite's fixture module under a private name."""
    spec = importlib.util.spec_from_file_location(CONFTEST_MODULE, CONFTEST)
    module = importlib.util.module_from_spec(spec)
    sys.modules[CONFTEST_MODULE] = module
    spec.loader.exec_module(module)
    return module


# --- independent references -----------------------------------------------------


def reference_entropies(d) -> dict[frozenset, float]:
    """H of every nonempty subset of the first three variables, in bits,
    from the pmf masses with math.log2."""
    out = {}
    for size in (1, 2, 3):
        for subset in _subsets(size):
            masses: dict[tuple, Fraction] = {}
            for outcome, p in d.support:
                key = tuple(outcome[i - 1] for i in subset)
                masses[key] = masses.get(key, 0) + p
            out[frozenset(subset)] = -sum(
                float(p) * math.log2(float(p)) for p in masses.values()
            )
    return out


def _subsets(size: int):
    return [s for s in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)) if len(s) == size]


def check_atom_table(atoms: dict[tuple, Fraction], entropies: dict[frozenset, float]) -> None:
    """The nine entropy sum rules over a ten-atom table, to 1e-9 bits.

    Atoms are keyed by antichain elements, e.g. ``((1,), (2, 3))``. An atom
    counts toward H(X), |X| <= 2, iff it has a singleton element {i} with i
    in X. H(S1,S2,S3) is the sum of all ten atoms minus any one of the three
    two-versus-one atoms.
    """
    if len(atoms) != 10:
        raise CheckFailed(f"atom table has {len(atoms)} atoms, expected 10")
    rules = []
    for size in (1, 2):
        for subset in _subsets(size):
            total = sum(
                float(v) for key, v in atoms.items()
                if any(len(e) == 1 and e[0] in subset for e in key)
            )
            rules.append((f"H{subset}", total, entropies[frozenset(subset)]))
    everything = sum(float(v) for v in atoms.values())
    for key in (((1,), (2, 3)), ((2,), (1, 3)), ((3,), (1, 2))):
        if key not in atoms:
            raise CheckFailed(f"atom table lacks {key}")
        rules.append((f"H(123) without {key}", everything - float(atoms[key]),
                      entropies[frozenset((1, 2, 3))]))
    for label, lhs, rhs in rules:
        if abs(lhs - rhs) > TOL:
            raise CheckFailed(f"sum rule {label}: atoms give {lhs!r}, entropy is {rhs!r}")


def table_atoms(table) -> dict[tuple, Fraction]:
    return {antichain.elements: value for antichain, value in table.atoms}


def check_deduction(lib, state) -> None:
    """Intervals are ordered; a solved point satisfies every constraint row;
    a contradiction's certificate replays."""
    for ref, iv in state.intervals.items():
        if iv.lo is not None and iv.hi is not None and iv.lo > iv.hi:
            raise CheckFailed(f"interval of {ref} has lo {iv.lo} > hi {iv.hi}")
    if state.status == "solved":
        point = {ref: iv.lo for ref, iv in state.intervals.items()}
        if any(v is None or state.intervals[ref].hi != v for ref, v in point.items()):
            raise CheckFailed("status solved but some interval is not a point")
        for row in state.constraints:
            lhs = sum((coeff * point[ref] for ref, coeff in row.terms), Fraction(0))
            holds = lhs == row.rhs if row.relation == "eq" else lhs <= row.rhs
            if not holds:
                raise CheckFailed(
                    f"solved point violates {row.kind} row: {lhs} {row.relation} {row.rhs}"
                )
    elif state.status == "contradiction":
        if not lib.replay_certificate(state):
            raise CheckFailed("contradiction certificate does not replay", known_defect=True)
    elif state.status != "open":
        raise CheckFailed(f"unknown status {state.status!r}")


# --- sid-corpus ------------------------------------------------------------------

SID_ROUND = 50


def setup_sid_corpus(seed: int, workdir: Path) -> Prepared:
    """The acceptance suite's 1000-system dyadic corpus, walked in an order
    drawn from the seed; the corpus itself is fixed by CORPUS_SEED. The
    tail is p95, the systems whose float entropies enter as Fractions with
    2**52 denominators."""
    lib = importlib.import_module("infodecomp")
    fixtures = load_conftest()
    rng = random.Random(fixtures.CORPUS_SEED)
    corpus = [fixtures.random_dyadic_system(rng) for _ in range(fixtures.CORPUS_SIZE)]
    sources = fixtures.SOURCES_ABC
    order = list(range(len(corpus)))
    random.Random(seed).shuffle(order)

    def op_for(d):
        def run():
            ev = lib.EntropyVector.from_distribution(d, *sources)
            table = lib.decompose(d, *sources)
            lib.verify_linear_system(ev, table)
            report = lib.check_sum_rules(d, *sources)
            return table, report

        def check(out):
            table, report = out
            atoms = table_atoms(table)
            if table_atoms(report.table) != atoms:
                raise CheckFailed("check_sum_rules solved a different table than decompose")
            check_atom_table(atoms, reference_entropies(d))

        return Op("system", run, check)

    ops = [op_for(corpus[i]) for i in order]
    rounds = [ops[i:i + SID_ROUND] for i in range(0, len(ops), SID_ROUND)]
    payload = {"corpus": [d.to_dict() for d in corpus], "order": order}
    return Prepared(rounds, digest_of(payload), tail_percentile=95)


# --- deduce-random ---------------------------------------------------------------

DEDUCE_SYSTEMS = 256
DEDUCE_ROUND = 16
FUZZ_DENOMINATOR = 16


#: The 16 alphabet-size choices of a fuzz system, cycled through in order.
FUZZ_SHAPES = tuple(product((2, 3), repeat=4))


def random_fuzz_system(lib, rng: random.Random, index: int):
    """Three sources and a target, alphabets of 2-3 values, 1 to 16 outcomes
    with masses on the 1/16 grid.

    The alphabet sizes and the support size are not drawn: ``index`` walks
    the 16 x 16 pairs of them in a fixed order, so every run holds the same
    mix of shapes and only the outcomes and masses come from the seed.
    """
    sizes = FUZZ_SHAPES[index % len(FUZZ_SHAPES)]
    cells = list(product(*(range(k) for k in sizes)))
    support = 1 + (7 * index + index // len(FUZZ_SHAPES)) % FUZZ_DENOMINATOR
    chosen = rng.sample(cells, support)
    counts = [1] * len(chosen)
    for _ in range(FUZZ_DENOMINATOR - len(chosen)):
        counts[rng.randrange(len(chosen))] += 1
    entries = [(cell, Fraction(c, FUZZ_DENOMINATOR)) for cell, c in zip(chosen, counts)]
    return lib.JointDistribution.from_pmf(
        entries, ["S1", "S2", "S3", "T"], [list(range(k)) for k in sizes]
    )


def deduce_op(lib, d) -> Op:
    """Deduce one system under both anchorings.

    One op covers both, because the two anchorings cost about 15 ms and
    40 ms: with one op per anchoring the median op would fall in the gap
    between the two clusters and jump between runs.
    """
    def run():
        out = []
        for mode in MODES:
            state = lib.build_constraints(d, SOURCES, TARGET, mutual_sums=mode)
            lib.propagate(state)
            out.append((state, lib.wesp_report(state)))
        return out

    def check(out):
        for state, _ in out:
            check_deduction(lib, state)

    return Op("system", run, check)


def setup_deduce_random(seed: int, workdir: Path) -> Prepared:
    """256 fuzz systems from the seed, one per pair of alphabet shape and
    support size, in rounds of 16 that each hold every alphabet shape once.
    The tail is p90: the 2-4 % of systems whose propagation runs for about
    half a second sit above p95."""
    lib = importlib.import_module("infodecomp")
    rng = random.Random(seed)
    systems = [random_fuzz_system(lib, rng, i) for i in range(DEDUCE_SYSTEMS)]
    ops = [deduce_op(lib, d) for d in systems]
    rounds = [ops[i:i + DEDUCE_ROUND] for i in range(0, len(ops), DEDUCE_ROUND)]
    return Prepared(rounds, digest_of([d.to_dict() for d in systems]), tail_percentile=90)


# --- xor-large -------------------------------------------------------------------

XOR_FREE_BITS = (8, 9, 10, 11, 12)
XOR_ROUNDS = 4


def random_xor_circuit(lib, rng: random.Random, free_bits: int):
    """Three sources partitioning the free bits as evenly as possible, and a
    target of two bits, each the XOR of one bit of every source, the two
    using different bits.

    Only which bits go where is drawn from the seed; the shape is fixed, so
    that the cost of an op depends on its support size and not on the seed.
    """
    bits = [f"x{i}" for i in range(1, free_bits + 1)]
    shuffled = rng.sample(bits, len(bits))
    cut1, cut2 = free_bits // 3, free_bits - free_bits // 3
    groups = (shuffled[:cut1], shuffled[cut1:cut2], shuffled[cut2:])
    picks = [rng.sample(group, 2) for group in groups]
    xor_defs = {f"y{j}": [pick[j - 1] for pick in picks] for j in (1, 2)}
    return lib.CircuitSpec.create(
        bits, xor_defs, {f"S{i}": g for i, g in enumerate(groups, 1)}, list(xor_defs)
    )


def setup_xor_large(seed: int, workdir: Path) -> Prepared:
    """Four rounds of one circuit per free-bit count from 8 to 12, expanded
    inside the op. The tail is p75, the 11-bit circuits; p50 is the 10-bit
    ones. A circuit's cost depends on its bit choices by up to a tenth, so
    each percentile falls among four circuits drawn from the seed rather
    than on one."""
    lib = importlib.import_module("infodecomp")
    rng = random.Random(seed)
    specs = [[random_xor_circuit(lib, rng, n) for n in XOR_FREE_BITS] for _ in range(XOR_ROUNDS)]

    def op_for(spec):
        def run():
            d = lib.from_circuit(spec)
            table = lib.decompose(d, *SOURCES)
            state = lib.build_constraints(d, SOURCES, TARGET)
            lib.propagate(state)
            return d, table, state

        def check(out):
            d, table, state = out
            check_atom_table(table_atoms(table), reference_entropies(d))
            check_deduction(lib, state)

        return Op(f"{len(spec.free_bits)}-bits", run, check)

    return Prepared(
        [[op_for(s) for s in row] for row in specs],
        digest_of([[s.to_dict() for s in row] for row in specs]),
        tail_percentile=75,
    )


# --- paper-cli -------------------------------------------------------------------

CLI_FREE_BITS = 6
CLI_FUZZ_INDEX = 15  # 3-value alphabets, 10 outcomes
_SCAN_LINE = re.compile(r"^checked 262144 atom subsets in [0-9.]+s: 0 satisfy both systems$")


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expect_lines(*patterns: str):
    """A check that every pattern matches some line of the text output."""
    compiled = [re.compile(p) for p in patterns]

    def check(text: str) -> None:
        lines = text.splitlines()
        for pattern in compiled:
            if not any(pattern.search(line) for line in lines):
                raise CheckFailed(f"no output line matches {pattern.pattern!r}")

    return check


def _check_verify_paper(text: str) -> None:
    lines = text.splitlines()
    if len(lines) != 5 or not all(line.startswith("PASS ") for line in lines):
        raise CheckFailed(f"verify-paper is not five PASS rows: {lines!r}")


def _check_scan(text: str) -> None:
    if not _SCAN_LINE.match(text.strip()):
        raise CheckFailed(f"theorem1-scan reported {text.strip()!r}")


def _check_deduce_json(text: str) -> None:
    values = json.loads(text)["values"]
    if values["status"] not in ("solved", "open", "contradiction"):
        raise CheckFailed(f"unknown status {values['status']!r}")
    for name, atom in values["atoms"].items():
        lo, hi = atom["lo"], atom["hi"]
        if lo is not None and hi is not None and Fraction(lo["exact"]) > Fraction(hi["exact"]):
            raise CheckFailed(f"interval of {name} has lo > hi")


def _check_system1_json(text: str) -> None:
    _check_deduce_json(text)
    if json.loads(text)["values"]["wesp"]["mutual_information"]["exact"] != "3/1":
        raise CheckFailed("system1 total information is not 3 bits")


def _sid_json_check(d):
    def check(text: str) -> None:
        atoms = {
            tuple(tuple(int(c) for c in e) for e in re.findall(r"\{(\d+)\}", key[1:-1])):
                Fraction(value["exact"]) if value["exact"] else value["bits"]
            for key, value in json.loads(text)["values"]["atoms"].items()
        }
        check_atom_table(atoms, reference_entropies(d))

    return check


def cli_commands(dist_path: Path, circuit_path: Path, d) -> list[tuple[str, list[str], Callable]]:
    """(id, argv, check of stdout) for the fixed session, in run order."""
    return [
        ("verify-paper", ["verify-paper"], _check_verify_paper),
        ("theorem1-scan", ["theorem1-scan"], _check_scan),
        ("theorem1-scan-golden", ["theorem1-scan", "--golden"], _check_scan),
        ("pid-deduce-s2-cert", ["pid-deduce", "--builtin", "system2", "--certificate"],
         _expect_lines(r"^status: contradiction$", r"-> VIOLATION, gap 1$",
                       r"^contradiction certificate:$")),
        ("pid-deduce-s2-singletons",
         ["pid-deduce", "--builtin", "system2", "--anchoring", "singletons"],
         _expect_lines(r"^status: (open|solved)$")),
        ("pid-deduce-s1-json", ["--format", "json", "pid-deduce", "--builtin", "system1"],
         _check_system1_json),
        ("decompose-sid", ["decompose-sid", "--builtin", "system2"],
         _expect_lines(r"^atom total = 3$", r"^sum rules: 9/9 hold")),
        ("decompose-sid-red", ["decompose-sid", "--builtin", "system2", "--red", "1/2"],
         _expect_lines(r"^sum rules: 9/9 hold")),
        ("redundancy-gk", ["redundancy-gk", "--builtin", "system2", "--sources", "S1,S2,S3"],
         _expect_lines(r"^H\(Q\) = 0 bits$")),
        ("lattice-n4", ["lattice", "--n", "4"],
         _expect_lines(r"^full lattice over 4 sources: 166 antichains$")),
        ("lattice-n3-half", ["lattice", "--n", "3", "--kind", "half"],
         _expect_lines(r"^half lattice over 3 sources: 10 antichains$")),
        ("entropy", ["entropy", "--builtin", "system2", "--group", "T"],
         _expect_lines(r"^H\(T\) = 2 bits$")),
        ("mutual-info", ["mutual-info", "--builtin", "system1", "--a", "S1+S2+S3", "--b", "T"],
         _expect_lines(r"= 3 bits$")),
        ("decompose-sid-file",
         ["--format", "json", "decompose-sid", "--input", str(dist_path), "--sources", "S1,S2,S3"],
         _sid_json_check(d)),
        ("pid-deduce-circuit-file", ["--format", "json", "pid-deduce", "--input", str(circuit_path)],
         _check_deduce_json),
    ]


CLI_IDS = tuple(cid for cid, _, _ in cli_commands(Path(), Path(), None))


def cli_op(cli, command_id: str, argv: list[str], check_text) -> Op:
    def check(out):
        code, stdout, stderr = out
        if code != 0:
            raise CheckFailed(f"{command_id} exited {code}: {stderr.strip()}")
        try:
            check_text(stdout)
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"{command_id} output unreadable: {exc!r}") from exc

    return Op(command_id, lambda: run_cli(cli, argv), check)


def setup_paper_cli(seed: int, workdir: Path) -> Prepared:
    """The fixed CLI session, with a distribution file and a circuit file
    drawn from the seed. The tail is p90, inside the cluster of the 2**18
    scan and the n = 4 lattice; above it only the ~18 verify-paper runs
    remain, too few for a steady percentile."""
    lib = importlib.import_module("infodecomp")
    cli = importlib.import_module("infodecomp.cli")
    rng = random.Random(seed)
    d = random_fuzz_system(lib, rng, CLI_FUZZ_INDEX)
    spec = random_xor_circuit(lib, rng, CLI_FREE_BITS)
    dist_path, circuit_path = workdir / "distribution.json", workdir / "circuit.json"
    d.dump(dist_path)
    spec.dump(circuit_path)
    commands = cli_commands(dist_path, circuit_path, lib.JointDistribution.load(dist_path))
    ops = [cli_op(cli, cid, argv, check) for cid, argv, check in commands]
    names = {str(dist_path): dist_path.name, str(circuit_path): circuit_path.name}
    payload = {
        "argv": [[names.get(a, a) for a in argv] for _, argv, _ in commands],
        "distribution": dist_path.read_text(),
        "circuit": circuit_path.read_text(),
    }
    return Prepared([ops], digest_of(payload), tail_percentile=90)


SETUPS = {
    "sid-corpus": setup_sid_corpus,
    "deduce-random": setup_deduce_random,
    "xor-large": setup_xor_large,
    "paper-cli": setup_paper_cli,
}
