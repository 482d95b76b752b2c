"""Command-line interface.

One executable, eight subcommands: ``entropy``, ``mutual-info``, ``lattice``,
``redundancy-gk``, ``decompose-sid``, ``pid-deduce``, ``theorem1-scan`` and
``verify-paper``. Input is either a built-in system (``--builtin system1`` or
``system2``) or a JSON file holding a distribution (``variables``,
``alphabets``, ``pmf``) or a circuit (``free_bits``, ``xor_defs``,
``groupings``, ``target``). Output is plain text or a machine-readable JSON
document (``--format json``) with the same numeric content. Only
``decompose-sid`` and ``pid-deduce`` read a tolerance, so only they take
``--tolerance``.

Exit codes: 0 success, 1 failed verification, 2 usage error (including a
``--tolerance`` that is negative or not finite, or given to another
command, and a ``--red`` that is not a rational within float range),
3 input error. Nothing here is randomized; identical inputs produce
identical bytes, except for the wall time of the scan that
``theorem1-scan`` reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .dist import DEFAULT_TOLERANCE, CircuitSpec, JointDistribution, Measurement, from_circuit
from .engine import build_constraints, propagate, wesp_report
from .errors import InfodecompError
from .lattice import enumerate_full, enumerate_half, format_antichain
from .redundancy import common_partition
from .sid import _sum_rule_rank, check_sum_rules
from .systems import (
    get_builtin,
    golden_assignment,
    run_all_checks,
    scan_universal_subsets,
    verify_no_universal_subset,
)

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2
_EXIT_INPUT = 3


def _parse_group(text: str) -> tuple:
    tokens = [token.strip() for token in text.split("+")]
    if not any(tokens):
        raise ValueError(f"empty group selector in {text!r}")
    if not all(tokens):
        raise ValueError(f"empty variable name in group {text!r}")
    return tuple(int(token) if token.isdigit() else token for token in tokens)


def _parse_groups(text: str) -> tuple[tuple, ...]:
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"empty source group in {text!r}")
    return tuple(_parse_group(part) for part in parts)


def _tolerance(text: str) -> float:
    """A tolerance in bits: a finite number, zero or above."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _redundancy(text: str) -> Fraction:
    """An injected redundancy: a rational (e.g. 1/2 or 0.25) that a float can hold."""
    try:
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"must be a rational within float range, such as 1/2; got {text!r}"
        ) from None
    return value


def _number(value) -> dict:
    """Uniform rendering of an exact-or-float quantity."""
    if isinstance(value, Fraction):
        return {"bits": float(value), "exact": f"{value.numerator}/{value.denominator}"}
    return {"bits": float(value), "exact": None}


def _fmt(value) -> str:
    bits = float(value)
    text = f"{bits:.9g}"
    if isinstance(value, Fraction) and value.denominator != 1:
        text += f" ({value.numerator}/{value.denominator})"
    return text


class _Inputs:
    def __init__(self, dist: JointDistribution, sources, target, label: str):
        self.dist = dist
        self.sources = sources
        self.target = target
        self.label = label


def _load_inputs(args) -> _Inputs:
    if getattr(args, "builtin", None):
        built = get_builtin(args.builtin)
        return _Inputs(built.dist, built.sources, built.target, args.builtin)
    with open(args.input, encoding="utf-8") as fh:
        data = json.load(fh)
    if "pmf" in data:
        return _Inputs(JointDistribution.from_dict(data), None, None, args.input)
    if "free_bits" in data:
        spec = CircuitSpec.from_dict(data)
        dist = from_circuit(spec)
        sources = None
        names = [name for name, _ in spec.groupings]
        if len(names) == 3:
            sources = tuple((n,) for n in names)
        target = (CircuitSpec.TARGET_NAME,) if spec.target else None
        return _Inputs(dist, sources, target, args.input)
    raise InfodecompError(
        "input file is neither a distribution (pmf) nor a circuit (free_bits)"
    )


def _resolve_sources(args, inputs: _Inputs, count: int | None = 3):
    if getattr(args, "sources", None):
        sources = _parse_groups(args.sources)
    elif inputs.sources:
        sources = inputs.sources
    else:
        raise InfodecompError("no --sources given and the input declares none")
    if count is not None and len(sources) != count:
        raise InfodecompError(f"expected {count} source groups, got {len(sources)}")
    return sources


def _resolve_target(args, inputs: _Inputs):
    if getattr(args, "target", None):
        return _parse_group(args.target)
    if inputs.target:
        return inputs.target
    raise InfodecompError("no --target given and the input declares none")


def _emit(args, document: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# --- subcommand handlers -----------------------------------------------------


def _cmd_entropy(args) -> int:
    inputs = _load_inputs(args)
    group = _parse_group(args.group)
    d = inputs.dist
    value = Measurement(d).entropy(d.resolve(group))
    doc = {
        "command": "entropy",
        "inputs": {"system": inputs.label, "group": args.group},
        "values": {"entropy": _number(value)},
    }
    _emit(args, doc, [f"H({args.group}) = {_fmt(value)} bits"])
    return _EXIT_OK


def _cmd_mutual_info(args) -> int:
    inputs = _load_inputs(args)
    a, b = _parse_group(args.a), _parse_group(args.b)
    d = inputs.dist
    value = Measurement(d).mutual_information(d.resolve(a), d.resolve(b))
    doc = {
        "command": "mutual-info",
        "inputs": {"system": inputs.label, "a": args.a, "b": args.b},
        "values": {"mutual_information": _number(value)},
    }
    _emit(args, doc, [f"I({args.a} ; {args.b}) = {_fmt(value)} bits"])
    return _EXIT_OK


def _cmd_lattice(args) -> int:
    lattice = enumerate_half(args.n) if args.kind == "half" else enumerate_full(args.n)
    names = {node: format_antichain(node) for node in lattice.nodes}
    rows = [
        {"antichain": name, "downset": [names[b] for b in lattice.downset(node)]}
        for node, name in names.items()
    ]
    doc = {
        "command": "lattice",
        "inputs": {"n": args.n, "kind": args.kind},
        "values": {"node_count": len(lattice), "nodes": rows},
    }
    lines = [f"{args.kind} lattice over {args.n} sources: {len(lattice)} antichains"]
    for row in rows:
        lines.append(f"  {row['antichain']:<24} below: {' '.join(row['downset'])}")
    _emit(args, doc, lines)
    return _EXIT_OK


def _cmd_redundancy_gk(args) -> int:
    inputs = _load_inputs(args)
    sources = _resolve_sources(args, inputs, count=None)
    if len(sources) < 2:
        raise InfodecompError("redundancy needs at least two source groups")
    part = common_partition(inputs.dist, list(sources))
    masses = [f"{p.numerator}/{p.denominator}" for p in part.block_probabilities]
    doc = {
        "command": "redundancy-gk",
        "inputs": {"system": inputs.label, "sources": args.sources or "declared"},
        "values": {
            "redundancy": _number(part.value),
            "block_count": len(part.blocks),
            "block_masses": masses,
        },
    }
    lines = [
        f"H(Q) = {_fmt(part.value)} bits",
        f"blocks: {len(part.blocks)}",
        f"block masses: {' '.join(masses)}",
    ]
    _emit(args, doc, lines)
    return _EXIT_OK


def _cmd_decompose_sid(args) -> int:
    inputs = _load_inputs(args)
    sources = _resolve_sources(args, inputs)
    # check_sum_rules raises unless every rule holds, so each check passed.
    report = check_sum_rules(inputs.dist, *sources, red=args.red, tol=args.tolerance)
    table = report.table
    checks = [
        {"name": c.label, "passed": True, "residual": float(c.residual)}
        for c in report.all_checks()
    ]
    max_residual = max(abs(c["residual"]) for c in checks)
    rank = _sum_rule_rank()
    doc = {
        "command": "decompose-sid",
        "inputs": {"system": inputs.label, "sources": args.sources or "declared"},
        "values": {
            "atoms": {
                format_antichain(a): _number(v) for a, v in table.atoms
            },
            "atom_total": _number(report.sigma),
            "redundancy": _number(table.red),
            "matrix_rank": rank,
            "max_rule_residual": max_residual,
        },
        "checks": checks,
    }
    lines = ["atom table:"]
    for antichain, value in table.atoms:
        lines.append(f"  {format_antichain(antichain):<16} {_fmt(value)}")
    lines.append(f"atom total = {_fmt(report.sigma)}")
    lines.append(
        f"sum rules: {len(checks)}/{len(checks)} hold "
        f"(max residual {max_residual:.3g}, matrix rank {rank})"
    )
    _emit(args, doc, lines)
    return _EXIT_OK


def _cmd_pid_deduce(args) -> int:
    inputs = _load_inputs(args)
    sources = _resolve_sources(args, inputs)
    target = _resolve_target(args, inputs)
    state = build_constraints(
        inputs.dist, sources, target,
        mutual_sums=args.anchoring, tol=args.tolerance,
    )
    propagate(state)
    report = wesp_report(state)

    def fmt_interval(iv):
        if iv.forced():
            return f"= {_fmt(iv.lo)}"
        lo = "-inf" if iv.lo is None else _fmt(iv.lo)
        hi = "+inf" if iv.hi is None else _fmt(iv.hi)
        return f"in [{lo}, {hi}]"

    atoms = {
        str(ref): {
            "lo": None if iv.lo is None else _number(iv.lo),
            "hi": None if iv.hi is None else _number(iv.hi),
            "forced": iv.forced(),
        }
        for ref, iv in state.intervals.items()
    }
    doc = {
        "command": "pid-deduce",
        "inputs": {
            "system": inputs.label,
            "sources": list(state.source_names),
            "target": state.target_name,
            "anchoring": state.mode,
        },
        "values": {
            "status": state.status,
            "atoms": atoms,
            "constraint_counts": state.constraint_counts(),
            "rule_firings": list(state.firings),
            "wesp": {
                "mutual_information": _number(report.mutual_information),
                "atom_lower_bound": _number(report.atom_lower_bound),
                "gap": _number(report.gap),
                "violated": report.violated,
            },
        },
    }
    lines = [f"status: {state.status}"]
    counts = state.constraint_counts()
    lines.append(
        "constraints: " + ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
    )
    for note in state.firings:
        lines.append(f"fired: {note}")
    lines.append("atom intervals:")
    for ref, iv in state.intervals.items():
        lines.append(f"  {str(ref):<28} {fmt_interval(iv)}")
    lines.append(
        f"whole-vs-parts: atom lower bound {_fmt(report.atom_lower_bound)} vs "
        f"I = {_fmt(report.mutual_information)}"
        + (f" -> VIOLATION, gap {_fmt(report.gap)}" if report.violated else " -> consistent")
    )
    if args.certificate and state.certificate is not None:
        cert = state.certificate
        violated = state.constraints[cert.violated_index]
        lines.append("contradiction certificate:")
        lines.append(f"  cannot satisfy: {violated.provenance}")
        lines.append(f"  bound {_fmt(cert.lhs_bound)} vs rhs {_fmt(cert.rhs)}")
        for event in cert.events:
            producer = state.constraints[event.constraint_index]
            lines.append(
                f"  {str(event.ref):<28} {event.side} -> {_fmt(event.value)}"
                f"  by: {producer.provenance}"
            )
        doc["values"]["certificate"] = {
            "violated": violated.provenance,
            "lhs_bound": _number(cert.lhs_bound),
            "rhs": _number(cert.rhs),
            "steps": [
                {
                    "atom": str(event.ref),
                    "side": event.side,
                    "value": _number(event.value),
                    "rule": state.constraints[event.constraint_index].provenance,
                }
                for event in cert.events
            ],
        }
    _emit(args, doc, lines)
    return _EXIT_OK


def _cmd_theorem1_scan(args) -> int:
    if args.golden:
        result = scan_universal_subsets(
            golden_assignment("system1"),
            golden_assignment("system2"),
            Fraction(3),
            Fraction(2),
        )
    else:
        result = verify_no_universal_subset()
    doc = {
        "command": "theorem1-scan",
        "inputs": {"tables": "golden" if args.golden else "deduced"},
        "values": {
            "subsets_checked": result.subsets_checked,
            "valid_subsets": [
                [format_antichain(a) for a in result.decode(mask)]
                for mask in result.valid_masks
            ],
            "elapsed_seconds": result.elapsed_seconds,
        },
    }
    lines = [
        f"checked {result.subsets_checked} atom subsets in "
        f"{result.elapsed_seconds:.2f}s: {len(result.valid_masks)} satisfy both systems"
    ]
    _emit(args, doc, lines)
    return _EXIT_OK


def _cmd_verify_paper(args) -> int:
    results = run_all_checks()
    doc = {
        "command": "verify-paper",
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<28} {r.detail}")
    _emit(args, doc, lines)
    return _EXIT_OK if all(r.passed for r in results) else _EXIT_CHECK_FAILED


# --- parser ---------------------------------------------------------------------


def _add_tolerance_option(sub):
    sub.add_argument(
        "--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE,
        help="floating comparison tolerance in bits (finite, >= 0)",
    )


def _add_input_options(sub, with_sources=False, with_target=False):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--builtin", choices=["system1", "system2"],
                       help="use a built-in system")
    group.add_argument("--input", help="distribution or circuit JSON file")
    if with_sources:
        sub.add_argument(
            "--sources",
            help="comma-separated source groups, variables joined with '+' "
                 "(e.g. S1,S2,S3 or S1+S2,S3)",
        )
    if with_target:
        sub.add_argument("--target", help="target group (e.g. T or x1+x2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodecomp",
        description="Exact information decomposition for small discrete systems",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default text)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("entropy", help="Shannon entropy of a variable group")
    _add_input_options(sub)
    sub.add_argument("--group", required=True, help="variable group (e.g. T or S1+S2)")
    sub.set_defaults(handler=_cmd_entropy)

    sub = commands.add_parser("mutual-info", help="mutual information of two groups")
    _add_input_options(sub)
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub.set_defaults(handler=_cmd_mutual_info)

    sub = commands.add_parser("lattice", help="enumerate a decomposition lattice")
    sub.add_argument("--n", type=int, required=True, help="number of sources (1-4)")
    sub.add_argument("--kind", choices=["full", "half"], default="full")
    sub.set_defaults(handler=_cmd_lattice)

    sub = commands.add_parser(
        "redundancy-gk", help="common-partition redundancy of source groups"
    )
    _add_input_options(sub, with_sources=True)
    sub.set_defaults(handler=_cmd_redundancy_gk)

    sub = commands.add_parser(
        "decompose-sid", help="ten-atom entropy decomposition of three groups"
    )
    _add_input_options(sub, with_sources=True)
    sub.add_argument(
        "--red", type=_redundancy,
        help="override the redundancy value (rational, e.g. 1/2)",
    )
    _add_tolerance_option(sub)
    sub.set_defaults(handler=_cmd_decompose_sid)

    sub = commands.add_parser(
        "pid-deduce", help="axiom-driven deduction of partial-information atoms"
    )
    _add_input_options(sub, with_sources=True, with_target=True)
    sub.add_argument(
        "--anchoring", choices=["all", "singletons"], default="all",
        help="which subset sums are anchored to measured information",
    )
    sub.add_argument(
        "--certificate", action="store_true",
        help="print the contradiction certificate, if any",
    )
    _add_tolerance_option(sub)
    sub.set_defaults(handler=_cmd_pid_deduce)

    sub = commands.add_parser(
        "theorem1-scan",
        help="scan all atom subsets for a universal summation rule",
    )
    sub.add_argument(
        "--golden", action="store_true",
        help="scan the hand-checked tables instead of freshly deduced ones",
    )
    sub.set_defaults(handler=_cmd_theorem1_scan)

    sub = commands.add_parser(
        "verify-paper", help="run every built-in verification and report pass/fail"
    )
    sub.set_defaults(handler=_cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse input JSON: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (InfodecompError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
