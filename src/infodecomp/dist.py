"""Exact finite joint distributions and Shannon-measure primitives.

Probabilities are exact rationals: a distribution holds its masses as
integer counts over one common denominator N (the lcm of the support's
denominators), and they cross the public boundary as
:class:`fractions.Fraction`. Marginals, independence checks and entropies
sum and compare those ints, never Fractions. Entropies are in bits (log
base 2): an exact Fraction when every marginal mass is a power-of-two
reciprocal, which makes integer bit counts on dyadic systems exact rather
than approximate, and a float otherwise, compared with a single global
tolerance (:data:`DEFAULT_TOLERANCE`). Determinism and independence checks
are exact checks on the count tables, never tolerance checks. That choice
is made in one place, :class:`Measurement`, which projects each marginal of
a system once and answers every question from those tables.

All types except :class:`Measurement`, a per-call cache, are immutable
after construction and safe to share across threads; all operations are
pure functions of their inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Collection, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    AlphabetViolation,
    CyclicDefinition,
    DuplicateOutcome,
    EmptySupport,
    InvalidProbability,
    SumNotOne,
    SupportTooLarge,
    UnknownBit,
    UnknownVariable,
)

#: Global comparison tolerance for floating entropy values, in bits.
DEFAULT_TOLERANCE = 1e-9

#: Default cap on enumerated support size.
DEFAULT_SUPPORT_CAP = 1 << 20

Value = Union[int, str, tuple]
Outcome = tuple
GroupLike = Union[str, int, Iterable[Union[str, int]]]


@dataclass(frozen=True)
class VariableId:
    """A named variable at a fixed position in the system ordering."""

    name: str
    index: int


def _entropy(counts: Collection[int], total: int) -> Fraction | float:
    """Shannon entropy in bits of masses c/N, given as positive integer
    counts c over N = `total`: exact when every mass is 2**-k, else a float.

    A mass 2**-k adds p*k. A projected mass can be dyadic when N is not a
    power of two (3/6 = 1/2), so the test is on N // c. A float sums
    (c/N) * (log2(N/g) - log2(c/g)), g = gcd(c, N), over sorted counts. On
    dyadic masses every such term is exact, so a sum mixing exact and float
    entropies has the bits of the all-float sum (while it fits 53 bits).
    """
    bits = 0
    for c in counts:
        q, r = divmod(total, c)
        if r or q & (q - 1):
            break
        bits += c * (q.bit_length() - 1)
    else:
        return Fraction(bits, total)
    counts = sorted(counts)
    if counts[0] == counts[-1]:
        return math.log2(len(counts))
    log2, gcd = math.log2, math.gcd
    result = 0.0
    for c in counts:
        g = gcd(c, total)
        result += (c / total) * (log2(total // g) - log2(c // g))
    return result


def _counts_over_lcm(masses: Sequence[Fraction]) -> tuple[list[int], int]:
    """The masses as integer numerators over the lcm of their denominators."""
    total = math.lcm(*(p.denominator for p in masses))
    return [p.numerator * (total // p.denominator) for p in masses], total


def _parse_probability(value) -> Fraction:
    if isinstance(value, (bool, float)):
        raise InvalidProbability(
            f"probability {value!r} is a {type(value).__name__}; "
            "pass a Fraction, int or 'num/den' string"
        )
    try:
        p = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidProbability(f"cannot parse probability {value!r}") from exc
    if p < 0:
        raise InvalidProbability(f"negative probability {p}")
    return p


@dataclass(frozen=True)
class JointDistribution:
    """Exact pmf over named finite-alphabet variables.

    `support` holds only positive-mass outcomes, sorted canonically by
    per-variable alphabet position; probabilities sum to exactly one.
    Internally the masses are also held as `_counts`, integer numerators
    parallel to `support` over `_denominator`, the lcm N of the support's
    denominators; every projection and entropy works on those ints.
    """

    variables: tuple[VariableId, ...]
    alphabets: tuple[tuple[Value, ...], ...]
    support: tuple[tuple[Outcome, Fraction], ...]
    _name_to_index: dict = field(init=False, repr=False, compare=False, hash=False)
    _denominator: int = field(init=False, repr=False, compare=False, hash=False)
    _counts: tuple[int, ...] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_name_to_index", {v.name: v.index for v in self.variables}
        )
        counts, total = _counts_over_lcm([p for _, p in self.support])
        object.__setattr__(self, "_denominator", total)
        object.__setattr__(self, "_counts", tuple(counts))

    # -- construction ---------------------------------------------------

    @classmethod
    def from_pmf(
        cls,
        entries: Iterable[tuple[Sequence[Value], object]],
        variables: Sequence[str],
        alphabets: Sequence[Sequence[Value]],
        max_support: int = DEFAULT_SUPPORT_CAP,
    ) -> "JointDistribution":
        """Build a validated distribution from (outcome, probability) entries.

        Zero-mass outcomes are stripped; duplicates, alphabet violations and
        a total mass different from one are rejected.
        """
        names = list(variables)
        if len(set(names)) != len(names):
            raise AlphabetViolation(f"duplicate variable names in {names}")
        if len(alphabets) != len(names):
            raise AlphabetViolation("one alphabet required per variable")
        var_ids = tuple(VariableId(n, i) for i, n in enumerate(names))
        alpha = tuple(tuple(a) for a in alphabets)
        for vid, a in zip(var_ids, alpha):
            if len(set(a)) != len(a) or not a:
                raise AlphabetViolation(f"alphabet of {vid.name} empty or has repeats")

        pmf: dict[Outcome, Fraction] = {}
        for outcome, prob in entries:
            p = _parse_probability(prob)
            out = tuple(outcome)
            if len(out) != len(var_ids):
                raise AlphabetViolation(
                    f"outcome {out} has arity {len(out)}, expected {len(var_ids)}"
                )
            for vid, a, value in zip(var_ids, alpha, out):
                if value not in a:
                    raise AlphabetViolation(
                        f"value {value!r} of {vid.name} not in its alphabet"
                    )
            if out in pmf:
                raise DuplicateOutcome(f"outcome {out} listed twice")
            pmf[out] = p
        pmf = {out: p for out, p in pmf.items() if p > 0}
        if not pmf:
            raise EmptySupport("pmf has no positive-mass outcome")
        if len(pmf) > max_support:
            raise SupportTooLarge(f"support size {len(pmf)} exceeds cap {max_support}")

        pos = [{v: i for i, v in enumerate(a)} for a in alpha]
        ordered = sorted(
            pmf.items(), key=lambda item: tuple(pos[i][v] for i, v in enumerate(item[0]))
        )
        d = cls(var_ids, alpha, tuple(ordered))
        if sum(d._counts) != d._denominator:
            total = Fraction(sum(d._counts), d._denominator)
            raise SumNotOne(f"probabilities sum to {total}, not 1")
        return d

    # -- variable resolution ---------------------------------------------

    def resolve(self, group: GroupLike) -> tuple[int, ...]:
        """Resolve a group selector to sorted, deduplicated variable indices.

        Accepts a single name/index or an iterable of them.
        """
        if isinstance(group, (str, int)):
            group = (group,)
        indices = set()
        for item in group:
            if isinstance(item, VariableId):
                item = item.name
            if isinstance(item, int):
                if not 0 <= item < len(self.variables):
                    raise UnknownVariable(f"variable index {item} out of range")
                indices.add(item)
            elif isinstance(item, str):
                if item not in self._name_to_index:
                    raise UnknownVariable(f"no variable named {item!r}")
                indices.add(self._name_to_index[item])
            else:
                raise UnknownVariable(f"bad variable selector {item!r}")
        if not indices:
            raise UnknownVariable("empty variable group")
        return tuple(sorted(indices))

    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    # -- core operations --------------------------------------------------

    def _project_counts(self, indices: tuple[int, ...]) -> dict[Outcome, int]:
        """Marginal counts over `_denominator`, keyed by projected outcome."""
        counts: dict[Outcome, int] = {}
        get = counts.get
        for (outcome, _), c in zip(self.support, self._counts):
            key = tuple([outcome[i] for i in indices])
            counts[key] = get(key, 0) + c
        return counts

    def marginal(self, group: GroupLike) -> "JointDistribution":
        """Exact marginal onto a nonempty subset of variables."""
        indices = self.resolve(group)
        n = self._denominator
        counts = self._project_counts(indices)
        masses = [(key, Fraction(c, n)) for key, c in counts.items()]
        names = [self.variables[i].name for i in indices]
        alphabets = [self.alphabets[i] for i in indices]
        return JointDistribution.from_pmf(masses, names, alphabets)

    def entropy(self, group: GroupLike) -> float:
        """H(group) in bits; exact integer for equal dyadic masses."""
        return float(Measurement(self).entropy(self.resolve(group)))

    def entropy_exact(self, group: GroupLike) -> Fraction | None:
        """Exact rational H(group) when all marginal masses are 2**-k."""
        h = Measurement(self).entropy(self.resolve(group))
        return h if isinstance(h, Fraction) else None

    def conditional_entropy(self, group: GroupLike, given: GroupLike = ()) -> float:
        """H(group | given) = H(group ∪ given) - H(given)."""
        g = self.resolve(group)
        cond = () if _is_empty_selector(given) else self.resolve(given)
        m = Measurement(self)
        return float(m.entropy(_union(g, cond)) - m.entropy(cond))

    def mutual_information(self, a: GroupLike, b: GroupLike) -> float:
        """I(a;b) = H(a) + H(b) - H(a ∪ b)."""
        return float(Measurement(self).mutual_information(self.resolve(a), self.resolve(b)))

    def mutual_information_exact(self, a: GroupLike, b: GroupLike) -> Fraction | None:
        """Exact I(a;b) when all three entropies have exact dyadic form."""
        i = Measurement(self).mutual_information(self.resolve(a), self.resolve(b))
        return i if isinstance(i, Fraction) else None

    def is_deterministic(self, group: GroupLike, given: GroupLike = ()) -> bool:
        """True iff H(group | given) = 0, checked exactly on the count tables."""
        cond = () if _is_empty_selector(given) else self.resolve(given)
        return Measurement(self).is_deterministic(self.resolve(group), cond)

    def is_independent(self, a: GroupLike, b: GroupLike) -> bool:
        """True iff the joint pmf of a and b factorizes exactly."""
        return Measurement(self).is_independent(self.resolve(a), self.resolve(b))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variable_names()),
            "alphabets": [[_encode_value(v) for v in a] for a in self.alphabets],
            "pmf": [
                {
                    "outcome": [_encode_value(v) for v in outcome],
                    "p": f"{p.numerator}/{p.denominator}",
                }
                for outcome, p in self.support
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "JointDistribution":
        try:
            variables = list(data["variables"])
            alphabets = [[_decode_value(v) for v in a] for a in data["alphabets"]]
            entries = [
                ([_decode_value(v) for v in row["outcome"]], row["p"])
                for row in data["pmf"]
            ]
        except (KeyError, TypeError) as exc:
            raise AlphabetViolation(f"malformed distribution document: {exc}") from exc
        return cls.from_pmf(entries, variables, alphabets)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "JointDistribution":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def __iter__(self) -> Iterator[tuple[Outcome, Fraction]]:
        return iter(self.support)


class Measurement:
    """Shannon quantities of one distribution, read off marginal count
    tables that are each projected once. Groups are sorted index tuples, as
    :meth:`JointDistribution.resolve` returns them; values are exact where
    :func:`_entropy` allows. It keeps every table, so build one per call.
    """

    __slots__ = ("dist", "_tables")

    def __init__(self, dist: JointDistribution):
        self.dist = dist
        self._tables: dict[tuple[int, ...], dict[Outcome, int]] = {}

    def _table(self, indices: tuple[int, ...]) -> dict[Outcome, int]:
        """Marginal counts over the distribution's common denominator."""
        table = self._tables.get(indices)
        if table is None:
            table = self._tables[indices] = self.dist._project_counts(indices)
        return table

    def entropy(self, group: tuple[int, ...]) -> Fraction | float:
        return _entropy(self._table(group).values(), self.dist._denominator)

    def mutual_information(self, a: tuple[int, ...], b: tuple[int, ...]) -> Fraction | float:
        return self.entropy(a) + self.entropy(b) - self.entropy(_union(a, b))

    def is_deterministic(self, group: tuple[int, ...], given: tuple[int, ...]) -> bool:
        """H(group | given) = 0: each value of `given` meets one value of `group`."""
        return len(self._table(_union(group, given))) == len(self._table(given))

    def is_independent(self, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        if set(a) & set(b):
            return False
        joint = _union(a, b)
        pa, pb, pab = self._table(a), self._table(b), self._table(joint)
        # Every product of positive marginal masses must appear in the joint.
        if len(pab) != len(pa) * len(pb):
            return False
        n = self.dist._denominator
        at_a = [joint.index(i) for i in a]
        at_b = [joint.index(i) for i in b]
        for key, c_ab in pab.items():
            c_a = pa[tuple([key[j] for j in at_a])]
            c_b = pb[tuple([key[j] for j in at_b])]
            if c_ab * n != c_a * c_b:
                return False
        return True


def _union(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(a) | set(b)))


def _is_empty_selector(group: GroupLike) -> bool:
    if isinstance(group, (str, int)):
        return False
    return not tuple(group)


def _encode_value(v: Value):
    if isinstance(v, tuple):
        return [_encode_value(x) for x in v]
    return v


def _decode_value(v):
    if isinstance(v, list):
        return tuple(_decode_value(x) for x in v)
    return v


# --- circuits ----------------------------------------------------------------


@dataclass(frozen=True)
class CircuitSpec:
    """A system built from independent fair bits and XOR-derived bits.

    `free_bits` are independent Bernoulli(1/2) coins. Each entry of
    `xor_defs` derives a new bit as the XOR of previously defined bits.
    `groupings` assembles system variables out of bits; `target` assembles
    the target variable (named ``T``). Variables grouped from several bits
    take tuple values ordered by bit name; single-bit variables take the
    bare bit value.
    """

    free_bits: tuple[str, ...]
    xor_defs: tuple[tuple[str, tuple[str, ...]], ...]
    groupings: tuple[tuple[str, tuple[str, ...]], ...]
    target: tuple[str, ...]

    TARGET_NAME = "T"

    @classmethod
    def create(
        cls,
        free_bits: Sequence[str],
        xor_defs: Mapping[str, Sequence[str]] | Sequence[tuple[str, Sequence[str]]],
        groupings: Mapping[str, Sequence[str]] | Sequence[tuple[str, Sequence[str]]],
        target: Sequence[str],
    ) -> "CircuitSpec":
        xor_items = xor_defs.items() if isinstance(xor_defs, Mapping) else xor_defs
        group_items = groupings.items() if isinstance(groupings, Mapping) else groupings
        return cls(
            tuple(free_bits),
            tuple((name, tuple(ops)) for name, ops in xor_items),
            tuple((name, tuple(bits)) for name, bits in group_items),
            tuple(target),
        )

    def __post_init__(self):
        defined = list(self.free_bits)
        if len(set(defined)) != len(defined):
            raise AlphabetViolation("duplicate free bit names")
        all_names = set(defined) | {name for name, _ in self.xor_defs}
        for name, operands in self.xor_defs:
            if name in defined:
                raise AlphabetViolation(f"bit {name!r} defined twice")
            for op in operands:
                if op not in all_names:
                    raise UnknownBit(f"operand {op!r} of {name!r} never defined")
                if op not in defined:
                    raise CyclicDefinition(
                        f"bit {name!r} uses {op!r} before it is defined"
                    )
            defined.append(name)
        for var, bits in self.groupings:
            for b in bits:
                if b not in all_names:
                    raise UnknownBit(f"grouped bit {b!r} of {var!r} never defined")
        for b in self.target:
            if b not in all_names:
                raise UnknownBit(f"target bit {b!r} never defined")
        if not self.groupings and not self.target:
            raise AlphabetViolation("circuit defines no variables")
        names = [var for var, _ in self.groupings]
        if len(set(names)) != len(names):
            raise AlphabetViolation("duplicate grouping variable names")
        if self.target and self.TARGET_NAME in names:
            raise AlphabetViolation(
                f"grouping name {self.TARGET_NAME!r} collides with the target variable"
            )

    @classmethod
    def from_dict(cls, data: Mapping) -> "CircuitSpec":
        try:
            return cls.create(
                data["free_bits"],
                list(data.get("xor_defs", {}).items())
                if isinstance(data.get("xor_defs", {}), Mapping)
                else data["xor_defs"],
                data["groupings"],
                data.get("target", ()),
            )
        except (KeyError, TypeError) as exc:
            raise AlphabetViolation(f"malformed circuit document: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "free_bits": list(self.free_bits),
            "xor_defs": {name: list(ops) for name, ops in self.xor_defs},
            "groupings": {name: list(bits) for name, bits in self.groupings},
            "target": list(self.target),
        }

    @classmethod
    def load(cls, path) -> "CircuitSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def from_circuit(
    spec: CircuitSpec, max_support: int = DEFAULT_SUPPORT_CAP
) -> JointDistribution:
    """Expand a circuit into the joint distribution of its variables.

    Enumerates all 2**len(free_bits) assignments with equal mass. Grouped
    variables and the target are materialized as composite-valued columns.
    """
    nfree = len(spec.free_bits)
    if 1 << nfree > max_support:
        raise SupportTooLarge(
            f"{nfree} free bits enumerate {1 << nfree} outcomes, cap is {max_support}"
        )
    columns: list[tuple[str, tuple[str, ...]]] = list(spec.groupings)
    if spec.target:
        columns.append((spec.TARGET_NAME, spec.target))
    sorted_bits = [tuple(sorted(grouped)) for _, grouped in columns]

    def column_value(bits: dict[str, int], ordered_bits: tuple[str, ...]):
        ordered = tuple(bits[b] for b in ordered_bits)
        return ordered[0] if len(ordered) == 1 else ordered

    hits: dict[Outcome, int] = {}
    for assignment in product((0, 1), repeat=nfree):
        bits = dict(zip(spec.free_bits, assignment))
        for name, operands in spec.xor_defs:
            acc = 0
            for op in operands:
                acc ^= bits[op]
            bits[name] = acc
        outcome = tuple(column_value(bits, ordered_bits) for ordered_bits in sorted_bits)
        hits[outcome] = hits.get(outcome, 0) + 1

    names = [name for name, _ in columns]
    alphabets = [
        sorted({outcome[i] for outcome in hits}) for i in range(len(columns))
    ]
    total = 1 << nfree
    return JointDistribution.from_pmf(
        [(outcome, Fraction(c, total)) for outcome, c in hits.items()],
        names,
        alphabets,
        max_support=max_support,
    )
