"""Antichain canonicalization, lattice enumeration and the order laws."""

from itertools import product

import pytest

from infodecomp.errors import NotANode, TooManySources, UnsupportedArity
from infodecomp.lattice import (
    Antichain,
    enumerate_full,
    enumerate_half,
    format_antichain,
    leq,
    parse_antichain,
)


def bitmask_antichains(n: int) -> list[frozenset[int]]:
    """Independent enumeration over subset bitmasks, for cross-checking.

    A subset of {1..n} is a bitmask; an antichain is a set of masks with no
    proper containment pair. Conflicts are precomputed per mask so the scan
    over all 2**(2**n - 1) candidate families stays fast.
    """
    masks = list(range(1, 1 << n))
    conflict = [0] * len(masks)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if i != j and (a & b == a or a | b == a):
                conflict[i] |= 1 << j
    found = []
    for family in range(1, 1 << len(masks)):
        rest = family
        ok = True
        while rest:
            i = (rest & -rest).bit_length() - 1
            if family & conflict[i]:
                ok = False
                break
            rest &= rest - 1
        if ok:
            found.append(frozenset(masks[i] for i in range(len(masks)) if family >> i & 1))
    return found


def as_masks(antichain: Antichain) -> frozenset[int]:
    return frozenset(sum(1 << (i - 1) for i in e) for e in antichain.elements)


class TestAntichain:
    def test_canonical_form(self):
        a = Antichain.of([(3, 1), (2,)])
        assert a.elements == ((2,), (1, 3))

    def test_canonicalization_idempotent(self):
        a = Antichain.of([(1,), (2, 3)])
        assert Antichain.of(a.elements) == a

    def test_rejects_containment(self):
        with pytest.raises(ValueError):
            Antichain.of([(1,), (1, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Antichain.of([])
        with pytest.raises(ValueError):
            Antichain.of([()])

    def test_duplicate_elements_collapse(self):
        assert Antichain.of([(1,), (1,)]) == Antichain.of([(1,)])

    def test_parse_format_are_inverse(self):
        for text in ("{{1}}", "{{1}{2}}", "{{1}{23}}", "{{12}{13}{23}}", "{{123}}"):
            assert format_antichain(parse_antichain(text)) == text
        for lattice_n in (2, 3):
            for node in enumerate_full(lattice_n):
                assert parse_antichain(format_antichain(node)) == node

    def test_parse_rejects_garbage(self):
        for bad in ("", "{}", "{{}}", "{1}", "{{1}{12}}extra", "{{a}}"):
            with pytest.raises(ValueError):
                parse_antichain(bad)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 18), (4, 166)])
    def test_counts_match_independent_enumeration(self, n, count):
        lattice = enumerate_full(n)
        oracle = bitmask_antichains(n)
        assert len(lattice) == len(oracle) == count
        assert {as_masks(a) for a in lattice.nodes} == set(oracle)

    def test_one_lattice_per_n_is_shared(self):
        for n in (1, 2, 3, 4):
            assert enumerate_full(n) is enumerate_full(n)
        assert enumerate_half(3) is enumerate_half(3)

    def test_no_duplicates(self):
        lattice = enumerate_full(3)
        assert len(set(lattice.nodes)) == len(lattice.nodes)

    def test_n2_nodes(self):
        nodes = {format_antichain(a) for a in enumerate_full(2)}
        assert nodes == {"{{1}{2}}", "{{1}}", "{{2}}", "{{12}}"}

    def test_too_many_sources(self):
        with pytest.raises(TooManySources):
            enumerate_full(5)
        with pytest.raises(ValueError):
            enumerate_full(0)

    def test_half_lattice_is_the_ten_singleton_carriers(self):
        half = enumerate_half(3)
        expected = {
            "{{1}{2}{3}}",
            "{{1}{2}}",
            "{{1}{3}}",
            "{{2}{3}}",
            "{{1}{23}}",
            "{{2}{13}}",
            "{{3}{12}}",
            "{{1}}",
            "{{2}}",
            "{{3}}",
        }
        assert {format_antichain(a) for a in half} == expected
        assert parse_antichain("{{12}}") not in half
        assert parse_antichain("{{3}{12}}") in half

    def test_half_equals_full_filtered(self):
        full = enumerate_full(3)
        half = enumerate_half(3)
        assert set(half.nodes) == {a for a in full.nodes if a.contains_singleton()}

    def test_half_lattice_arity(self):
        with pytest.raises(UnsupportedArity):
            enumerate_half(2)


class TestOrder:
    def test_quoted_examples(self):
        assert leq(parse_antichain("{{1}{2}}"), parse_antichain("{{12}}"))
        assert not leq(parse_antichain("{{12}}"), parse_antichain("{{1}}"))
        assert leq(parse_antichain("{{1}{2}{3}}"), parse_antichain("{{1}{23}}"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order_laws_exhaustively(self, n):
        nodes = enumerate_full(n).nodes
        for a in nodes:
            assert leq(a, a)
        for a, b in product(nodes, repeat=2):
            if leq(a, b) and leq(b, a):
                assert a == b
        for a, b, c in product(nodes, repeat=3):
            if leq(a, b) and leq(b, c):
                assert leq(a, c)

    @pytest.mark.parametrize(
        "build,n",
        [(enumerate_full, 1), (enumerate_full, 2), (enumerate_full, 3),
         (enumerate_full, 4), (enumerate_half, 3)],
    )
    def test_downsets_agree_with_the_set_order(self, build, n):
        lattice = build(n)
        for alpha in lattice.nodes:
            expected = tuple(b for b in lattice.nodes if leq(b, alpha))
            assert lattice.downset(alpha) == expected

    def test_downset_examples(self):
        two = enumerate_full(2)
        down = {
            format_antichain(b) for b in two.downset(parse_antichain("{{1}}"))
        }
        assert down == {"{{1}{2}}", "{{1}}"}

        three = enumerate_full(3)
        bottom = parse_antichain("{{1}{2}{3}}")
        assert three.downset(bottom) == (bottom,)
        down1 = {
            format_antichain(b) for b in three.downset(parse_antichain("{{1}}"))
        }
        assert down1 == {"{{1}{2}{3}}", "{{1}{2}}", "{{1}{3}}", "{{1}{23}}", "{{1}}"}

    def test_downset_in_half_lattice(self):
        half = enumerate_half(3)
        down = {
            format_antichain(b) for b in half.downset(parse_antichain("{{3}}"))
        }
        assert down == {"{{1}{2}{3}}", "{{1}{3}}", "{{2}{3}}", "{{3}{12}}", "{{3}}"}

    def test_not_a_node(self):
        two = enumerate_full(2)
        with pytest.raises(NotANode):
            two.downset(parse_antichain("{{3}}"))
        with pytest.raises(NotANode):
            two.leq(parse_antichain("{{1}}"), parse_antichain("{{1}{23}}"))

    def test_downsets_are_memoized(self):
        lattice = enumerate_full(3)
        node = parse_antichain("{{123}}")
        assert lattice.downset(node) is lattice.downset(node)
        assert len(lattice.downset(node)) == 18
