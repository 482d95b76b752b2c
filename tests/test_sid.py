"""Closed-form atom tables, the 9x10 rule system, and the entropy sum rules."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodecomp import (
    ATOM_ORDER,
    SUM_RULE_MATRIX,
    EntropyVector,
    JointDistribution,
    check_sum_rules,
    decompose,
    si_atoms,
    synergy_sum_check,
    verify_linear_system,
)
from infodecomp.dist import DEFAULT_TOLERANCE as TOL
from infodecomp.errors import AxiomViolated, NegativeRedundancy, ResidualTooLarge
from infodecomp.lattice import Antichain, enumerate_half, parse_antichain
from infodecomp.sid import SIAtomTable, exact_rank

from conftest import SOURCES_ABC, one_third_system

BIT = [0, 1]


def table_by_name(table):
    return {str(a): v for a, v in table.atoms}


def independent_coins():
    entries = [((a, b, c), Fraction(1, 8)) for a, b, c in product(BIT, BIT, BIT)]
    return JointDistribution.from_pmf(entries, ["A", "B", "C"], [BIT, BIT, BIT])


def copy_triple():
    return JointDistribution.from_pmf(
        [((0, 0, 0), "1/2"), ((1, 1, 1), "1/2")], ["A", "B", "C"], [BIT, BIT, BIT]
    )


def pair_and_join():
    entries = [((a, b, (a, b)), Fraction(1, 4)) for a, b in product(BIT, BIT)]
    alphabets = [BIT, BIT, [(0, 0), (0, 1), (1, 0), (1, 1)]]
    return JointDistribution.from_pmf(entries, ["A", "B", "C"], alphabets)


class TestClosedForm:
    def test_xor_triple_puts_one_bit_on_each_synergy_atom(self, system2):
        table = decompose(system2.dist, ("S1",), ("S2",), ("S3",))
        values = table_by_name(table)
        for name in ("{{1}{23}}", "{{2}{13}}", "{{3}{12}}"):
            assert values[name] == 1
        for name, v in values.items():
            if name not in ("{{1}{23}}", "{{2}{13}}", "{{3}{12}}"):
                assert v == 0

    def test_independent_coins_put_one_bit_on_each_exclusive_atom(self):
        table = decompose(independent_coins(), *SOURCES_ABC)
        values = table_by_name(table)
        for name in ("{{1}}", "{{2}}", "{{3}}"):
            assert values[name] == 1
        assert table.total() == 3

    def test_copy_triple_is_pure_redundancy(self):
        ev = EntropyVector(1, 1, 1, 1, 1, 1, 1)
        table = si_atoms(ev, Fraction(1))
        values = table_by_name(table)
        assert values["{{1}{2}{3}}"] == 1
        assert all(v == 0 for name, v in values.items() if name != "{{1}{2}{3}}")
        measured = decompose(copy_triple(), *SOURCES_ABC)
        assert measured.as_dict() == table.as_dict()

    def test_join_variable_shares_a_bit_with_each_coin(self):
        table = decompose(pair_and_join(), *SOURCES_ABC)
        values = table_by_name(table)
        assert values["{{1}{3}}"] == 1
        assert values["{{2}{3}}"] == 1
        assert table.total() == 2
        assert all(v == 0 for _, v in table.synergy_atoms())

    def test_synergy_atoms_coincide(self, corpus):
        for d in corpus[:40]:
            table = decompose(d, *SOURCES_ABC)
            one, two, three = (v for _, v in table.synergy_atoms())
            assert one == two == three

    def test_negative_redundancy_rejected(self):
        ev = EntropyVector(1, 1, 1, 2, 2, 2, 3)
        with pytest.raises(NegativeRedundancy):
            si_atoms(ev, Fraction(-1, 2))

    def test_entropy_vector_validation(self):
        with pytest.raises(ValueError):
            si_atoms(EntropyVector(1, 1, 1, 3, 2, 2, 3), 0)  # h12 > h1+h2
        with pytest.raises(ValueError):
            si_atoms(EntropyVector(2, 1, 1, 1, 2, 2, 2), 0)  # h12 < h1

    def test_entropies_become_exact_once(self):
        ev = EntropyVector(0.1, 1, Fraction(1, 3), 1.1, 1, 1, 1.1)
        assert all(type(h) is Fraction for h in vars(ev).values())
        assert ev.h1 == Fraction(0.1) and ev.h3 == Fraction(1, 3)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            EntropyVector(1, 1, 1, 2, 2, 2, 3).validate(-1e-9)

    def test_entropy_vector_projects_each_marginal_once(self, projections):
        ev = EntropyVector.from_distribution(one_third_system(), *SOURCES_ABC)
        assert ev.h123 == Fraction(math.log2(3))
        assert sorted(projections) == [
            (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)
        ]

    def test_validate_converts_the_tolerance_once(self, corpus, monkeypatch):
        from_float = Fraction.from_float.__func__
        calls = []

        def counted(cls, f):
            calls.append(f)
            return from_float(cls, f)

        vectors = [EntropyVector.from_distribution(d, *SOURCES_ABC) for d in corpus[:50]]
        monkeypatch.setattr(Fraction, "from_float", classmethod(counted))
        for ev in vectors:
            for tol in (0.0, TOL, 0.5, math.inf):
                calls.clear()
                try:
                    ev.validate(tol)
                except ValueError:
                    pass
                assert len(calls) <= 1, tol


#: The subsets of {1, 2, 3} in the order EntropyVector.validate visits them.
SUBSETS = tuple(
    frozenset(s) for s in ((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))
)


def reference_validate(values, tol):
    """All 64 ordered pairs and both Shannon inequalities, in exact arithmetic;
    the message of the first failure, or None."""
    h = dict(zip(SUBSETS, [Fraction(0), *map(Fraction, values)]))
    for a in h:
        for b in h:
            if a <= b and h[a] - h[b] > tol:
                return f"entropy not monotone: H{set(a)} > H{set(b)}"
            if h[a | b] + h[a & b] - (h[a] + h[b]) > tol:
                return f"entropy not submodular on {set(a)}, {set(b)}"
    return None


@st.composite
def perturbed_entropy_vectors(draw):
    """An exact polymatroid, with some fields nudged by +-1e-12 or +-2e-9.

    H(S) sums small dyadic weights over the extreme rays of the three-variable
    polymatroid cone: "S meets T" for each nonempty T, and min(|S|, 2). Most
    weights are 0, so the vector often sits on a face of the cone where many
    inequalities are tight. Each field is handed over as a Fraction or as the
    nearest float.
    """
    weights = draw(st.lists(
        st.sampled_from([0, 0, 0, Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2)]),
        min_size=8, max_size=8,
    ))
    values = []
    for s in SUBSETS[1:]:
        exact = sum(w * bool(s & t) for w, t in zip(weights, SUBSETS[1:]))
        exact += weights[7] * min(len(s), 2)
        exact += Fraction(draw(st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 2e-9, -2e-9])))
        values.append(float(exact) if draw(st.booleans()) else exact)
    return values


@settings(derandomize=True, deadline=None, max_examples=400)
@given(perturbed_entropy_vectors(), st.sampled_from([0.0, 1e-9, math.inf]))
def test_validate_agrees_with_the_all_pairs_reference(values, tol):
    expected = reference_validate(values, tol)
    try:
        EntropyVector(*values).validate(tol)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


class TestLinearSystem:
    def test_matrix_rank_is_nine(self):
        assert exact_rank(SUM_RULE_MATRIX) == 9

    def test_reference_tables_have_zero_residual(self, system2):
        ev = EntropyVector.from_distribution(system2.dist, "S1", "S2", "S3")
        table = decompose(system2.dist, ("S1",), ("S2",), ("S3",))
        report = verify_linear_system(ev, table)
        assert all(r == 0 for r in report.residuals)
        assert report.rank == 9

    def test_copy_triple_by_hand_substitution(self):
        ev = EntropyVector(1, 1, 1, 1, 1, 1, 1)
        report = verify_linear_system(ev, si_atoms(ev, 1))
        assert all(r == 0 for r in report.residuals)

    def test_perturbed_atom_breaks_a_row(self, system2):
        ev = EntropyVector.from_distribution(system2.dist, "S1", "S2", "S3")
        table = decompose(system2.dist, ("S1",), ("S2",), ("S3",))
        atoms = list(table.atoms)
        atoms[0] = (atoms[0][0], atoms[0][1] + Fraction(1, 2))
        tampered = SIAtomTable(tuple(atoms), table.red)
        with pytest.raises(ResidualTooLarge):
            verify_linear_system(ev, tampered)

    def test_random_corpus_satisfies_all_rows(self, corpus):
        for d in corpus[:120]:
            ev = EntropyVector.from_distribution(d, "A", "B", "C")
            table = decompose(d, *SOURCES_ABC)
            report = verify_linear_system(ev, table)
            assert report.max_residual <= TOL


class TestSumRules:
    def test_xor_triple_report(self, system2):
        report = check_sum_rules(system2.dist, ("S1",), ("S2",), ("S3",))
        assert report.sigma == 3
        for check in report.per_variable:
            assert check.lhs == check.rhs == 1
        for check in report.per_pair:
            assert check.lhs == check.rhs == 2
        for check in report.total:
            assert check.lhs == check.rhs == 2

    def test_independent_coins_report(self):
        report = check_sum_rules(independent_coins(), *SOURCES_ABC)
        assert report.sigma == 3
        for check in report.total:
            assert check.lhs == check.rhs == 3

    def test_join_system_report(self):
        report = check_sum_rules(pair_and_join(), *SOURCES_ABC)
        assert report.sigma == 2
        for check in report.total:
            assert check.lhs == check.rhs == 2

    def test_matrix_rows_are_the_half_lattice_downset_sums(self, system2, monkeypatch):
        half = enumerate_half(3)
        down = {k: set(half.downset(Antichain.of([(k,)]))) for k in (1, 2, 3)}
        rules = [(f"H(S{k}) down-set sum", down[k]) for k in (1, 2, 3)]
        rules += [
            (f"H(S{i},S{k}) dominated-atom sum", down[i] | down[k])
            for i, k in ((1, 2), (1, 3), (2, 3))
        ]
        rules += [
            (f"H(S1,S2,S3) = sigma - psi({name})", set(half.nodes) - {parse_antichain(name)})
            for name in ("{{3}{12}}", "{{2}{13}}", "{{1}{23}}")
        ]
        indicators = tuple(
            tuple(int(atom in atoms) for atom in ATOM_ORDER) for _, atoms in rules
        )
        assert indicators == SUM_RULE_MATRIX
        # With atom j worth 2**j, each left-hand side spells out the atoms it
        # sums, so every label must sit on the rule it names.
        weights = {atom: Fraction(2**j) for j, atom in enumerate(ATOM_ORDER)}
        monkeypatch.setattr(
            "infodecomp.sid.si_atoms",
            lambda ev, red, tol: SIAtomTable(tuple(weights.items()), Fraction(red)),
        )
        report = check_sum_rules(system2.dist, *system2.sources, tol=math.inf)
        lhs = {c.label: c.lhs for c in report.all_checks()}
        assert lhs == {label: sum(weights[a] for a in atoms) for label, atoms in rules}

    @pytest.mark.parametrize("red", [None, Fraction(1, 3)])
    def test_residuals_equal_linear_system_residuals_on_corpus(self, corpus, red):
        for d in corpus[:120]:
            ev = EntropyVector.from_distribution(d, *SOURCES_ABC)
            report = check_sum_rules(d, *SOURCES_ABC, red=red)
            linear = verify_linear_system(ev, report.table)
            assert tuple(c.residual for c in report.all_checks()) == linear.residuals
            assert tuple(c.rhs for c in report.all_checks()) == ev.rhs()

    @pytest.mark.parametrize(
        ("shifts", "label", "residual"),
        [
            ({"{{3}}": Fraction(1, 2)}, "H(S3) down-set sum", 0.5),
            ({"{{2}{3}}": Fraction(1, 4)}, "H(S2) down-set sum", 0.25),
            # +d on one synergy atom and -d on {1} cancel in rows 1-6 and in
            # every total rule except the one that leaves that synergy atom out.
            (
                {"{{1}{23}}": Fraction(1, 8), "{{1}}": Fraction(-1, 8)},
                "H(S1,S2,S3) = sigma - psi({{1}{23}})",
                -0.125,
            ),
        ],
    )
    def test_perturbed_table_violates_first_failing_rule(
        self, system2, monkeypatch, shifts, label, residual
    ):
        def perturbed(ev, red, tol=TOL):
            table = si_atoms(ev, red, tol)
            atoms = tuple((a, v + shifts.get(str(a), 0)) for a, v in table.atoms)
            return SIAtomTable(atoms, table.red)

        monkeypatch.setattr("infodecomp.sid.si_atoms", perturbed)
        with pytest.raises(AxiomViolated) as exc:
            check_sum_rules(system2.dist, *system2.sources)
        assert exc.value.equation == label
        assert exc.value.residual == residual

    def test_total_rule_holds_for_all_exclusions_on_corpus(self, corpus):
        for d in corpus[:120]:
            report = check_sum_rules(d, *SOURCES_ABC)
            values = {float(c.lhs) for c in report.total}
            assert max(values) - min(values) <= TOL


class TestReconstructionIdentities:
    def test_pair_information_reconstruction(self, corpus):
        pairs = (("A", "B", (1, 2)), ("A", "C", (1, 3)), ("B", "C", (2, 3)))
        for d in corpus[:120]:
            table = decompose(d, *SOURCES_ABC)
            for a, b, (i, k) in pairs:
                atom = parse_antichain("{{%d}{%d}}" % (i, k))
                lhs = float(table.red + table.value(atom))
                assert lhs == pytest.approx(d.mutual_information(a, b), abs=TOL)

    def test_two_versus_one_reconstruction(self, corpus):
        combos = (
            (("A", "B"), "C", (1, 2, 3)),
            (("A", "C"), "B", (1, 3, 2)),
            (("B", "C"), "A", (2, 3, 1)),
        )
        for d in corpus[:120]:
            table = decompose(d, *SOURCES_ABC)
            for (a, b), c, (i, j, k) in combos:
                atoms = [
                    parse_antichain("{{1}{2}{3}}"),
                    parse_antichain("{{%d}{%d}}" % tuple(sorted((i, k)))),
                    parse_antichain("{{%d}{%d}}" % tuple(sorted((j, k)))),
                    parse_antichain("{{%d}{%d%d}}" % (k, *sorted((i, j)))),
                ]
                lhs = float(sum(table.value(x) for x in atoms))
                assert lhs == pytest.approx(
                    d.mutual_information([a, b], c), abs=TOL
                )

    def test_subsystem_tables_agree_with_marginals(self, corpus):
        """red + psi({i}{k}) is I(Si;Sk) measured on the pair's own marginal."""
        pairs = (("A", "B", (1, 2)), ("A", "C", (1, 3)), ("B", "C", (2, 3)))
        for d in corpus[:60]:
            table = decompose(d, *SOURCES_ABC)
            for a, b, (i, k) in pairs:
                reconstructed = table.red + table.value(Antichain.of([(i,), (k,)]))
                measured = d.marginal([a, b]).mutual_information(a, b)
                assert float(reconstructed) == pytest.approx(measured, abs=TOL)


class TestSynergySum:
    def test_reference_values(self, system2):
        result = synergy_sum_check(system2.dist, ("S1",), ("S2",), ("S3",))
        assert (result.synergy_sum, result.joint_entropy) == (3, 2)
        assert result.violates_wesp

    def test_independent_coins_do_not_violate(self):
        result = synergy_sum_check(independent_coins(), *SOURCES_ABC)
        assert (result.synergy_sum, result.joint_entropy) == (0, 3)
        assert not result.violates_wesp

    def test_copy_triple_does_not_violate(self):
        result = synergy_sum_check(copy_triple(), *SOURCES_ABC)
        assert (result.synergy_sum, result.joint_entropy) == (0, 1)
        assert not result.violates_wesp
