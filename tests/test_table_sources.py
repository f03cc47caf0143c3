"""Each re-sourced check reads the copy of its stated table that the engine
itself uses: a mutant of that one copy fails the check named for it.

lem-root-e reads pbw._EXPAND_E/_EXPAND_F, prop-sq-relations reads
sq_relation_vectors(), lem-inner-prod reads EXT._gram_hat, lem-levi-um reads
the degree-one block of golden_levi_Lq() and lem-quantum-casimir reads
casimir_quantum_terms().  No mutant may leave entries in the PBW memo tables.
"""

import pytest

import qlg2.checks as checks
import qlg2.rmatrix as rmatrix
from qlg2 import pbw
from qlg2.checks import Context, run_check
from qlg2.modules import EXT
from qlg2.scalar import BR2, ONE, q_power


def _expand_e3(monkeypatch):
    # E_beta3 = E1 E2 - q^-2 E2 E1, with q^-2 turned into q^2
    head, (_c, letters) = pbw._EXPAND_E[3]
    monkeypatch.setitem(pbw._EXPAND_E, 3, (head, (-q_power(2), letters)))


def _sq_relation(monkeypatch):
    # x_1 x_2 - q^2 x_2 x_1 with q^2 turned into q^-2; checks binds the name
    orig = checks.sq_relation_vectors

    def mutated():
        vecs = orig()
        vecs[0][3] = -q_power(-2)
        return vecs
    monkeypatch.setattr(checks, "sq_relation_vectors", mutated)


def _gram_hat(monkeypatch):
    # the y2 entry 1/[2] turned into [2]
    gh = EXT._gram_hat
    monkeypatch.setattr(EXT, "_gram_hat", gh[:2] + (BR2,) + gh[3:])


def _levi_degree_one(monkeypatch):
    # E1 y1 = -[2] y2 with the sign flipped; checks binds the name
    orig = checks.golden_levi_Lq

    def mutated():
        table = orig()
        table["E1"].terms[2, 1] = BR2
        return table
    monkeypatch.setattr(checks, "golden_levi_Lq", mutated)


def _quantum_term(monkeypatch):
    # the coefficient q^-5 of the first quantum addend turned into q^-3
    orig = rmatrix.casimir_quantum_terms

    def mutated():
        terms = orig()
        terms[0] = q_power(2) * terms[0]
        return terms
    monkeypatch.setattr(rmatrix, "casimir_quantum_terms", mutated)


MUTANTS = {
    "lem-root-e": (_expand_e3, "E-beta3: NONZERO"),
    "prop-sq-relations": (_sq_relation, "xi1-xi2: NONZERO"),
    "lem-inner-prod": (_gram_hat, f"deg1 entry 1: {(ONE / BR2).canon_str()}"),
    "lem-levi-um": (_levi_degree_one, "E1.y1: NONZERO"),
    "lem-quantum-casimir": (_quantum_term, "MISMATCH"),
}


@pytest.mark.parametrize("check_id", sorted(MUTANTS))
def test_mutant_of_the_engine_table_fails_its_check(check_id, monkeypatch):
    mutate, failing_detail = MUTANTS[check_id]
    assert run_check(check_id, Context()).status == "pass"
    memo = len(pbw._CROSS_CACHE)
    mutate(monkeypatch)
    got = run_check(check_id, Context())
    assert got.status == "fail"
    assert failing_detail in got.details
    assert len(pbw._CROSS_CACHE) == memo
