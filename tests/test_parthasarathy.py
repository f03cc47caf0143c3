"""Dirac-square tests: the Dolbeault element, the quotient module M, the
kappa constraints and the Casimir comparison."""

import itertools
from fractions import Fraction
from math import gcd

import pytest

from qlg2.scalar import BR2, ONE, Q_SC as Q, ZERO, kappa, q_power as _qp
from qlg2 import parthasarathy
from qlg2.checks import Context, check_parthasarathy, run_check
from qlg2.linalg import accumulate
from qlg2.modules import EXT, ModuleOperator
from qlg2.pbw import (
    AlgebraElement, K, antipode, levi_right_split, normal_form, star,
    xi_E, xi_E_star,
)
from qlg2.rmatrix import (
    TruncatedRMatrix, casimir_eigenvalue, casimir_exponents, casimir_quantum_terms,
    quantum_trace_pairing,
)
from qlg2.parthasarathy import (
    KAPPA2_RATIO, KAPPA3_RATIO, PARTHASARATHY_CONSTANT, PROBE_LEVI_TOKENS,
    PROBE_XI_INDICES, MElement, TensorOperator, casimir_in_M, dirac_self_adjoint,
    dirac_squared, dolbeault_squares,
    dolbeault_invariance_residuals, gamma_identities_after_kappa,
    gamma_pair_formula, m_relation_holds, m_relation_sides, m_well_definedness_probe,
    parthasarathy_residual, probe_base_operators, probe_first_factors,
    solve_kappa_constraints, spectrum_growth, _linear_exponents, _u_key,
)


@pytest.fixture(scope="module")
def d2m():
    return dirac_squared()


@pytest.fixture(scope="module")
def casimir():
    return quantum_trace_pairing(TruncatedRMatrix.build())


def test_dolbeault_squares_to_zero():
    d = TensorOperator.of(parthasarathy._dolbeault_tensors())
    assert len(d.terms) == 3
    d_sq, ds_sq = dolbeault_squares()
    assert d_sq.is_zero
    assert ds_sq.is_zero


def test_dirac_formally_self_adjoint():
    assert dirac_self_adjoint()


def test_dolbeault_invariance():
    for name, t in dolbeault_invariance_residuals().items():
        assert t.is_zero, name


def test_dirac_square_components_match_formulas(d2m):
    keys = set(d2m.terms)
    expected = {_u_key(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    expected.add((0, 0, 0, 0, 0, 0))
    assert keys <= expected
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert d2m.component(_u_key(i, j)) == gamma_pair_formula(i, j), (i, j)


def test_gamma_pair_adjoint_symmetry():
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert gamma_pair_formula(j, i) == EXT.adjoint_wrt_gram(gamma_pair_formula(i, j))


def test_kappa_constraints():
    s2, s3 = solve_kappa_constraints()
    assert s2 == KAPPA2_RATIO
    assert s3 == KAPPA3_RATIO
    assert KAPPA2_RATIO == _qp(-2) / BR2
    assert KAPPA3_RATIO == _qp(-4)
    # after substitution the mixed component vanishes on all eight vectors
    g13 = gamma_pair_formula(1, 3).substitute_ratios(s2, s3)
    assert g13.is_zero


def test_kappa_constraints_trivial_in_degrees_0_and_3():
    g13 = gamma_pair_formula(1, 3)
    # columns of the empty word and the top word carry no constraint
    assert g13.terms
    assert all(c not in (0, 7) for _r, c in g13.terms)


def test_gamma_identities_after_kappa(d2m):
    res = gamma_identities_after_kappa(d2m)
    assert len(res) == 9
    for key, op in res.items():
        assert op.is_zero, key


def test_gamma_22_closed_form(d2m):
    # spot check of one diagonal identity against an independently built
    # right-hand side
    s2, s3 = KAPPA2_RATIO, KAPPA3_RATIO
    got = d2m.component(_u_key(2, 2)).substitute_ratios(s2, s3)
    k2l1 = K(2, 0)
    k2l2 = K(-2, 2)
    e1 = normal_form(("E1",))
    ksee = k2l1 * antipode(star(e1) * e1)
    rhs = (EXT.rho(k2l1).scale(_qp(-3))
           + EXT.rho(k2l2).scale(_qp(3))
           - EXT.rho(k2l1).scale(Q * Q * BR2)
           + EXT.rho(ksee).scale(Q * Q))
    rhs = rhs.scale(kappa(1) * (ONE / (BR2 * BR2)))
    assert got == rhs


def test_casimir_in_M_components(casimir):
    cm = casimir_in_M(casimir)
    k2l1 = K(2, 0)
    k2l2 = K(-2, 2)
    e1 = normal_form(("E1",))
    kse = k2l1 * antipode(e1)
    ksee = k2l1 * antipode(star(e1) * e1)

    def op(x):
        return EXT.rho(x)

    # diagonal components
    assert cm.component(_u_key(1, 1)) == op(k2l1).scale(BR2 * BR2 * _qp(-4))
    want22 = (op(k2l1).scale(_qp(-5) - Q * _qp(-2)) + op(k2l2).scale(_qp(-1))
              + op(ksee).scale(Q * Q * _qp(-4)))
    assert cm.component(_u_key(2, 2)) == want22
    want33 = (op(k2l2).scale(_qp(-4)) - op(k2l1).scale(Q * _qp(-5))
              + op(ksee).scale(Q * Q * _qp(-7))).scale(BR2 * BR2)
    assert cm.component(_u_key(3, 3)) == want33
    # mixed components
    assert cm.component(_u_key(1, 2)) == op(kse).scale(-(Q * BR2 * _qp(-3)))
    assert cm.component(_u_key(2, 1)) == op(star(kse)).scale(-(Q * BR2 * _qp(-3)))
    assert cm.component(_u_key(2, 3)) == op(kse).scale(-(Q * BR2 * _qp(-5)))
    assert cm.component(_u_key(3, 2)) == op(star(kse)).scale(-(Q * BR2 * _qp(-5)))
    # the (1,3) and (3,1) terms are absent
    assert cm.component(_u_key(1, 3)).is_zero
    assert cm.component(_u_key(3, 1)).is_zero


def test_parthasarathy(d2m, casimir):
    diff, levi = parthasarathy_residual(casimir_in_M(casimir), d2m)
    assert diff.radical_is_zero
    assert PARTHASARATHY_CONSTANT == _qp(4) / (BR2 * BR2)
    # the Levi remainder is genuinely nonzero and is only reported
    assert not levi.is_zero


def test_parthasarathy_negative_control_kappa(d2m, casimir):
    diff, _ = parthasarathy_residual(
        casimir_in_M(casimir), d2m, kappa3_ratio=KAPPA3_RATIO * (1 + Q))
    assert not diff.radical_is_zero


def test_parthasarathy_negative_control_dropped_term(d2m, casimir):
    # dropping the first quantum term of the Casimir breaks the identity
    cm = casimir_in_M(casimir) - casimir_in_M(casimir_quantum_terms()[0])
    diff, _ = parthasarathy_residual(cm, d2m)
    assert not diff.radical_is_zero


def test_casimir_in_m_is_linear_in_each_quantum_term(casimir):
    # the dropped-term controls reduce C - t_k as casimir_in_M(C) minus the
    # reduction of t_k
    cm = casimir_in_M(casimir)
    for k, term in enumerate(casimir_quantum_terms()):
        assert casimir_in_M(casimir - term) == cm - casimir_in_M(term), k


def test_parthasarathy_check_reduces_at_context_degree_cap(d2m, casimir):
    # D^2 comes reduced at the default cap, so only the Casimir reductions
    # of the check (ctx.casimir_m and the six quantum terms) can meet the
    # cap of 0
    ctx = Context(degree_cap=0)
    ctx._cache.update(d2m=d2m, casimir=casimir)
    with pytest.raises(ValueError, match="exceeds degree cap 0"):
        check_parthasarathy(ctx)


def test_relation_cliff_reduces_at_context_degree_cap():
    # at a cap of 0 the probe's first split raises, as the D^2 and Casimir
    # reductions of the other checks do
    ctx = Context(degree_cap=0)
    want = "ValueError: radical bidegree (1,1) exceeds degree cap 0"
    for check_id in ("eq-relation-cliff", "prop-d-squared"):
        got = run_check(check_id, ctx)
        assert (got.status, got.residual) == ("error", want), check_id


def _dolbeault_tensors_with_2_gamma_2():
    # gamma(y2) doubled: the (2,2) term of d^2 no longer cancels against
    # (1,3) and (3,1), and likewise in (d*)^2; d is no longer invariant under
    # E1 and F1, and D stays self-adjoint
    return [(xi_E(i), EXT.gamma(i).scale(2 * ONE) if i == 2 else EXT.gamma(i))
            for i in (1, 2, 3)]


def test_square_zero_guard_negative_control(monkeypatch):
    monkeypatch.setattr(parthasarathy, "_dolbeault_tensors",
                        _dolbeault_tensors_with_2_gamma_2)
    ctx = Context()
    assert run_check("lem-canonical-square", ctx).as_dict() == {
        "check_id": "lem-canonical-square",
        "status": "fail",
        "statement": "the Dolbeault element and its adjoint square to zero",
        "lhs_digest": "a1a66561479a0c20",
        "rhs_digest": "5feceb66ffc86f38",
        "residual": "dolbeault^2: ((0, 0, 0, 0), (0,0), (0, 0, 2, 0)); "
                    "dolbeault-star^2: ((0, 2, 0, 0), (0,2), (0, 0, 0, 0)); "
                    "((1, 0, 1, 0), (0,2), (0, 0, 0, 0)); "
                    "((1, 1, 0, 1), (0,2), (0, 0, 0, 0)); "
                    "((2, 0, 0, 2), (0,2), (0, 0, 0, 0))",
        "details": ["dolbeault^2: NONZERO", "dolbeault-star^2: NONZERO"],
    }
    for check_id in ("prop-d-squared", "lem-clifford-diag", "lem-clifford-off",
                     "thm-parthasarathy"):
        got = run_check(check_id, ctx)
        assert (got.status, got.residual) == (
            "error", "RuntimeError: Dolbeault element does not square to zero"), check_id
    got = run_check("prop-dolbeault-invariant", ctx)
    assert (got.status, got.residual, got.details) == (
        "fail",
        "E1: ((0, 0, 0, 0), (0,0), (0, 0, 1, 0)); ((0, 0, 0, 0), (0,0), (0, 1, 0, 0)); "
        "F1: ((0, 0, 0, 0), (0,0), (0, 0, 0, 1)); ((0, 0, 0, 0), (0,0), (0, 0, 1, 0))",
        ("K(2, -1): ok", "K(-2, 2): ok", "E1: NONZERO", "F1: NONZERO"))
    assert run_check("def-dolb-dirac", ctx).status == "pass"


def test_m_well_definedness():
    assert m_well_definedness_probe(seed=11, trials=4) == 0


def _wordwise_reduce(t, degree_cap):
    """The word-by-word reduction into M: each PBW word w (x) T_w of t split
    on its own, sum over w and u of T_w rho(S(L_u(w))).  The oracle for the
    reduction that splits each simple tensor's first leg once."""
    out = {}
    for word, op in t.terms.items():
        for u, levi in levi_right_split(AlgebraElement({word: ONE}), degree_cap):
            accumulate(out, u, op @ EXT.rho(antipode(levi)))
    return MElement(out)


def _casimir_tensor(x):
    return TensorOperator.of([(x, ModuleOperator.identity())])


@pytest.mark.parametrize("degree_cap", [1, 3])
def test_casimir_reduction_equals_wordwise_oracle(casimir, degree_cap):
    assert casimir_in_M(casimir, degree_cap) == _wordwise_reduce(
        _casimir_tensor(casimir), degree_cap)
    terms = casimir_quantum_terms()
    assert len(terms) == 6
    for k, term in enumerate(terms):
        assert casimir_in_M(term, degree_cap) == _wordwise_reduce(
            _casimir_tensor(term), degree_cap), k


@pytest.mark.parametrize("degree_cap", [1, 3])
def test_dirac_square_equals_wordwise_oracle(degree_cap):
    # d d* + d* d from the simple tensors of d, with the star and the
    # products written out here
    d = [(xi_E(i), EXT.gamma(i)) for i in (1, 2, 3)]
    ds = [(star(x), EXT.adjoint_wrt_gram(op)) for x, op in d]
    want = _wordwise_reduce(TensorOperator.of(
        [(x * y, a @ b) for x, a in d for y, b in ds]
        + [(y * x, b @ a) for y, b in ds for x, a in d]), degree_cap)
    assert not want.radical_is_zero
    assert dirac_squared(degree_cap) == want


def test_reductions_split_each_simple_tensor_once(casimir, monkeypatch):
    # D^2 is the 9 + 9 simple tensors xi_i xi*_j (x) gamma_i gamma*_j and
    # xi*_j xi_i (x) gamma*_j gamma_i; C (x) 1 is one; each is one call of
    # reduce_to_M, the span the benchmark's tracer times
    firsts = []
    reduced = []

    def split(x, degree_cap, _orig=parthasarathy._split_word):
        firsts.append(x)
        return _orig(x, degree_cap)

    def reduce(x, op, degree_cap, _orig=parthasarathy.reduce_to_M):
        reduced.append(x)
        return _orig(x, op, degree_cap)

    monkeypatch.setattr(parthasarathy, "_split_word", split)
    monkeypatch.setattr(parthasarathy, "reduce_to_M", reduce)
    dirac_squared()
    assert len(firsts) == 18
    assert len(set(firsts)) == 18
    assert set(firsts) == {xi_E(i) * xi_E_star(j) for i in (1, 2, 3) for j in (1, 2, 3)} \
        | {xi_E_star(j) * xi_E(i) for i in (1, 2, 3) for j in (1, 2, 3)}
    assert reduced == firsts
    firsts.clear()
    reduced.clear()
    casimir_in_M(casimir)
    assert firsts == [casimir]
    assert reduced == [casimir]


def test_m_relation_on_every_probe_case():
    """(x Y) (x) T == x (x) T rho(S(Y)) in M for every case of the space
    m_well_definedness_probe draws from: Y a Levi word of one or two
    PROBE_LEVI_TOKENS, x one of the 12 probe_first_factors() (xi_i or
    xi_i xi*_j over PROBE_XI_INDICES) and T one of probe_base_operators().

    Exhaustive on that finite domain only (the small scope hypothesis), not
    a proof of the relation for all of U_q(l)."""
    firsts, ops = probe_first_factors(), probe_base_operators()
    cases = 0
    for n in (1, 2):
        for word in itertools.product(PROBE_LEVI_TOKENS, repeat=n):
            sides = m_relation_sides(normal_form(word))
            for key, first in firsts.items():
                assert m_relation_holds(sides, first, ops), (word, key)
                cases += len(ops)
    n, k = len(PROBE_LEVI_TOKENS), len(PROBE_XI_INDICES)
    assert cases == (n + n * n) * (k + k * k) * len(ops) == 960


def test_spectrum_growth():
    sp = spectrum_growth(Fraction(1, 2), 5)
    assert len(sp.rows) == 21
    assert sp.monotone and sp.positive
    # row (0,0) agrees with the eigenvalue at lam = 0
    from qlg2.rmatrix import casimir_eigenvalue
    assert sp.rows[0][:2] == (0, 0)
    assert Fraction(*sp.rows[0][2:]) == casimir_eigenvalue((0, 0)).evaluate(Fraction(1, 2))
    with pytest.raises(ValueError):
        spectrum_growth(Fraction(3, 2), 3)
    with pytest.raises(ValueError):
        spectrum_growth(Fraction(1, 1), 3)


@pytest.mark.parametrize("v0", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)])
def test_spectrum_rows_equal_symbolic_eigenvalues(v0):
    # the direct Fraction rows against the reduced Scalar c_L evaluated at v0
    sp = spectrum_growth(v0, 20)
    assert [row[:2] for row in sp.rows] == [
        (n1, n2) for n1 in range(21) for n2 in range(21 - n1)]
    for n1, n2, num, den in sp.rows:
        assert Fraction(num, den) == casimir_eigenvalue((n1, n2)).evaluate(v0)


def _fraction_row(v0, n1, n2):
    """One row as a sum of Fraction powers: the oracle for the integer rows."""
    q0 = Fraction(v0) ** 2
    den = (q0 - 1 / q0) ** 2
    return sum(q0 ** e for e in casimir_exponents((n1, n2))) / den


# at 1/2 and 1/3 every power of the numerator of q0 is 1; the other points
# have numerator and denominator above 1, and 99/100 puts q0 close to 1.  At
# 1/2, 2/3, 2/7 and 99/100 no row shares a factor with (n^2 - d^2)^2; at 1/3,
# 3/5 and 5/7 every row does, so the division by g runs
ORACLE_POINTS = [Fraction(1, 2), Fraction(2, 3), Fraction(2, 7), Fraction(99, 100),
                 Fraction(1, 3), Fraction(3, 5), Fraction(5, 7)]


@pytest.mark.parametrize("v0", ORACLE_POINTS)
@pytest.mark.parametrize("shell_max", [1, 30])
def test_integer_rows_equal_fraction_oracle(v0, shell_max):
    sp = spectrum_growth(v0, shell_max)
    expected = [(n1, n2, _fraction_row(v0, n1, n2))
                for n1 in range(shell_max + 1) for n2 in range(shell_max + 1 - n1)]
    assert len(sp.rows) == len(expected)
    for row, (n1, n2, val) in zip(sp.rows, expected):
        # the coprime integer pair of the row, with a positive denominator
        assert len(row) == 4 and row[:2] == (n1, n2)
        num, den = row[2:]
        assert type(num) is int and type(den) is int
        assert den > 0 and gcd(num, den) == 1
        assert Fraction(num, den) == val
    minima = {s: min(val for n1, n2, val in expected if n1 + n2 == s)
              for s in range(shell_max + 1)}
    assert sp.shell_minima == minima
    assert list(sp.shell_minima) == list(range(shell_max + 1))
    assert all(type(val) is Fraction for val in sp.shell_minima.values())
    assert sp.monotone == all(minima[s] < minima[s + 1] for s in range(shell_max))
    assert sp.positive == all(val > 0 for _, _, val in expected)


def _cleared_eigenvalue(n1, n2):
    """(q - q^-1)^2 c(n1, n2) = sum_j q^e_j over Q(v)."""
    return sum(map(_qp, casimir_exponents((n1, n2))), ZERO)


def _cleared_product(a, b):
    """(q - q^-1)^2 [a] [b] = (q^a - q^-a)(q^b - q^-b) over Q(v)."""
    return (_qp(a) - _qp(-a)) * (_qp(b) - _qp(-b))


def test_shell_growth_identities_over_q_of_v():
    """In shell s = n1 + n2, with the (q - q^-1)^2 cleared:

        c(n1, n2) = c(s, 0) + [n2 + 2] [n2],   c(s + 1, 0) = c(s, 0) + [2s + 5].

    The exponents of c(n1, n2) are +-m and +-e with m = 2 (s + 2) and
    e = 2 (n2 + 1).  So c(n1, n2) - c(s, 0) clears to q^e + q^-e - q^2 - q^-2
    = (q^(n2+2) - q^-(n2+2)) (q^n2 - q^-n2), and c(s + 1, 0) - c(s, 0) to
    q^(m+2) + q^-(m+2) - q^m - q^-m = (q - q^-1) (q^(m+1) - q^-(m+1)), for
    every shell.  Each added term is a q-number or a product of two, so
    positive for q > 0, and zero only when n2 = 0: the minimum of every shell
    is the row (s, 0), and the minima strictly increase.  Checked here
    exactly, with the exponents read from rmatrix.casimir_exponents, on all
    rows up to shell 60."""
    heads = [_cleared_eigenvalue(s, 0) for s in range(61)]
    rows = 0
    for n1 in range(61):
        for n2 in range(61 - n1):
            assert _cleared_eigenvalue(n1, n2) == \
                heads[n1 + n2] + _cleared_product(n2 + 2, n2), (n1, n2)
            rows += 1
    assert rows == 1891
    for s in range(60):
        assert heads[s + 1] == heads[s] + _cleared_product(2 * s + 5, 1), s


@pytest.mark.parametrize("v0", ORACLE_POINTS)
def test_shell_minima_are_the_first_rows(v0):
    # the (s, 0) rows, from the Fraction oracle, are the shell minima
    sp = spectrum_growth(v0, 30)
    assert sp.shell_minima == {s: _fraction_row(v0, s, 0) for s in range(31)}
    assert sp.monotone


def test_spectrum_requires_one_denominator_per_shell(monkeypatch):
    # exponent pairs whose larger |e| moves inside a shell: the minimum by
    # unreduced numerators alone would be wrong, so the call raises
    bad = ([-4, -2, 2, 4], [-2, 0, 0, 2], [-4, -2, 2, 4])
    monkeypatch.setattr(parthasarathy, "_linear_exponents", lambda: bad)
    with pytest.raises(ValueError, match="share a denominator"):
        spectrum_growth(Fraction(1, 2), 3)


def test_both_reductions_occur_at_the_oracle_points():
    # with q0 = n/d and D = (n^2 - d^2)^2, a row's unreduced denominator is
    # (nd)^(m - 2) D with nd coprime to D, so its reduced denominator is a
    # multiple of D exactly when the row's gcd g is 1
    seen = {False: 0, True: 0}
    for v0 in ORACLE_POINTS:
        q0 = v0 * v0
        big = (q0.numerator ** 2 - q0.denominator ** 2) ** 2
        for _, _, _, den in spectrum_growth(v0, 30).rows:
            seen[den % big != 0] += 1
    assert seen[False] > 0 and seen[True] > 0, seen


@pytest.mark.parametrize("bad", [
    ([-4, -2, 2, 5], [-2, 0, 0, 2], [-2, -2, 2, 2]),
    ([-4, -2, 2, 4], [-2, 0, 1, 2], [-2, -2, 2, 2]),
    ([-4, -2, 2, 4], [-2, 0, 0, 2], [-2, -2, 2, 3]),
    ([-4, -2, 0, 0, 2, 4], [-2, 0, 0, 0, 0, 2], [-2, -2, 0, 0, 2, 2]),
], ids=["base", "s1", "s2", "three-pairs"])
def test_spectrum_requires_exponent_pairs(bad, monkeypatch):
    # the row formula pairs q0^e with q0^-e; any other exponent list is an error
    monkeypatch.setattr(parthasarathy, "_linear_exponents", lambda: bad)
    with pytest.raises(ValueError, match="pairs"):
        spectrum_growth(Fraction(1, 2), 3)


def test_linear_exponents_equal_casimir_exponents():
    base, s1, s2 = _linear_exponents()
    for n1 in range(31):
        for n2 in range(31 - n1):
            assert [b + n1 * a1 + n2 * a2 for b, a1, a2 in zip(base, s1, s2)] \
                == casimir_exponents((n1, n2))
