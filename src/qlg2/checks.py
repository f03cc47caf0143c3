"""Named verification checks.

Every named statement used in the construction gets one check id; a check
recomputes both sides of its statement from scratch (through the shared
lazily-cached context) and records canonical serializations, so the report
doubles as a verification index.  `@check(id, statement)` registers each
check beside its code.  A check passes exactly when its residual
serialization is empty; a check that raises gets the status "error" and the
exception as its residual, and the other checks still run.  A check states
its verdict as rows (ok, shown, passed, failed), which `run_check` alone
turns into the residual and the details through `_verdict`.
"""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction
from math import prod

from .linalg import Matrix
from .scalar import BR2, ONE, ZERO, laurent_q, Q_SC as _Q, q_power as _qp
from . import pbw
from .pbw import (
    AE_ZERO, DEGREE_CAP, K, antipode, coproduct, counit, levi_right_split,
    normal_form, root_E, root_F, star, token_name, unit, xi_E, xi_E_star,
)
from .modules import (
    DEGREES, EXT, FUND, ModuleOperator,
    canonical_element_invariance_residuals, gamma_equivariance_residuals,
    golden_action_gamma, golden_gamma_star, golden_levi_Lq, iso_exterior_map,
    quadratic_dual, span_equal, sq_relation_vectors, wedge_relation_vectors,
)
from .rmatrix import (
    TruncatedRMatrix, casimir_eigenvalue, casimir_explicit,
    casimir_quantum_parts, casimir_quantum_terms, casimir_right_form,
    centrality_residuals, quantum_trace_pairing,
)
from .parthasarathy import (
    KAPPA2_RATIO, KAPPA3_RATIO, PARTHASARATHY_CONSTANT, TensorOperator,
    casimir_in_M, dirac_self_adjoint, dirac_squared, dolbeault_squares,
    dolbeault_invariance_residuals, gamma_identities_after_kappa,
    gamma_pair_formula, m_well_definedness_probe, parthasarathy_residual,
    solve_kappa_constraints, spectrum_growth, stated_levi_operators, _U_ZERO,
    _u_key,
)

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class CheckResult:
    """One check's verdict; `exception` holds the exception of a check that
    raised and is never serialized.  A plain class: `dataclasses` would pull
    `inspect` and `ast` into every process's import."""

    __slots__ = ("check_id", "status", "statement", "lhs_digest",
                 "rhs_digest", "residual", "details", "elapsed_ms", "exception")

    def __init__(self, check_id, status, statement, lhs_digest="",
                 rhs_digest="", residual="", details=(), elapsed_ms=0.0,
                 exception=None):
        self.check_id = check_id
        self.status = status
        self.statement = statement
        self.lhs_digest = lhs_digest
        self.rhs_digest = rhs_digest
        self.residual = residual
        self.details = details
        self.elapsed_ms = elapsed_ms
        self.exception = exception

    def as_dict(self, timings=False):
        out = {
            "check_id": self.check_id,
            "status": self.status,
            "statement": self.statement,
            "lhs_digest": self.lhs_digest,
            "rhs_digest": self.rhs_digest,
            "residual": self.residual,
            "details": list(self.details),
        }
        if timings:
            out["elapsed_ms"] = round(self.elapsed_ms, 1)
        return out


DEFAULT_SEED = 20240801  # of the randomized probes
M_PROBE_TRIALS = 8  # the cases the probe of eq-relation-cliff draws


class Context:
    """Shared lazily-computed heavyweight objects for the check suite."""

    def __init__(self, seed=DEFAULT_SEED, degree_cap=DEGREE_CAP):
        self.seed = seed
        self.degree_cap = degree_cap
        self._cache = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def rmat(self):
        return self._get("rmat", TruncatedRMatrix.build)

    @property
    def casimir(self):
        return self._get("casimir", lambda: quantum_trace_pairing(self.rmat))

    @property
    def d2m(self):
        return self._get("d2m", lambda: dirac_squared(self.degree_cap))

    @property
    def casimir_m(self):
        return self._get("casimir_m",
                         lambda: casimir_in_M(self.casimir, self.degree_cap))


# each check returns (lhs_str, rhs_str, rows), rows as `_verdict` reads them

CHECKS = {}


def check(check_id, statement):
    """Register the decorated function as CHECKS[check_id] = (statement, fn)."""
    def register(fn):
        CHECKS[check_id] = (statement, fn)
        return fn
    return register


def _verdict(rows):
    """(residual, details) of rows (ok, shown, passed, failed): the residual
    joins the shown texts of the failing rows; each row adds the detail
    `passed` or `failed` by its outcome, or nothing where that is None."""
    rows = list(rows)
    details = (passed if ok else failed for ok, _shown, passed, failed in rows)
    return ("; ".join(shown for ok, shown, _p, _f in rows if not ok),
            tuple(d for d in details if d is not None))


def _tally(rows, bad="NO"):
    """The `_verdict` rows of rows (label, ok, shown), whose detail is
    "label: ok" or "label: <bad>"."""
    return [(ok, shown, f"{label}: ok", f"{label}: {bad}") for label, ok, shown in rows]


def _nonzero_str(x):
    """Report text of a Matrix (ModuleOperator included), TensorOperator or
    PBW element."""
    if isinstance(x, Matrix):
        return x.entries_str()
    if isinstance(x, TensorOperator):
        return "; ".join(str(w) for w in sorted(x.terms))
    return x.canon_str()


def _zero_residuals(named):
    """The _tally rows of (name, value) pairs whose values must vanish."""
    return _tally(((name, x.is_zero, f"{name}: {_nonzero_str(x)}")
                   for name, x in named), "NONZERO")


def _same(lhs, rhs, agree):
    """The check tuple of the identity lhs == rhs between PBW elements."""
    diff = lhs - rhs
    return lhs.canon_str(), rhs.canon_str(), [
        (diff.is_zero, diff.canon_str(), agree, "MISMATCH")]


@check("uqg-relations",
       "defining relations, Serre relators, antipode axiom and star "
       "involution hold in the PBW engine")
def check_uqg_relations(ctx):
    named = []
    for idx, rel in enumerate(pbw.defining_relator_words()):
        named.append((f"relation-{idx}", pbw.reduce_listing(rel)))
    for idx, r in enumerate(pbw.serre_relators()):
        named.append((f"serre-{idx}", r))
    # Hopf antipode axiom and star involution on generators
    for tok in ("E1", "E2", "F1", "F2", ("K", 1, -1)):
        total = AE_ZERO
        for a, b in coproduct(tok):
            total = total + antipode(a) * b
        g = normal_form((tok,))
        named.append((f"antipode-axiom-{tok}", total - counit(g) * unit()))
        named.append((f"star-involution-{tok}", star(star(g)) - g))
    rows = _zero_residuals(named)
    lhs = "; ".join(x.canon_str() for _n, x in named)
    return lhs, "0", rows


# the generator tokens the probes of eq-comm-rel-uqg draw their words from
PROBE_TOKENS = ("E1", "E2", "F1", "F2", ("K", 1, 0), ("K", -1, 1), ("K", 0, -1))


@check("eq-comm-rel-uqg",
       "randomized associativity, relator-insertion and representation "
       "probes for the straightening rules")
def check_comm_rel(ctx):
    rng = random.Random(ctx.seed)
    n_assoc = 1000
    # the fixed notes, then one row per failing probe
    rows = [(True, "", note, None) for note in (
        f"{n_assoc} associativity triples", "50 relator insertions",
        "100 representation words")]
    for k in range(n_assoc):
        a = normal_form(tuple(rng.choice(PROBE_TOKENS) for _ in range(3)))
        b = normal_form(tuple(rng.choice(PROBE_TOKENS) for _ in range(3)))
        c = normal_form(tuple(rng.choice(PROBE_TOKENS) for _ in range(2)))
        if (a * b) * c != a * (b * c):
            rows.append((False, f"assoc-{k}", None, None))
    rels = pbw.serre_relators()
    for k in range(50):
        a = normal_form(tuple(rng.choice(PROBE_TOKENS) for _ in range(2)))
        b = normal_form(tuple(rng.choice(PROBE_TOKENS) for _ in range(2)))
        if not (a * rels[k % 4] * b).is_zero:
            rows.append((False, f"relator-insertion-{k}", None, None))
    # representation probe: each word's normal form acts on the fundamental
    # module as the product of its letters' matrices
    for k in range(100):
        w = tuple(rng.choice(PROBE_TOKENS) for _ in range(4))
        if FUND.rep(normal_form(w)) != FUND.rep_word(w):
            rows.append((False, f"rep-{k}", None, None))
    return f"probes(seed={ctx.seed})", "no failures", rows


@check("eq-condition-i",
       "the canonical element is invariant under the Levi generators")
def check_condition_i(ctx):
    return "ad_X on radical roots", "transpose of S(X) on dual basis", \
        _zero_residuals(canonical_element_invariance_residuals().items())


@check("lem-equiv-maps",
       "the wedge operators are equivariant for the twisted adjoint action")
def check_equiv_maps(ctx):
    return "twisted adjoint of gamma", "gamma of Levi action", _zero_residuals(
        (f"{t}:gamma(y{i})", m)
        for (t, i), m in gamma_equivariance_residuals().items())


@check("lem-canonical-square",
       "the Dolbeault element and its adjoint square to zero")
def check_canonical_square(ctx):
    return "squares of the (co)boundary", "0", _zero_residuals(
        zip(("dolbeault^2", "dolbeault-star^2"), dolbeault_squares()))


@check("def-dolb-dirac", "the Dirac element is formally self-adjoint")
def check_dolb_dirac(ctx):
    note = "formal self-adjointness"
    return "star-and-Gram adjoint of D", "D", \
        [(dirac_self_adjoint(), "D* - D nonzero", note, note)]


@check("prop-dolbeault-invariant",
       "the Dolbeault element preserves the invariant-forms model")
def check_dolbeault_invariant(ctx):
    return "(ad(X) (x) id) d", "(id (x) ad~(S(X))) d", \
        _zero_residuals(dolbeault_invariance_residuals().items())


@check("lem-fundamental-c2",
       "the fundamental-module matrices satisfy every defining relation "
       "including both Serre relations")
def check_fundamental(ctx):
    named = list(FUND.relation_residuals().items())
    rows = _zero_residuals(named)
    lhs = "; ".join(n for n, _m in named)
    return lhs, "0", rows


@check("lem-root-e",
       "closed-form quantum root vectors agree with the PBW letters")
def check_root_vectors(ctx):
    # the simple-letter expansions that _cross multiplies composite letters by
    named = []
    for side, table, letter in (("E", pbw._EXPAND_E, root_E),
                                ("F", pbw._EXPAND_F, root_F)):
        for j, rule in sorted(table.items()):
            form = sum((prod(map(letter, letters), start=c * unit())
                        for c, letters in rule), AE_ZERO)
            named.append((f"{side}-beta{j}", form - letter(j)))
    return "closed-form root vectors", "PBW letters", _zero_residuals(named)


@check("prop-sq-relations",
       "the radical-root subalgebra has its three quadratic relations")
def check_sq_relations(ctx):
    # the relation vectors prop-lq-relations dualizes, named by leading pair
    named = []
    for X in sq_relation_vectors():
        # x_i (x) x_j sits at index 3(i-1)+(j-1)
        pairs = [(k // 3 + 1, k % 3 + 1, c) for k, c in enumerate(X) if c]
        rel = sum((c * (xi_E(i) * xi_E(j)) for i, j, c in pairs), AE_ZERO)
        named.append(("xi{}-xi{}".format(*pairs[0][:2]), rel))
    return "quadratic relations of the radical subalgebra", "0", \
        _zero_residuals(named)


# (Levi token, i, X |> xi_i)
LEVI_UP_GOLDEN = (
    (("K", 2, -1), 1, _qp(2) * xi_E(1)), (("K", 2, -1), 2, xi_E(2)),
    (("K", 2, -1), 3, _qp(-2) * xi_E(3)),
    (("K", -2, 2), 1, xi_E(1)), (("K", -2, 2), 2, _qp(2) * xi_E(2)),
    (("K", -2, 2), 3, _qp(4) * xi_E(3)),
    ("E1", 1, AE_ZERO), ("E1", 2, BR2 * xi_E(1)), ("E1", 3, xi_E(2)),
    ("F1", 1, xi_E(2)), ("F1", 2, BR2 * xi_E(3)), ("F1", 3, AE_ZERO),
)


@check("lem-levi-up",
       "the adjoint action on the radical roots matches the table "
       "(12 entries)")
def check_levi_up(ctx):
    return "adjoint action on radical roots (12 entries)", "table", _zero_residuals(
        (f"{token_name(tok)}|>xi{i}", pbw.adjoint_action(tok, xi_E(i)) - want)
        for tok, i, want in LEVI_UP_GOLDEN)


@check("lem-levi-um",
       "the dual action on the exterior generators matches the table "
       "(12 entries)")
def check_levi_um(ctx):
    # the derived degree-one action against the degree-one block of the table
    table = golden_levi_Lq()
    mats = {"K1": EXT.K((2, -1)), "K2": EXT.K((-2, 2)), "E1": EXT.E1, "F1": EXT.F1}
    rows = []
    for tok, m in mats.items():
        for j in (1, 2, 3):
            off = [f"({i},{j})" for i in (1, 2, 3)
                   if m.terms.get((i, j)) != table[tok].terms.get((i, j))]
            rows.append((f"{tok}.y{j}", not off, f"{tok}.y{j}: {','.join(off)}"))
    return "dual-basis Levi action (12 entries)", "table", _tally(rows, "NONZERO")


@check("prop-lq-relations",
       "the quadratic dual is 6-dimensional and spans the wedge relations; "
       "graded dimensions (1,3,3,1)")
def check_lq_relations(ctx):
    basis = quadratic_dual(sq_relation_vectors())
    dim = f"orthogonal complement dimension {len(basis)}"
    dims = [DEGREES.count(d) for d in range(4)]
    graded = f"graded dimensions {tuple(dims)}"
    v = lambda i: {i: ONE}
    w = EXT.wedge
    pairs = [
        ("y1y1", w(v(1), v(1)), {}),
        ("y3y3", w(v(3), v(3)), {}),
        ("y2y2", w(v(2), v(2)), {5: -(_Q * _qp(1) / BR2)}),
    ]
    return "quadratic dual of radical relations", "wedge relations", [
        (len(basis) == 6, dim, dim, dim),
        (span_equal(basis, wedge_relation_vectors()),
         "complement span differs from wedge relations",
         "complement spans the six wedge relations", None),
        (dims == [1, 3, 3, 1], f"graded dimensions {dims}", graded, graded),
    ] + [(got == want, name, f"{name} ok", None) for name, got, want in pairs]


@check("lem-levi-lq",
       "the Levi action on the full exterior module matches the table")
def check_levi_lq(ctx):
    g = golden_levi_Lq()
    return "module-algebra extension of the Levi action", "table", _zero_residuals([
        ("E1", EXT.E1 - g["E1"]), ("F1", EXT.F1 - g["F1"]),
        ("K1", EXT.K((2, -1)) - g["K1"]), ("K2", EXT.K((-2, 2)) - g["K2"]),
    ])


@check("cor-iso-exterior",
       "degree 1 and degree 2 are isomorphic over the semisimple Levi part "
       "but not over the full Levi factor")
def check_iso_exterior(ctx):
    phi = iso_exterior_map()
    deg1, deg2 = (1, 2, 3), (4, 5, 6)

    def intertwines(m):
        return phi @ m.block(deg1, deg1) == m.block(deg2, deg2) @ phi

    rows = [(f"intertwines {token_name(tok)}", intertwines(EXT.rep_token(tok)),
             token_name(tok)) for tok in ("E1", "F1", ("K", 2, -1))]
    rows.append(("fails for K2 as required", not intertwines(EXT.K((-2, 2))),
                 "K2 unexpectedly intertwined"))
    return "degree 1 <-> degree 2 comparison map", \
        "semisimple-Levi isomorphism only", _tally(rows)


@check("lem-inner-prod",
       "the invariant inner products are diagonal with the stated entries, "
       "one free constant per degree")
def check_inner_prod(ctx):
    # the normalized Gram diagonal that adjoint_wrt_gram uses
    blocks = EXT.solve_invariant_inner_products()
    rows = []
    for deg in (1, 2):
        first = DEGREES.index(deg)
        for i in range(3):
            got = blocks[deg].terms.get((i, i), ZERO)
            rows.append((got == EXT._gram_hat[first + i], f"deg{deg}[{i}]",
                         f"deg{deg} entry {i}: ok",
                         f"deg{deg} entry {i}: {got.canon_str()}"))
    for deg in (1, 2):
        off = [(i, j) for i, j in sorted(blocks[deg].terms) if i != j]
        rows.append((not off, f"deg{deg} off-diagonal {off}", None, None))
    rows.append((True, "", "one free constant per degree", None))
    return "invariant-form solve", "stated diagonal values", rows


@check("lem-action-gamma", "right wedge multiplication matches the table")
def check_action_gamma(ctx):
    g = golden_action_gamma()
    return "right wedge multiplication", "table", _zero_residuals(
        (f"gamma(y{i})", EXT.gamma(i) - g[i]) for i in (1, 2, 3))


@check("lem-gamma-star",
       "the Gram adjoints of the wedge operators match the table")
def check_gamma_star(ctx):
    g = golden_gamma_star()
    return "Gram adjoints of the wedge operators", "table", _zero_residuals(
        (f"gamma(y{i})*", EXT.gamma_star(i) - g[i]) for i in (1, 2, 3))


# (i, j) -> {radical monomial of E_{xi_i} E*_{xi_j}: its coefficient}
REL_XI_XIS_GOLDEN = {
    (1, 1): {(1, 0, 0, 1, 0, 0): _qp(-4),
             (0, 1, 0, 0, 1, 0): -(_Q * _qp(-2)),
             (0, 0, 1, 0, 0, 1): _Q * _Q * BR2 * _qp(-3)},
    (2, 2): {(0, 1, 0, 0, 1, 0): _qp(-2),
             (0, 0, 1, 0, 0, 1): -(_Q * BR2 * BR2 * _qp(-4))},
    (3, 3): {(0, 0, 1, 0, 0, 1): _qp(-4)},
    (1, 2): {(0, 1, 0, 1, 0, 0): _qp(-2),
             (0, 0, 1, 0, 1, 0): -(_Q * BR2 * _qp(-2))},
    (1, 3): {(0, 0, 1, 1, 0, 0): ONE},
    (2, 3): {(0, 0, 1, 0, 1, 0): _qp(-2)},
}


@check("lem-rel-xi-xis",
       "all six mod-Levi commutation relations are recovered by the "
       "decomposition with the stated coefficients")
def check_rel_xi_xis(ctx):
    rows = []
    for (i, j), want in sorted(REL_XI_XIS_GOLDEN.items()):
        parts = dict(levi_right_split(xi_E(i) * xi_E_star(j), ctx.degree_cap))
        levi = parts.pop(_U_ZERO, AE_ZERO)
        ok = parts == {u: w * unit() for u, w in want.items()} and levi.is_levi()
        rows.append((f"xi{i} xi{j}*", ok, f"({i},{j})"))
    return "mod-Levi commutation decompositions", "six stated relations", \
        _tally(rows)


@check("prop-d-squared",
       "the reduced Dirac square carries the stated operator on each "
       "radical monomial")
def check_d_squared(ctx):
    # dirac_squared raises on a radical monomial outside the (i, j) pattern
    d2m = ctx.d2m
    rows = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            diff = d2m.component(_u_key(i, j)) - gamma_pair_formula(i, j)
            rows.append((f"component ({i},{j})", diff.is_zero,
                         f"({i},{j}): {diff.entries_str()}"))
    return "Dirac square reduced in the quotient", "stated Gamma components", \
        _tally(rows)


@check("lem-f-vanish",
       "nilpotency pattern of the represented negative root vectors "
       "(11 vanishing, 2 non-vanishing)")
def check_f_vanish(ctx):
    return "nilpotency pattern of negative root vectors", \
        "11 vanishing products, 2 non-vanishing", _tally(
            (name, ok, name) for name, ok in FUND.f_vanish_report().items())


@check("prop-cas-general",
       "the truncated R-matrix is an exact intertwiner and the quantum "
       "trace pairing is central")
def check_cas_general(ctx):
    R = ctx.rmat
    rows = [(name, ok, name) for name, ok in R.truncation_checks.items()]
    rows += [(f"intertwiner {tok}", m.is_zero, f"intertwiner-{tok}")
             for tok, m in R.intertwiner_residuals().items()]
    rows += [(f"central against {name}", r.is_zero,
              f"centrality-{name}: {r.canon_str()}")
             for name, r in centrality_residuals(ctx.casimir).items()]
    return "R-matrix trace construction", "central element", _tally(rows)


@check("prop-casimir-rmatrix",
       "the constructed Casimir equals its explicit PBW form and acts by "
       "its eigenvalue on the fundamental module")
def check_casimir_rmatrix(ctx):
    C = ctx.casimir
    Cx = casimir_explicit()
    diff = C - Cx
    c = casimir_eigenvalue((1, 0))
    scalar_ok = FUND.rep(C) == Matrix.identity(4, c)
    acts = ("acts as c_omega1 on the fundamental module: "
            f"{'ok' if scalar_ok else 'NO'}")
    return C.canon_str(), Cx.canon_str(), [
        (diff.is_zero, diff.canon_str(), "constructed equals explicit form",
         "MISMATCH"),
        (scalar_ok, "fundamental eigenvalue", acts, acts),
    ]


@check("cor-value-casimir",
       "the eigenvalue formula matches the pairing oracles and is positive")
def check_value_casimir(ctx):
    c0 = casimir_eigenvalue((0, 0))
    want0 = laurent_q({-4: 1, -2: 1, 2: 1, 4: 1}) / (_Q * _Q)
    c1 = casimir_eigenvalue((1, 0))
    want1 = laurent_q({-6: 1, -2: 1, 2: 1, 6: 1}) / (_Q * _Q)
    v0 = Fraction(1, 3)
    vals = [casimir_eigenvalue((n, n % 2)).evaluate(v0) for n in range(5)]
    pos = all(v > 0 for v in vals)
    positivity = f"positivity at v=1/3 on 5 samples: {'ok' if pos else 'NO'}"
    return "eigenvalue formula", "pairing oracles", [
        (c0 == want0, "c at weight 0", "weight 0 value ok", "weight 0 MISMATCH"),
        (c1 == want1, "c at omega1", "omega1 value ok", "omega1 MISMATCH"),
        (pos, "positivity", positivity, positivity),
    ]


@check("lem-rel-e-es",
       "the four commutation relations with the starred Levi root vector")
def check_rel_e_es(ctx):
    Eb1s = star(root_E(1))
    return "commutators with the starred Levi root vector", "0", _zero_residuals([
        ("e1*e1", Eb1s * root_E(1) - _qp(2) * (root_E(1) * Eb1s)
         + (_qp(2) / _Q) * (K(4, -2) - unit())),
        ("e1*e2", Eb1s * root_E(2) - _qp(2) * (root_E(2) * Eb1s)
         - _qp(2) * root_E(3)),
        ("e1*e3", Eb1s * root_E(3) - root_E(3) * Eb1s - BR2 * root_E(4)),
        ("e1*e4", Eb1s * root_E(4) - _qp(-2) * (root_E(4) * Eb1s)),
    ])


@check("lem-rel-rewrite-cas",
       "the four rewriting identities used for the quantum part")
def check_rel_rewrite_cas(ctx):
    E = {j: root_E(j) for j in (1, 2, 3, 4)}
    Es = {j: star(root_E(j)) for j in (1, 2, 3, 4)}
    return "rewriting identities for the quantum part", "0", _zero_residuals([
        ("id-1", star(E[3] * E[1]) * E[2]
         - _qp(2) * (Es[3] * E[2] * Es[1]) - _qp(2) * (Es[3] * E[3])
         + BR2 * (Es[2] * E[2])),
        ("id-2", star(E[4] * E[1]) * E[3]
         - _qp(2) * (Es[4] * E[3] * Es[1]) - BR2 * _qp(2) * (Es[4] * E[4])
         + _qp(2) * (Es[3] * E[3])),
        ("id-3", star(E[3] * E[1]) * E[3] * E[1]
         - Es[3] * E[3] * Es[1] * E[1]
         - BR2 * (Es[3] * E[4] * E[1] - Es[2] * E[3] * E[1])),
        ("id-4", star(E[4] * E[1]) * E[4] * E[1]
         - Es[4] * E[4] * Es[1] * E[1] + _qp(2) * (Es[3] * E[4] * E[1])),
    ])


@check("lem-quantum-casimir",
       "the quantum part of the Casimir equals its rewritten form")
def check_quantum_casimir(ctx):
    return _same(*casimir_quantum_parts(), "two forms of the quantum part agree")


@check("prop-cas-to-the-right",
       "the Casimir equals the form with all Levi letters moved right")
def check_cas_to_the_right(ctx):
    return _same(ctx.casimir, casimir_right_form(), "Levi-letters-right form agrees")


@check("eq-relation-cliff",
       "the quotient-module reduction is well defined (randomized probe)")
def check_relation_cliff(ctx):
    failures = m_well_definedness_probe(ctx.seed, M_PROBE_TRIALS, ctx.degree_cap)
    note = f"{M_PROBE_TRIALS} randomized probes"
    return "reduce(t (Y (x) 1))", "reduce(t (1 (x) rho(S(Y))))", \
        [(failures == 0, f"{failures} probe failures", note, note)]


@check("prop-casimir-clifford",
       "the Casimir reduces in the quotient to the stated components")
def check_casimir_clifford(ctx):
    cm = ctx.casimir_m
    k2l1, k2l2, kse, kse_star, ksee = stated_levi_operators()
    want = {
        _u_key(1, 1): k2l1.scale(BR2 * BR2 * _qp(-4)),
        _u_key(2, 2): (k2l1.scale(_qp(-5) - _Q * _qp(-2)) + k2l2.scale(_qp(-1))
                       + ksee.scale(_Q * _Q * _qp(-4))),
        _u_key(3, 3): (k2l2.scale(_qp(-4)) - k2l1.scale(_Q * _qp(-5))
                       + ksee.scale(_Q * _Q * _qp(-7))).scale(BR2 * BR2),
        _u_key(1, 2): kse.scale(-(_Q * BR2 * _qp(-3))),
        _u_key(2, 1): kse_star.scale(-(_Q * BR2 * _qp(-3))),
        _u_key(2, 3): kse.scale(-(_Q * BR2 * _qp(-5))),
        _u_key(3, 2): kse_star.scale(-(_Q * BR2 * _qp(-5))),
        _u_key(1, 3): ModuleOperator.zero(),
        _u_key(3, 1): ModuleOperator.zero(),
    }
    rows = []
    for u, w in sorted(want.items()):
        diff = cm.component(u) - w
        rows.append((f"component {u}", diff.is_zero, f"{u}: {diff.entries_str()}"))
    return "Casimir reduced in the quotient", "stated components", _tally(rows)


@check("lem-kappa-constraints",
       "the mixed component vanishes exactly for the stated inner-product "
       "ratios, uniquely")
def check_kappa_constraints(ctx):
    s2, s3 = solve_kappa_constraints()
    g13 = gamma_pair_formula(1, 3)
    rows = [
        (f"kappa_2/kappa_1 = {s2.canon_str()}", s2 == KAPPA2_RATIO, "kappa2 ratio"),
        (f"kappa_3/kappa_1 = {s3.canon_str()}", s3 == KAPPA3_RATIO, "kappa3 ratio"),
        ("degrees 0 and 3 unconstrained",
         all(c not in (0, 7) for _r, c in g13.terms),
         "degree 0/3 constraints"),
    ]
    return "vanishing of the mixed (1,3) component", "unique ratio solution", \
        _tally(rows) + [(g13.substitute_ratios(s2, s3).is_zero,
                         "mixed component after substitution",
                         "mixed component vanishes on all eight vectors", None)]


@check("lem-clifford-off",
       "off-diagonal Dirac-square components take their closed forms after "
       "substitution")
def check_clifford_off(ctx):
    res = gamma_identities_after_kappa(ctx.d2m)
    return "off-diagonal components after substitution", "closed forms", \
        _zero_residuals((f"Gamma{i}{j}", res[(i, j)])
                        for (i, j) in ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)))


@check("lem-clifford-diag",
       "diagonal Dirac-square components take their closed forms after "
       "substitution")
def check_clifford_diag(ctx):
    res = gamma_identities_after_kappa(ctx.d2m)
    return "diagonal components after substitution", "closed forms", \
        _zero_residuals((f"Gamma{i}{i}", res[(i, i)]) for i in (1, 2, 3))


@check("thm-parthasarathy",
       "the Dirac square equals the scaled Casimir up to a pure Levi "
       "remainder; negative controls fail")
def check_parthasarathy(ctx):
    d2m = ctx.d2m
    cm = ctx.casimir_m
    diff, levi = parthasarathy_residual(cm, d2m)
    # negative controls
    bad, _ = parthasarathy_residual(cm, d2m, kappa3_ratio=KAPPA3_RATIO * (1 + _Q))
    rows = [
        (True, "", f"constant kappa_1 * {PARTHASARATHY_CONSTANT.canon_str()}", None),
        (diff.radical_is_zero, " | ".join(
            f"{u}: {op.entries_str()}"
            for u, op in sorted(diff.radical_components().items())),
         "all nine radical components vanish", None),
        (True, "", "pure Levi remainder retained (reported, nonzero: "
         f"{not levi.is_zero})", None),
        (not bad.radical_is_zero, "perturbed kappa_3 fails to break the identity",
         "negative control: perturbed kappa_3 breaks the identity", None),
    ]
    # the reduction into M is linear in the first leg and splits each element
    # once: C minus quantum term k reduces to cm minus the reduction of the
    # term alone, from one split of that term
    for k, term in enumerate(casimir_quantum_terms()):
        bad, _ = parthasarathy_residual(cm - casimir_in_M(term, ctx.degree_cap), d2m)
        rows.append((not bad.radical_is_zero,
                     f"dropping quantum term {k} fails to break the identity",
                     f"negative control: dropped quantum term {k} breaks it", None))
    return "Dirac square minus scaled Casimir in the quotient", \
        "pure Levi element", rows


@check("thm-spectral-triple",
       "Casimir eigenvalues grow without bound: positive values and "
       "strictly increasing shell minima")
def check_spectral_triple(ctx):
    sp = spectrum_growth(Fraction(1, 2), 20)
    return "eigenvalue growth at v = 1/2 up to shell 20", \
        "strictly increasing shell minima", [
            (True, "", f"{len(sp.rows)} dominant weights, shells 0..20", None),
            (sp.positive, "nonpositive eigenvalue",
             "all eigenvalues positive (exact comparisons)", None),
            (sp.monotone, "shell minima not strictly increasing",
             "per-shell minima strictly increasing", None),
        ]


def run_check(check_id, ctx):
    statement, fn = CHECKS[check_id]
    t0 = time.perf_counter()
    try:
        lhs, rhs, rows = fn(ctx)
        residual, details = _verdict(rows)
        lhs_digest, rhs_digest = digest(lhs), digest(rhs)
    except Exception as exc:
        return CheckResult(check_id, "error", statement,
                           residual=f"{type(exc).__name__}: {exc}",
                           elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                           exception=exc)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return CheckResult(
        check_id=check_id,
        status="pass" if not residual else "fail",
        statement=statement,
        lhs_digest=lhs_digest,
        rhs_digest=rhs_digest,
        residual=residual,
        details=details,
        elapsed_ms=elapsed,
    )


def run_suite(check_ids, ctx):
    return [run_check(cid, ctx) for cid in sorted(check_ids)]
