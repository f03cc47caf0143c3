"""Named verification checks.

Every named statement used in the construction gets one check id; a check
recomputes both sides of its statement from scratch (through the shared
lazily-cached context) and records canonical serializations, so the report
doubles as a verification index.  A check passes exactly when its residual
serialization is empty; a check that raises gets the status "error" and the
exception as its residual, and the other checks still run.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import meq, meye, miszero, mmul, mscale, msub
from .scalar import BR2, ONE, ZERO, evaluate, laurent_q, Q_SC as _Q, q_power as _qp
from . import pbw
from .pbw import (
    AE_ZERO, K, antipode, coproduct, counit, is_levi, levi_right_split,
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
    casimir_quantum_parts, casimir_right_form, centrality_residuals,
    quantum_trace_pairing,
)
from .parthasarathy import (
    KAPPA2_RATIO, KAPPA3_RATIO, PARTHASARATHY_CONSTANT, casimir_in_M,
    dirac_self_adjoint, dirac_squared, dolbeault,
    dolbeault_invariance_residuals, gamma_identities_after_kappa,
    gamma_pair_formula, m_well_definedness_probe, parthasarathy_residual,
    solve_kappa_constraints, spectrum_growth, _u_key,
)

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _mat_str(m):
    bits = []
    for r, row in enumerate(m):
        for c, x in enumerate(row):
            if x:
                s = x.canon_str() if hasattr(x, "canon_str") else str(x)
                bits.append(f"[{r},{c}] {s}")
    return "; ".join(bits) if bits else "0"


@dataclass
class CheckResult:
    check_id: str
    status: str
    statement: str
    lhs_digest: str = ""
    rhs_digest: str = ""
    residual: str = ""
    details: tuple = ()
    elapsed_ms: float = 0.0
    # the exception of a check that raised; never serialized
    exception: Exception | None = field(default=None, repr=False, compare=False)

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


class Context:
    """Shared lazily-computed heavyweight objects for the check suite."""

    def __init__(self, seed=20240801, degree_cap=3):
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


# each check returns (lhs_str, rhs_str, residual_str, details)

def _zero_residuals(named, is_zero, show):
    details = []
    residual = []
    for name, r in named:
        ok = is_zero(r)
        details.append(f"{name}: {'ok' if ok else 'NONZERO'}")
        if not ok:
            residual.append(f"{name}: {show(r)}")
    return "; ".join(residual), tuple(details)


def check_uqg_relations(ctx):
    named = []
    for idx, rel in enumerate(pbw.defining_relator_words()):
        total = AE_ZERO
        for c, w in rel:
            total = total + normal_form(w, c)
        named.append((f"relation-{idx}", total))
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
    residual, details = _zero_residuals(
        named, lambda x: x.is_zero, lambda x: x.canon_str())
    lhs = "; ".join(x.canon_str() for _n, x in named)
    return lhs, "0", residual, details


def check_comm_rel(ctx):
    rng = random.Random(ctx.seed)
    toks = ["E1", "E2", "F1", "F2", ("K", 1, 0), ("K", -1, 1), ("K", 0, -1)]
    failures = []
    n_assoc = 1000
    for k in range(n_assoc):
        a = normal_form(tuple(rng.choice(toks) for _ in range(3)))
        b = normal_form(tuple(rng.choice(toks) for _ in range(3)))
        c = normal_form(tuple(rng.choice(toks) for _ in range(2)))
        if (a * b) * c != a * (b * c):
            failures.append(f"assoc-{k}")
    rels = pbw.serre_relators()
    for k in range(50):
        a = normal_form(tuple(rng.choice(toks) for _ in range(2)))
        b = normal_form(tuple(rng.choice(toks) for _ in range(2)))
        if not (a * rels[k % 4] * b).is_zero:
            failures.append(f"relator-insertion-{k}")
    # representation probe and weight additivity
    for k in range(100):
        w = tuple(rng.choice(toks) for _ in range(4))
        if not meq(FUND.rep(normal_form(w)), FUND.rep_word(w)):
            failures.append(f"rep-{k}")
    residual = "; ".join(failures)
    details = (f"{n_assoc} associativity triples", "50 relator insertions",
               "100 representation words")
    return f"probes(seed={ctx.seed})", "no failures", residual, details


def check_condition_i(ctx):
    named = list(canonical_element_invariance_residuals().items())
    residual, details = _zero_residuals(named, miszero, _mat_str)
    return "ad_X on radical roots", "transpose of S(X) on dual basis", residual, details


def check_equiv_maps(ctx):
    named = [(f"{t}:gamma(y{i})", m)
             for (t, i), m in gamma_equivariance_residuals().items()]
    residual, details = _zero_residuals(named, miszero, _mat_str)
    return "twisted adjoint of gamma", "gamma of Levi action", residual, details


def check_canonical_square(ctx):
    d = dolbeault()
    ds = d.star()
    named = [("dolbeault^2", d * d), ("dolbeault-star^2", ds * ds)]
    residual, details = _zero_residuals(
        named, lambda t: t.is_zero,
        lambda t: "; ".join(f"{w}" for w in sorted(t.terms)))
    return "squares of the (co)boundary", "0", residual, details


def check_dolb_dirac(ctx):
    ok = dirac_self_adjoint()
    residual = "" if ok else "D* - D nonzero"
    return "star-and-Gram adjoint of D", "D", residual, ("formal self-adjointness",)


def check_dolbeault_invariant(ctx):
    named = list(dolbeault_invariance_residuals().items())
    residual, details = _zero_residuals(
        named, lambda t: t.is_zero,
        lambda t: "; ".join(str(w) for w in sorted(t.terms)))
    return "(ad(X) (x) id) d", "(id (x) ad~(S(X))) d", residual, details


def check_fundamental(ctx):
    named = list(FUND.relation_residuals().items())
    residual, details = _zero_residuals(named, miszero, _mat_str)
    lhs = "; ".join(n for n, _m in named)
    return lhs, "0", residual, details


def check_root_vectors(ctx):
    e2 = (ONE / BR2) * (root_E(1) * root_E(1) * root_E(4)) \
        - _qp(-1) * (root_E(1) * root_E(4) * root_E(1)) \
        + (_qp(-2) / BR2) * (root_E(4) * root_E(1) * root_E(1))
    e3 = root_E(1) * root_E(4) - _qp(-2) * (root_E(4) * root_E(1))
    f2 = (ONE / BR2) * (root_F(4) * root_F(1) * root_F(1)) \
        - _qp(1) * (root_F(1) * root_F(4) * root_F(1)) \
        + (_qp(2) / BR2) * (root_F(1) * root_F(1) * root_F(4))
    f3 = root_F(4) * root_F(1) - _qp(2) * (root_F(1) * root_F(4))
    named = [
        ("E-beta2", e2 - root_E(2)), ("E-beta3", e3 - root_E(3)),
        ("F-beta2", f2 - root_F(2)), ("F-beta3", f3 - root_F(3)),
    ]
    residual, details = _zero_residuals(
        named, lambda x: x.is_zero, lambda x: x.canon_str())
    return "closed-form root vectors", "PBW letters", residual, details


def check_sq_relations(ctx):
    named = [
        ("xi1-xi2", xi_E(1) * xi_E(2) - _qp(2) * (xi_E(2) * xi_E(1))),
        ("xi2-xi3", xi_E(2) * xi_E(3) - _qp(2) * (xi_E(3) * xi_E(2))),
        ("xi1-xi3", xi_E(1) * xi_E(3) - xi_E(3) * xi_E(1)
         - (_Q * _qp(1) / BR2) * (xi_E(2) * xi_E(2))),
    ]
    residual, details = _zero_residuals(
        named, lambda x: x.is_zero, lambda x: x.canon_str())
    return "quadratic relations of the radical subalgebra", "0", residual, details


LEVI_UP_GOLDEN = (
    (("K", 2, -1), 1, "q2"), (("K", 2, -1), 2, "1"), (("K", 2, -1), 3, "q-2"),
    (("K", -2, 2), 1, "1"), (("K", -2, 2), 2, "q2"), (("K", -2, 2), 3, "q4"),
    ("E1", 1, "0"), ("E1", 2, "[2]E1"), ("E1", 3, "E2"),
    ("F1", 1, "E2"), ("F1", 2, "[2]E3"), ("F1", 3, "0"),
)


def check_levi_up(ctx):
    want = {
        "q2": lambda i: _qp(2) * xi_E(i), "q-2": lambda i: _qp(-2) * xi_E(i),
        "q4": lambda i: _qp(4) * xi_E(i), "1": lambda i: xi_E(i),
        "0": lambda i: AE_ZERO,
        "[2]E1": lambda i: BR2 * xi_E(1), "E2": lambda i: xi_E(2),
        "[2]E3": lambda i: BR2 * xi_E(3),
    }
    named = []
    for tok, i, tag in LEVI_UP_GOLDEN:
        got = pbw.adjoint_action(tok, xi_E(i))
        named.append((f"{token_name(tok)}|>xi{i}", got - want[tag](i)))
    residual, details = _zero_residuals(
        named, lambda x: x.is_zero, lambda x: x.canon_str())
    return "adjoint action on radical roots (12 entries)", "table", residual, details


def check_levi_um(ctx):
    # the derived degree-one action against the stated table
    q2, br = _qp(2), BR2
    table = {
        ("K1", 1): {1: _qp(-2)}, ("K1", 2): {2: ONE}, ("K1", 3): {3: q2},
        ("K2", 1): {1: ONE}, ("K2", 2): {2: _qp(-2)}, ("K2", 3): {3: _qp(-4)},
        ("E1", 1): {2: -br}, ("E1", 2): {3: -q2}, ("E1", 3): {},
        ("F1", 1): {}, ("F1", 2): {1: -ONE}, ("F1", 3): {2: -(br * _qp(-2))},
    }
    mats = {"K1": EXT.K((2, -1)), "K2": EXT.K((-2, 2)), "E1": EXT.E1, "F1": EXT.F1}
    named = []
    for (tok, j), want in table.items():
        m = mats[tok]
        res = []
        for i in (1, 2, 3):
            want_c = want.get(i, ZERO)
            if m[i][j] != want_c:
                res.append(f"({i},{j})")
        named.append((f"{tok}.y{j}", res))
    residual, details = _zero_residuals(
        named, lambda r: not r, lambda r: ",".join(r))
    return "dual-basis Levi action (12 entries)", "table", residual, details


def check_lq_relations(ctx):
    details = []
    residual = []
    basis = quadratic_dual(sq_relation_vectors())
    details.append(f"orthogonal complement dimension {len(basis)}")
    if len(basis) != 6:
        residual.append(f"dim {len(basis)} != 6")
    if not span_equal(basis, wedge_relation_vectors()):
        residual.append("complement span differs from wedge relations")
    else:
        details.append("complement spans the six wedge relations")
    dims = [DEGREES.count(d) for d in range(4)]
    details.append(f"graded dimensions {tuple(dims)}")
    if dims != [1, 3, 3, 1]:
        residual.append(f"graded dimensions {dims}")
    v = lambda i: {i: ONE}
    w = EXT.wedge
    pairs = [
        ("y1y1", w(v(1), v(1)), {}),
        ("y3y3", w(v(3), v(3)), {}),
        ("y2y2", w(v(2), v(2)), {5: -(_Q * _qp(1) / BR2)}),
    ]
    for name, got, want in pairs:
        if got != want:
            residual.append(name)
        else:
            details.append(f"{name} ok")
    return "quadratic dual of radical relations", "wedge relations", \
        "; ".join(residual), tuple(details)


def check_levi_lq(ctx):
    g = golden_levi_Lq()
    named = [
        ("E1", msub(EXT.E1, g["E1"])), ("F1", msub(EXT.F1, g["F1"])),
        ("K1", msub(EXT.K((2, -1)), g["K1"])),
        ("K2", msub(EXT.K((-2, 2)), g["K2"])),
    ]
    residual, details = _zero_residuals(named, miszero, _mat_str)
    return "module-algebra extension of the Levi action", "table", residual, details


def check_iso_exterior(ctx):
    phi = iso_exterior_map()
    deg1, deg2 = (1, 2, 3), (4, 5, 6)

    def block(m, rows, cols):
        return [[m[r][c] for c in cols] for r in rows]

    residual = []
    details = []
    for tok in ("E1", "F1", ("K", 2, -1)):
        m = EXT.rep_token(tok)
        name = token_name(tok)
        ok = meq(mmul(phi, block(m, deg1, deg1), ZERO),
                 mmul(block(m, deg2, deg2), phi, ZERO))
        details.append(f"intertwines {name}: {'ok' if ok else 'NO'}")
        if not ok:
            residual.append(name)
    k2 = EXT.K((-2, 2))
    k2_fails = not meq(mmul(phi, block(k2, deg1, deg1), ZERO),
                       mmul(block(k2, deg2, deg2), phi, ZERO))
    details.append(f"fails for K2 as required: {'ok' if k2_fails else 'NO'}")
    if not k2_fails:
        residual.append("K2 unexpectedly intertwined")
    return "degree 1 <-> degree 2 comparison map", \
        "semisimple-Levi isomorphism only", "; ".join(residual), tuple(details)


def check_inner_prod(ctx):
    blocks = EXT.solve_invariant_inner_products()
    want = {
        (1, 0): ONE, (1, 1): ONE / BR2, (1, 2): _qp(-2),
        (2, 0): ONE, (2, 1): BR2, (2, 2): _qp(-2),
    }
    residual = []
    details = []
    for (deg, i), w in sorted(want.items()):
        got = blocks[deg][i][i]
        ok = got == w
        details.append(f"deg{deg} entry {i}: {'ok' if ok else got.canon_str()}")
        if not ok:
            residual.append(f"deg{deg}[{i}]")
    for deg in (1, 2):
        off = [(i, j) for i in range(3) for j in range(3)
               if i != j and not blocks[deg][i][j].is_zero]
        if off:
            residual.append(f"deg{deg} off-diagonal {off}")
    details.append("one free constant per degree")
    return "invariant-form solve", "stated diagonal values", \
        "; ".join(residual), tuple(details)


def check_action_gamma(ctx):
    g = golden_action_gamma()
    named = [(f"gamma(y{i})", msub(EXT.gamma_scalar(i), g[i])) for i in (1, 2, 3)]
    residual, details = _zero_residuals(named, miszero, _mat_str)
    return "right wedge multiplication", "table", residual, details


def check_gamma_star(ctx):
    g = golden_gamma_star()
    named = [(f"gamma(y{i})*", EXT.gamma_star(i) - g[i]) for i in (1, 2, 3)]
    residual, details = _zero_residuals(
        named, lambda m: m.is_zero, lambda m: m.entries_str())
    return "Gram adjoints of the wedge operators", "table", residual, details


REL_XI_XIS_GOLDEN = {
    (1, 1): {(1, 0, 0, 1, 0, 0): lambda: _qp(-4),
             (0, 1, 0, 0, 1, 0): lambda: -(_Q * _qp(-2)),
             (0, 0, 1, 0, 0, 1): lambda: _Q * _Q * BR2 * _qp(-3)},
    (2, 2): {(0, 1, 0, 0, 1, 0): lambda: _qp(-2),
             (0, 0, 1, 0, 0, 1): lambda: -(_Q * BR2 * BR2 * _qp(-4))},
    (3, 3): {(0, 0, 1, 0, 0, 1): lambda: _qp(-4)},
    (1, 2): {(0, 1, 0, 1, 0, 0): lambda: _qp(-2),
             (0, 0, 1, 0, 1, 0): lambda: -(_Q * BR2 * _qp(-2))},
    (1, 3): {(0, 0, 1, 1, 0, 0): lambda: ONE},
    (2, 3): {(0, 0, 1, 0, 1, 0): lambda: _qp(-2)},
}


def check_rel_xi_xis(ctx):
    residual = []
    details = []
    for (i, j), want in sorted(REL_XI_XIS_GOLDEN.items()):
        parts = dict(levi_right_split(xi_E(i) * xi_E_star(j), ctx.degree_cap))
        radical = {u: l for u, l in parts.items() if u != (0, 0, 0, 0, 0, 0)}
        ok = set(radical) == set(want) and all(
            radical[u] == w() * unit() for u, w in want.items())
        levi_ok = all(is_levi(l) for u, l in parts.items()
                      if u == (0, 0, 0, 0, 0, 0))
        details.append(f"xi{i} xi{j}*: {'ok' if ok and levi_ok else 'NO'}")
        if not (ok and levi_ok):
            residual.append(f"({i},{j})")
    return "mod-Levi commutation decompositions", "six stated relations", \
        "; ".join(residual), tuple(details)


def check_d_squared(ctx):
    d2m = ctx.d2m
    residual = []
    details = []
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            diff = d2m.component(_u_key(i, j)) - gamma_pair_formula(i, j)
            ok = diff.is_zero
            details.append(f"component ({i},{j}): {'ok' if ok else 'NO'}")
            if not ok:
                residual.append(f"({i},{j}): {diff.entries_str()}")
    extras = [u for u in d2m.comps
              if u != (0, 0, 0, 0, 0, 0)
              and u not in {_u_key(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}]
    if extras:
        residual.append(f"unexpected radical monomials {extras}")
    return "Dirac square reduced in the quotient", "stated Gamma components", \
        "; ".join(residual), tuple(details)


def check_f_vanish(ctx):
    rep = FUND.f_vanish_report()
    residual = [name for name, ok in rep.items() if not ok]
    details = tuple(f"{name}: {'ok' if ok else 'NO'}" for name, ok in rep.items())
    return "nilpotency pattern of negative root vectors", \
        "11 vanishing products, 2 non-vanishing", "; ".join(residual), details


def check_cas_general(ctx):
    R = ctx.rmat
    residual = []
    details = []
    for name, ok in R.truncation_checks.items():
        details.append(f"{name}: {'ok' if ok else 'NO'}")
        if not ok:
            residual.append(name)
    for tok, m in R.intertwiner_residuals().items():
        ok = miszero(m)
        details.append(f"intertwiner {tok}: {'ok' if ok else 'NO'}")
        if not ok:
            residual.append(f"intertwiner-{tok}")
    for name, r in centrality_residuals(ctx.casimir).items():
        ok = r.is_zero
        details.append(f"central against {name}: {'ok' if ok else 'NO'}")
        if not ok:
            residual.append(f"centrality-{name}: {r.canon_str()}")
    return "R-matrix trace construction", "central element", \
        "; ".join(residual), tuple(details)


def check_casimir_rmatrix(ctx):
    C = ctx.casimir
    Cx = casimir_explicit()
    diff = C - Cx
    residual = [] if diff.is_zero else [diff.canon_str()]
    details = ["constructed equals explicit form" if diff.is_zero else "MISMATCH"]
    c = casimir_eigenvalue((1, 0))
    scalar_ok = meq(FUND.rep(C), mscale(c, meye(4, ONE, ZERO)))
    details.append(f"acts as c_omega1 on the fundamental module: "
                   f"{'ok' if scalar_ok else 'NO'}")
    if not scalar_ok:
        residual.append("fundamental eigenvalue")
    return C.canon_str(), Cx.canon_str(), "; ".join(residual), tuple(details)


def check_value_casimir(ctx):
    residual = []
    details = []
    c0 = casimir_eigenvalue((0, 0))
    want0 = laurent_q({-4: 1, -2: 1, 2: 1, 4: 1}) / (_Q * _Q)
    if c0 != want0:
        residual.append("c at weight 0")
    details.append("weight 0 value ok" if c0 == want0 else "weight 0 MISMATCH")
    c1 = casimir_eigenvalue((1, 0))
    want1 = laurent_q({-6: 1, -2: 1, 2: 1, 6: 1}) / (_Q * _Q)
    if c1 != want1:
        residual.append("c at omega1")
    details.append("omega1 value ok" if c1 == want1 else "omega1 MISMATCH")
    v0 = Fraction(1, 3)
    vals = [evaluate(casimir_eigenvalue((n, n % 2)), v0) for n in range(5)]
    pos = all(v > 0 for v in vals)
    details.append(f"positivity at v=1/3 on 5 samples: {'ok' if pos else 'NO'}")
    if not pos:
        residual.append("positivity")
    return "eigenvalue formula", "pairing oracles", "; ".join(residual), tuple(details)


def check_rel_e_es(ctx):
    Eb1s = star(root_E(1))
    named = [
        ("e1*e1", Eb1s * root_E(1) - _qp(2) * (root_E(1) * Eb1s)
         + (_qp(2) / _Q) * (K(4, -2) - unit())),
        ("e1*e2", Eb1s * root_E(2) - _qp(2) * (root_E(2) * Eb1s)
         - _qp(2) * root_E(3)),
        ("e1*e3", Eb1s * root_E(3) - root_E(3) * Eb1s - BR2 * root_E(4)),
        ("e1*e4", Eb1s * root_E(4) - _qp(-2) * (root_E(4) * Eb1s)),
    ]
    residual, details = _zero_residuals(
        named, lambda x: x.is_zero, lambda x: x.canon_str())
    return "commutators with the starred Levi root vector", "0", residual, details


def check_rel_rewrite_cas(ctx):
    E = {j: root_E(j) for j in (1, 2, 3, 4)}
    Es = {j: star(root_E(j)) for j in (1, 2, 3, 4)}
    named = [
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
    ]
    residual, details = _zero_residuals(
        named, lambda x: x.is_zero, lambda x: x.canon_str())
    return "rewriting identities for the quantum part", "0", residual, details


def check_quantum_casimir(ctx):
    direct, rewritten = casimir_quantum_parts()
    diff = direct - rewritten
    residual = "" if diff.is_zero else diff.canon_str()
    return direct.canon_str(), rewritten.canon_str(), residual, \
        ("two forms of the quantum part agree" if not residual else "MISMATCH",)


def check_cas_to_the_right(ctx):
    C = ctx.casimir
    Cr = casimir_right_form()
    diff = C - Cr
    residual = "" if diff.is_zero else diff.canon_str()
    return C.canon_str(), Cr.canon_str(), residual, \
        ("Levi-letters-right form agrees" if not residual else "MISMATCH",)


def check_relation_cliff(ctx):
    failures = m_well_definedness_probe(seed=ctx.seed, trials=8)
    residual = "" if failures == 0 else f"{failures} probe failures"
    return "reduce(t (Y (x) 1))", "reduce(t (1 (x) rho(S(Y))))", residual, \
        ("8 randomized probes",)


def check_casimir_clifford(ctx):
    cm = ctx.casimir_m
    k2l1, k2l2 = K(2, 0), K(-2, 2)
    e1 = normal_form(("E1",))
    kse = k2l1 * antipode(e1)
    ksee = k2l1 * antipode(star(e1) * e1)
    want = {
        _u_key(1, 1): EXT.rho_op(k2l1).scale(BR2 * BR2 * _qp(-4)),
        _u_key(2, 2): (EXT.rho_op(k2l1).scale(_qp(-5) - _Q * _qp(-2))
                       + EXT.rho_op(k2l2).scale(_qp(-1))
                       + EXT.rho_op(ksee).scale(_Q * _Q * _qp(-4))),
        _u_key(3, 3): (EXT.rho_op(k2l2).scale(_qp(-4))
                       - EXT.rho_op(k2l1).scale(_Q * _qp(-5))
                       + EXT.rho_op(ksee).scale(_Q * _Q * _qp(-7))).scale(BR2 * BR2),
        _u_key(1, 2): EXT.rho_op(kse).scale(-(_Q * BR2 * _qp(-3))),
        _u_key(2, 1): EXT.rho_op(star(kse)).scale(-(_Q * BR2 * _qp(-3))),
        _u_key(2, 3): EXT.rho_op(kse).scale(-(_Q * BR2 * _qp(-5))),
        _u_key(3, 2): EXT.rho_op(star(kse)).scale(-(_Q * BR2 * _qp(-5))),
        _u_key(1, 3): ModuleOperator.zero(),
        _u_key(3, 1): ModuleOperator.zero(),
    }
    residual = []
    details = []
    for u, w in sorted(want.items()):
        diff = cm.component(u) - w
        ok = diff.is_zero
        details.append(f"component {u}: {'ok' if ok else 'NO'}")
        if not ok:
            residual.append(f"{u}: {diff.entries_str()}")
    return "Casimir reduced in the quotient", "stated components", \
        "; ".join(residual), tuple(details)


def check_kappa_constraints(ctx):
    residual = []
    details = []
    s2, s3 = solve_kappa_constraints()
    ok2 = s2 == KAPPA2_RATIO
    ok3 = s3 == KAPPA3_RATIO
    details.append(f"kappa_2/kappa_1 = {s2.canon_str()}: {'ok' if ok2 else 'NO'}")
    details.append(f"kappa_3/kappa_1 = {s3.canon_str()}: {'ok' if ok3 else 'NO'}")
    if not ok2:
        residual.append("kappa2 ratio")
    if not ok3:
        residual.append("kappa3 ratio")
    g13 = gamma_pair_formula(1, 3)
    deg_trivial = all(g13.mat[r][0].is_zero and g13.mat[r][7].is_zero
                      for r in range(8))
    details.append(f"degrees 0 and 3 unconstrained: {'ok' if deg_trivial else 'NO'}")
    if not deg_trivial:
        residual.append("degree 0/3 constraints")
    if not g13.substitute_ratios(s2, s3).is_zero:
        residual.append("mixed component after substitution")
    else:
        details.append("mixed component vanishes on all eight vectors")
    return "vanishing of the mixed (1,3) component", "unique ratio solution", \
        "; ".join(residual), tuple(details)


def check_clifford_off(ctx):
    res = gamma_identities_after_kappa(ctx.d2m)
    named = [(f"Gamma{i}{j}", res[(i, j)])
             for (i, j) in ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))]
    residual, details = _zero_residuals(
        named, lambda m: m.is_zero, lambda m: m.entries_str())
    return "off-diagonal components after substitution", "closed forms", \
        residual, details


def check_clifford_diag(ctx):
    res = gamma_identities_after_kappa(ctx.d2m)
    named = [(f"Gamma{i}{i}", res[(i, i)]) for i in (1, 2, 3)]
    residual, details = _zero_residuals(
        named, lambda m: m.is_zero, lambda m: m.entries_str())
    return "diagonal components after substitution", "closed forms", \
        residual, details


def check_parthasarathy(ctx):
    residual = []
    details = [f"constant kappa_1 * {PARTHASARATHY_CONSTANT.canon_str()}"]
    diff, levi = parthasarathy_residual(C=ctx.casimir, d2m=ctx.d2m)
    if diff.radical_is_zero:
        details.append("all nine radical components vanish")
    else:
        residual.append(" | ".join(
            f"{u}: {op.entries_str()}"
            for u, op in sorted(diff.radical_components().items())))
    details.append("pure Levi remainder retained (reported, nonzero: "
                   f"{not levi.is_zero})")
    # negative controls
    bad, _ = parthasarathy_residual(
        C=ctx.casimir, kappa3_ratio=KAPPA3_RATIO * (1 + _Q), d2m=ctx.d2m)
    if bad.radical_is_zero:
        residual.append("perturbed kappa_3 fails to break the identity")
    else:
        details.append("negative control: perturbed kappa_3 breaks the identity")
    for k in range(6):
        bad, _ = parthasarathy_residual(
            C=casimir_explicit(drop_quantum_term=k), d2m=ctx.d2m)
        if bad.radical_is_zero:
            residual.append(f"dropping quantum term {k} fails to break the identity")
        else:
            details.append(f"negative control: dropped quantum term {k} breaks it")
    return "Dirac square minus scaled Casimir in the quotient", \
        "pure Levi element", "; ".join(residual), tuple(details)


def check_spectral_triple(ctx):
    sp = spectrum_growth(Fraction(1, 2), 20)
    residual = []
    details = [f"{len(sp.rows)} dominant weights, shells 0..20"]
    if not sp.positive:
        residual.append("nonpositive eigenvalue")
    else:
        details.append("all eigenvalues positive (exact comparisons)")
    if not sp.monotone:
        residual.append("shell minima not strictly increasing")
    else:
        details.append("per-shell minima strictly increasing")
    return "eigenvalue growth at v = 1/2 up to shell 20", \
        "strictly increasing shell minima", "; ".join(residual), tuple(details)


CHECKS = {
    "uqg-relations": (
        "defining relations, Serre relators, antipode axiom and star "
        "involution hold in the PBW engine", check_uqg_relations),
    "eq-comm-rel-uqg": (
        "randomized associativity, relator-insertion and representation "
        "probes for the straightening rules", check_comm_rel),
    "eq-condition-i": (
        "the canonical element is invariant under the Levi generators",
        check_condition_i),
    "lem-equiv-maps": (
        "the wedge operators are equivariant for the twisted adjoint action",
        check_equiv_maps),
    "lem-canonical-square": (
        "the Dolbeault element and its adjoint square to zero",
        check_canonical_square),
    "def-dolb-dirac": (
        "the Dirac element is formally self-adjoint", check_dolb_dirac),
    "prop-dolbeault-invariant": (
        "the Dolbeault element preserves the invariant-forms model",
        check_dolbeault_invariant),
    "lem-fundamental-c2": (
        "the fundamental-module matrices satisfy every defining relation "
        "including both Serre relations", check_fundamental),
    "lem-root-e": (
        "closed-form quantum root vectors agree with the PBW letters",
        check_root_vectors),
    "prop-sq-relations": (
        "the radical-root subalgebra has its three quadratic relations",
        check_sq_relations),
    "lem-levi-up": (
        "the adjoint action on the radical roots matches the table "
        "(12 entries)", check_levi_up),
    "lem-levi-um": (
        "the dual action on the exterior generators matches the table "
        "(12 entries)", check_levi_um),
    "prop-lq-relations": (
        "the quadratic dual is 6-dimensional and spans the wedge relations; "
        "graded dimensions (1,3,3,1)", check_lq_relations),
    "lem-levi-lq": (
        "the Levi action on the full exterior module matches the table",
        check_levi_lq),
    "cor-iso-exterior": (
        "degree 1 and degree 2 are isomorphic over the semisimple Levi part "
        "but not over the full Levi factor", check_iso_exterior),
    "lem-inner-prod": (
        "the invariant inner products are diagonal with the stated entries, "
        "one free constant per degree", check_inner_prod),
    "lem-action-gamma": (
        "right wedge multiplication matches the table", check_action_gamma),
    "lem-gamma-star": (
        "the Gram adjoints of the wedge operators match the table",
        check_gamma_star),
    "lem-rel-xi-xis": (
        "all six mod-Levi commutation relations are recovered by the "
        "decomposition with the stated coefficients", check_rel_xi_xis),
    "prop-d-squared": (
        "the reduced Dirac square carries the stated operator on each "
        "radical monomial", check_d_squared),
    "lem-f-vanish": (
        "nilpotency pattern of the represented negative root vectors "
        "(11 vanishing, 2 non-vanishing)", check_f_vanish),
    "prop-cas-general": (
        "the truncated R-matrix is an exact intertwiner and the quantum "
        "trace pairing is central", check_cas_general),
    "prop-casimir-rmatrix": (
        "the constructed Casimir equals its explicit PBW form and acts by "
        "its eigenvalue on the fundamental module", check_casimir_rmatrix),
    "cor-value-casimir": (
        "the eigenvalue formula matches the pairing oracles and is positive",
        check_value_casimir),
    "lem-rel-e-es": (
        "the four commutation relations with the starred Levi root vector",
        check_rel_e_es),
    "lem-rel-rewrite-cas": (
        "the four rewriting identities used for the quantum part",
        check_rel_rewrite_cas),
    "lem-quantum-casimir": (
        "the quantum part of the Casimir equals its rewritten form",
        check_quantum_casimir),
    "prop-cas-to-the-right": (
        "the Casimir equals the form with all Levi letters moved right",
        check_cas_to_the_right),
    "eq-relation-cliff": (
        "the quotient-module reduction is well defined (randomized probe)",
        check_relation_cliff),
    "prop-casimir-clifford": (
        "the Casimir reduces in the quotient to the stated components",
        check_casimir_clifford),
    "lem-kappa-constraints": (
        "the mixed component vanishes exactly for the stated inner-product "
        "ratios, uniquely", check_kappa_constraints),
    "lem-clifford-off": (
        "off-diagonal Dirac-square components take their closed forms after "
        "substitution", check_clifford_off),
    "lem-clifford-diag": (
        "diagonal Dirac-square components take their closed forms after "
        "substitution", check_clifford_diag),
    "thm-parthasarathy": (
        "the Dirac square equals the scaled Casimir up to a pure Levi "
        "remainder; negative controls fail", check_parthasarathy),
    "thm-spectral-triple": (
        "Casimir eigenvalues grow without bound: positive values and "
        "strictly increasing shell minima", check_spectral_triple),
}


def run_check(check_id, ctx):
    statement, fn = CHECKS[check_id]
    t0 = time.perf_counter()
    try:
        lhs, rhs, residual, details = fn(ctx)
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
        lhs_digest=digest(lhs),
        rhs_digest=digest(rhs),
        residual=residual,
        details=details,
        elapsed_ms=elapsed,
    )


def run_suite(check_ids, ctx):
    return [run_check(cid, ctx) for cid in sorted(check_ids)]
