"""Exact values that no report pins: the reduced Dirac square, the reduced
Casimir and the pure Levi remainder of the Parthasarathy comparison.  The
checks that use them report pass or fail only, so a change in how they are
accumulated shows up here first."""

import pytest

from qlg2.checks import Context, digest
from qlg2.linalg import accumulate
from qlg2.modules import ModuleOperator
from qlg2.parthasarathy import parthasarathy_residual
from qlg2.scalar import ONE, KScalar, kappa, laurent_q


def _melement_str(me):
    return " | ".join(f"{u}: {me.terms[u].entries_str()}" for u in sorted(me.terms))


@pytest.fixture(scope="module")
def ctx():
    return Context()


def test_dirac_square_in_m(ctx):
    assert len(ctx.d2m.terms) == 10
    assert digest(_melement_str(ctx.d2m)) == "272e9326c8fd823b"


def test_casimir_in_m(ctx):
    assert len(ctx.casimir_m.terms) == 8
    assert digest(_melement_str(ctx.casimir_m)) == "98cab99cdbae6b4e"


def test_levi_remainder(ctx):
    _diff, levi = parthasarathy_residual(ctx.casimir_m, ctx.d2m)
    assert digest(levi.entries_str()) == "479701b350493734"


@pytest.mark.parametrize("value", [
    laurent_q({-1: 2, 3: 1}),
    kappa(1) * laurent_q({2: 1}) + KScalar.from_scalar(ONE),
    ModuleOperator.identity().scale(kappa(2)),
], ids=["Scalar", "KScalar", "ModuleOperator"])
def test_accumulate_drops_a_cancelled_key(value):
    out = {"other": value}
    accumulate(out, "k", value)
    assert out["k"] == value
    accumulate(out, "k", -value)
    assert list(out) == ["other"]
    accumulate(out, "k", value - value)
    assert list(out) == ["other"]
