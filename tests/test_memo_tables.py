"""The memoised normal forms against a plain left fold of the token
products, a warm rerun of every check against the cold run (the memo
tables hand out shared term maps, so a caller that mutated one would change
later results), and a run without the Scalar sum and product memos against
a run with them."""

import itertools

import pytest

from qlg2 import cli, pbw
from qlg2.checks import CHECKS, PROBE_TOKENS
from qlg2.pbw import AE_ONE, K, normal_form, root_E, root_F
from qlg2.scalar import ONE, Q_SC, q_number

import memos

_LETTERS = {"E1": root_E(1), "E2": root_E(4), "F1": root_F(1), "F2": root_F(4)}


def _fold(word, coeff):
    """coeff times the token products, multiplied left to right."""
    out = (AE_ONE * coeff).terms
    for tok in word:
        f = K(tok[1:]) if isinstance(tok, tuple) else _LETTERS[tok]
        out = pbw._mul_terms(out, f.terms)
    return out


def test_normal_forms_match_the_plain_fold():
    assert "qlg2.pbw._NF_CACHE" in memos.tables()
    words = [w for n in range(4) for w in itertools.product(PROBE_TOKENS, repeat=n)]
    with memos.cold():
        # the first coefficient of each word misses the memo, the others hit it
        for word in words:
            for coeff in (ONE, 2, q_number(3) / Q_SC, 0):
                got = normal_form(word, coeff).terms
                want = _fold(word, coeff)
                assert list(got) == list(want)
                assert got == want
        assert len(pbw._NF_CACHE) == len(words)


@pytest.mark.parametrize("good,bad", [
    # equal words as keys, but neither 1.0 nor True is an int
    ((("K", 1, 0),), (("K", 1.0, 0),)),
    ((("K", 1, 0),), (("K", True, 0),)),
    (("E1",), ("E1", "X")),
])
def test_bad_token_raises_on_a_warm_memo(good, bad):
    normal_form(good)
    assert good in pbw._NF_CACHE
    with pytest.raises(ValueError):
        normal_form(bad)


def _report(path):
    """The bytes of a passing `verify --check all --report json`."""
    rc = cli.main(["verify", "--check", "all", "--report", "json", "--out", str(path)])
    assert rc == cli.EXIT_PASS
    return path.read_bytes()


def test_warm_rerun_gives_the_cold_report(tmp_path):
    with memos.cold():
        cold = _report(tmp_path / "cold.json")
        warm = _report(tmp_path / "warm.json")
    assert warm == cold
    assert cold.count(b'"status": "pass"') == len(CHECKS) == 35


def test_report_without_the_result_memos_equals_the_plain_report(tmp_path):
    # both runs from cold tables, so every Scalar of the first one is built
    # without _ADD_CACHE and _MUL_CACHE
    names = ("qlg2.scalar._ADD_CACHE", "qlg2.scalar._MUL_CACHE")
    with memos.cold():
        with memos.swapped(names, memos.NeverStored) as never:
            off = _report(tmp_path / "off.json")
        assert all(table.lookups and not table for table in never.values())
        memos.restore({})
        on = _report(tmp_path / "on.json")
        assert all(memos.tables()[name] for name in names)
    assert off == on
