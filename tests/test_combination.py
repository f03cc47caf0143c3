"""The vector-space laws shared by the five linear-combination types."""

import pytest

from qlg2.linalg import Combination
from qlg2.modules import EXT, ModuleOperator
from qlg2.parthasarathy import MElement, TensorOperator
from qlg2.pbw import AlgebraElement, E1, F1, K, xi_E
from qlg2.scalar import KScalar, kappa, q_power
from qlg2.weights import ALPHA1


def _algebra_element():
    return E1() * F1() + K(ALPHA1) * q_power(2) + 3


def _kscalar():
    return kappa(1) * q_power(-1) + kappa(2) * kappa(3) + 2


def _tensor_operator():
    return TensorOperator.of([(xi_E(1), EXT.gamma(1)),
                              (E1() + 1, EXT.gamma_star(2))])


def _module_operator():
    return EXT.gamma(1) + EXT.gamma_star(2).scale(q_power(1)) + ModuleOperator.identity()


def _m_element():
    return MElement({(0, 0, 0, 0, 0, 0): ModuleOperator.identity(),
                     (1, 0, 0, 0, 0, 0): EXT.gamma_star(1) @ EXT.gamma(1)})


MAKERS = {
    AlgebraElement: (_algebra_element, True),
    KScalar: (_kscalar, True),
    TensorOperator: (_tensor_operator, False),
    MElement: (_m_element, False),
    ModuleOperator: (_module_operator, False),
}


@pytest.mark.parametrize("cls", list(MAKERS), ids=lambda cls: cls.__name__)
def test_combination_laws(cls):
    make, has_scalars = MAKERS[cls]
    x, y = make(), make()
    assert type(x) is cls and isinstance(x, Combination)
    assert x and not x.is_zero
    zero = x - x
    assert type(zero) is cls and zero.is_zero and not zero
    assert -(-x) == x
    assert x == y and x is not y
    assert type(x + y) is cls and (x + y) - y == x and (x + y) != x
    if has_scalars:
        assert hash(x) == hash(y)
        assert (1 - x) + x == 1
        assert 0 + x == x and x + 0 == x
    for other_cls, (other_make, _) in MAKERS.items():
        if other_cls is not cls:
            other = other_make()
            assert not x == other and x != other
