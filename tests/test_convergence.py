import pytest
from hypothesis import given, settings

from conftest import compositions, convergent_compositions_strategy
from extshuffle import (
    UNIT,
    check_closure,
    ext_shuffle,
    first_divergent_index,
    is_convergent,
    partial_weight,
    product_weight_lower_bound,
    stuffle,
    tilde_w,
)
from extshuffle.convergence import DivergentError, require_convergent
from extshuffle.relations import convergent_compositions


def test_require_convergent_names_the_composition_as_typed():
    with pytest.raises(ValueError, match=r"composition \[1\] is not convergent"):
        require_convergent((2,), (1,))


def test_divergent_error_carries_the_composition_and_the_reason():
    with pytest.raises(DivergentError) as info:
        require_convergent((2,), (3, -1))
    assert isinstance(info.value, ValueError)
    assert info.value.comp == (3, -1)
    assert info.value.reason == "partial weight at j=2 is 2, requires > 2"


def test_a_long_divergent_composition_is_cut_in_the_message_only():
    with pytest.raises(DivergentError) as info:
        require_convergent((1,) * 3000)
    assert info.value.comp == (1,) * 3000
    assert str(info.value) == (
        f"composition [{'1,' * 29}1... is not convergent (partial weight at j=1 is 1, requires > 1)"
    )


def test_tilde_w_examples():
    assert [tilde_w((-1, 2), j) for j in range(3)] == [-1, -1, 1]
    assert [tilde_w((2, -1), j) for j in range(3)] == [0, 1, 1]


def test_tilde_w_unit():
    for j in range(5):
        assert tilde_w(UNIT, j) == 0
    with pytest.raises(IndexError):
        tilde_w(UNIT, -1)


def test_tilde_w_out_of_range():
    with pytest.raises(IndexError):
        tilde_w((1, 2), 3)
    with pytest.raises(IndexError):
        tilde_w((1, 2), -1)


def test_is_convergent_examples():
    assert is_convergent((2,))
    assert is_convergent((4, -1))
    assert not is_convergent((3, -1))
    assert not is_convergent((1,))
    assert is_convergent(UNIT)


def test_first_divergent_index():
    assert first_divergent_index((3, -1)) == (2, 2)
    assert first_divergent_index((1,)) == (1, 1)
    assert first_divergent_index((2, 2)) is None


def test_product_weight_lower_bound_examples():
    assert product_weight_lower_bound((1,), (-1,), 1) == -1
    assert product_weight_lower_bound((2,), (2,), 1) == 2
    assert product_weight_lower_bound((0,), (0,), 2) == 0


def test_product_weight_lower_bound_range():
    with pytest.raises(IndexError):
        product_weight_lower_bound((1,), (1,), 0)
    with pytest.raises(IndexError):
        product_weight_lower_bound((1,), (1,), 3)


def test_check_closure_examples():
    assert check_closure((2,), (2,))
    assert check_closure((4, -1), (2,))
    assert check_closure(UNIT, (3,))


def test_check_closure_rejects_divergent_input():
    with pytest.raises(ValueError):
        check_closure((1,), (2,))
    with pytest.raises(ValueError):
        check_closure((2,), (3, -1))


@given(compositions(-4, 4, 4))
def test_tilde_never_exceeds_plain_weight(comp):
    for j in range(len(comp) + 1):
        assert partial_weight(comp, j) >= tilde_w(comp, j)
        equal = partial_weight(comp, j) == tilde_w(comp, j)
        boundary_or_nonneg = j == len(comp) or comp[j] >= 0
        assert equal == boundary_or_nonneg
    assert tilde_w(comp, 0) <= 0


@given(compositions(-4, 4, 4))
def test_tilde_shift_identity(comp):
    prefixed = (0,) + comp
    for k in range(1, len(prefixed) + 1):
        assert tilde_w(prefixed, k) == tilde_w(comp, k - 1)


@given(compositions(-3, 3, 3), compositions(-3, 3, 3))
@settings(max_examples=200)
def test_bound_soundness(a, b):
    for term in ext_shuffle(a, b).support():
        for k in range(1, len(term) + 1):
            assert partial_weight(term, k) >= product_weight_lower_bound(a, b, k)


@given(convergent_compositions_strategy(), convergent_compositions_strategy())
@settings(max_examples=200)
def test_closure_of_convergent_region(a, b):
    assert check_closure(a, b)


@given(convergent_compositions_strategy(), convergent_compositions_strategy())
@settings(max_examples=200)
def test_stuffle_closure_empirically(a, b):
    # the quasi-shuffle keeps the convergent region closed; the proof is in
    # the module docstring of extshuffle.relations
    assert [t for t in stuffle(a, b).support() if not is_convergent(t)] == []


def test_closure_over_the_certify_region_exhaustively():
    # every ordered pair of the benchmark's certify region (depth <= 3,
    # entries -1..3): no term of either product leaves the convergent region,
    # so the relation scan needs no run-time check of its terms
    basis = convergent_compositions(3, -1, 3)
    assert len(basis) == 38
    checked = 0
    for a in basis:
        for b in basis:
            for product in (ext_shuffle(a, b), stuffle(a, b)):
                bad = [term for term, _ in product.items() if not is_convergent(term)]
                assert bad == [], (a, b, bad)
                checked += len(product)
    assert checked == 141_786
