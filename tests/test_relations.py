import itertools
import math
from fractions import Fraction

import pytest

from extshuffle import (
    LinComb,
    double_shuffle_relation,
    enumerate_relations,
    ext_shuffle,
    rho_decode,
    rho_encode,
    stuffle,
    word_shuffle,
    zeta,
)
from extshuffle.convergence import is_convergent
from extshuffle.relations import convergent_compositions


def lc(*terms):
    return LinComb(terms)


def test_relation_two_two():
    rel = double_shuffle_relation((2,), (2,))
    assert rel.difference == lc(((4,), 1), ((3, 1), -4))


def test_relation_two_three():
    rel = double_shuffle_relation((2,), (3,))
    # frozen expansion, cross-checked against the independent word oracle
    assert rel.difference == lc(((5,), 1), ((3, 2), -2), ((4, 1), -6))
    oracle = word_shuffle(rho_encode((2,)), rho_encode((3,)))
    shuffle_side = LinComb((rho_decode(word), coef) for word, coef in oracle.items())
    assert rel.difference == stuffle((2,), (3,)) - shuffle_side


def test_relation_rejects_unit_and_divergent():
    with pytest.raises(ValueError):
        double_shuffle_relation((), (2,))
    with pytest.raises(ValueError):
        double_shuffle_relation((2,), (1,))
    with pytest.raises(ValueError):
        double_shuffle_relation((3, -1), (2,))


def test_convergent_compositions_enumeration():
    basis = convergent_compositions(1, 2, 3)
    assert basis == [(2,), (3,)]
    basis2 = convergent_compositions(2, -1, 4)
    assert (4, -1) in basis2
    assert (2,) in basis2
    assert all(len(c) <= 2 for c in basis2)
    assert convergent_compositions(2, 0, 1) == []


def test_convergent_compositions_are_the_convergent_ones_in_canonical_order():
    # every depth up to 4 and every entry range within -3..4, empty ones included
    everything = [c for d in range(1, 5) for c in itertools.product(range(-3, 5), repeat=d)]
    for max_depth in range(1, 5):
        for lo in range(-3, 5):
            for hi in range(lo - 1, 5):
                basis = convergent_compositions(max_depth, lo, hi)
                brute = [c for c in everything if len(c) <= max_depth
                         and all(lo <= e <= hi for e in c) and is_convergent(c)]
                assert basis == sorted(brute, key=LinComb._key), (max_depth, lo, hi)


def test_enumerate_relations_smallest():
    scan = enumerate_relations(1, (2, 2), 1e-4)
    assert len(scan.relations) == 1
    rel = scan.relations[0]
    assert (rel.a, rel.b) == ((2,), (2,))
    assert rel.difference == lc(((4,), 1), ((3, 1), -4))
    assert rel.residual < 1e-4 + rel.est_error
    assert rel.passed
    assert scan.skipped == ()


def test_enumerate_relations_includes_weight_four():
    scan = enumerate_relations(1, (2, 3), 1e-4)
    pairs = [(r.a, r.b) for r in scan.relations]
    assert ((2,), (2,)) in pairs
    assert ((2,), (3,)) in pairs
    assert ((3,), (3,)) in pairs
    assert len(scan.relations) == 3
    for rel in scan.relations:
        assert rel.residual < 1e-4 + rel.est_error


def test_enumerate_relations_empty_bounds():
    scan = enumerate_relations(0, (2, 5), 1e-4)
    assert scan.relations == ()
    scan = enumerate_relations(2, (0, 1), 1e-4)
    assert scan.relations == ()


def test_enumerate_relations_depth_two_residuals():
    scan = enumerate_relations(2, (-1, 3), 1e-3, max_n=1 << 18)
    assert scan.relations
    for rel in scan.relations:
        assert rel.residual < 1e-3 + rel.est_error


def test_shuffle_symmetry_on_convergent_region_is_measured_not_assumed():
    # record the empirical symmetry of the product over a convergent sample;
    # nothing downstream relies on the outcome
    basis = convergent_compositions(2, -1, 3)
    asymmetric = [
        (a, b)
        for i, a in enumerate(basis)
        for b in basis[i + 1 :]
        if ext_shuffle(a, b) != ext_shuffle(b, a)
    ]
    symmetric_share = 1 - len(asymmetric) / max(1, len(basis) * (len(basis) - 1) // 2)
    print(
        f"\nconvergent-region commutativity: {symmetric_share:.1%} of "
        f"{len(basis) * (len(basis) - 1) // 2} pairs commute"
        + (f", first asymmetric pair {asymmetric[0]}" if asymmetric else "")
    )
    assert 0 <= symmetric_share <= 1


def test_relation_fails_when_its_residual_exceeds_tolerance(monkeypatch):
    import extshuffle.relations as rel_mod
    from extshuffle import ZetaEstimate

    def off_by_one(xs, tol, max_n):
        return [ZetaEstimate(1.0, 1024, 1e-9, True)] * len(xs)

    monkeypatch.setattr(rel_mod, "_combine", off_by_one)
    scan = rel_mod.enumerate_relations(1, (2, 3), 1e-4)
    assert len(scan.relations) == 3
    assert not any(rel.passed for rel in scan.relations)
    assert all(rel.residual == 1.0 for rel in scan.relations)


def test_relation_with_an_unconverged_estimate_is_not_passed(monkeypatch):
    import extshuffle.relations as rel_mod
    from extshuffle import ZetaEstimate

    def unconverged(xs, tol, max_n):
        return [ZetaEstimate(0.0, 1 << 24, 1e-9, False)] * len(xs)

    monkeypatch.setattr(rel_mod, "_combine", unconverged)
    scan = rel_mod.enumerate_relations(1, (2, 3), 1e-4)
    assert [rel.residual for rel in scan.relations] == [0.0] * 3
    assert not any(rel.passed for rel in scan.relations)


def test_batched_scan_matches_per_composition_sums():
    # the scan evaluates the union of its relations' terms in one batch; each
    # estimate must be what zeta gives that composition alone
    tol = 1e-4
    scan = enumerate_relations(2, (-1, 3), tol)
    basis = convergent_compositions(2, -1, 3)
    pairs = [(a, b) for i, a in enumerate(basis) for b in basis[i:]]
    assert len(scan.relations) + len(scan.skipped) == len(pairs)
    assert scan.skipped == ()
    expected = []
    for a, b in pairs:
        # the weighted sums, exactly, with the value rounded once and the
        # bound rounded up
        rel = double_shuffle_relation(a, b)
        total = err = Fraction(0)
        for comp, coef in rel.difference.terms():
            est = zeta(comp, tol)
            total += coef * Fraction(est.value)
            err += abs(coef) * Fraction(est.est_error)
        value = float(total)
        err += abs(Fraction(value) - total)
        bound = float(err) if Fraction(float(err)) >= err else math.nextafter(float(err), math.inf)
        expected.append((a, b, rel.difference, abs(value), bound, abs(value) <= tol + bound))
    got = [(r.a, r.b, r.difference, r.residual, r.est_error, r.passed) for r in scan.relations]
    assert got == expected


@pytest.mark.parametrize("tol, max_n", [(float("inf"), 1 << 24), (1e-4, 1024)])
def test_scan_checks_numeric_arguments_before_any_product(monkeypatch, tol, max_n):
    import extshuffle.relations as rel_mod

    def no_product(a, b):
        raise AssertionError("computed a product before checking the arguments")

    monkeypatch.setattr(rel_mod, "double_shuffle_relation", no_product)
    with pytest.raises(ValueError, match="tolerance|max_n"):
        rel_mod.enumerate_relations(0, (1, 3), tol, max_n=max_n)
    with pytest.raises(ValueError, match="tolerance|max_n"):
        rel_mod.enumerate_relations(1, (2, 3), tol, max_n=max_n)
