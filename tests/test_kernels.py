import pytest
from fractions import Fraction

from combstab import kernels


def brute_simplest(ap, aq, bp, bq, max_den=2000):
    lo, hi = Fraction(ap, aq), Fraction(bp, bq)
    for q in range(1, max_den + 1):
        p = -((-lo.numerator * q) // lo.denominator)
        if Fraction(p, q) == lo:
            p += 1
        if Fraction(p, q) < hi:
            return p, q
    raise AssertionError("brute force exhausted")


# One entry, kept as a parameter so the test ids stay stable.
@pytest.mark.parametrize("mod", [kernels], ids=[kernels.BACKEND])
class TestSimplestBetween:
    @pytest.mark.parametrize(
        "interval,expected",
        [
            ((5, 12, 7, 12), (1, 2)),
            ((1, 3, 1, 2), (2, 5)),
            ((0, 1, 1, 1), (1, 2)),
            ((5, 19, 7, 19), (1, 3)),
            ((-1, 2, 1, 2), (0, 1)),
            ((2, 1, 3, 1), (5, 2)),
            ((-7, 10, -1, 3), (-1, 2)),
            ((100, 1, 200, 1), (101, 1)),
        ],
    )
    def test_worked(self, mod, interval, expected):
        assert mod.simplest_between(*interval) == expected

    def test_result_is_reduced_and_inside(self, mod):
        import math

        for args in ((13, 99, 14, 99), (1, 1000000, 2, 999999), (-5, 7, -4, 7)):
            p, q = mod.simplest_between(*args)
            assert math.gcd(p, q) == 1 and q > 0
            assert Fraction(args[0], args[1]) < Fraction(p, q) < Fraction(args[2], args[3])

    def test_errors(self, mod):
        with pytest.raises(ValueError):
            mod.simplest_between(1, 2, 1, 2)
        with pytest.raises(ValueError):
            mod.simplest_between(2, 3, 1, 3)
        with pytest.raises(ValueError):
            mod.simplest_between(1, 0, 1, 2)

    def test_exhaustive_small_window(self, mod):
        fractions = sorted(
            {Fraction(p, q) for q in range(1, 13) for p in range(-6, 19)}
        )
        for i, lo in enumerate(fractions[:-1]):
            for hi in fractions[i + 1 :]:
                got = mod.simplest_between(
                    lo.numerator, lo.denominator, hi.numerator, hi.denominator
                )
                assert got == brute_simplest(
                    lo.numerator, lo.denominator, hi.numerator, hi.denominator
                )

    def test_huge_integers(self, mod):
        big = 10**40
        assert mod.simplest_between(big, 3 * big + 1, big, 2 * big + 1) == (1, 3)
        p, q = mod.simplest_between(7 * big, 1, 7 * big + 1, 1)
        assert q == 2 and p == 14 * big + 1


def test_selected_backend_is_exposed():
    assert kernels.BACKEND == "pure-python"
    assert kernels.simplest_between(0, 1, 1, 1) == (1, 2)
