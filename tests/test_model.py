import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from combstab import (
    BundleData,
    CombCurve,
    Polarization,
    ToothWitness,
    component_eulers,
    format_rational,
    parse_rational,
    slope,
    total_euler,
    validate_polarization,
)
from combstab.model import _exact_sum


def test_total_euler_worked():
    curve = CombCurve((2, 2))
    assert component_eulers(curve, BundleData(2, (1, 1))) == (-1, -1)
    assert total_euler(curve, BundleData(2, (1, 1))) == -4
    assert component_eulers(curve, BundleData(2, (5, 1))) == (3, -1)
    assert total_euler(curve, BundleData(2, (5, 1))) == 0
    # chi_j = d_j + n*(1 - g_j) on genus 2 and 3, 0 (O on a rational curve) and 1.
    assert component_eulers(CombCurve((2, 3)), BundleData(2, (1, 7))) == (-1, 3)
    assert total_euler(CombCurve((2, 3)), BundleData(2, (1, 7))) == 0
    assert component_eulers(CombCurve((0, 0)), BundleData(1, (0, 0))) == (1, 1)
    assert total_euler(CombCurve((0, 0)), BundleData(1, (0, 0))) == 1
    assert component_eulers(CombCurve((1, 1)), BundleData(3, (0, 0))) == (0, 0)
    assert total_euler(CombCurve((1, 1)), BundleData(3, (0, 0))) == -3


def test_total_euler_length_mismatch():
    with pytest.raises(ValueError):
        total_euler(CombCurve((2, 2)), BundleData(1, (1, 2, 3)))


curves = st.lists(st.integers(0, 5), min_size=2, max_size=5).map(
    lambda gs: CombCurve(tuple(gs))
)


@st.composite
def curve_and_bundle(draw):
    curve = draw(curves)
    rank = draw(st.integers(1, 4))
    degrees = draw(
        st.lists(
            st.integers(-15, 15),
            min_size=curve.num_components,
            max_size=curve.num_components,
        )
    )
    return curve, BundleData(rank, tuple(degrees))


@st.composite
def curve_bundle_polarization(draw):
    curve, bundle = draw(curve_and_bundle())
    num = curve.num_components
    den = draw(st.integers(num, 48))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, den - 1),
                min_size=num - 1,
                max_size=num - 1,
                unique=True,
            )
        )
    )
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return curve, bundle, Polarization(tuple(Fraction(p, den) for p in parts))


@given(curve_and_bundle())
def test_total_euler_matches_plain_summation(cb):
    curve, bundle = cb
    n = bundle.rank
    by_hand = (
        sum(d + n * (1 - g) for g, d in zip(curve.genera, bundle.multidegree))
        - n * (curve.num_components - 1)
    )
    assert total_euler(curve, bundle) == by_hand


@given(curve_and_bundle())
def test_telescoping_when_every_component_euler_is_rank(cb):
    # chi_j = n for every j forces the total to telescope down to n.
    curve, bundle = cb
    n = bundle.rank
    adjusted = BundleData(n, tuple(n * g for g in curve.genera))
    assert component_eulers(curve, adjusted) == (n,) * curve.num_components
    assert total_euler(curve, adjusted) == n


@given(curve_bundle_polarization())
def test_full_rank_slope_is_total_over_rank(cbw):
    curve, bundle, w = cbw
    assert validate_polarization(w) == []
    n, chi = bundle.rank, total_euler(curve, bundle)
    profile = ToothWitness("E", 1, curve.num_components, on_tooth=n, off_tooth=n, euler=chi)
    assert profile.multirank == (n,) * curve.num_components
    assert slope(profile, w) == Fraction(chi, n)


def test_slope_worked():
    w = Polarization(("1/2", "1/2"))
    assert slope(ToothWitness("E", 1, 2, 2, 2, -4), w) == -2
    assert slope(ToothWitness("F", 1, 2, 1, 2, 0), w) == 0


def test_slope_rejects_zero_weighted_rank():
    w = Polarization((Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        slope(ToothWitness("E_1(-p_1)", 1, 2, 1, 0, 3), w)


def test_validate_polarization():
    assert validate_polarization(Polarization(("1/2", "1/2"))) == []
    bad_sum = validate_polarization(Polarization(("1/2", "1/3")))
    assert bad_sum == ["weights sum to 5/6, not 1"]
    degenerate = validate_polarization(Polarization((Fraction(1), Fraction(0))))
    assert any("w_1" in v for v in degenerate)
    assert any("w_2" in v for v in degenerate)
    assert len(degenerate) == 2


# Small, 30-digit and 1000-digit denominators; numerators of either sign.
_DENOMINATORS = st.integers(1, 60) | st.integers(1, 10**30) | st.integers(10**999, 10**1000)
_NUMERATORS = st.integers(-(10**40), 10**40) | st.integers(-(10**1000), 10**1000)


@st.composite
def rational_lists(draw):
    size = draw(st.integers(0, 40))
    if draw(st.booleans()):  # one denominator for every entry
        den = draw(_DENOMINATORS)
        dens = [den] * size
    else:
        dens = draw(st.lists(_DENOMINATORS, min_size=size, max_size=size))
    return [Fraction(draw(_NUMERATORS), d) for d in dens]


@settings(max_examples=300, deadline=None)
@given(rational_lists())
def test_exact_sum_equals_the_fraction_sum(xs):
    total = _exact_sum(xs)
    assert type(total) is Fraction
    assert total == sum(xs, Fraction(0))
    assert _exact_sum(iter(xs)) == total


def _violations_longhand(weights):
    """validate_polarization written out with Fraction comparisons and a running sum."""
    found = []
    for j, w in enumerate(weights, start=1):
        if w <= Fraction(0):
            found.append(f"w_{j} = {w} is not > 0")
        if w >= Fraction(1):
            found.append(f"w_{j} = {w} is not < 1")
    total = Fraction(0)
    for w in weights:
        total += w
    if total != Fraction(1):
        found.append(f"weights sum to {total}, not 1")
    return found


_EDGE_WEIGHTS = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(-1, 3), Fraction(3, 2), Fraction(1, 2)]
)


@st.composite
def near_normalized_weights(draw):
    """Positive parts over their sum, then one weight moved by 0 or +-10^-k."""
    parts = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=12))
    weights = [Fraction(a, sum(parts)) for a in parts]
    j = draw(st.integers(0, len(weights) - 1))
    k = draw(st.integers(1, 60))
    weights[j] += draw(st.sampled_from([0, 1, -1])) * Fraction(1, 10**k)
    return weights


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_EDGE_WEIGHTS | st.fractions(-2, 2, max_denominator=10**9), max_size=12)
    | near_normalized_weights()
)
def test_validate_polarization_matches_the_longhand(weights):
    assert validate_polarization(Polarization(tuple(weights))) == _violations_longhand(weights)


def test_validate_polarization_on_no_weights():
    assert validate_polarization(Polarization(())) == _violations_longhand([])
    assert _violations_longhand([]) == ["weights sum to 0, not 1"]


def test_structural_validation():
    with pytest.raises(ValueError):
        CombCurve((2,))
    with pytest.raises(ValueError):
        CombCurve((2, -1))
    with pytest.raises(ValueError):
        BundleData(0, (1, 1))
    with pytest.raises(TypeError):
        Polarization((0.5, 0.5))


def test_weights_coerce_ints_and_refuse_inexact_types():
    w = Polarization((1, Fraction(1, 2)))
    assert w.weights == (Fraction(1), Fraction(1, 2))
    assert type(w.weights[0]) is Fraction
    for bad in (None, True):
        with pytest.raises(TypeError) as exc:
            Polarization((Fraction(1, 2), bad))
        assert str(exc.value) == (
            f"weight 2 must be exact (int, Fraction or 'p/q' string), got {bad!r}"
        )


def test_slope_refuses_a_length_mismatch():
    with pytest.raises(ValueError) as exc:
        slope(ToothWitness("E", 1, 2, 1, 1, 1), Polarization((Fraction(1, 3),) * 3))
    assert str(exc.value) == "multirank has 2 entries, polarization has 3"


def test_arithmetic_genus_is_genus_sum():
    assert CombCurve((2, 3, 4)).arithmetic_genus == 9
    assert CombCurve((0, 0)).arithmetic_genus == 0


@pytest.mark.parametrize(
    "text,value",
    [("1/2", Fraction(1, 2)), ("-3/4", Fraction(-3, 4)), ("7", Fraction(7)), ("2/4", Fraction(1, 2))],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "0.5",
        "1/0",
        "x",
        "1e3",
        "",
        "1_0/20",
        "\u0661/\u0662",  # Arabic-Indic digits
        "\uff11/\uff12",  # fullwidth digits
        "+1/2",
        "1/-2",
        "1/+2",
        "1 /2",
    ],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@given(st.fractions())
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_rational_integers_are_plain():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 1)) == "-3"
    assert format_rational(Fraction(-3, 4)) == "-3/4"


def test_cached_totals_stay_out_of_equality_hash_and_repr():
    curve = CombCurve([2, 0, 3])
    bundle = BundleData(2, [4, -1, 5])
    assert (curve.arithmetic_genus, bundle.total_degree) == (5, 8)
    same_curve, same_bundle = CombCurve((2, 0, 3)), BundleData(2, (4, -1, 5))
    assert curve == same_curve and hash(curve) == hash(same_curve)
    assert bundle == same_bundle and hash(bundle) == hash(same_bundle)
    assert CombCurve((3, 0, 2)) != curve
    assert BundleData(2, (5, -1, 4)) != bundle
    assert repr(curve) == "CombCurve(genera=(2, 0, 3))"
    assert repr(bundle) == "BundleData(rank=2, multidegree=(4, -1, 5))"
