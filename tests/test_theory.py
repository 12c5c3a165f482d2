import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binomial_lower_tail_exact, binomial_upper_tail_exact
from exprgg import (
    LogRegime,
    PowerFamily,
    a_max,
    a_min,
    chernoff_lower_tail,
    chernoff_upper_tail,
    containment_radius,
    edge_distance,
    h_function,
    pair_connect_prob,
    sample_exponential_cloud,
    series_classifier,
    theory_bounds,
)
from exprgg.theory import _root_equation

C_GRID = (1.5, 2.0, 4.0, 8.0, 16.0, 1e3, 1e6)


def test_pair_connect_prob_values():
    assert pair_connect_prob(0.0, 1.0, 3) == 0.0
    assert pair_connect_prob(math.log(2), 1.0, 1) == pytest.approx(0.5, abs=1e-15)
    assert pair_connect_prob(math.log(2), 1.0, 2) == pytest.approx(0.25, abs=1e-15)


def test_pair_connect_prob_monte_carlo():
    # 1e6 i.i.d. pairs; agreement within 3 standard errors of the estimate
    y, lam, d = math.log(2), 1.0, 2
    a = sample_exponential_cloud(10**6, d, lam, seed=100).points
    b = sample_exponential_cloud(10**6, d, lam, seed=101).points
    hit = np.all(np.abs(a - b) <= y, axis=1)
    p_hat = hit.mean()
    p = pair_connect_prob(y, lam, d)
    se = math.sqrt(p * (1 - p) / 10**6)
    assert abs(p_hat - p) <= 3 * se


def test_pair_connect_prob_small_y_asymptote():
    y, lam, d = 1e-6, 1.0, 1
    p = pair_connect_prob(y, lam, d)
    assert abs(p - (lam * y) ** d) / (lam * y) ** d < 1e-5


def test_pair_connect_prob_monotonicity():
    ys = np.linspace(0.0, 3.0, 50)
    ps = [pair_connect_prob(y, 1.0, 2) for y in ys]
    assert all(a <= b for a, b in zip(ps, ps[1:]))
    assert pair_connect_prob(0.5, 1.0, 2) <= pair_connect_prob(0.5, 2.0, 2)
    for y in (0.1, 0.5, 2.0):
        p1, p2, p3 = (pair_connect_prob(y, 1.0, d) for d in (1, 2, 3))
        assert p1 >= p2 >= p3


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pair_connect_prob(math.nan, 1.0, 1), "y must be >= 0, got nan"),
        (lambda: pair_connect_prob(0.0, math.inf, 1), "lam must be a positive finite rate"),
        (lambda: containment_radius(10, 1.0, 1, math.nan), "epsilon must be >= 0, got nan"),
        (lambda: containment_radius(10, math.inf, 1), "lam must be a positive finite rate"),
        (lambda: a_min(1.0, math.inf, 1), "lam must be a positive finite rate"),
        (lambda: a_max(1.0, math.inf, 1), "lam must be a positive finite rate"),
        # Finite lam whose lam^d, lam^d * c or radius over- or underflows.
        (lambda: containment_radius(10, 1e-320, 1), "radius .* got inf from lam=1e-320"),
        (lambda: containment_radius(10, 1.0, 1, math.inf), "radius .* got inf"),
        (lambda: a_min(1.0, 1e-200, 2), "lam\\^d must be finite and positive"),
        (lambda: theory_bounds(1.0, 1e200, 2), "lam\\^d must be finite and positive"),
        # An int lam's exact power never overflows; the float it stands for does.
        (lambda: theory_bounds(1.0, 10, 400),
         "^lam\\^d must be finite and positive, got lam=10, d=400$"),
        (lambda: a_max(math.inf, 1e200, 2), "lam\\^d must be finite and positive"),
        (lambda: a_max(1e-300, 1e-10, 1), "lam\\^d \\* c must be finite and positive"),
        (lambda: a_min(1e300, 1e10, 1), "lam\\^d \\* c must be finite and positive"),
        (lambda: chernoff_upper_tail(0, 0.5, 1.0), "^n must be >= 1, got 0$"),
        (lambda: chernoff_upper_tail(10, 1.0, 10.0), "^p must lie in \\(0, 1\\), got 1.0$"),
        (lambda: containment_radius(1, 1.0, 1), "^n must be >= 2, got 1$"),
        (lambda: a_max(0.0, 1.0, 1), "^c must be positive \\(or inf\\), got 0.0$"),
    ],
    ids=["p-nan-y", "p-inf-lam", "radius-nan-epsilon", "radius-inf-lam", "a-min-inf-lam",
         "a-max-inf-lam", "radius-subnormal-lam", "radius-inf-epsilon",
         "a-min-underflowing-lam-d", "bounds-overflowing-lam-d", "bounds-overflowing-int-lam-d",
         "a-max-inf-c-overflowing-lam-d",
         "a-max-subnormal-product", "a-min-overflowing-product", "chernoff-n-zero",
         "chernoff-p-one", "radius-n-one", "a-max-zero-c"],
)
def test_refuses_parameters_outside_the_laws_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("law", [lambda f: edge_distance(f, 10), series_classifier],
                         ids=["edge-distance", "series-classifier"])
def test_family_laws_refuse_an_object_that_is_not_a_family(law):
    with pytest.raises(TypeError, match="^unknown edge-distance family 'log'$"):
        law("log")


def test_h_function_values():
    assert h_function(1.0) == 0.0
    assert h_function(math.inf) == -1.0
    assert h_function(math.e) == pytest.approx(2 / math.e - 1, abs=1e-15)
    with pytest.raises(ValueError):
        h_function(0.0)
    with pytest.raises(ValueError):
        h_function(-2.0)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=300)
def test_h_is_negative_away_from_one(t):
    if t == 1.0:
        return
    assert h_function(t) < 0.0


def test_h_monotone_shape():
    ts = np.linspace(0.01, 0.999, 100)
    vals = [h_function(t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))  # increasing on (0, 1)
    ts = np.linspace(1.001, 50.0, 100)
    vals = [h_function(t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing on (1, inf)


def test_chernoff_point_values():
    assert chernoff_upper_tail(10, 0.1, 1.0) == 1.0  # k = n*p
    assert chernoff_lower_tail(20, 0.5, 10.0) == 1.0
    assert chernoff_upper_tail(10, 0.1, 2) == pytest.approx(0.25 * math.e, rel=1e-15)
    assert chernoff_lower_tail(20, 0.5, 5) == pytest.approx(32 * math.exp(-5), rel=1e-15)


def test_chernoff_dominates_exact_tails_spot():
    # frozen exact tails: P[Bin(10,.1) >= 2] and P[Bin(20,.5) <= 5]
    upper_exact = float(binomial_upper_tail_exact(10, 0.1, 2))
    assert upper_exact == pytest.approx(0.2639010709, abs=1e-9)
    assert upper_exact <= chernoff_upper_tail(10, 0.1, 2)
    lower_exact = float(binomial_lower_tail_exact(20, 0.5, 5))
    assert lower_exact == 21700 / 1048576  # dyadic, hence exact in floats
    assert lower_exact <= chernoff_lower_tail(20, 0.5, 5)


def test_chernoff_validity_range_flagged():
    with pytest.raises(ValueError):
        chernoff_upper_tail(10, 0.5, 4.0)  # k < n*p
    with pytest.raises(ValueError):
        chernoff_lower_tail(10, 0.5, 6.0)  # k > n*p
    with pytest.raises(ValueError):
        chernoff_lower_tail(10, 0.5, -1.0)
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match="upper-tail bound needs finite k"):
            chernoff_upper_tail(10, 0.5, k)


def test_chernoff_dominance_and_form_equivalence_grid():
    # n in 5..50, p in .05..
    # .5, every valid integer k; the H-form and the direct
    # form must agree to 1e-12 relative, and both must dominate exact tails
    for n in range(5, 51):
        for pi in range(1, 11):
            p = pi * 0.05
            np_ = n * p
            for k in range(0, n + 1):
                if k >= np_:
                    bound = chernoff_upper_tail(n, p, k)
                    alt = math.exp(np_ * h_function(np_ / k)) if k else 1.0
                    assert bound == pytest.approx(alt, rel=1e-12)
                    assert float(binomial_upper_tail_exact(n, p, k)) <= bound
                if k <= np_:
                    bound = chernoff_lower_tail(n, p, k)
                    alt = math.exp(np_ * h_function(np_ / k if k else math.inf))
                    assert bound == pytest.approx(alt, rel=1e-12)
                    assert float(binomial_lower_tail_exact(n, p, k)) <= bound


def test_root_equation_shape():
    assert _root_equation(1.0) == 0.0
    assert _root_equation(0.0) == 1.0
    grid = np.linspace(1e-6, 1.0, 200)
    vals = [_root_equation(a) for a in grid]
    assert all(x >= y for x, y in zip(vals, vals[1:]))  # decreasing on (0, 1]


def test_a_min_values():
    root = a_min(4.0, 1.0, 1)
    assert root > 0.0
    assert abs(_root_equation(root) - 0.25) <= 1e-12
    assert root == pytest.approx(0.3824035696, abs=1e-9)
    assert a_min(math.inf, 1.0, 1) == 1.0
    # no root exactly when lam^d * c <= 1
    assert a_min(1.0, 1.0, 1) == 0.0
    assert a_min(0.5, 1.0, 1) == 0.0
    assert a_min(0.25, 2.0, 1) == 0.0  # lam^d*c = 0.5
    assert a_min(1.0, 1.0, 3) == 0.0  # boundary lam^d*c = 1
    assert a_min(1.0000001, 1.0, 1) > 0.0
    assert a_min(0.5, 2.0, 2) > 0.0  # lam^d*c = 2


def test_a_max_values():
    assert a_max(1.0, 1.0, 1) == pytest.approx(math.e, abs=1e-9)
    assert a_max(math.inf, 1.0, 1) == 1.0
    taylor = 1.0 + math.sqrt(2e-6)
    assert abs(a_max(1e6, 1.0, 1) - taylor) < 1e-5
    assert a_max(4.0, 1.0, 1) == pytest.approx(1.7862731299, abs=1e-9)


def test_root_residuals_across_grid():
    for c in C_GRID:
        r = 1.0 / c
        root = a_min(c, 1.0, 1)
        assert root > 0.0
        assert abs(_root_equation(root) - r) <= 1e-12
        top = a_max(c, 1.0, 1)
        assert abs(_root_equation(top) - r) <= 1e-12


# The grid on which an absolute 1e-12 refused 316 of 3520 points: a converged
# root's residual grows like r * 2^-52 with r = 1/(lam^d c).
RESIDUAL_GRID = [
    (c, lam, d)
    for c in (1e-10, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 1e3, 1e6)
    for lam in (0.01, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    for d in range(1, 41)
]


def test_theory_bounds_accepts_every_valid_point_of_the_residual_grid():
    solved = 0
    for c, lam, d in RESIDUAL_GRID:
        try:
            tb = theory_bounds(c, lam, d)
        except ValueError:  # lam^d * c or its reciprocal is not finite and positive
            continue
        assert tb.a_min == a_min(c, lam, d)
        assert tb.a_max == a_max(c, lam, d)
        solved += 1
    assert solved == 3520


@pytest.mark.parametrize("solve", [
    lambda: a_max(4.0, 1.0, 1),
    lambda: a_max(1e-6, 1.0, 1),  # r = 1e6, where the tolerance is 1e-6
    lambda: a_min(4.0, 1.0, 1),  # r = 0.25 < 1: a root below 1, found by bisection
    lambda: theory_bounds(4.0, 0.5, 16),
], ids=["a-max", "a-max-large-r", "a-min", "bounds"])
def test_root_residual_check_refuses_a_root_off_by_1e_9(monkeypatch, solve):
    from exprgg import theory

    bisect = theory._bisect
    monkeypatch.setattr(theory, "_bisect", lambda *args, **kw: bisect(*args, **kw) * (1 + 1e-9))
    with pytest.raises(ArithmeticError, match="residual exceeds tolerance"):
        solve()


def test_root_monotonicity_in_c():
    mins = [a_min(c, 1.0, 1) for c in C_GRID]
    maxs = [a_max(c, 1.0, 1) for c in C_GRID]
    assert all(a <= b for a, b in zip(mins, mins[1:]))
    assert all(a >= b for a, b in zip(maxs, maxs[1:]))


def test_roots_depend_only_on_lam_d_times_c():
    assert a_min(4.0, 2.0, 2) == a_min(16.0, 1.0, 1)
    assert a_max(4.0, 2.0, 2) == a_max(16.0, 1.0, 1)


def test_theory_bounds_assembly():
    tb = theory_bounds(4.0, 1.0, 1)
    assert tb.lambda_pow_d == 1.0
    assert tb.min_liminf_bound == tb.a_min
    assert tb.max_limsup_bound == tb.a_max
    inf_tb = theory_bounds(math.inf, 1.0, 1)
    assert (
        inf_tb.min_liminf_bound
        == inf_tb.min_limsup_bound
        == inf_tb.max_liminf_bound
        == inf_tb.max_limsup_bound
        == 1.0
    )
    scaled = theory_bounds(1.0, 2.0, 2)
    assert scaled.lambda_pow_d == 4.0
    assert scaled.a_min == a_min(4.0, 1.0, 1)


def test_edge_distance_examples():
    fam = LogRegime(c=1.0, lam=1.0, d=1)
    assert edge_distance(fam, math.e) == pytest.approx(1 / math.e, abs=1e-15)
    for family in (
        LogRegime(c=2.0, lam=1.0, d=2),
        PowerFamily(alpha=1.5, beta=1.0, lam=1.0, d=2),
    ):
        doubled = type(family)(**{**family.__dict__, "lam": 2.0})
        y1 = edge_distance(family, 50)
        y2 = edge_distance(doubled, 50)
        if isinstance(family, LogRegime):
            assert y2 == pytest.approx(y1 / 2, rel=1e-15)
        else:
            assert y2 == y1  # power families do not depend on lam
    with pytest.raises(ValueError):
        edge_distance(fam, 1)


def test_log_regime_identity_exact():
    fam = LogRegime(c=2.5, lam=1.0, d=1)
    for n in (10, 10**3, 10**6):
        y = edge_distance(fam, n)
        assert n * y / math.log(n) == pytest.approx(2.5, rel=1e-13)


def test_containment_radius_values():
    assert containment_radius(math.e**2, 1.0, 2, 0.0) == pytest.approx(2.0, abs=1e-15)
    # the union bound n * d * e^(-lam R) = d * n^-eps fixes R independent of d
    assert containment_radius(10**4, 1.5, 1, 0.5) == containment_radius(10**4, 1.5, 3, 0.5)
    base = containment_radius(10**4, 1.0, 2, 0.0)
    assert containment_radius(10**4, 1.0, 2, 0.5) == pytest.approx(1.5 * base, rel=1e-15)
    with pytest.raises(ValueError):
        containment_radius(10, 1.0, 2, -0.1)


def test_series_classifier():
    assert series_classifier(PowerFamily(alpha=1.0, beta=3.0, lam=1.0, d=1)) == "converges"
    assert series_classifier(PowerFamily(alpha=1.0, beta=2.0, lam=1.0, d=1)) == "diverges"
    assert series_classifier(PowerFamily(alpha=1.0, beta=2.1, lam=1.0, d=1)) == "converges"
    for c in (0.1, 1.0, 100.0):
        assert series_classifier(LogRegime(c=c, lam=1.0, d=2)) == "diverges"
