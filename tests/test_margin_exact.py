"""The perceptron's best margin is the exact optimum, correctly rounded.

``trainer.best_margin`` maximizes the concave piecewise-linear margin
F(w1) = (min over positive points of x2 + w1*x1, minus the max over
negative points of the same) / 2.  The oracle here evaluates F with
``fractions.Fraction`` at every crossing of two lines of one class and
takes the largest value; the margin must be that value rounded to the
nearest float.  scipy's ``linprog`` (HiGHS) on the original linear
program is a second, inexact oracle: on 602 bounded datasets
(``make_separable_dataset`` seeds 0-199 and 2104 at 20, 50 and 80
points) it was 0-114 ulps (at most 6.4e-15) off the exact optimum, so
it is held to 1e-12.
"""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from fndam.errors import ArgumentError
from fndam.trainer import LabeledPoint, best_margin, make_separable_dataset


def exact_margin(dataset):
    """max of F over w1 = 0 and every same-class crossing, in Fractions."""
    lines = {y: [(Fraction(p.x[0]), Fraction(p.x[1])) for p in dataset if p.y == y]
             for y in (1, -1)}
    crossings = {Fraction(0)}
    for points in lines.values():
        for (a1, a2), (b1, b2) in combinations(points, 2):
            if a1 != b1:
                crossings.add((b2 - a2) / (a1 - b1))
    return max((min(x2 + w * x1 for x1, x2 in lines[1])
                - max(x2 + w * x1 for x1, x2 in lines[-1])) / 2 for w in crossings)


def linprog_margin(dataset):
    """The margin LP: maximize m s.t. y*(x2 + w1*x1 + w0) >= m; None if unbounded."""
    res = optimize.linprog(c=[0.0, 0.0, -1.0],
                           A_ub=[[-p.y, -p.y * p.x[0], 1.0] for p in dataset],
                           b_ub=[p.y * p.x[1] for p in dataset],
                           bounds=[(None, None)] * 3, method="highs")
    if res.status == 3:
        return None
    assert res.success, res.message
    return float(res.x[2])


def unbounded(dataset):
    """A vertical line separates the classes, so the margin grows without bound."""
    pos = [p.x[0] for p in dataset if p.y == 1]
    neg = [p.x[0] for p in dataset if p.y == -1]
    return min(pos) > max(neg) or max(pos) < min(neg)


def check(dataset, against_linprog=True):
    """best_margin is the exact maximum, rounded; or it is unbounded and raises."""
    lp = linprog_margin(dataset) if against_linprog else None
    if unbounded(dataset):
        with pytest.raises(ArgumentError, match="unbounded"):
            best_margin(dataset)
        assert lp is None
        return
    value = best_margin(dataset)
    assert value == float(exact_margin(dataset))
    if against_linprog:
        assert math.isclose(value, lp, rel_tol=0.0, abs_tol=1e-12)


@given(n=st.sampled_from([20, 50, 80]), seed=st.integers(0, 2**32 - 1),
       margin=st.floats(0.01, 0.5))
@example(n=80, seed=107, margin=0.25)  # HiGHS 114 ulps below the optimum
@settings(max_examples=6, deadline=None)
def test_separable_datasets(n, seed, margin):
    check(make_separable_dataset(n, margin, seed))


# coordinates on a coarse grid make ties, parallel lines and three lines
# through one point common; labels are random, so margins may be negative
grid = st.integers(-4, 4).map(lambda k: k / 4)
points = st.builds(LabeledPoint, st.tuples(grid, grid), st.sampled_from([-1, 1]))


@given(st.lists(points, min_size=2, max_size=20))
@example([LabeledPoint((1, 1), 1), LabeledPoint((-1, 1), 1), LabeledPoint((0, -1), -1)])  # ints
@settings(max_examples=200, deadline=None)
def test_degenerate_datasets(dataset):
    if {p.y for p in dataset} != {-1, 1}:
        with pytest.raises(ArgumentError, match="both classes"):
            best_margin(dataset)
        return
    check(dataset)


# one coordinate a few ulps either side of a common value: float
# arithmetic often misorders the crossings there, and only the exact
# slope test finds the maximizer
@st.composite
def clustered(draw):
    axis, base, n = draw(st.integers(0, 1)), draw(st.floats(-1.0, 1.0)), draw(st.integers(2, 10))
    dataset = []
    for _ in range(n):
        near = base + draw(st.integers(-4, 4)) * math.ulp(base)
        other = draw(st.floats(-1.0, 1.0))
        x = (near, other) if axis == 0 else (other, near)
        dataset.append(LabeledPoint(x, draw(st.sampled_from([-1, 1]))))
    return dataset


# ranked by F in floats, the first crossing is not the maximizer
MISRANKED = [LabeledPoint(x, y) for x, y in [
    ((0.24042690403075562, -0.14954275030184863), 1),
    ((0.9901930104706482, -0.14954275030184913), 1),
    ((0.8978873498755306, -0.14954275030184874), 1),
    ((-0.07990972138180785, -0.14954275030184924), 1),
    ((0.5154576906165829, -0.14954275030184905), -1),
    ((-0.005154609024762058, -0.14954275030184913), -1),
    ((0.05862432039354082, -0.14954275030184874), -1),
]]


@given(clustered())
@example(MISRANKED)
@settings(max_examples=300, deadline=None)
def test_near_degenerate_datasets(dataset):
    if {p.y for p in dataset} == {-1, 1}:
        # HiGHS's 1e-7 tolerances do not resolve coordinates ulps apart
        check(dataset, against_linprog=False)


def test_shipped_dataset_margin_is_highs_float():
    dataset = make_separable_dataset()
    assert best_margin(dataset) == linprog_margin(dataset) == 0.2759624767974136


def parabola(n):
    """n points on two parabolas: every line is on its class's envelope."""
    ts = [k / (n // 2 - 1) * 2 - 1 for k in range(n // 2)]
    return ([LabeledPoint((t, t * t + 0.5), 1) for t in ts]
            + [LabeledPoint((t, -t * t - 0.5), -1) for t in ts])


@pytest.mark.parametrize("dataset", [make_separable_dataset(400, 0.1, 3), parabola(400)],
                         ids=["separable", "parabola"])
def test_memory_grows_linearly(dataset):
    # 400 points have 39 800 same-class crossings; a table of F at every
    # crossing, one column per point, takes 125 MiB at its peak
    tracemalloc.start()
    try:
        value = best_margin(dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert math.isclose(value, linprog_margin(dataset), rel_tol=0.0, abs_tol=1e-12)
