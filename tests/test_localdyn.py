import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from regdyn import localdyn, series
from regdyn.exactnum import AlgebraicNumber
from regdyn.localdyn import (Conjugacy, ContractionError, GermShapeError, HigherScale,
                             LocalGerm, ResonanceError, SectorMap, Shear,
                             VerticalGraphSample, XCoord, YCoord, _nth_root_fraction,
                             bottcher_series, graph_pullback, koenigs_series,
                             localize_at_infinity, parabolic_normal_form,
                             rescaling_check, saddle_normal_form,
                             super_stable_series)
from regdyn.maps import make_regular_map
from regdyn.series import TruncSeries, TruncSeries2, exp_series, log_unit


def X(n):
    return TruncSeries2.variable(0, n)


def Y(n):
    return TruncSeries2.variable(1, n)


def _germ(first, second, d):
    return LocalGerm(first, second, d)


def test_germ_shape_validation():
    n = 8
    with pytest.raises(GermShapeError):
        # second coordinate must be y^d * unit
        LocalGerm(X(n) * 2, Y(n), 2)
    with pytest.raises(GermShapeError):
        # lambda = 0 not allowed
        LocalGerm(X(n) * X(n), Y(n) ** 2, 2)
    g = LocalGerm(X(n) * 2 + Y(n) * 3, Y(n) ** 2 * (X(n) + 1), 2)
    assert g.lam == 2 and g.mu == 3


def test_localize_squaring_at_diagonal():
    # [1:1] is fixed at infinity for (z^2, w^2); local form (2x + x^2, y^2)
    f = make_regular_map("z^2", "w^2")
    g = localize_at_infinity(f, (AlgebraicNumber.from_rational(1), 1), N=10)
    assert g.first == X(10) * 2 + X(10) ** 2
    assert g.second == Y(10) ** 2


def test_localize_fixed_point_required():
    f = make_regular_map("z^2", "w^2")
    with pytest.raises(ValueError):
        localize_at_infinity(f, (AlgebraicNumber.from_rational(2), 1))


def test_super_stable_closed_form():
    # for (2x + y^2, y^2) the invariant graph solves 2phi + y^2 = phi(y^2)
    n = 16
    g = LocalGerm(X(n) * 2 + Y(n) ** 2, Y(n) ** 2, 2)
    phi = super_stable_series(g)
    # phi = -sum_k y^{2^k} / 2^k  truncated (derived by direct recursion)
    expect = TruncSeries.zero(n)
    for k in range(1, 5):
        if 2 ** k <= n:
            expect = expect + TruncSeries.monomial(F(-1, 2 ** k), 2 ** k, n)
    assert phi == expect


def test_bottcher_definitional():
    # u(y) = y^2 (1 + y): beta satisfies beta(u(y)) = beta(y)^2
    n = 14
    u = TruncSeries.monomial(1, 2, n) * (TruncSeries.one(n) + TruncSeries.monomial(1, 1, n))
    beta = bottcher_series(u)
    assert beta.compose(u.truncate(n)) == beta * beta
    assert beta.coeffs[1] == 1 and beta.coeffs[2] == F(1, 2)


def test_koenigs_definitional_and_resonance():
    n = 12
    s = TruncSeries([0, 2, 1], n)
    psi = koenigs_series(s)
    assert psi.compose(s) == psi * 2
    with pytest.raises(ResonanceError):
        koenigs_series(TruncSeries([0, 1, 1], n))


def _koenigs_by_composition(s):
    """koenigs_series as it was: psi o s composed once per coefficient."""
    N, lam = s.order, s[1]
    psi = TruncSeries.identity(N)
    for j in range(2, N + 1):
        c = (psi.compose(s) - psi * lam)[j]
        if c == 0:
            continue
        if lam**j == lam:
            raise ResonanceError(f"resonance lam^{j} = lam")
        psi = psi - TruncSeries.monomial(c / (lam**j - lam), j, N)
    return psi


def _bottcher_by_fixed_point(u):
    """bottcher_series as it was: L = (H + L(u))/d by fixed-point passes."""
    d = u.valuation()
    H = log_unit(u.shift(-d))
    L = series._fixed_point(lambda L: (H + L.compose(u)) * F(1, d),
                            TruncSeries.zero(u.order), u.order)
    return exp_series(L).shift(1)


def _outcome(solve, s):
    try:
        return solve(s)
    except ResonanceError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F(2), F(-2), F(1, 2), F(-3, 2), F(-1), F(1)]), st.integers(1, 14),
       st.data())
def test_the_koenigs_recurrence_matches_composition_per_coefficient(lam, n, data):
    # lam = -1 and lam = 1 are resonant: both raise at the same j, or both
    # pass when the resonant coefficients vanish
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    s = TruncSeries([0, lam] + data.draw(st.lists(small, max_size=n - 1)), n)
    assert _outcome(koenigs_series, s) == _outcome(_koenigs_by_composition, s)


def test_a_resonant_koenigs_series_names_the_first_resonant_coefficient():
    s = TruncSeries([0, -1, 1], 8)  # lam = -1: lam^3 = lam
    assert _outcome(koenigs_series, s) == _outcome(_koenigs_by_composition, s) \
        == "resonance lam^3 = lam"


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.data())
def test_the_bottcher_recurrence_matches_the_fixed_point(d, data):
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    n = data.draw(st.integers(d, 14))
    u = TruncSeries([0] * d + [1] + data.draw(st.lists(small, max_size=n - d)), n)
    assert bottcher_series(u) == _bottcher_by_fixed_point(u)


@pytest.mark.parametrize("kind", ["YCoord", "XCoord", "HigherScale"])
def test_a_push_reads_both_components_off_one_power_table(monkeypatch, kind):
    # (x, beta^-1(y)), (psi^-1(x), y) and (x*(1 + phi(y)), y)
    n = 10
    g = LocalGerm(X(n) * 2 * (Y(n) + 1) + X(n) ** 2, Y(n) ** 2 * (X(n) + Y(n) + 1), 2)
    t = TruncSeries([0, 1, F(1, 2), 3], n)
    step = {"YCoord": lambda: YCoord(t), "XCoord": lambda: XCoord(t),
            "HigherScale": lambda: HigherScale(t, 0)}[kind]()
    reads = []
    powers = TruncSeries._powers
    monkeypatch.setattr(TruncSeries, "_powers", lambda self, k: reads.append(
        (self, self._pw is None)) or powers(self, k))
    step._push(g)
    assert len(reads) == 2 and reads[0][0] is reads[1][0]
    assert [fresh for _, fresh in reads] == [True, False]


def test_saddle_normal_form():
    # the running saddle example: (2x(1+y), y^2(1+x))
    n = 12
    g = LocalGerm(X(n) * 2 * (Y(n) + 1), Y(n) ** 2 * (X(n) + 1), 2)
    res = saddle_normal_form(g)
    assert res.verify()
    out = res.germ
    # both separatrices straightened: first = 2x exactly on y = 0 and the
    # correction is divisible by x^2 y; second = y^2 exactly on x = 0 with
    # correction divisible by x y^2
    resid1 = out.first - X(n) * 2
    assert all(i >= 2 and j >= 1 for (i, j), c in resid1.coeffs.items() if c)
    resid2 = out.second - Y(n) ** 2
    assert all(i >= 1 and j >= 2 for (i, j), c in resid2.coeffs.items() if c)
    assert len(res.conjugacies) >= 3


def test_parabolic_normal_form():
    # (x(1+y) + x^2, y^2(1+x)): tangent-to-identity along the graph
    n = 12
    g = LocalGerm(X(n) * (Y(n) + 1) + X(n) ** 2, Y(n) ** 2 * (X(n) + 1), 2)
    k, res = parabolic_normal_form(g)
    assert res.verify()
    assert k == 1
    out = res.germ
    first = out.first
    # normalized: x + x^{k+1} + c x^{2k+1} + O(x^{2k+2}) with no y mixed in
    # below order 2k + 2, and no intermediate pure-x terms
    assert first.coeffs.get((1, 0)) == 1
    assert first.coeffs.get((2, 0)) == 1
    for j in range(2, 2 * k + 1):
        if j != k + 1:
            assert first.coeffs.get((j, 0), F(0)) == 0


def test_parabolic_scale_needs_rational_root():
    # c_k = 3 with k = 2 requires alpha with alpha^2 = 1/3: no rational root
    n = 12
    g = LocalGerm(X(n) + X(n) ** 3 * 3, Y(n) ** 2, 2)
    with pytest.raises(ValueError):
        parabolic_normal_form(g)


def test_nth_root_fraction_exact_for_large_powers():
    # float roots miss the square root of 3^80 and overflow on 7^800
    assert _nth_root_fraction(F(3 ** 80), 2) == 3 ** 40
    assert _nth_root_fraction(F(7 ** 800), 2) == 7 ** 400
    assert _nth_root_fraction(F(-8, 3 ** 120), 3) == F(-2, 3 ** 40)
    for c, n in ((F(3 ** 81), 2), (F(2, 7 ** 800), 2), (F(-4), 2)):
        with pytest.raises(ValueError):
            _nth_root_fraction(c, n)


def _count_conjugations(monkeypatch) -> list:
    calls = []
    for cls in Conjugacy.__subclasses__():
        def counted(self, germ, _conjugate=cls.conjugate):
            calls.append(type(self).__name__)
            return _conjugate(self, germ)
        monkeypatch.setattr(cls, "conjugate", counted)
    return calls


def test_saddle_chain_conjugates_each_step_once(monkeypatch):
    n = 12
    g = LocalGerm(X(n) * 2 * (Y(n) + 1), Y(n) ** 2 * (X(n) + 1), 2)
    calls = _count_conjugations(monkeypatch)
    res = saddle_normal_form(g)
    assert len(calls) == len(res.conjugacies) == 3
    assert len(res.intermediates) == len(res.conjugacies) + 1
    assert res.intermediates[0] is g and res.intermediates[-1] is res.germ


PARABOLIC_GERMS = {
    "k=1": lambda n: LocalGerm(X(n) * (Y(n) + 1) + X(n) ** 2, Y(n) ** 2 * (X(n) + 1), 2),
    # k = 2 with an x^4 term: one axis-normalisation step
    "k=2": lambda n: LocalGerm(X(n) + X(n) ** 3 + X(n) ** 4 * 2 + X(n) * Y(n),
                               Y(n) ** 2 * (X(n) + 1), 2),
    # mu != 0: the shear to the super-stable graph has a linear term
    "mu": lambda n: LocalGerm(X(n) + Y(n) * 3 + X(n) ** 2 + X(n) * Y(n),
                              Y(n) ** 2 * (X(n) * 2 + 1), 2),
}


@pytest.mark.parametrize("name", sorted(PARABOLIC_GERMS))
def test_parabolic_chain_conjugates_each_step_once(monkeypatch, name):
    g = PARABOLIC_GERMS[name](10)
    calls = _count_conjugations(monkeypatch)
    k, res = parabolic_normal_form(g)
    # one conjugation per step: the axis steps take e in closed form
    assert len(calls) == len(res.conjugacies)
    assert len(res.intermediates) == len(res.conjugacies) + 1
    assert res.verify()


@pytest.mark.parametrize("name", sorted(PARABOLIC_GERMS) + ["saddle"])
def test_verify_reuses_the_composition_of_each_step(monkeypatch, name):
    # f o Phi is computed once per step, by conjugate, and verify checks
    # Phi o G against the one kept
    calls = []
    original = Conjugacy._push
    monkeypatch.setattr(Conjugacy, "_push",
                        lambda self, germ: calls.append(self) or original(self, germ))
    if name == "saddle":
        n = 12
        res = saddle_normal_form(LocalGerm(X(n) * 2 * (Y(n) + 1), Y(n) ** 2 * (X(n) + 1), 2))
    else:
        _k, res = parabolic_normal_form(PARABOLIC_GERMS[name](10))
    assert res.verify()
    assert len(calls) == len(res.conjugacies)
    assert len(res.pushes) == len(res.conjugacies)


def test_verify_rejects_a_wrong_step():
    n = 12
    res = saddle_normal_form(LocalGerm(X(n) * 2 * (Y(n) + 1), Y(n) ** 2 * (X(n) + 1), 2))
    f1, f2 = res.pushes[-1]
    res.pushes[-1] = (f1 + X(n) ** 3, f2)
    assert not res.verify()


def test_verify_covers_the_saddle_shear():
    # an unreduced saddle germ: the chain starts with the shear to the graph
    n = 10
    g = LocalGerm(X(n) * 2 + Y(n) * 3 + X(n) ** 2 + Y(n) ** 2, Y(n) ** 2 * (X(n) + 1), 2)
    phi = super_stable_series(g)
    res = saddle_normal_form(g, phi)
    assert isinstance(res.conjugacies[0], Shear) and res.conjugacies[0].phi == phi
    assert res.intermediates[0] is g
    assert res.verify()
    f1, f2 = res.pushes[0]
    res.pushes[0] = (f1 + X(n) * Y(n) ** 2, f2)
    assert not res.verify()


@st.composite
def _random_germs(draw, n=8):
    """f = (lam x + mu y + g, y^2 (1 + h)), g of order >= 2 and h(0, 0) = 0,
    with small random coefficients."""
    lam = draw(st.sampled_from([F(1), F(2), F(-2), F(1, 2), F(3)]))
    mu = draw(st.sampled_from([F(-3), F(-1), F(1, 2), F(1), F(2)]))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    g = {(i, j): draw(small) for i in range(n + 1) for j in range(n + 1 - i)
         if 2 <= i + j <= 3 and draw(st.booleans())}
    h = {(i, j): draw(small) for i in range(n + 1) for j in range(n + 1 - i)
         if 1 <= i + j <= 2 and draw(st.booleans())}
    first = X(n) * lam + Y(n) * mu + TruncSeries2(g, n)
    return LocalGerm(first, Y(n) ** 2 * (TruncSeries2(h, n) + 1), 2)


@settings(max_examples=25, deadline=None)
@given(_random_germs())
def test_one_shear_to_the_graph_is_the_two_shears_it_replaces(g):
    # Shear(phi) gives the germ Shear(c*y) then Shear(phi - c*y) gave,
    # with c = -mu/lam, the linear coefficient of phi
    phi = super_stable_series(g)
    lin = TruncSeries([0, -g.mu / g.lam], g.N)
    assert phi[1] == lin[1]
    one, _ = Shear(phi).conjugate(g)
    first, _ = Shear(lin).conjugate(g)
    two, _ = Shear(phi - lin).conjugate(first)
    assert (one.first, one.second) == (two.first, two.second)
    assert one.first.divisible_by(1, 0)


def _plain_fixed_point(step, start, N):
    """Every pass at order N, from start: the solver before the order ladder."""
    x = start
    for _ in range(N + 2):
        nxt = step(x)
        if nxt == x:
            return x
        x = nxt
    raise ArithmeticError("fixed-point iteration did not settle")


@settings(max_examples=15, deadline=None)
@given(_random_germs(), st.integers(1, 2), st.data())
def test_the_order_ladder_finds_the_fixed_point_of_plain_iteration(g, n, data):
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    N = g.N
    s = TruncSeries([0, data.draw(small.filter(bool))] + data.draw(st.lists(small, max_size=N)), N)
    u = TruncSeries([0, 0, 1] + data.draw(st.lists(small, max_size=N - 2)), N)
    phi = TruncSeries(data.draw(st.lists(small, min_size=1, max_size=N + 1)), N)

    def solve():
        return (s.reversion(), bottcher_series(u), super_stable_series(g),
                HigherScale(phi, n).conjugate(g)[0].first)
    laddered = solve()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_fixed_point", _plain_fixed_point)
        mp.setattr(localdyn, "_fixed_point", _plain_fixed_point)
        assert solve() == laddered


@st.composite
def _parabolic_germs(draw, n=10):
    """(k, f) with f = (x + c x^{k+1} + higher powers of x + terms with y,
    y^2 (1 + h)), k in 2..4, c != 0, small random coefficients."""
    k = draw(st.integers(2, 4))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    c = draw(small.filter(bool))
    g = {(i, 0): draw(small) for i in range(k + 2, n + 1)}
    g.update({(i, j): draw(small) for i in range(n) for j in range(1, 3)
              if i + j <= n and draw(st.booleans())})
    h = {(1, 0): draw(small), (0, 1): draw(small)}
    first = X(n) + X(n) ** (k + 1) * c + TruncSeries2(g, n)
    return k, LocalGerm(first, Y(n) ** 2 * (TruncSeries2(h, n) + 1), 2)


@settings(max_examples=25, deadline=None)
@given(_parabolic_germs())
def test_axis_step_changes_one_coefficient_by_the_closed_form(kg):
    # an exact conjugation is the oracle: x_new = x + x^m, m = j - k + 1,
    # adds c_{k+1}*(j - 2k) to the x^{j+1} coefficient and leaves every lower one
    k, g = kg
    ck = g.first[(k + 1, 0)]
    for j in range(k + 1, 2 * k):
        step = XCoord(TruncSeries.identity(g.N) + TruncSeries.monomial(1, j - k + 1, g.N))
        trial, _pushed = step.conjugate(g)
        assert trial.first[(j + 1, 0)] - g.first[(j + 1, 0)] == ck * (j - 2 * k)
        assert all(trial.first[(i, 0)] == g.first[(i, 0)] for i in range(j + 1))


def test_rescaling_deviation_decays():
    n = 12
    g = LocalGerm(X(n) * 2 * (Y(n) + 1), Y(n) ** 2 * (X(n) + 1), 2)
    res = saddle_normal_form(g)
    devs = [rescaling_check(res.germ, m, 0.05) for m in (2, 6, 12)]
    assert devs[-1] < 1e-8
    assert devs[0] >= devs[1] >= devs[2]


def test_sector_pullback_contracts():
    n = 16
    g = LocalGerm(X(n) + X(n) ** 2, Y(n) ** 2 * (X(n) + 1), 2)
    k, res = parabolic_normal_form(g)
    sector = SectorMap.from_parabolic(res.germ, k, r=0.005)
    base = complex(2.0 * sector.R, 0.0)
    cur = VerticalGraphSample.constant(base, rho=0.001)
    total = 0.0
    for _ in range(5):
        cur = graph_pullback(sector, cur)
        total += cur.base.real - base.real
        base = cur.base
        assert cur.sigma <= 0.1 + 1e-9
    assert total >= 5 * 0.9 - 1e-6


def test_sector_pullback_rejects_wild_graph():
    n = 16
    g = LocalGerm(X(n) + X(n) ** 2, Y(n) ** 2 * (X(n) + 1), 2)
    k, res = parabolic_normal_form(g)
    sector = SectorMap.from_parabolic(res.germ, k, r=0.005)
    z0 = complex(2.0 * sector.R, 0.0)
    bad = VerticalGraphSample(ys=[0j], zs=[z0], rho=0.001, sigma=10.0,
                              base=z0, psi=lambda y: z0)
    with pytest.raises((ContractionError, ValueError)):
        graph_pullback(sector, bad)
