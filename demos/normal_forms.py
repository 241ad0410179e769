"""Local dynamics at a fixed point at infinity: localization, the
super-stable manifold series, saddle/parabolic normal forms, and the
parabolic graph transform.

Run:  python3 demos/normal_forms.py
"""

from regdyn import (AlgebraicNumber, LocalGerm, SectorMap, TruncSeries2,
                    VerticalGraphSample, graph_pullback, localize_at_infinity,
                    make_regular_map, parabolic_normal_form, rescaling_check,
                    saddle_normal_form, super_stable_series)


def main():
    # Localize the squaring map at its fixed point [1:1] on the line at
    # infinity.  Coordinates: x along the invariant fiber direction, y
    # transverse (y = 0 is the line at infinity).
    f = make_regular_map("z^2", "w^2")
    germ = localize_at_infinity(f, (AlgebraicNumber.from_rational(1), 1), N=12)
    print("germ at [1:1]:")
    print("  first  =", germ.first)
    print("  second =", germ.second)

    # The super-stable manifold is the unique invariant graph x = phi(y);
    # on it the map is conjugate to y -> y^d.
    n = 16
    X = TruncSeries2.variable(0, n)
    Y = TruncSeries2.variable(1, n)
    g = LocalGerm(X * 2 + Y ** 2, Y ** 2, 2)
    phi = super_stable_series(g)
    print("\nsuper-stable graph of (2x + y^2, y^2):")
    print("  phi =", phi)

    # Saddle case: expanding multiplier.  The normal form straightens both
    # separatrices; every conjugacy step is verified exactly.
    n = 12
    X = TruncSeries2.variable(0, n)
    Y = TruncSeries2.variable(1, n)
    saddle = LocalGerm(X * 2 * (Y + 1), Y ** 2 * (X + 1), 2)
    res = saddle_normal_form(saddle)
    assert res.verify()
    print("\nsaddle normal form of (2x(1+y), y^2(1+x)):")
    print("  first  =", res.germ.first)
    print("  steps  =", len(res.conjugacies))

    # The rescaled iterates f^n(x/lambda^n, y) converge to (x, 0):
    for m in (5, 10, 20):
        dev = rescaling_check(res.germ, m, 0.05)
        print(f"  rescaling deviation at n = {m:2d}: {dev:.3e}")

    # Parabolic case: multiplier 1.  After normalization the sector map
    # z ~ 1/(k x^k) advances by about 1 per step, and pulling back a
    # vertical graph contracts it toward the super-stable manifold.
    n = 16
    X = TruncSeries2.variable(0, n)
    Y = TruncSeries2.variable(1, n)
    par = LocalGerm(X + X ** 2, Y ** 2 * (X + 1), 2)
    k, res = parabolic_normal_form(par)
    assert res.verify()
    print(f"\nparabolic normal form of (x + x^2, y^2(1+x)): k = {k}")
    sector = SectorMap.from_parabolic(res.germ, k, r=0.005)
    cur = VerticalGraphSample.constant(complex(2 * sector.R, 0.0), rho=0.001)
    print("  graph transform (base advance / slope bound per step):")
    for step in range(1, 6):
        nxt = graph_pullback(sector, cur)
        print(f"   step {step}: advance {nxt.base.real - cur.base.real:.4f}"
              f"  slope <= {nxt.sigma:.2e}")
        cur = nxt


if __name__ == "__main__":
    main()
