"""Canonical heights and local Green functions, narrated on small maps.

Run:  python3 demos/canonical_heights.py
"""

from fractions import Fraction as F

from regdyn import (GreenContext, Place, canonical_height, green_value,
                    is_preperiodic, make_regular_map)


def main():
    f = make_regular_map("z^2", "w^2")
    print(f"map: (z^2, w^2), degree {f.d}")

    # Local Green values: the escape rate of the orbit, place by place.
    print("\n-- local Green values --")
    for pt in [(F(2), F(3)), (F(1, 2), F(1)), (F(1), F(1))]:
        for v in [Place.archimedean(), Place.finite(2), Place.finite(3)]:
            g = green_value(GreenContext(f, v), pt, F(1, 10**9))
            print(f"g_{v}({pt[0]},{pt[1]}) in [{float(g.lower):.9f}, "
                  f"{float(g.upper):.9f}]")

    # The canonical height is the sum of the local Green values of the
    # point's primitive integer triple over infinity and the bad places:
    # at every other prime they are 0, so (1/2, 1/3), whose triple is
    # (6, 3, 2), gets all of log 6 at infinity.
    print("\n-- canonical heights --")
    for pt in [(F(2), F(3)), (F(1, 2), F(1, 3)), (F(-1), F(1))]:
        h = canonical_height(f, pt, F(1, 10**9))
        places = ", ".join(str(v) for v in h.support) or "none"
        print(f"h({pt[0]},{pt[1]}) ~ {float(h.value.lower):.9f}"
              f"   support: {places}")

    # Height zero is equivalent to preperiodicity; the verdict is exact in
    # both directions (a finite orbit, or a certified positive lower bound).
    print("\n-- preperiodicity certificates --")
    for pt in [(F(1), F(1)), (F(-1), F(0)), (F(2), F(3))]:
        v = is_preperiodic(f, pt)
        if v.kind == "Preperiodic":
            print(f"({pt[0]},{pt[1]}): preperiod {v.preperiod}, "
                  f"period {v.period}")
        else:
            print(f"({pt[0]},{pt[1]}): {v.kind}, "
                  f"height >= {float(v.height_lower):.6f}")

    # A map with bad reduction at 3: the 3-adic Green function needs the
    # capped-precision p-adic iteration rather than the closed form.
    print("\n-- bad reduction at p = 3 --")
    g3 = make_regular_map("z^2", "1/3*w^2")
    val = green_value(GreenContext(g3, Place.finite(3)), (F(1), F(1)),
                      F(1, 10**9))
    print(f"g_3(1,1) for (z^2, w^2/3) ~ {float(val.lower):.9f} "
          f"(= log 3: escape driven by the denominator)")


if __name__ == "__main__":
    main()
