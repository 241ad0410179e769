"""Curves under iteration: pushforward orbits, preperiodic points on a
curve, and the assembled Manin-Mumford style report.

Run:  python3 demos/curve_preperiodicity.py
"""

from regdyn import (PlaneCurve, curve_preperiodicity, dmm_report,
                    find_preperiodic_points, make_regular_map,
                    points_at_infinity, pushforward)


def main():
    f = make_regular_map("z^2", "w^2")

    # Pushforward = Zariski closure of the image, via resultant elimination.
    print("-- pushforward orbits --")
    for eq in ("w - z", "w - z^2", "w - z - 1"):
        C = PlaneCurve(eq)
        orbit = [C]
        for _ in range(3):
            orbit.append(pushforward(f, orbit[-1]))
        degs = " -> ".join(str(c.degree) for c in orbit)
        print(f"{{{eq}}}: degrees {degs}")
        st = curve_preperiodicity(f, C, max_iters=4)
        print(f"   status: {st.kind}")

    # Where does a curve meet the line at infinity?
    print("\n-- points at infinity --")
    for eq in ("w - z", "w - z^2", "z - 1"):
        pts = ", ".join(f"{p.projective()} (mult {p.multiplicity})"
                        for p in points_at_infinity(PlaneCurve(eq)))
        print(f"{{{eq}}}: {pts}")

    # Preperiodic points on the diagonal: the rational ones and the
    # roots-of-unity pairs, all with exact orbit witnesses.
    print("\n-- preperiodic points on {w - z} --")
    pts = find_preperiodic_points(f, PlaneCurve("w - z"), height_bound=2,
                                  max_order=12)
    print(f"found {len(pts)} preperiodic points (orders up to 12); sample:")
    for p in pts[:6]:
        print(f"   ({', '.join(map(str, p.point))})  preperiod {p.verdict.preperiod}, "
              f"period {p.verdict.period}")

    # The full report: orbit verdicts for the points at infinity, their
    # multiplier classifications, and the consistency of the periods.
    print("\n-- reports --")
    for eq in ("w - z", "w - z - 1"):
        rep = dmm_report(f, PlaneCurve(eq), max_iters=4, height_bound=2,
                         max_order=8)
        print(f"{{{eq}}}: hypothesis={rep.hypothesis_witnessed} "
              f"conclusion={rep.conclusion_witnessed} "
              f"consistency={rep.consistency}")
        for note in rep.notes:
            print(f"   note: {note}")


if __name__ == "__main__":
    main()
