"""How saturation detects sections supported at the origin.

The module H0 = (I : m^infinity)/I measures the part of R/I concentrated
at the irrelevant maximal ideal m = (x,y,z).  Its graded support drives
every root formula in this package.  Three tiny ideals show the range of
behavior: Artinian (everything is torsion), an embedded point (one extra
section), and a saturated ideal (nothing at all).

For each ideal it prints in(I^sat), the grevlex leading monomials of the
saturation as saturated_leading_monomials(I, (1, 1, 1)) returns them, in
the ideal's own coordinates, next to the dimensions of H0 that their
Hilbert function gives.
"""

from bs3 import (Ideal, Polynomial, WeightSystem, h0_degree_data,
                 jacobian_ideal, parse_polynomial, saturated_leading_monomials)

W1 = WeightSystem((1, 1, 1))


def ideal(*texts):
    return Ideal(tuple(parse_polynomial(t) for t in texts))


def show(label, I):
    _, in_sat = saturated_leading_monomials(I, (1, 1, 1))
    data = h0_degree_data(I, W1)
    print("== %s" % label)
    print("   I   = (%s)" % ", ".join(str(g) for g in I.generators))
    print("   in(I^sat) = (%s)" % ", ".join(str(Polynomial({m: 1}, 3))
                                          for m in in_sat))
    if data.is_empty():
        print("   H0 vanishes: I is saturated")
    else:
        print("   H0 dimensions by degree: %s"
              % {int(q): n for q, n in sorted(data.entries.items())})
    print()


def main():
    # everything is killed by a power of m: H0 is the whole quotient
    show("Artinian quotient", ideal("x^2", "y^2", "z^2"))

    # x*(x,y,z): the line x=0 plus an embedded point at the origin;
    # saturation strips the embedded component and H0 records it
    show("embedded point on a line", ideal("x^2", "x*y", "x*z"))

    # a plane: nothing is supported at the origin only
    show("saturated ideal", ideal("x"))

    # Jacobian ideal of four generic lines: the six nodes survive
    # saturation while one section in degree 3 sits at the origin
    cone = parse_polynomial("x^2*y*z + x*y^2*z + x*y*z^2")
    show("Jacobian of x*y*z*(x+y+z)", jacobian_ideal(cone))


if __name__ == "__main__":
    main()
