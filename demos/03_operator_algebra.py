"""
PBW normal forms and Jacobson's formula
=======================================

Multiplying differential operators exactly, the universal Lie polynomials,
and the central elements D^p - D^[p].
"""

from pcurv import operators as ops
from pcurv.algebroid import tangent_algebroid
from pcurv.poly import PolyRing, PrimeField, parse_poly

R = PolyRing(PrimeField(3), ("x",))
W = tangent_algebroid(R)  # its enveloping algebra is the Weyl algebra

d = ops.generator(W, 0)
x = ops.from_poly(W, R.variable("x"))

# The rewrite e*f -> f*e + f' in action.
print("d * x          :", d * x)
print("(x d)^2        :", (x * d) ** 2)
print("(x d)^3        :", (x * d) ** 3)

# In characteristic 3 the cross terms of (d + x)^3 cancel exactly.
print("(d + x)^3      :", (d + x) ** 3)

# Jacobson's formula (x + y)^p = x^p + y^p + sum s_i(x, y), with the s_i
# read off from an expansion over a central formal variable.
f = ops.from_poly(W, parse_poly("x^2", R))
s1, s2 = ops.lie_polynomials(d, f)
print("s_1(d, x^2)    :", s1)
print("s_2(d, x^2)    :", s2, "   (the second derivative of x^2)")
check = d**3 + f**3 + s1 + s2
print("Jacobson check :", (d + f) ** 3 == check)

# d^p - d^[p] is central: here d^[3] = 0, so the element is d^3 itself.
iota_d = ops.p_curvature_element(d)
print("d^3 - d^[3]    :", iota_d, "| central:", iota_d.is_central())
print("its top symbol :", iota_d.top_symbol(), "= (symbol of d)^3:",
      iota_d.top_symbol() == d.top_symbol() ** 3)

# The full identity battery over this algebra, seeded and exact.
report = ops.check_enveloping_p_structure(W, trials=10, seed=0)
print()
print(report.render_text())
