"""
p-curvature of connections
==========================

Matrix differential operators, the order-0 assertion, and the p-curvature
of the standard families, including the zero-anchor counterexample.
"""

from pcurv.algebroid import higgs_algebroid, shift_p_structure, tangent_algebroid
from pcurv.connection import (
    ConnectionModule,
    check_abstract_action_oracle,
    check_flat_commutation,
    mat_str,
    p_curvature,
    validate_flatness,
)
from pcurv.poly import PolyRing, PrimeField, parse_poly

R = PolyRing(PrimeField(3), ("x",))
T = tangent_algebroid(R)
x = R.variable("x")

# The connection d + x^2 dx on the trivial line bundle:
M = ConnectionModule(T, 1, (((x * x,),),))
print("nabla           :", M.actions[0])
C = p_curvature(M)
print("psi             :", mat_str(C.psi[0]))
print("oracle agrees   :", check_abstract_action_oracle(C).passed)
print("flat commutation:", check_flat_commutation(C).passed)

# A rank-2 Higgs module with the trivial p-operation: psi is the cube of
# the Higgs field.
H = higgs_algebroid(R, 1, [[R.zero()]])
swap = ((R.zero(), R.one()), (x, R.zero()))
CH = p_curvature(ConnectionModule(H, 2, (swap,)))
print()
print("higgs field     :", mat_str(swap))
print("psi = field^3   :", mat_str(CH.psi[0]))

# The counterexample: zero anchor, e^[3] = x e, module matrix x.  The
# p-curvature x^3 - x^2 is not a cube.
HC = higgs_algebroid(R, 1, [[x]])
CC = p_curvature(ConnectionModule(HC, 1, (((x,),),)))
print()
print("counterexample  :", mat_str(CC.psi[0]))

# Shifting the p-structure by the central function x^3 shifts psi.
shift = shift_p_structure(T, [parse_poly("x^3", R)])
CS = p_curvature(ConnectionModule(shift, M.rank, M.matrices))
print("shifted psi     :", mat_str(CS.psi[0]))

# Non-flat modules are refused: d + y dx and d + 0 dy do not commute.
R2 = PolyRing(PrimeField(3), ("x", "y"))
T2 = tangent_algebroid(R2)
bad = ConnectionModule(T2, 1, (((R2.variable("y"),),), ((R2.zero(),),)))
print()
print(validate_flatness(bad).render_text())
