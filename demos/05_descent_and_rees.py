"""
Hitchin invariants and Frobenius descent
========================================

The characteristic-polynomial invariants of the p-curvature, when they are
p-th powers, and the one-parameter family interpolating connections and
Higgs fields.
"""

from pcurv.algebroid import (
    higgs_algebroid,
    rees_algebroid,
    specialize_t,
    tangent_algebroid,
)
from pcurv.connection import ConnectionModule, p_curvature
from pcurv.hitchin import (
    characteristic_polynomial,
    descend_invariants,
    hitchin_invariants,
    validate_trace_flatness,
)
from pcurv.poly import PolyRing, PrimeField

R = PolyRing(PrimeField(3), ("x",))
T = tangent_algebroid(R)
x = R.variable("x")

# The crystalline line with connection matrix x^2.
C = p_curvature(ConnectionModule(T, 1, (((x * x,),),)))
print("char poly        :", characteristic_polynomial(C))
I = hitchin_invariants(C)
print("invariants       :", I)
print("trace flatness   :", validate_trace_flatness(C, I).passed)
D = descend_invariants(I, T)
for k, yexp, value in D.descended():
    print(f"descended e{k}    : {value}   (cube: {value ** 3})")

# The counterexample's invariant does not descend, and the failure names
# the offending monomial.
H = higgs_algebroid(R, 1, [[x]])
IC = hitchin_invariants(p_curvature(ConnectionModule(H, 1, (((x,),),))))
DC = descend_invariants(IC, H)
print()
print("counterexample   :", IC)
for k, yexp, failure in DC.witnesses():
    print(f"fails at e{k}     : {failure}")

# The deformation family: brackets and anchor scaled by t, the p-operation
# by t^(p-1).  Descent runs in the x-directions only; t is a parameter.
A = rees_algebroid(T)
xt = A.ring.variable("x")
CR = p_curvature(ConnectionModule(A, 1, (((xt * xt,),),)))
IR = hitchin_invariants(CR)
print()
print("family invariant :", IR)
DR = descend_invariants(IR, A)
((_, _, family),) = DR.descended()
print("descended family :", family)
print("fiber at t = 1   :", family.substitute_constant("t", 1), " (the connection)")
print("fiber at t = 0   :", family.substitute_constant("t", 0), " (the Higgs field)")

# The same pipelines are scriptable: see the bundled scenario files, e.g.
#   pcurv descend scenarios/crystalline_1d.json
#   pcurv rees scenarios/rees_family.json --format json
print()
print("fiber algebroid at t=0 has zero p-operation:",
      all(c.is_zero() for vec in specialize_t(A, 0).p_op for c in vec))
