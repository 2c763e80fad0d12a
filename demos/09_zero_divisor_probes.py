"""Probing the Pexider equation over commutative rings with zero divisors.

The family classification lives over fields.  What happens to
f(xy) = h(x)h(y) + xk(y) + k(x)y when the carrier has zero divisors is an
open territory; the workbench can at least enumerate the exact solution
sets and compare their sizes with the field pattern.  Solutions that a
field would not have are the empirical signal worth staring at.
"""
import fnq
from fnq.maps import ARBITRARY, MULTIPLICATIVE, enumerate_maps
from fnq.solver import SolveTask, solve
from fnq.theorems import pexider_equation

ast = pexider_equation()
for ring in (fnq.gf(3), fnq.zn(4), fnq.poly_quot(2, 2)):
    result = solve(SolveTask(ast, ring, {"f": ARBITRARY, "h": ARBITRARY,
                                         "k": ARBITRARY}, budget=10 ** 9))
    mult = len(list(enumerate_maps(ring, ring, MULTIPLICATIVE)))
    kind = "field" if ring.is_field else "zero divisors"
    print(f"{ring.spec.kind}(size {ring.size}, {kind}): "
          f"candidate space {result.enumerated_count} (h, k) pairs, "
          f"{len(result.solutions)} solutions, "
          f"{mult} multiplicative maps on the carrier")

print()
print("on Z_4 the carrier is not a field, so the field classifier does not")
print("apply; instead, inspect which solutions have an h outside every")
print("span{id, m} with m multiplicative (impossible over a field):")
z4 = fnq.zn(4)
result = solve(SolveTask(ast, z4, {"f": ARBITRARY, "h": ARBITRARY,
                                   "k": ARBITRARY}, budget=10 ** 9))
mult_maps = [t.values for t in enumerate_maps(z4, z4, MULTIPLICATIVE)]
spans = set()
for mv in mult_maps:
    for a in range(4):
        for b in range(4):
            spans.add(tuple(int(z4.add[z4.mul[a, e], z4.mul[b, mv[i]]])
                            for i, e in enumerate(range(4))))
outside = [b for b in result.solutions
           if b.functions["h"].values not in spans]
print(f"  solutions: {len(result.solutions)}")
print(f"  with h outside every two-generator span: {len(outside)}")
for b in outside[:4]:
    print(f"    f={b.functions['f'].values} h={b.functions['h'].values} "
          f"k={b.functions['k'].values}")
if outside:
    print("  such shapes are the concrete starting points for the ring case")
