"""Building verified finite rings.

Every carrier is a table: addition, multiplication and negation are dense
lookup arrays over indices 0..size-1, and the constructor re-checks every
ring axiom over the whole carrier before handing the ring out.  That makes
the constructors the only piece of trusted arithmetic in the workbench;
everything downstream is table lookups.
"""
import fnq

# residues, a field given by an irreducible polynomial, a nilpotent
# quotient, and a noncommutative matrix carrier
z6 = fnq.zn(6)
gf4 = fnq.gf(2, 2, modulus=(1, 1, 1))   # F_2[x] / (x^2 + x + 1)
pq = fnq.poly_quot(2, 2)                # F_2[x] / (x^2), x is nilpotent
ut2 = fnq.ut2(2)                        # [[a, b], [0, c]] over F_2

for ring in (z6, gf4, pq, ut2):
    print(f"{ring.spec.kind:<9} size={ring.size:<3} one={ring.one} "
          f"units={ring.units} regular={ring.regular}")

print()
print("GF(4) carrier order is lexicographic in the coefficient vectors:")
for i, name in enumerate(gf4.names):
    print(f"  index {i} = {name}")
print(f"  x * x = {gf4.names[int(gf4.mul[1, 1])]}  (reduction mod x^2+x+1)")
print(f"  x * x = {pq.names[int(pq.mul[1, 1])]}    in F_2[x]/(x^2)")

print()
print("centers (elements commuting with everything):")
print(f"  Z_6      -> {fnq.center(z6)}  (commutative, so all of it)")
print(f"  UT2(2)   -> {fnq.center(ut2)}  (just 0 and the identity matrix)")

print()
print("regular elements are the non-zero-divisors:")
for e in range(6):
    print(f"  {e} in Z_6: regular={fnq.is_regular(z6, e)}")

# the axiom check is not decorative: a corrupted table is rejected.  This
# cell breaks both distributivity and multiplicative associativity; the
# check proves distributivity first, so that is the failure it reports
import numpy as np
from fnq.algebra import _verify_axioms
from fnq.errors import AxiomViolation

bad = np.array(z6.mul, copy=True)
bad[2, 3] = (bad[2, 3] + 1) % 6
try:
    _verify_axioms(6, np.array(z6.add), bad, np.array(z6.neg), 0, 1)
except AxiomViolation as exc:
    print(f"\ncorrupting one table entry is caught: {exc}")

# rings can also be described as JSON documents
spec = '{"kind": "Product", "left": {"kind": "Zn", "n": 2}, "right": {"kind": "Zn", "n": 3}}'
prod = fnq.ring_from_json(spec)
print(f"\nproduct ring from JSON: size={prod.size}, "
      f"center size={len(prod.center)} (= product of centers)")
