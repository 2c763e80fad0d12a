"""Solving and classifying the Pexider equation over a small field.

f(xy) = h(x)h(y) + xk(y) + k(x)y is solved exactly: the left side pivots
at y = 1, so only (h, k) pairs are enumerated and f is computed.  Every
solution triple is then classified by exact lookup in the family images:
every instance of every family, built once over the field, with each row's
first instance giving its family, parameters and witnesses.  Classifying
one triple builds only the instances that may build it.

One outcome worth pausing on: at rank 2 the classical case split by
pairwise dependence ({id,h}, {id,k}, {h,k}) is not exhaustive.  Over GF(3)
there are 16 solutions where no pair is dependent; they follow the
two-generator shape h = b1*x + b2*m(x), k = g1*x + g2*m(x) with
g2 = -b1*b2, which the workbench tags TwoExponential.
"""
import fnq
from fnq.maps import ARBITRARY
from fnq.solver import SolveTask, solve
from fnq.theorems import classify_pexider, pexider_equation

gf3 = fnq.gf(3)
ast = pexider_equation()
result = solve(SolveTask(ast, gf3, {"f": ARBITRARY, "h": ARBITRARY,
                                    "k": ARBITRARY}))
print(f"pivoted search over GF(3): {result.enumerated_count} (h, k) pairs, "
      f"{len(result.solutions)} solutions")

histogram = {}
samples = {}
for binding in result.solutions:
    cls = classify_pexider(binding.functions["f"], binding.functions["h"],
                           binding.functions["k"])
    histogram[cls.tag.name] = histogram.get(cls.tag.name, 0) + 1
    samples.setdefault(cls.tag.name, (binding, cls))

print("\nfamily histogram:")
for name in sorted(histogram):
    print(f"  {name:<20} {histogram[name]}")

print("\none witness per family:")
for name in sorted(samples):
    binding, cls = samples[name]
    f, h, k = (binding.functions[n].values for n in ("f", "h", "k"))
    print(f"  {name}: f={f} h={h} k={k}")
    print(f"    params: {cls.tag.params}")

print("\nthe full report object bundles the same sweep with closure checks:")
report = fnq.verify_pexider(gf3)
print(f"  families: {report.details['families']}")
print(f"  unclassifiable: {report.details['unclassifiable']}, "
      f"closure failures: {report.details['closure_failures']} "
      f"of {report.details['closure_samples']} instantiations, all of them")
