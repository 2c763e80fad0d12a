"""The shift characterization of the homo-derivation equation.

Solving h(xy) = h(x)y + xh(y) + eps*h(x)h(y) without any additivity
assumption: the map m = eps*h + id turns every solution into a
multiplicative function.  When eps is invertible this is a bijection.
When eps is a central zero divisor the forward direction still holds but
the converse genuinely fails, which is exactly what the Z_6, eps = 3 probe
below reports: the proof multiplies the equation through by eps, and with
a zero divisor that step loses information.
"""
import fnq

print("forward + backward across carriers and unit shift constants:")
for ring, eps in [(fnq.zn(2), 1), (fnq.gf(3), 2), (fnq.zn(4), 3)]:
    report = fnq.verify_sofy(ring, eps)
    print(f"  {ring.spec.kind}(size {ring.size}), eps={eps}: "
          f"solutions={report.solutions_found}, "
          f"multiplicative={report.predicted_count}, "
          f"bijection={report.details['bijection']}")

print("\nthe noncommutative carrier UT2(2), eps = identity matrix:")
ut2 = fnq.ut2(2)
eps = [e for e in ut2.center if e != ut2.zero][0]
report = fnq.verify_sofy(ut2, eps)
print(f"  candidate space 8^8 = 16.7M tables, "
      f"solutions={report.solutions_found}, "
      f"forward_ok={report.forward_ok}, backward_ok={report.backward_ok}")

print("\nzero-divisor probe on Z_6 with eps = 3:")
z6 = fnq.zn(6)
probe = fnq.verify_sofy(z6, 3)
print(f"  eps regular: {probe.details['eps_is_regular']}")
print(f"  forward (solution -> multiplicative shift): {probe.forward_ok}")
print(f"  backward (every pointwise shift solves):    {probe.backward_ok}")
print(f"  backward violations: "
      f"{probe.details['backward_violation_count']}")
if probe.counterexamples:
    ce = probe.counterexamples[0]
    print(f"  first counterexample: m={ce['m']} gives h={ce['h']}, "
          f"violating pairs {ce['violations'][:3]}")
print("  (the converse needs eps to annihilate nothing, so this outcome is")
print("   reported as data, not asserted as a failure of the workbench)")
