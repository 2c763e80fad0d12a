"""The multiplicative-plus-Leibniz system and annihilator witnesses.

A map satisfying both f(xy) = f(x)f(y) and f(xy) = f(x)y + xf(y)
annihilates against some nonzero constant: there is an alpha != 0 with
alpha*f = f*alpha = 0.  On carriers without zero divisors that forces
f = 0.  On unital carriers the system collapses to f = 0 anyway (put
x = y = 1 in both identities), so the interesting content at desk scale
is the witness bookkeeping on zero-divisor carriers.
"""
import fnq

for ring in (fnq.gf(3), fnq.gf(5), fnq.zn(4), fnq.zn(6), fnq.poly_quot(2, 2)):
    report = fnq.verify_mp(ring)
    zd = "no zero divisors" if report.details["no_zero_divisors"] \
        else "has zero divisors"
    print(f"{ring.spec.kind}(size {ring.size}), {zd}:")
    print(f"  candidate space {report.details['enumerated_count']} tables, "
          f"solutions: {report.details['solutions']}")
    print(f"  witnesses: {report.details['witnesses']}")
    print(f"  converse probe (witnessed image but fails the system): "
          f"{report.details['backward_counterexample_count']} maps")

print("witness extraction on its own:")
z6 = fnq.zn(6)
examples = [fnq.zero_map(z6), fnq.identity_map(z6),
            fnq.FnTable(z6, z6, (0, 3, 0, 3, 0, 3))]
for f in examples:
    w = fnq.annihilator_witness(f)
    print(f"  values {f.values} -> smallest two-sided annihilator: {w}")
