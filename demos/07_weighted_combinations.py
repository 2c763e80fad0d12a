"""Weighted combinations of the Leibniz and multiplicative equations.

lam*[f(xy) - f(x)y - xf(y)] + mu*[f(xy) - f(x)f(y)] = 0 is solved for
every weight pair.  The solution set is completely rigid: multiplicative
maps when lam = 0, Leibniz maps when mu = 0, and otherwise only 0 and the
scaling by (mu - lam)/mu.  In particular any map solving the sum of the
two equations solves both (take lam = mu): the equations are alien.
"""
import fnq

gf5 = fnq.gf(5)
print("sweep over GF(5):")
for lam in range(5):
    for mu in range(5):
        if lam == mu == 0:
            continue
        report = fnq.verify_alien(gf5, lam, mu)
        sols = report.details["solutions"]
        print(f"  lam={lam} mu={mu}: case={report.details['case']:<16} "
              f"solutions={len(sols)} match={report.holds()}")

print("\nthe advertised witness: lam=1, mu=2 gives f = 3*id on GF(5)")
witness = fnq.verify_alien(gf5, 1, 2)
print(f"  solutions: {witness.details['solutions']}")
print("  check: (mu - lam)/mu = 1 * inverse(2) = 3 in GF(5)")

print("\nthe paired version h(xy) + k(xy) = h(x)h(y) + xk(y) + k(x)y is a")
print("plain solve task; over a finite field its nondegenerate part needs a")
print("nonzero logarithmic map, so only degenerate solutions appear:")
from fnq.maps import ARBITRARY
from fnq.solver import SolveTask, solve
from fnq.theorems import alien_pair_equation

gf3 = fnq.gf(3)
ss = solve(SolveTask(alien_pair_equation(), gf3,
                     {"h": ARBITRARY, "k": ARBITRARY}))
print(f"  GF(3): candidate space {ss.enumerated_count} (h, k) pairs, "
      f"{len(ss.solutions)} solutions")
from fnq.maps import lin_rank, identity_map
ranks = {}
for b in ss.solutions:
    r = lin_rank([identity_map(gf3), b.functions["h"], b.functions["k"]], gf3)
    ranks[r] = ranks.get(r, 0) + 1
print(f"  rank profile of (id, h, k): {ranks}  (never 3, as predicted)")
