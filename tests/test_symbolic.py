import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import fnq
from fnq.eqdsl import parse_equation
from fnq.errors import UnboundName, UnsupportedArgument
from fnq.maps import MULTIPLICATIVE, FnTable, enumerate_maps
from fnq.solver import residual
from fnq.symbolic import (BUILTIN_FAMILIES, PEXIDER_FAMILIES, SolutionFamily,
                          SymExpr, all_linear_family, check_identity,
                          degree2_ansatz_family, derive_constraints,
                          family_substitute, mixed_family, prop3_family,
                          prop4_family, sofy_shift_family, symbol,
                          thm5_family)
from fnq.theorems import pexider_equation


# ------------------------------------------------------ sympy cross-checks

def sympy_expand(family_defs, equation, rewrite_names=("m", "l", "d", "l1", "l2")):
    """Independent oracle: expand both sides with sympy and collect the
    coefficients of the generator monomials."""
    x, y = sympy.symbols("x y")
    gens = {}
    for n in rewrite_names:
        gens[f"{n}_x"], gens[f"{n}_y"] = sympy.symbols(f"{n}_x {n}_y")

    def fn_at(template, var):
        # template is a sympy expression in t, m_t, l_t, d_t, l1_t, l2_t
        t, m_t, l_t, d_t, l1_t, l2_t = sympy.symbols("t m_t l_t d_t l1_t l2_t")
        if var == "x":
            subs = {t: x, m_t: gens["m_x"], l_t: gens["l_x"],
                    d_t: gens["d_x"], l1_t: gens["l1_x"], l2_t: gens["l2_x"]}
        elif var == "y":
            subs = {t: y, m_t: gens["m_y"], l_t: gens["l_y"],
                    d_t: gens["d_y"], l1_t: gens["l1_y"], l2_t: gens["l2_y"]}
        else:  # x*y with the rewrite rules
            subs = {t: x * y, m_t: gens["m_x"] * gens["m_y"],
                    l_t: gens["l_x"] + gens["l_y"],
                    d_t: gens["d_x"] * y + x * gens["d_y"],
                    l1_t: gens["l1_x"] + gens["l1_y"],
                    l2_t: gens["l2_x"] + gens["l2_y"]}
        return template.subs(subs, simultaneous=True)

    lhs, rhs = equation
    diff = sympy.expand(lhs(fn_at) - rhs(fn_at))
    indets = [x, y] + list(gens.values())
    poly = sympy.Poly(diff, *indets)
    return {monom: coeff for monom, coeff in zip(poly.monoms(), poly.coeffs())}


def test_thm5_constraints_exact():
    constraints = derive_constraints(thm5_family(), pexider_equation())
    assert sorted(c.render() for c in constraints) == ["g3 + b2*b3"]


def test_thm5_against_sympy():
    b2, b3, g1, g2, g3 = sympy.symbols("b2 b3 g1 g2 g3")
    t, m_t, l_t = sympy.symbols("t m_t l_t")
    f_t = (g1 * l_t + b2 ** 2 + 2 * g2) * t + b3 ** 2 * m_t
    h_t = b2 * t + b3 * m_t
    k_t = (g1 * l_t + g2) * t + g3 * m_t

    def lhs(fn_at):
        return fn_at(f_t, "xy")

    def rhs(fn_at):
        x, y = sympy.symbols("x y")
        return (fn_at(h_t, "x") * fn_at(h_t, "y")
                + x * fn_at(k_t, "y") + fn_at(k_t, "x") * y)

    coeffs = sympy_expand(None, (lhs, rhs))
    nonzero = {m: c for m, c in coeffs.items() if c != 0}
    # the only surviving coefficients are -(g3 + b2*b3) on x*m_y and m_x*y
    assert len(nonzero) == 2
    for coeff in nonzero.values():
        assert sympy.simplify(coeff + (g3 + b2 * b3)) == 0


def test_check_identity_flip():
    family = thm5_family()
    ast = pexider_equation()
    assert check_identity(family, ast,
                          {"b2": 1, "b3": 1, "g1": 1, "g2": 0, "g3": -1})
    assert not check_identity(family, ast,
                              {"b2": 1, "b3": 1, "g1": 1, "g2": 0, "g3": 0})
    with pytest.raises(UnboundName):
        check_identity(family, ast, {"b2": 1})


def test_prop4_family_unconditional():
    family = prop4_family()
    ast = parse_equation(family.equation_text)
    assert derive_constraints(family, ast) == frozenset()
    # sympy oracle: the difference expands to zero identically
    k1, lam = sympy.symbols("k1 lam")
    t, d_t = sympy.symbols("t d_t")
    f_t = (lam ** 2 + 2 * k1) * t + d_t
    k_t = k1 * t + d_t

    def lhs(fn_at):
        return fn_at(f_t, "xy")

    def rhs(fn_at):
        x, y = sympy.symbols("x y")
        return lam * lam * x * y + x * fn_at(k_t, "y") + fn_at(k_t, "x") * y

    coeffs = sympy_expand(None, (lhs, rhs))
    assert all(c == 0 for c in coeffs.values())


def test_prop3_and_all_linear_unconditional():
    for factory in (prop3_family, all_linear_family, sofy_shift_family):
        family = factory()
        ast = parse_equation(family.equation_text)
        assert derive_constraints(family, ast) == frozenset()


def test_sofy_shift_substitution_identical():
    family = sofy_shift_family()
    ast = parse_equation(family.equation_text)
    lhs, rhs = family_substitute(family, ast)
    assert lhs == rhs


def test_degree2_ansatz_constraints():
    family = degree2_ansatz_family()
    ast = parse_equation(family.equation_text)
    rendered = sorted(c.render() for c in derive_constraints(family, ast))
    # the l-coefficients of h must vanish; the remaining comparisons tie the
    # f-coefficients to those of h and k
    assert rendered == sorted([
        "b1^2", "b1*b2", "b2^2",
        "-a1 + g1 + b*b1", "-a2 + g2 + b*b2", "-a + 2*g + b^2"])


def test_degree2_ansatz_against_sympy():
    a1, a2, a, b1, b2, b, g1, g2, g = sympy.symbols("a1 a2 a b1 b2 b g1 g2 g")
    t, l1_t, l2_t = sympy.symbols("t l1_t l2_t")
    f_t = (a1 * l1_t + a2 * l2_t) * t + a * t
    h_t = (b1 * l1_t + b2 * l2_t) * t + b * t
    k_t = (g1 * l1_t + g2 * l2_t) * t + g * t

    def lhs(fn_at):
        return fn_at(f_t, "xy")

    def rhs(fn_at):
        x, y = sympy.symbols("x y")
        return (fn_at(h_t, "x") * fn_at(h_t, "y")
                + x * fn_at(k_t, "y") + fn_at(k_t, "x") * y)

    coeffs = sympy_expand(None, (lhs, rhs))
    nonzero = [sympy.factor(c) for c in coeffs.values() if c != 0]
    targets = {sympy.factor(e) for e in
               (b1 ** 2, b1 * b2, b2 ** 2,
                a1 - g1 - b * b1, a2 - g2 - b * b2, a - b ** 2 - 2 * g)}
    for c in nonzero:
        assert c in targets or -c in targets or sympy.factor(-c) in targets


def test_mixed_family_reparameterization():
    family = mixed_family()
    ast = parse_equation(family.equation_text)
    constraints = derive_constraints(family, ast)
    assert len(constraints) == 2
    # both constraints vanish exactly when u = 1/lam^2
    assert check_identity(family, ast,
                          {"lam": 2, "u": Fraction(1, 4), "gam": 3})
    assert not check_identity(family, ast, {"lam": 2, "u": 1, "gam": 3})


def test_unsupported_argument():
    family = thm5_family()
    with pytest.raises(UnsupportedArgument):
        family_substitute(family, parse_equation("f(x*x)=f(x)"))
    with pytest.raises(UnsupportedArgument):
        family_substitute(family, parse_equation("f(x+y)=f(x)"))


def test_empty_constraints_iff_random_assignments_hold():
    rng = random.Random(20240817)
    unconditional = prop4_family()
    ast4 = parse_equation(unconditional.equation_text)
    for _ in range(50):
        params = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for name in ("k1", "lam")}
        assert check_identity(unconditional, ast4, params)
    conditional = thm5_family()
    ast5 = pexider_equation()
    failures = 0
    for _ in range(50):
        params = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for name in ("b2", "b3", "g1", "g2", "g3")}
        if not check_identity(conditional, ast5, params):
            failures += 1
    assert failures > 0


# --------------------------------------------- symbolic-concrete coherence

@pytest.mark.parametrize("q", [3, 5])
def test_two_generator_coherence(q):
    """check_identity true -> empty residual for every concrete witness;
    a violated constraint shows up concretely for a nondegenerate witness."""
    field = fnq.gf(q)
    ast = pexider_equation()
    family = thm5_family()
    mult = [t for t in enumerate_maps(field, field, MULTIPLICATIVE)]
    elems = list(field.domain_elements)

    def instantiate(params, m):
        def comb(id_coef, l_coef, m_coef):
            # l is identically zero on a finite field
            vals = [int(field.add[field.mul[id_coef, e],
                                  field.mul[m_coef, m.values[i]]])
                    for i, e in enumerate(elems)]
            return FnTable(field, field, tuple(vals))

        b2, b3 = params["b2"] % q, params["b3"] % q
        g2, g3 = params["g2"] % q, params["g3"] % q
        f = comb(int(field.add[field.mul[b2, b2], field.add[g2, g2]]), 0,
                 int(field.mul[b3, b3]))
        h = comb(b2, 0, b3)
        k = comb(g2, 0, g3)
        return fnq.Binding(functions={"f": f, "h": h, "k": k}, params={})

    nondegenerate_m = [m for m in mult
                       if m.values != tuple(elems) and not m.is_zero()]
    for b2 in range(q):
        for b3 in range(q):
            for g2 in range(2):
                for g3 in range(q):
                    params = {"b2": b2, "b3": b3, "g1": 0, "g2": g2, "g3": g3}
                    symbolically_ok = check_identity(family, ast, params)
                    # the rational constraint may still vanish after
                    # reduction into the field; only a violation that
                    # survives modulo q must show up concretely
                    violated_in_field = (g3 + b2 * b3) % q != 0
                    for m in nondegenerate_m:
                        binding = instantiate(params, m)
                        empty = residual(ast, binding, field) == []
                        if symbolically_ok:
                            assert empty
                        elif violated_in_field:
                            assert not empty


# ------------------------------------------------- canonical-form algebra

def small_polys():
    syms = st.sampled_from([symbol(n) for n in ("x", "y", "b2", "g1")])
    consts = st.integers(min_value=-4, max_value=4).map(SymExpr.constant)
    leaf = st.one_of(syms, consts)

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: p[0] + p[1]),
            st.tuples(children, children).map(lambda p: p[0] * p[1]),
            children.map(lambda e: -e),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=small_polys(), b=small_polys(), c=small_polys())
def test_symexpr_canonical_algebra(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == SymExpr.constant(0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=small_polys())
def test_symexpr_no_zero_terms(a):
    for mono, coeff in a.terms:
        assert coeff != 0
        assert list(mono) == sorted(mono)


def test_render_forms():
    b2, g3 = symbol("b2"), symbol("g3")
    assert (g3 + b2 * b2).render() == "g3 + b2^2"
    assert (-g3).render() == "-g3"
    assert (SymExpr.constant(Fraction(1, 2)) * b2).render() == "1/2*b2"
    assert SymExpr.constant(0).render() == "0"
    assert (b2 - g3).monic().render() == (g3 - b2).monic().render()


def test_builtin_family_registry():
    assert set(BUILTIN_FAMILIES) == {"thm5", "prop4", "prop3", "all-linear",
                                     "mixed", "sofy-shift", "ansatz2"}
    for factory in BUILTIN_FAMILIES.values():
        family = factory()
        assert isinstance(family, SolutionFamily)


def test_zero_family_substitutes_to_zero():
    zero = SymExpr.constant(0)
    family = SolutionFamily(functions={"f": zero, "h": zero, "k": zero})
    lhs, rhs = family_substitute(family, pexider_equation())
    assert lhs.is_zero and rhs.is_zero


# ------------------------------------------------ Pexider family templates

def test_pexider_templates_solve_the_equation():
    rendered = {name: sorted(c.render() for c in
                             derive_constraints(family, pexider_equation()))
                for name, family in PEXIDER_FAMILIES.items()}
    assert set(rendered) == {"AllLinear", "LinearPlusLeibniz",
                             "MultiplicativeSquare", "LambdaKFamilyA",
                             "LambdaKFamilyB", "TwoExponential",
                             "NonDegenerate"}
    # LambdaKFamilyB's u is 1/lam^2: both constraints vanish when u*lam^2 = 1
    assert rendered.pop("LambdaKFamilyB") == ["-gamma + gamma*lam^2*u",
                                              "-u + lam^2*u^2"]
    assert all(c == [] for c in rendered.values())


@pytest.mark.parametrize("name", sorted(PEXIDER_FAMILIES))
def test_pexider_template_against_sympy(name):
    def sympify(expr):
        names = {n: sympy.Symbol(n) for n in expr.symbols()}
        return sympy.sympify(expr.render(), locals=names)

    f_t, h_t, k_t = (sympify(PEXIDER_FAMILIES[name].functions[n])
                     for n in "fhk")

    def lhs(fn_at):
        return fn_at(f_t, "xy")

    def rhs(fn_at):
        x, y = sympy.symbols("x y")
        return (fn_at(h_t, "x") * fn_at(h_t, "y")
                + x * fn_at(k_t, "y") + fn_at(k_t, "x") * y)

    nonzero = [c for c in sympy_expand(None, (lhs, rhs)).values() if c != 0]
    if name == "LambdaKFamilyB":
        lam, u = sympy.symbols("lam u")
        assert nonzero
        assert all(sympy.simplify(c.subs(u, 1 / lam ** 2)) == 0
                   for c in nonzero)
    else:
        assert nonzero == []


def test_lambda_k_family_a_is_all_linear():
    lam, gamma = symbol("lam"), symbol("gamma")
    inside = {n: e.subs({"lam1": lam * gamma, "lam2": gamma}) for n, e in
              PEXIDER_FAMILIES["AllLinear"].functions.items()}
    assert inside == dict(PEXIDER_FAMILIES["LambdaKFamilyA"].functions)


def test_factories_built_from_the_templates_keep_their_polynomials():
    rendered = {name: {n: e.render() for n, e in factory().functions.items()}
                for name, factory in BUILTIN_FAMILIES.items()}
    assert rendered["thm5"] == {
        "f": "2*g2*t + b2^2*t + b3^2*m_t + g1*l_t*t",
        "h": "b2*t + b3*m_t", "k": "g2*t + g3*m_t + g1*l_t*t"}
    assert rendered["prop4"] == {"f": "d_t + 2*k1*t + lam^2*t",
                                 "k": "d_t + k1*t"}
    assert rendered["prop3"] == {"f": "2*lam*t + h1^2*m_t", "h": "h1*m_t"}
    assert rendered["all-linear"] == {"f": "2*lam2*t + lam1^2*t",
                                      "h": "lam1*t", "k": "lam2*t"}
    assert rendered["mixed"] == {"f": "-t*u + gam^2*lam^2*m_t",
                                 "h": "gam*lam*m_t - lam*t*u",
                                 "k": "gam*m_t - t*u"}
    # NonDegenerate is thm5 at its one constraint g3 = -b2*b3
    g3 = -symbol("b2") * symbol("b3")
    assert {n: e.subs({"g3": g3}) for n, e in thm5_family().functions.items()
            } == dict(PEXIDER_FAMILIES["NonDegenerate"].functions)
