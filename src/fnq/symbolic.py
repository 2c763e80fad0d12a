"""Formal verification of parametric solution families.

A family assigns each unknown function a template polynomial over the
symbols ``t`` (the argument), ``m_t`` (a multiplicative generator), ``l_t``
(a logarithmic generator), ``d_t`` (a Leibniz generator), and, for the
two-logarithm ansatz, ``l1_t``/``l2_t``.  Substituting the family into an
equation rewrites the generators at ``x*y`` through

    m(xy) -> m(x)m(y)      l(xy) -> l(x)+l(y)      d(xy) -> d(x)y + xd(y)

and expands both sides into canonical polynomials over commuting
indeterminates with exact rational coefficients.  Comparing coefficients of
the indeterminate monomials yields the parameter constraints the family
must satisfy; this models the commutative field case only.

:data:`PEXIDER_FAMILIES` is the one place the Pexider equation's solution
families are written: ``derive_constraints`` proves them, and ``theorems``
evaluates them over finite fields to classify and sample solutions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .eqdsl import (Add, EquationAst, Expr, FnApp, IntLit, Mul, Neg, Param,
                    Sub, Var)
from .errors import UnboundName, UnsupportedArgument

Monomial = tuple[tuple[str, int], ...]

INDETERMINATES = frozenset({
    "x", "y", "m_x", "m_y", "l_x", "l_y", "d_x", "d_y",
    "l1_x", "l1_y", "l2_x", "l2_y",
})

_TEMPLATE = ("t", "m_t", "l_t", "d_t", "l1_t", "l2_t")


def _mono_key(mono: Monomial):
    expanded = tuple(name for name, exp in mono for _ in range(exp))
    return (len(expanded), expanded)


@dataclass(frozen=True)
class SymExpr:
    """A multivariate polynomial in canonical form.

    ``terms`` maps sorted monomials to nonzero rational coefficients and is
    stored as a sorted tuple, so equal polynomials are equal values.
    """

    terms: tuple[tuple[Monomial, Fraction], ...]

    # -- construction -----------------------------------------------------

    @staticmethod
    def _from_dict(d: dict[Monomial, Fraction]) -> "SymExpr":
        items = [(m, c) for m, c in d.items() if c != 0]
        items.sort(key=lambda mc: _mono_key(mc[0]))
        return SymExpr(tuple(items))

    @staticmethod
    def constant(value) -> "SymExpr":
        c = Fraction(value)
        return SymExpr(((tuple(), c),)) if c else SymExpr(tuple())

    @staticmethod
    def coerce(value) -> "SymExpr":
        if isinstance(value, SymExpr):
            return value
        return SymExpr.constant(value)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "SymExpr":
        other = SymExpr.coerce(other)
        out = dict(self.terms)
        for mono, coeff in other.terms:
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return SymExpr._from_dict(out)

    __radd__ = __add__

    def __neg__(self) -> "SymExpr":
        return SymExpr(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other) -> "SymExpr":
        return self + (-SymExpr.coerce(other))

    def __rsub__(self, other) -> "SymExpr":
        return SymExpr.coerce(other) + (-self)

    def __mul__(self, other) -> "SymExpr":
        other = SymExpr.coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                powers: dict[str, int] = dict(m1)
                for name, exp in m2:
                    powers[name] = powers.get(name, 0) + exp
                mono = tuple(sorted(powers.items()))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return SymExpr._from_dict(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SymExpr":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = SymExpr.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- queries ----------------------------------------------------------

    def symbols(self) -> set[str]:
        return {name for mono, _ in self.terms for name, _ in mono}

    def subs(self, mapping: Mapping[str, "SymExpr | Fraction | int"]) -> "SymExpr":
        out = SymExpr.constant(0)
        for mono, coeff in self.terms:
            term = SymExpr.constant(coeff)
            for name, exp in mono:
                base = mapping.get(name)
                base = symbol(name) if base is None else SymExpr.coerce(base)
                term = term * base ** exp
            out = out + term
        return out

    def monic(self) -> "SymExpr":
        """Divide by the leading (highest-monomial) coefficient."""
        if not self.terms:
            return self
        lead = self.terms[-1][1]
        return SymExpr(tuple((m, c / lead) for m, c in self.terms))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (mono, coeff) in enumerate(self.terms):
            body = "*".join(name if exp == 1 else f"{name}^{exp}"
                            for name, exp in mono)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if i == 0:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f" + {text}" if coeff > 0 else f" - {text}")
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymExpr({self.render()})"


def symbol(name: str) -> SymExpr:
    mono: Monomial = ((name, 1),)
    return SymExpr(((mono, Fraction(1)),))


# template atoms for building families
T = symbol("t")
M = symbol("m_t")
L = symbol("l_t")
D = symbol("d_t")
L1 = symbol("l1_t")
L2 = symbol("l2_t")


@dataclass(frozen=True)
class SolutionFamily:
    """Templates for each unknown plus disequality annotations.

    Side conditions are disequalities (not polynomial constraints) and are
    carried as annotations only.
    """

    functions: Mapping[str, SymExpr]
    side_conditions: tuple[str, ...] = ()
    equation_text: str | None = None

    def coefficients(self) -> dict[tuple[str, Monomial], SymExpr]:
        """Each template's coefficient of each template monomial (``t``,
        ``m_t``, ...), a polynomial in the parameters, keyed by (function,
        monomial)."""
        return {(n, mono): c for n, e in self.functions.items()
                for mono, c in _coefficient_split(e, _TEMPLATE).items()}

    def params(self) -> set[str]:
        out: set[str] = set()
        for expr in self.functions.values():
            out |= {s for s in expr.symbols() if s not in _TEMPLATE}
        return out


def _substitution_for(arg: Expr) -> dict[str, SymExpr]:
    """Each template symbol at ``x`` or ``y`` (``m_t`` -> ``m_x``), or
    rewritten at ``x*y`` by the generator rules."""
    if isinstance(arg, Var) and arg.name in ("x", "y"):
        return {s: symbol(s[:-1] + arg.name) for s in _TEMPLATE}
    if not (isinstance(arg, Mul) and isinstance(arg.left, Var)
            and isinstance(arg.right, Var)
            and (arg.left.name, arg.right.name) == ("x", "y")):
        raise UnsupportedArgument(
            "formal substitution supports only the arguments x, y and x*y")
    x, y = _substitution_for(arg.left), _substitution_for(arg.right)
    return {"t": x["t"] * y["t"], "m_t": x["m_t"] * y["m_t"],
            "d_t": x["d_t"] * y["t"] + x["t"] * y["d_t"],
            **{s: x[s] + y[s] for s in ("l_t", "l1_t", "l2_t")}}


def _expand(expr: Expr, family: SolutionFamily) -> SymExpr:
    if isinstance(expr, Var):
        return symbol(expr.name)
    if isinstance(expr, Param):
        return symbol(expr.name)
    if isinstance(expr, IntLit):
        return SymExpr.constant(expr.value)
    if isinstance(expr, FnApp):
        if expr.name not in family.functions:
            raise UnboundName(f"family does not define {expr.name!r}")
        template = family.functions[expr.name]
        return template.subs(_substitution_for(expr.arg))
    if isinstance(expr, Add):
        return _expand(expr.left, family) + _expand(expr.right, family)
    if isinstance(expr, Sub):
        return _expand(expr.left, family) - _expand(expr.right, family)
    if isinstance(expr, Mul):
        return _expand(expr.left, family) * _expand(expr.right, family)
    if isinstance(expr, Neg):
        return -_expand(expr.operand, family)
    raise TypeError(f"not an expression node: {expr!r}")


def family_substitute(family: SolutionFamily,
                      ast: EquationAst) -> tuple[SymExpr, SymExpr]:
    """Both equation sides as canonical polynomials after substitution."""
    return _expand(ast.lhs, family), _expand(ast.rhs, family)


def _coefficient_split(poly: SymExpr, over=INDETERMINATES
                       ) -> dict[Monomial, SymExpr]:
    """Group by monomial in the symbols ``over`` (the indeterminates);
    values are polynomials in the other symbols, the parameters."""
    grouped: dict[Monomial, dict[Monomial, Fraction]] = {}
    for mono, coeff in poly.terms:
        indet = tuple((n, e) for n, e in mono if n in over)
        par = tuple((n, e) for n, e in mono if n not in over)
        bucket = grouped.setdefault(indet, {})
        bucket[par] = bucket.get(par, Fraction(0)) + coeff
    return {indet: SymExpr._from_dict(bucket)
            for indet, bucket in grouped.items()}


def derive_constraints(family: SolutionFamily,
                       ast: EquationAst) -> frozenset[SymExpr]:
    """Parameter polynomials that must all vanish for the family to solve.

    The family satisfies the equation for every interpretation of the
    generators if and only if every returned polynomial is zero.
    Polynomials are normalized to leading coefficient one so that sign
    variants collapse.
    """
    lhs, rhs = family_substitute(family, ast)
    diff = lhs - rhs
    out = set()
    for poly in _coefficient_split(diff).values():
        if not poly.is_zero:
            out.add(poly.monic())
    return frozenset(out)


def check_identity(family: SolutionFamily, ast: EquationAst,
                   params: Mapping[str, int | Fraction]) -> bool:
    """True iff the difference vanishes identically at these parameter values."""
    values = {name: SymExpr.constant(v) for name, v in params.items()}
    lhs, rhs = family_substitute(family, ast)
    diff = (lhs - rhs).subs(values)
    leftover = diff.symbols() - INDETERMINATES
    if leftover:
        raise UnboundName(f"parameters {sorted(leftover)} are not bound")
    return diff.is_zero


# ----------------------------------------------------------- built-in families

_PEXIDER_TEXT = "f(x*y)=h(x)*h(y)+x*k(y)+k(x)*y"


def thm5_family() -> SolutionFamily:
    """Rank-3 family: one multiplicative and one logarithmic generator."""
    b2, b3 = symbol("b2"), symbol("b3")
    g1, g2, g3 = symbol("g1"), symbol("g2"), symbol("g3")
    return SolutionFamily(
        functions={
            "f": (g1 * L + b2 ** 2 + 2 * g2) * T + b3 ** 2 * M,
            "h": b2 * T + b3 * M,
            "k": (g1 * L + g2) * T + g3 * M,
        },
        side_conditions=("b3 != 0", "g1 != 0"),
        equation_text=_PEXIDER_TEXT)


def _pexider_families() -> dict[str, SolutionFamily]:
    lam, lam1, lam2, k1, h1, gamma, u, b1, b2, b3, g1 = map(
        symbol, "lam lam1 lam2 k1 h1 gamma u b1 b2 b3 g1".split())

    def family(f, h, k, *side_conditions):
        return SolutionFamily({"f": f, "h": h, "k": k}, side_conditions,
                              _PEXIDER_TEXT)

    rank3 = thm5_family()
    return {
        "AllLinear": family((lam1 ** 2 + 2 * lam2) * T, lam1 * T, lam2 * T),
        "LinearPlusLeibniz": family((lam ** 2 + 2 * k1) * T + D, lam * T,
                                    k1 * T + D),
        "MultiplicativeSquare": family(h1 ** 2 * M + 2 * lam * T, h1 * M,
                                       lam * T),
        "LambdaKFamilyA": family((lam ** 2 * gamma ** 2 + 2 * gamma) * T,
                                 lam * gamma * T, gamma * T),
        "LambdaKFamilyB": family(-u * T + gamma ** 2 * lam ** 2 * M,
                                 lam * (-u * T + gamma * M), -u * T + gamma * M,
                                 "lam != 0", "u = 1/lam^2"),
        "TwoExponential": family((b1 ** 2 + 2 * g1) * T + b2 ** 2 * M,
                                 b1 * T + b2 * M, g1 * T - b1 * b2 * M),
        # thm5 at its one constraint g3 = -b2*b3
        "NonDegenerate": family(*(rank3.functions[n].subs({"g3": -b2 * b3})
                                  for n in "fhk"), *rank3.side_conditions),
    }


# The solution families of the Pexider equation, by their
# ``theorems.FamilyTag`` names, with parameters named as in the tags.
PEXIDER_FAMILIES: Mapping[str, SolutionFamily] = _pexider_families()
# a parameter that stands for the field inverse of a polynomial in the
# others, not for a value of its own
DERIVED_INVERSES: Mapping[str, SymExpr] = {"u": symbol("lam") ** 2}


def prop4_family() -> SolutionFamily:
    """LinearPlusLeibniz without h, for a scaled-product equation."""
    fns = PEXIDER_FAMILIES["LinearPlusLeibniz"].functions
    return SolutionFamily({n: fns[n] for n in "fk"},
                          equation_text="f(x*y)=lam*lam*x*y+x*k(y)+k(x)*y")


def prop3_family() -> SolutionFamily:
    """MultiplicativeSquare without k, for f(xy) = h(x)h(y) + 2*lam*xy."""
    fns = PEXIDER_FAMILIES["MultiplicativeSquare"].functions
    return SolutionFamily({n: fns[n] for n in "fh"},
                          equation_text="f(x*y)=h(x)*h(y)+2*lam*x*y")


def all_linear_family() -> SolutionFamily:
    family = PEXIDER_FAMILIES["AllLinear"]
    return SolutionFamily(dict(family.functions), equation_text=_PEXIDER_TEXT)


def mixed_family() -> SolutionFamily:
    """The dependent-pair family, with ``u`` standing for the inverse square
    of the ratio; its constraints express exactly ``u * lam^2 = 1``.  This is
    LambdaKFamilyB with ``gamma`` written ``gam``."""
    family, gam = PEXIDER_FAMILIES["LambdaKFamilyB"], {"gamma": symbol("gam")}
    return SolutionFamily({n: e.subs(gam) for n, e in family.functions.items()},
                          family.side_conditions, _PEXIDER_TEXT)


def sofy_shift_family() -> SolutionFamily:
    """Shift family h = m - id for the unit-shift homo-derivation equation."""
    return SolutionFamily(
        functions={"h": M - T},
        equation_text="h(x*y)=h(x)*y+x*h(y)+h(x)*h(y)")


def degree2_ansatz_family() -> SolutionFamily:
    """General first-degree ansatz in two logarithmic generators."""
    a1, a2, a = symbol("a1"), symbol("a2"), symbol("a")
    b1, b2, b = symbol("b1"), symbol("b2"), symbol("b")
    g1, g2, g = symbol("g1"), symbol("g2"), symbol("g")
    return SolutionFamily(
        functions={
            "f": (a1 * L1 + a2 * L2) * T + a * T,
            "h": (b1 * L1 + b2 * L2) * T + b * T,
            "k": (g1 * L1 + g2 * L2) * T + g * T,
        },
        equation_text=_PEXIDER_TEXT)


BUILTIN_FAMILIES = {
    "thm5": thm5_family,
    "prop4": prop4_family,
    "prop3": prop3_family,
    "all-linear": all_linear_family,
    "mixed": mixed_family,
    "sofy-shift": sofy_shift_family,
    "ansatz2": degree2_ansatz_family,
}
