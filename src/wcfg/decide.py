"""Deciding whether a rational-weighted grammar has a regular
Parikh-equivalent.

The letter-count series of the start variable satisfies the grammar's
equation system, so it is a root of the unique univariate member of the
system ideal's reduced Groebner basis.  The property holds exactly when
that series is already a ratio of terminal polynomials — equivalently,
when the squarefree annihilating polynomial has a linear factor with the
series as its root.  The pipeline therefore eliminates down to one
variable, clears denominators, and either reads the linear certificate
off directly, proves that no linear factor exists because an image of
the certificate modulo a small prime has no root, or reconstructs the
series once as a ratio of bounded-degree polynomials and checks
divisibility symbolically.  A witness grammar
is rebuilt from the linear form X = s*X + t, whose fixed point is the
series itself.
"""

from dataclasses import dataclass
from fractions import Fraction

from .analysis import is_cycle_free
from .errors import (
    IterationCapExceeded,
    NotCycleFree,
    NotDivisible,
    NoUnivariateElement,
    SymbolMismatch,
    WrongSemiring,
)
from .grammar import render_grammar
from .groebner import (
    SystemPolynomial,
    clear_denominators,
    groebner_basis,
    render_system_polynomial,
    system_polynomials,
    univar_from_polynomial,
    univar_gcd_squarefree,
    univar_polynomial,
)
from .linalg import nullspace
from .modular import no_root
from .monomials import monomials_up_to_degree, mono_degree, mono_divides, mono_div
from .polynomials import Polynomial, coefficients_in_last, poly_divexact, poly_gcd
from .series import algebraic_system, approximate, eval_poly_at_series, grammar_from_linear


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of the decision procedure.

    verdict is "holds" or "fails"; q the cleared-denominator certificate
    polynomial over Q[terminals] (linear iff holds); witness the regular
    grammar (holds only); basis_g the univariate element of the reduced
    basis, a monic view over Q(terminals);
    discrimination_order the series order that certified the verdict
    (0 when no series was needed, otherwise 2D + 1 of _linear_factor);
    and reason the branch that certified it: "linear certificate", "no
    root mod l at point t" (the prime l and the point base t of
    modular.no_root), "reconstructed factor at order n", "no linear
    factor at order n" or "empty space by exact nullspace at order n".
    render_report leaves the reason out.
    """

    verdict: str
    q: SystemPolynomial
    witness: object
    basis_g: SystemPolynomial
    discrimination_order: int
    reason: str


def eliminate_to_univariate(system):
    """The member of the Groebner basis of {Xi - p_i} involving only the
    start variable, by univariate_element: the lowest element of the
    minimal basis, which is already the reduced basis's."""
    return univariate_element(groebner_basis(system_polynomials(system)), system.variables[0])


def univariate_element(basis, name):
    """The unique member of a minimal basis of a system's ideal that
    involves only the start variable `name`.

    The elimination order sorts the start variable last, so the basis of
    a solvable system always contains exactly one such element; none,
    or more than one, signals an inconsistent input or a faulty basis
    and raises NoUnivariateElement.
    """
    found = [p for p in basis if p.uses_only(name) and p.degree_in(name) >= 1]
    if not found:
        raise NoUnivariateElement(
            f"basis has no element univariate in {name}"
        )
    if len(found) > 1:  # a minimal basis cannot: one lead would divide the other
        raise NoUnivariateElement(
            f"basis has {len(found)} elements univariate in {name}"
        )
    return found[0]


def rational_reconstruct(r1, D, k):
    """A nonzero pair of terminal polynomials (c, d) of degree <= D with
    c*r1 = d up to series order k, or None when only the zero pair
    works.  The rows of degree <= D only define d, so c alone solves the
    rows of degree D+1 ... k: it is the first exact nullspace vector,
    normalized to canonical (first ascending) coefficient one, and d is
    c*r1 truncated at degree min(D, k).  With k >= 2D the pair is unique
    up to a factor: if r1 = d0/c0 with c0, d0 coprime of degree <= D,
    then c*d0 - c0*d has degree <= 2D and vanishes through order k, so
    it is zero."""
    monos = monomials_up_to_degree(len(r1.syms), D)

    def row(v):  # coefficient of v in m * r1, for each c monomial m
        return [r1.coefficient(mono_div(v, m)) if mono_divides(m, v) else 0 for m in monos]

    rows = [row(v) for v in monomials_up_to_degree(len(r1.syms), k) if mono_degree(v) > D]
    basis = nullspace(rows, len(monos))
    if not basis:
        return None
    first = next(x for x in basis[0] if x)
    vec = [Fraction(x, first) for x in basis[0]]
    d = {v: sum(x * y for x, y in zip(row(v), vec))
         for v in monomials_up_to_degree(len(r1.syms), min(D, k))}
    return Polynomial(r1.syms, dict(zip(monos, vec))), Polynomial(r1.syms, d)


def discriminate_factor(candidates, system):
    """Index of the unique candidate polynomial annihilating the
    system's start series r, found by evaluating all candidates at the
    series truncated at orders 4, 8, 16, ... and discarding any with a
    nonzero value.

    Each candidate is a Polynomial over the system's terminals plus its
    start variable, last, as univar_polynomial makes it; a candidate
    over other symbols raises SymbolMismatch.

    Precondition (caller-guaranteed): exactly one candidate vanishes at
    r, and the candidates are pairwise coprime, as a squarefree
    certificate's factor and cofactor are.  The doubling then stops once
    the order reaches the largest n_i*D_j + n_j*D_i over pairs i != j,
    n a candidate's degree in X and D the largest total degree of its
    coefficients.  For coprime P, Q with P(r) = 0, the resultant
    Res_X(P, Q) = A*P + B*Q is a nonzero terminal polynomial with
    B(r)*Q(r) = Res, so Q(r) has a nonzero term of degree at most
    deg Res <= n_P*D_Q + n_Q*D_P (the Sylvester matrix's degrees).
    Raises IterationCapExceeded when every candidate is eliminated, or
    more than one is left at that order: a violated precondition, not a
    data condition.
    """
    syms = system.terminals + (system.variables[0],)
    coeffs = []
    for candidate in candidates:
        if candidate.syms != syms:
            raise SymbolMismatch(f"candidate over {candidate.syms}, system over {syms}")
        coeffs.append(coefficients_in_last(candidate))
    if len(candidates) == 1:
        return 0
    shapes = [(len(c) - 1, max((p.total_degree() for p in c), default=-1)) for c in coeffs]
    cap = max(ni * dj + nj * di for i, (ni, di) in enumerate(shapes)
              for j, (nj, dj) in enumerate(shapes) if i != j)
    alive = set(range(len(candidates)))
    order = 4
    while True:
        r1 = approximate(system, order)[0]
        for i in sorted(alive):
            value = eval_poly_at_series(coeffs[i], r1, order)
            if value.coeffs:
                alive.discard(i)
        if len(alive) == 1:
            return alive.pop()
        if not alive:
            raise IterationCapExceeded(
                f"every candidate factor was eliminated at order {order}"
            )
        if order >= cap:
            raise IterationCapExceeded(
                f"factor discrimination still ambiguous at order {order}, "
                f"past the degree bound {cap}"
            )
        order *= 2


def decide_parikh(g):
    """Decide the Parikh property of a rational-weighted cycle-free
    grammar; returns a DecisionReport either way.

    Linear certificate polynomial: verdict holds, with a one-variable
    witness grammar whose series equals the input's.  Degree two or
    more: first modular.no_root tries to prove that the certificate has
    no linear factor at all, from an image modulo a small prime with no
    root; that proves fails at order 0.  Otherwise one reconstruction of
    the series decides (_linear_factor): a ratio that divides the
    certificate symbolically and survives discrimination proves holds;
    anything else proves that no linear annihilator exists: fails.

    Past the squarefree step the certificate, each candidate c*X - d
    and each cofactor are one Polynomial over the terminals plus X,
    last (univar_polynomial).  The witness reads c and d off the
    winning factor, and q is that factor as a SystemPolynomial once
    more, cleared by clear_denominators.
    """
    if g.semiring.keyword != "Q":
        raise WrongSemiring(
            f"the decision procedure needs semiring Q, got {g.semiring.name}"
        )
    ok, cycle = is_cycle_free(g)
    if not ok:
        raise NotCycleFree(cycle.variables)

    system = algebraic_system(g)
    basis_g = eliminate_to_univariate(system)
    certificate = clear_denominators(univar_gcd_squarefree(basis_g))
    poly = univar_polynomial(certificate)

    if certificate.degree_in(g.start) == 1:
        linear, order, reason = poly, 0, "linear certificate"
    elif (proof := no_root(poly.terms)) is not None:
        linear, order, reason = None, 0, proof
    else:
        linear, order, reason = _linear_factor(poly, system)
    q, witness = certificate, None
    if linear is not None:
        minus_d, c = coefficients_in_last(linear)
        q = clear_denominators(univar_from_polynomial(certificate, linear))
        witness = grammar_from_linear(c, -minus_d, g.terminals, g.start)
    return DecisionReport(
        verdict="fails" if linear is None else "holds",
        q=q,
        witness=witness,
        basis_g=basis_g,
        discrimination_order=order,
        reason=reason,
    )


def _linear_factor(poly, system):
    """(c*X - d, order, reason): a linear factor of the certificate poly,
    a Polynomial with X last, whose root is the start series, or None
    when there is none; reason names what certified the verdict.

    One reconstruction decides, at order 2D + 1, D the largest degree
    among the certificate's coefficients in X.  If the series is d0/c0,
    Gauss's lemma bounds the degrees of c0 and d0 by D, so the first
    candidate is a multiple of (c0, d0) (rational_reconstruct)."""
    D = max(c.total_degree() for c in coefficients_in_last(poly))
    order = 2 * D + 1
    pair = rational_reconstruct(approximate(system, order)[0], D, order)
    if pair is None:
        return None, order, f"empty space by exact nullspace at order {order}"
    c, d = pair
    # by Gauss's lemma, the primitive c*X - d divides in Q[Sigma][X]
    # exactly when c*X - d divides over Q(Sigma)
    g = poly_gcd(c, d)
    primitive = _linear(poly.syms, poly_divexact(c, g), poly_divexact(d, g))
    try:
        cofactor = poly_divexact(poly, primitive)
    except NotDivisible:
        return None, order, f"no linear factor at order {order}"
    factor = _linear(poly.syms, c, d)
    if discriminate_factor([factor, cofactor], system) != 0:
        return None, order, f"no linear factor at order {order}"
    return factor, order, f"reconstructed factor at order {order}"


def _linear(syms, c, d):
    """c*X - d as a Polynomial over syms, with X the last symbol and c,
    d over the others."""
    terms = {m + (1,): v for m, v in c.terms.items()}
    terms.update((m + (0,), -v) for m, v in d.terms.items())
    return Polynomial(syms, terms, _clean=False)


def render_report(report):
    """Canonical multi-line rendering of a DecisionReport; the witness
    grammar document is indented beneath its heading."""
    lines = [
        f"verdict: {report.verdict}",
        f"q: {render_system_polynomial(report.q)}",
        f"basis_g: {render_system_polynomial(report.basis_g)}",
        f"discrimination_order: {report.discrimination_order}",
    ]
    if report.witness is not None:
        lines.append("witness:")
        for line in render_grammar(report.witness).splitlines():
            lines.append(f"  {line}")
    return "\n".join(lines)
