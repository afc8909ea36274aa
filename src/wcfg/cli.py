"""Command-line front end.

Subcommands:

    check       classification report: cycle-freeness, nonexpansiveness
                (with witnesses), degree, dimension bound
    series      truncated letter-count series of the start variable
    regularize  Parikh-equivalent regular grammar document
    decide      Parikh-property decision report (semiring Q only)
    equiv       compare the truncated series of two grammar documents
    groebner    reduced basis of the equation system and its univariate
                member (semiring Q only)

Exit codes: 0 success (for equiv: series equal), 1 series differ or an
internal computation gave up, 2 malformed input document, 3 grammar not
cycle-free, 4 grammar expansive, 5 wrong semiring for the subcommand,
6 equiv inputs disagree on semiring or terminal alphabet.
"""

import argparse
import sys

from .analysis import degree, dimension_bound, is_cycle_free, is_nonexpansive
from .decide import decide_parikh, render_report, univariate_element
from .errors import (
    ExpansiveGrammar,
    GrammarFormatError,
    NotCycleFree,
    WcfgError,
    WrongSemiring,
)
from .grammar import Grammar, load_grammar, render_grammar
from .groebner import groebner_basis, reduce_basis, render_system_polynomial, system_polynomials
from .monomials import grade_key, render_monomial
from .regularize import level_of, regularize
from .series import algebraic_system, grammar_series, render_series


def _bool(value):
    return "true" if value else "false"


def cmd_check(args):
    g = load_grammar(args.file)
    cf, cycle = is_cycle_free(g)
    ne, dup = is_nonexpansive(g)
    print(f"cycle_free: {_bool(cf)}")
    if cycle is not None:
        print("cycle_witness: " + " -> ".join(cycle.variables))
    print(f"nonexpansive: {_bool(ne)}")
    if dup is not None:
        rule = g.rules[dup.rule]
        body = " ".join(rule.rhs) or "eps"
        i, j = dup.positions
        print(
            f"expansive_witness: {dup.variable} duplicated by rule "
            f"{rule.lhs} -> {body} at positions {i} and {j}"
        )
    print(f"degree: {degree(g)}")
    if ne:
        print(f"dimension_bound: {dimension_bound(g)}")
    else:
        print("dimension_bound: expansive")
    return 0


def cmd_series(args):
    g = load_grammar(args.file)
    cf, cycle = is_cycle_free(g)
    if not cf:
        raise NotCycleFree(cycle.variables)
    print(render_series(grammar_series(g, args.order)))
    return 0


def cmd_regularize(args):
    g = load_grammar(args.file)
    out = regularize(g, args.k)
    k = level_of(out.start[1:-1])  # the start state <S.k.m>
    header = f"# k: {k}\n# states: {len(out.variables)}\n# rules: {len(out.rules)}\n"
    document = header + render_grammar(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
        sys.stdout.write(header)
    else:
        sys.stdout.write(document)
    return 0


def cmd_decide(args):
    g = load_grammar(args.file)
    report = decide_parikh(g)
    print(render_report(report))
    if args.emit_witness:
        if report.witness is None:
            print("no witness to emit: verdict fails", file=sys.stderr)
        else:
            with open(args.emit_witness, "w", encoding="utf-8") as handle:
                handle.write(render_grammar(report.witness))
    return 0


def cmd_equiv(args):
    ga = load_grammar(args.file_a)
    gb = load_grammar(args.file_b)
    if ga.semiring.keyword != gb.semiring.keyword:
        print(
            f"error: semiring mismatch: {ga.semiring.keyword} vs {gb.semiring.keyword}",
            file=sys.stderr,
        )
        return 6
    if set(ga.terminals) != set(gb.terminals):
        print("error: terminal alphabets differ", file=sys.stderr)
        return 6
    for g in (ga, gb):
        cf, cycle = is_cycle_free(g)
        if not cf:
            raise NotCycleFree(cycle.variables)
    # one terminal order, so that declaration order cannot hide a match
    gb = Grammar(gb.semiring, ga.terminals, gb.variables, gb.start, gb.rules)
    sa = grammar_series(ga, args.order).coeffs
    sb = grammar_series(gb, args.order).coeffs
    zero = ga.semiring.zero
    for mono in sorted(sa.keys() | sb.keys(), key=grade_key):
        va, vb = sa.get(mono, zero), sb.get(mono, zero)
        if va != vb:
            name = render_monomial(mono, ga.terminals)
            print(
                f"differ at {name}: {ga.semiring.render(va)} vs {gb.semiring.render(vb)}"
            )
            return 1
    print("equal")
    return 0


def cmd_groebner(args):
    g = load_grammar(args.file)
    if g.semiring.keyword != "Q":
        raise WrongSemiring(
            f"the basis computation needs semiring Q, got {g.semiring.name}"
        )
    system = algebraic_system(g)
    basis = reduce_basis(groebner_basis(system_polynomials(system)))
    print("basis:")
    for element in basis:
        print(render_system_polynomial(element))
    univar = univariate_element(basis, system.variables[0])
    print("g: " + render_system_polynomial(univar))
    return 0


def nonnegative(text):
    """Argument type for a nonnegative integer: a truncation order or a level."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wcfg", description="weighted context-free grammar analysis toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classification report")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("series", help="truncated letter-count series")
    p.add_argument("file")
    p.add_argument("--order", type=nonnegative, required=True, help="truncation order")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("regularize", help="Parikh-equivalent regular grammar")
    p.add_argument("file")
    p.add_argument("--k", type=nonnegative, default=None, help="annotation level override")
    p.add_argument("--out", default=None, help="write the document here instead of stdout")
    p.set_defaults(func=cmd_regularize)

    p = sub.add_parser("decide", help="decide the Parikh property (semiring Q)")
    p.add_argument("file")
    p.add_argument("--emit-witness", default=None, help="write the witness grammar here")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("equiv", help="compare truncated series of two documents")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--order", type=nonnegative, required=True, help="truncation order")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("groebner", help="reduced basis of the equation system")
    p.add_argument("file")
    p.set_defaults(func=cmd_groebner)

    return parser


PARSER = build_parser()

# first match wins, so subclasses come before WcfgError
EXIT_CODES = (
    (GrammarFormatError, 2),
    (NotCycleFree, 3),
    (ExpansiveGrammar, 4),
    (WrongSemiring, 5),
    (OSError, 2),
    (WcfgError, 1),
)


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (WcfgError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(err, kind))


if __name__ == "__main__":
    raise SystemExit(main())
