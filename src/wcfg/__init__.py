"""Weighted context-free grammar analysis over commutative semirings.

The package models grammars whose rules carry weights from a commutative
semiring, computes the letter-count (commutative-image) power series they
generate, rewrites nonexpansive grammars into regular grammars with the
same series, and — over the rationals — decides whether the series of a
grammar equals that of some regular grammar, producing either a witness
grammar or a nonlinear annihilating polynomial.
"""

from .analysis import (
    CycleWitness,
    ExpansiveWitness,
    degree,
    dimension_bound,
    is_cycle_free,
    is_nonexpansive,
)
from .decide import (
    DecisionReport,
    decide_parikh,
    discriminate_factor,
    eliminate_to_univariate,
    rational_reconstruct,
    render_report,
)
from .errors import (
    DegenerateLeadingTerm,
    EnumerationBudgetExceeded,
    ExpansiveGrammar,
    GrammarFormatError,
    IterationCapExceeded,
    KTooSmall,
    NotCycleFree,
    WcfgError,
    WrongSemiring,
)
from .grammar import load_grammar, parse_grammar, render_grammar
from .groebner import (
    SystemPolynomial,
    clear_denominators,
    groebner_basis,
    poly_reduce,
    render_system_polynomial,
    system_polynomials,
    univar_gcd_squarefree,
)
from .polynomials import Polynomial, RationalFunction
from .regularize import at_most_k_grammar, ldf_derivation, project_tree, regularize
from .series import (
    TruncatedSeries,
    algebraic_system,
    grammar_from_linear,
    grammar_series,
    render_series,
)
from .trees import (
    derivation_index,
    enumerate_trees,
    parikh_series_bruteforce,
    replay_derivation,
    tree_dimension,
    tree_weight,
    tree_yield,
    word_weight_map,
)

__all__ = [
    "CycleWitness",
    "DecisionReport",
    "DegenerateLeadingTerm",
    "EnumerationBudgetExceeded",
    "ExpansiveGrammar",
    "ExpansiveWitness",
    "GrammarFormatError",
    "IterationCapExceeded",
    "KTooSmall",
    "NotCycleFree",
    "Polynomial",
    "RationalFunction",
    "SystemPolynomial",
    "TruncatedSeries",
    "WcfgError",
    "WrongSemiring",
    "algebraic_system",
    "at_most_k_grammar",
    "clear_denominators",
    "decide_parikh",
    "degree",
    "derivation_index",
    "dimension_bound",
    "discriminate_factor",
    "eliminate_to_univariate",
    "enumerate_trees",
    "grammar_from_linear",
    "grammar_series",
    "groebner_basis",
    "is_cycle_free",
    "is_nonexpansive",
    "ldf_derivation",
    "load_grammar",
    "parikh_series_bruteforce",
    "parse_grammar",
    "poly_reduce",
    "project_tree",
    "rational_reconstruct",
    "regularize",
    "render_grammar",
    "render_report",
    "render_series",
    "render_system_polynomial",
    "replay_derivation",
    "system_polynomials",
    "tree_dimension",
    "tree_weight",
    "tree_yield",
    "univar_gcd_squarefree",
    "word_weight_map",
]
