"""Seeded random grammar generation for the crosscheck suites.

Structures (variables, terminals, rule shapes) are drawn first and
instantiated with nonzero weights per semiring, so the same shape can
be exercised over the rationals, the naturals, and the tropical
semiring.  Rejection sampling keeps only cycle-free nonexpansive
structures whose every variable has at least one rule.
"""

import random
from fractions import Fraction

from wcfg.grammar import Grammar, Rule
from wcfg.semirings import NATURALS, RATIONALS, TROPICAL
from wcfg import is_cycle_free, is_nonexpansive, parse_grammar


def _random_structure(rng):
    n_vars = rng.randint(1, 4)
    n_terms = rng.randint(1, 3)
    variables = tuple(f"V{i}" for i in range(1, n_vars + 1))
    terminals = tuple("abc"[:n_terms])
    shapes = []
    # a terminal-only base rule per variable keeps most samples productive
    for v in variables:
        base = tuple(rng.choices(terminals, k=rng.randint(0, 2)))
        shapes.append((v, base))
    n_rules = rng.randint(len(variables), 8)
    while len(shapes) < n_rules:
        lhs = rng.choice(variables)
        rhs = tuple(
            rng.choice(variables) if rng.random() < 0.55 else rng.choice(terminals)
            for _ in range(rng.choices([1, 2, 3], weights=[2, 4, 3])[0])
        )
        shapes.append((lhs, rhs))
    deduped = []
    seen = set()
    for shape in shapes:
        if shape not in seen:
            seen.add(shape)
            deduped.append(shape)
    return variables, terminals, deduped


def _weight(rng, semiring):
    if semiring is RATIONALS:
        return Fraction(rng.choice([-2, -1, 1, 1, 2, 3]), rng.choice([1, 1, 2]))
    if semiring is NATURALS:
        return rng.randint(1, 3)
    if semiring is TROPICAL:
        return rng.randint(0, 4)
    raise ValueError(semiring)


def _instantiate(rng, structure, semiring):
    variables, terminals, shapes = structure
    rules = tuple(Rule(lhs, rhs, _weight(rng, semiring)) for lhs, rhs in shapes)
    return Grammar(semiring, terminals, variables, variables[0], rules)


def random_nonexpansive_family(seed, count):
    """`count` random cycle-free nonexpansive structures, each returned
    as a dict mapping semiring keyword to an instantiated grammar."""
    rng = random.Random(seed)
    families = []
    attempts = 0
    while len(families) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("rejection sampling is not converging")
        structure = _random_structure(rng)
        try:
            probe = _instantiate(rng, structure, NATURALS)
        except Exception:
            continue
        if not is_cycle_free(probe)[0]:
            continue
        if not is_nonexpansive(probe)[0]:
            continue
        families.append(
            {
                "Q": _instantiate(rng, structure, RATIONALS),
                "N": _instantiate(rng, structure, NATURALS),
                "tropical": _instantiate(rng, structure, TROPICAL),
            }
        )
    return families


def chain_grammar(k):
    """X_i -> X_{i-1} X_{i-1} | a for i = k..1, and X0 -> a."""
    lines = ["semiring N", "terminals a",
             "variables " + " ".join(f"X{i}" for i in range(k, -1, -1)), f"start X{k}"]
    for i in range(k, 0, -1):
        lines += [f"rule X{i} -> X{i - 1} X{i - 1} : 1", f"rule X{i} -> a : 1"]
    return parse_grammar("\n".join(lines + ["rule X0 -> a : 1"]) + "\n")
