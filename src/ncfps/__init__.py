"""Noncommutative formal power series: Hopf algebra combinatorics on words,
weighted-automaton representations of rational series, and evaluation of the
corresponding iterated integrals.

The package is organized in layers.  `words` fixes the two alphabets and the
word combinatorics; `series` adds polynomials and truncated series under
concatenation, shuffle, and quasi-shuffle; `bases` builds the dual pairs of
graded bases from Lyndon words; `automata` represents rational series by
finite linear machines and decides equality, minimality, and Lie type;
`chen` connects the algebra to analysis, evaluating words as iterated
integrals and deriving the scalar linear ODE a rational pairing satisfies;
`diffring` decides whether rational inputs are independent modulo exact
derivatives; `exprs` and `cli` expose the whole stack through a small
expression language.
"""

from .words import Alphabet, word_text, parse_word, lyndon_words, lyndon_factorization
from .rings import (
    QQ,
    QT,
    QZ,
    Poly,
    RatFun,
    RationalRing,
    PolynomialRing,
    RationalFunctionRing,
    ring_named,
    poly_text,
    poly_gcd,
    parse_ratfun_expr,
)
from .series import (
    NCPolynomial,
    TensorPoly,
    TruncatedSeries,
    shuffle_words,
    stuffle_words,
    deconcat,
    unshuffle,
    unstuffle,
    series_text,
    parse_series_text,
)
from .bases import (
    BasisTable,
    basis_P,
    basis_S,
    basis_Pi,
    basis_Sigma,
    basis_table,
    basis_table_lines,
    msr_check,
    eulerian_pi1,
    phi_pi1,
)
from .automata import (
    LinearRepresentation,
    rep_word,
    rep_polynomial,
    rep_scalar,
    rep_sum,
    rep_conc,
    rep_star,
    rep_shuffle,
    rep_stuffle,
    minimize,
    equal,
    kronecker_form,
    lie_closure,
    classify,
    nilpotent_decompose,
    sweedler_split,
)
from .diffring import independence_criterion
from .exprs import parse_expression, series_of, representation_of, ExprSyntaxError

__version__ = "0.1.0"

# `chen` is the only module that needs numpy, so it loads on first use of one
# of its names (PEP 562) and the algebra and the CLI start without numpy.
_CHEN_NAMES = {
    "InputFunction",
    "SegmentPath",
    "ChenEvaluation",
    "chen_series",
    "iterated_integral",
    "friedrichs_check",
    "primitive_log_check",
    "flow_compose",
    "PairingResult",
    "pair_series",
    "pair_ode",
    "pair_ode_derivatives",
    "derive_scalar_ode",
    "scalar_ode_text",
}


def __getattr__(name):
    if name in _CHEN_NAMES:
        from . import chen

        value = getattr(chen, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Alphabet",
    "word_text",
    "parse_word",
    "lyndon_words",
    "lyndon_factorization",
    "QQ",
    "QT",
    "QZ",
    "Poly",
    "RatFun",
    "RationalRing",
    "PolynomialRing",
    "RationalFunctionRing",
    "ring_named",
    "poly_text",
    "poly_gcd",
    "parse_ratfun_expr",
    "NCPolynomial",
    "TensorPoly",
    "TruncatedSeries",
    "shuffle_words",
    "stuffle_words",
    "deconcat",
    "unshuffle",
    "unstuffle",
    "series_text",
    "parse_series_text",
    "BasisTable",
    "basis_P",
    "basis_S",
    "basis_Pi",
    "basis_Sigma",
    "basis_table",
    "basis_table_lines",
    "msr_check",
    "eulerian_pi1",
    "phi_pi1",
    "LinearRepresentation",
    "rep_word",
    "rep_polynomial",
    "rep_scalar",
    "rep_sum",
    "rep_conc",
    "rep_star",
    "rep_shuffle",
    "rep_stuffle",
    "minimize",
    "equal",
    "kronecker_form",
    "lie_closure",
    "classify",
    "nilpotent_decompose",
    "sweedler_split",
    "independence_criterion",
    "InputFunction",
    "SegmentPath",
    "ChenEvaluation",
    "chen_series",
    "iterated_integral",
    "friedrichs_check",
    "primitive_log_check",
    "flow_compose",
    "PairingResult",
    "pair_series",
    "pair_ode",
    "pair_ode_derivatives",
    "derive_scalar_ode",
    "scalar_ode_text",
    "parse_expression",
    "series_of",
    "representation_of",
    "ExprSyntaxError",
]
