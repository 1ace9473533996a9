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

The namespace is lazy: `import ncfps` loads no submodule.  A submodule loads
on first access to it or to one of the public names it is home to (PEP 562),
so `ncfps.minimize` loads `automata` and what it imports, and a command line
call loads only the modules its subcommand runs.  NumPy loads with the first
float evaluation of `chen`, whose float engine is the private `_numeric`.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name under its home module, in the order of `__all__`
_EXPORTS = {
    "words": ("Alphabet", "word_text", "parse_word", "lyndon_words", "lyndon_factorization"),
    "rings": (
        "QQ", "QT", "QZ", "Poly", "RatFun", "RationalRing", "PolynomialRing", "RationalFunctionRing",
        "ring_named", "poly_text", "poly_gcd", "parse_ratfun_expr",
    ),
    "series": (
        "NCPolynomial", "TensorPoly", "TruncatedSeries", "shuffle_words", "stuffle_words", "deconcat",
        "unshuffle", "unstuffle", "series_text", "parse_series_text",
    ),
    "bases": (
        "BasisTable", "basis_P", "basis_S", "basis_Pi", "basis_Sigma", "basis_table", "basis_table_lines",
        "msr_check", "eulerian_pi1", "phi_pi1",
    ),
    "automata": (
        "LinearRepresentation", "rep_word", "rep_polynomial", "rep_scalar", "rep_sum", "rep_conc", "rep_star",
        "rep_shuffle", "rep_stuffle", "minimize", "equal", "kronecker_form", "lie_closure", "classify",
        "nilpotent_decompose", "sweedler_split",
    ),
    "diffring": ("independence_criterion",),
    "chen": (
        "InputFunction", "SegmentPath", "ChenEvaluation", "chen_series", "iterated_integral",
        "friedrichs_check", "primitive_log_check", "flow_compose", "PairingResult", "pair_series", "pair_ode",
        "pair_ode_derivatives", "derive_scalar_ode", "scalar_ode_text",
    ),
    "exprs": ("parse_expression", "series_of", "representation_of", "ExprSyntaxError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"linalg", "cli"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(_HOME))
