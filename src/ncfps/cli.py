"""Command line front end.

Every subcommand reads expressions in the grammar of :mod:`ncfps.exprs`
(sums, ``.`` concatenation, infix ``shuffle``/``stuffle``, scalar prefixes,
postfix ``*``) and writes deterministic text: the same invocation always
produces the same bytes.  Exit status 0 reports success (and, for
``check-identity``, a holding identity), 1 a failing identity, 2 any usage,
parse, or evaluation error.

Each handler imports the modules it runs, so one call loads only what its
subcommand needs: `bases` alone loads `ncfps.bases`, the expansions
(`expand`, `op`, `star`) run without `ncfps.automata`, and numpy loads only
when `chen` or `pair` integrates.

`main` runs OpenBLAS on one thread: it sets ``OPENBLAS_NUM_THREADS=1``
before any handler loads numpy, unless the caller has set the variable, whose
value then wins.  The Chen kernel and the pairing split their products into
blocks of at most ``_numeric._BLOCK`` rows, which BLAS runs on the calling
thread, so the thread pool OpenBLAS would start when numpy loads only costs
time: about 65 ms of each `chen` or `pair` call.  Importing this module
changes nothing; a call of `main` in a host process leaves the variable set
there.
"""

import argparse
import os
import re
import sys
from pathlib import Path

from .rings import ring_named
from .words import _LETTER_RE, Alphabet, split_outside_parens, word_text

_ALPHABET_RE = re.compile(r"x([0-9]+)\Z")
# the most words `chen` prints, the empty one included: 2 letters up to length 19
_PRINT_WORDS = 2**20
# the most words `bases` tabulates, the empty one included: y up to grade 11, 2 letters up to length 10
_TABLE_WORDS = 2**11


def _parse_inputs(spec):
    """Parse ``x0=1/z,x1=1/(1-z)`` into a letter -> InputFunction map."""
    from .chen import InputFunction

    inputs = {}
    for _, part in split_outside_parens(spec, ","):
        part = part.strip()
        if not part:
            continue
        letter, eq, rhs = part.partition("=")
        letter = letter.strip()
        if not eq or not _LETTER_RE.match(letter):
            raise ValueError(f"input {part!r} is not of the form letter=function")
        if letter in inputs:
            raise ValueError(f"input letter {letter} is given more than once")
        inputs[letter] = InputFunction.from_text(rhs.strip())
    if not inputs:
        raise ValueError("no inputs given")
    return inputs


def _inputs_for(rep, spec):
    """The inputs of spec, which must give a control for each letter rep uses."""
    inputs = _parse_inputs(spec)
    missing = sorted(set(rep.active_letters) - set(inputs))
    if missing:
        raise ValueError(f"no input given for {', '.join(missing)}")
    return inputs


def _parse(text):
    from .exprs import parse_expression

    return parse_expression(text)


def _print_series(node, args):
    from .exprs import infer_alphabet, to_series
    from .series import series_text

    s = to_series(node, infer_alphabet(node), ring_named(args.ring), args.max_length)
    print(series_text(s.poly))
    return 0


def _load_representation(args):
    from .automata import LinearRepresentation
    from .exprs import infer_alphabet, to_representation

    if getattr(args, "rep", None):
        if args.expr is not None:
            raise ValueError("give either an expression or --rep, not both")
        return LinearRepresentation.from_json(Path(args.rep).read_text())
    if args.expr is None:
        raise ValueError("give an expression or --rep FILE")
    ring = ring_named(getattr(args, "ring", "Q"))
    node = _parse(args.expr)
    return to_representation(node, infer_alphabet(node), ring)


def _reduced(rep):
    from .automata import minimize

    return minimize(rep.embed_field())


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_expand(args):
    return _print_series(_parse(args.expr), args)


_OPS = {"sum": "add", "conc": "cat", "shuffle": "shuffle", "stuffle": "stuffle"}


def _cmd_op(args):
    return _print_series((_OPS[args.name], _parse(args.first), _parse(args.second)), args)


def _cmd_star(args):
    return _print_series(("star", _parse(args.expr)), args)


def _cmd_bases(args):
    if args.alphabet == "y":
        alphabet = Alphabet.y()
    else:
        m = _ALPHABET_RE.match(args.alphabet)
        if not m or int(m.group(1)) < 1:
            raise ValueError(f"alphabet must be y or xN with N >= 1, not {args.alphabet!r}")
        alphabet = Alphabet.x(int(m.group(1)))
    # the words of grade g number m^g over m letters, and 1, then 2^(g-1), over y
    count, grade_words = 0, 1
    for g in range(args.max_length + 1):
        count += grade_words
        if count > _TABLE_WORDS:
            raise ValueError(f"{args.alphabet} up to grade {args.max_length} gives more than {_TABLE_WORDS} words")
        grade_words *= len(alphabet.letters) if alphabet.kind == "X" else 2 if g else 1
    from .bases import basis_table, basis_table_lines

    for line in basis_table_lines(basis_table(alphabet, args.max_length)):
        print(line)
    return 0


def _cmd_minimize(args):
    print(_reduced(_load_representation(args)).to_json())
    return 0


def _cmd_classify(args):
    from .automata import classify

    print(classify(_load_representation(args)))
    return 0


def _cmd_check_identity(args):
    from .automata import equal
    from .exprs import infer_alphabet, to_representation

    ring = ring_named(args.ring)
    na = _parse(args.first)
    nb = _parse(args.second)
    alphabet = infer_alphabet(("add", na, nb))
    holds = equal(to_representation(na, alphabet, ring), to_representation(nb, alphabet, ring))
    print("identity holds (exact)" if holds else "identity fails (exact)")
    return 0 if holds else 1


def _cmd_chen(args):
    from .chen import _check_family, chen_series

    inputs = _parse_inputs(args.inputs)
    _check_family(len(inputs), args.max_length, _PRINT_WORDS)
    path = (args.z0, args.z)
    ev = chen_series(inputs, path, args.max_length, args.tol)
    values, marked = iter(ev.values.values()), ev.values.layout.marked()  # the kept rows and all words, in order
    sys.stdout.writelines(f"{word_text(w)}\t{repr(next(values)) if kept else 'divergent'}\n" for w, kept in marked)
    return 0


def _cmd_pair(args):
    from .chen import chen_series, pair_ode, pair_series

    rep = _reduced(_load_representation(args))
    inputs = _inputs_for(rep, args.inputs)
    path = (args.z0, args.z)
    ev = chen_series(inputs, path, args.max_length, args.tol)
    value, tail, certified = pair_series(ev, rep)
    print(f"value {value!r}")
    print(f"tail {tail!r}")
    print(f"certified {'yes' if certified else 'no'}")
    try:
        print(f"ode {pair_ode(rep, ev.controls, path, args.tol)!r}")
    except (ValueError, RuntimeError) as exc:
        print(f"ode unavailable: {exc}")
    return 0


def _cmd_derive_ode(args):
    from .chen import derive_scalar_ode, scalar_ode_text

    rep = _reduced(_load_representation(args))
    coeffs = derive_scalar_ode(rep, _inputs_for(rep, args.inputs))
    print(scalar_ode_text(coeffs))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_expr(sub, nargs_opt=False):
    if nargs_opt:
        sub.add_argument("expr", nargs="?", default=None, help="series expression")
        sub.add_argument("--rep", metavar="FILE", help="JSON representation file instead of an expression")
    else:
        sub.add_argument("expr", help="series expression")


def _add_ring(sub):
    sub.add_argument("--ring", default="Q", help="coefficient ring name (default Q)")


def _add_bound(sub, default, what="grade bound for the expansion"):
    sub.add_argument("--max-length", type=int, default=default, metavar="N", help=f"{what} (default {default})")


def _add_path(sub):
    sub.add_argument("--inputs", required=True, help="comma list letter=function, e.g. x0=1/z,x1=1/(1-z)")
    sub.add_argument("--z0", default="0", help="start point, an exact rational (default 0)")
    sub.add_argument("--z", default="1", help="end point, an exact rational (default 1)")
    sub.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance (default 1e-10)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncfps",
        description="Noncommutative formal power series: expansion, Hopf dual bases, "
        "weighted-automaton representations, and iterated-integral evaluation.",
    )
    cmds = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = cmds.add_parser("expand", help="expand an expression to a polynomial")
    _add_expr(p)
    _add_ring(p)
    _add_bound(p, 6)
    p.set_defaults(handler=_cmd_expand)

    p = cmds.add_parser("op", help="apply a binary product to two expressions")
    p.add_argument("name", choices=sorted(_OPS), help="which product")
    p.add_argument("first", help="left expression")
    p.add_argument("second", help="right expression")
    _add_ring(p)
    _add_bound(p, 6)
    p.set_defaults(handler=_cmd_op)

    p = cmds.add_parser("star", help="expand the Kleene star of a proper expression")
    _add_expr(p)
    _add_ring(p)
    _add_bound(p, 6)
    p.set_defaults(handler=_cmd_star)

    p = cmds.add_parser("bases", help="print the dual pair of graded bases as a table")
    p.add_argument("--alphabet", default="x2", help="xN for N ordered letters, or y (default x2)")
    _add_bound(p, 4, "largest grade in the table; more than 2^11 words with the empty one are refused (11 over y, 10 over x2)")
    p.set_defaults(handler=_cmd_bases)

    p = cmds.add_parser("minimize", help="print the minimal representation as JSON")
    _add_expr(p, nargs_opt=True)
    _add_ring(p)
    p.set_defaults(handler=_cmd_minimize)

    p = cmds.add_parser("classify", help="classify a representation's Lie algebra")
    _add_expr(p, nargs_opt=True)
    _add_ring(p)
    p.set_defaults(handler=_cmd_classify)

    p = cmds.add_parser("check-identity", help="decide whether two expressions denote the same series")
    p.add_argument("first", help="left expression")
    p.add_argument("second", help="right expression")
    _add_ring(p)
    p.set_defaults(handler=_cmd_check_identity)

    p = cmds.add_parser("chen", help="evaluate iterated integrals of all short words")
    _add_bound(p, 3, "longest word to integrate; more than 2^20 words with the empty one are refused (19 on two letters)")
    _add_path(p)
    p.set_defaults(handler=_cmd_chen)

    p = cmds.add_parser("pair", help="pair a represented series with iterated integrals")
    _add_expr(p, nargs_opt=True)
    _add_bound(p, 8, "truncation length for the pairing")
    _add_path(p)
    p.set_defaults(handler=_cmd_pair)

    p = cmds.add_parser("derive-ode", help="derive the scalar linear ODE satisfied by a pairing")
    _add_expr(p, nargs_opt=True)
    p.add_argument("--inputs", required=True, help="comma list letter=function with rational functions only")
    p.set_defaults(handler=_cmd_derive_ode)

    return parser


def main(argv=None):
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before any handler loads numpy
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, TypeError, KeyError, ZeroDivisionError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
