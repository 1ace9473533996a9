"""Command line front end.

Every subcommand reads expressions in the grammar of :mod:`ncfps.exprs`
(sums, ``.`` concatenation, infix ``shuffle``/``stuffle``, scalar prefixes,
postfix ``*``) and writes deterministic text: the same invocation always
produces the same bytes.  Exit status 0 reports success (and, for
``check-identity``, a holding identity), 1 a failing identity, 2 any usage,
parse, or evaluation error.
"""

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path

from .automata import LinearRepresentation, classify, equal, minimize
from .bases import basis_table, basis_table_lines
from .exprs import infer_alphabet, parse_expression, to_representation, to_series
from .rings import ring_named
from .series import series_text
from .words import _LETTER_RE, Alphabet, word_text

_ALPHABET_RE = re.compile(r"x([0-9]+)\Z")


def _split_outside_parens(text):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_inputs(spec):
    """Parse ``x0=1/z,x1=1/(1-z)`` into a letter -> InputFunction map."""
    from .chen import InputFunction

    inputs = {}
    for part in _split_outside_parens(spec):
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


def _exact_number(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot read {text!r} as an exact number") from None


def _compile_series(node, ring_name, bound):
    return to_series(node, infer_alphabet(node), ring_named(ring_name), bound)


def _load_representation(args):
    if getattr(args, "rep", None):
        if args.expr is not None:
            raise ValueError("give either an expression or --rep, not both")
        return LinearRepresentation.from_json(Path(args.rep).read_text())
    if args.expr is None:
        raise ValueError("give an expression or --rep FILE")
    ring = ring_named(getattr(args, "ring", "Q"))
    node = parse_expression(args.expr)
    return to_representation(node, infer_alphabet(node), ring)


def _reduced(rep):
    return minimize(rep.embed_field())


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_expand(args):
    s = _compile_series(parse_expression(args.expr), args.ring, args.max_length)
    print(series_text(s.poly))
    return 0


_OPS = {"sum": "add", "conc": "cat", "shuffle": "shuffle", "stuffle": "stuffle"}


def _cmd_op(args):
    node = (_OPS[args.name], parse_expression(args.first), parse_expression(args.second))
    print(series_text(_compile_series(node, args.ring, args.max_length).poly))
    return 0


def _cmd_star(args):
    s = _compile_series(parse_expression(args.expr), args.ring, args.max_length)
    print(series_text(s.star().poly))
    return 0


def _cmd_bases(args):
    if args.alphabet == "y":
        alphabet = Alphabet.y()
    else:
        m = _ALPHABET_RE.match(args.alphabet)
        if not m or int(m.group(1)) < 1:
            raise ValueError(f"alphabet must be y or xN with N >= 1, not {args.alphabet!r}")
        alphabet = Alphabet.x(int(m.group(1)))
    for line in basis_table_lines(basis_table(alphabet, args.max_length)):
        print(line)
    return 0


def _cmd_minimize(args):
    print(_reduced(_load_representation(args)).to_json())
    return 0


def _cmd_classify(args):
    print(classify(_load_representation(args)))
    return 0


def _cmd_check_identity(args):
    ring = ring_named(args.ring)
    na = parse_expression(args.first)
    nb = parse_expression(args.second)
    alphabet = infer_alphabet(("add", na, nb))
    holds = equal(to_representation(na, alphabet, ring), to_representation(nb, alphabet, ring))
    print("identity holds (exact)" if holds else "identity fails (exact)")
    return 0 if holds else 1


def _cmd_chen(args):
    from .chen import chen_series

    inputs = _parse_inputs(args.inputs)
    path = (_exact_number(args.z0), _exact_number(args.z))
    ev = chen_series(inputs, path, args.max_length, args.tol)
    for w in ev.alphabet.words_up_to(args.max_length):
        text = "divergent" if w in ev.excluded else repr(ev.values[w])
        print(f"{word_text(w)}\t{text}")
    return 0


def _cmd_pair(args):
    from .chen import chen_series, pair_ode, pair_series

    rep = _reduced(_load_representation(args))
    inputs = _parse_inputs(args.inputs)
    missing = sorted(set(rep.active_letters) - set(inputs))
    if missing:
        raise ValueError(f"no input given for {', '.join(missing)}")
    path = (_exact_number(args.z0), _exact_number(args.z))
    ev = chen_series(inputs, path, args.max_length, args.tol)
    value, tail, certified = pair_series(ev, rep)
    print(f"value {value!r}")
    print(f"tail {tail!r}")
    print(f"certified {'yes' if certified else 'no'}")
    try:
        print(f"ode {pair_ode(rep, inputs, path, args.tol)!r}")
    except (ValueError, RuntimeError) as exc:
        print(f"ode unavailable: {exc}")
    return 0


def _cmd_derive_ode(args):
    from .chen import derive_scalar_ode, scalar_ode_text

    rep = _reduced(_load_representation(args))
    coeffs = derive_scalar_ode(rep, _parse_inputs(args.inputs))
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
    parser.add_argument("--seed", type=int, default=None, help="reserved; accepted for interface stability")
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
    _add_bound(p, 4, "largest grade in the table")
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
    _add_bound(p, 3, "longest word to integrate")
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
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, TypeError, KeyError, ZeroDivisionError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
