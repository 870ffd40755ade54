"""Command line interface.

Exit codes: 0 success, 1 a checked property failed or a search came up
empty, 2 bad input, 3 a size cap was hit.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .algebra import Algebra, Element
from .errors import (
    CoheytingError,
    FormatError,
    NotCauchyAtDepth,
    SizeCap,
    UnboundVariable,
)
from .kripke import (
    MAX_FRAME_NODES,
    bisim_reduce,
    d_equivalent,
    enumerate_reduced_models,
    forces,
    free_epsilon,
    free_quotient,
    globally_true,
    make_model,
    projection,
    universal_frame,
)
from .metric import cauchy_limit, make_tower, precompactness_census
from .posets import parse_point_list, parse_poset_text, poset_to_text
from .search import fmp_search
from .suites import SuiteContext, run_suites, suite_names
from .terms import dualize, eval_term, parse_formula, parse_term, print_term


def _max_nodes(args) -> int:
    return MAX_FRAME_NODES if args.max_nodes is None else args.max_nodes


def _text(value) -> str:
    """``str(value)`` with every int in full, past the interpreter's limit
    on int-to-str conversion (4,300 digits by default)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(args, key: str, value) -> None:
    if args.format == "records":
        print(f"{key}={_text(value)}")
    else:
        print(_text(value))


def _emit_pair(args, key: str, value) -> None:
    if args.format == "records":
        print(f"{key}={_text(value)}")
    else:
        print(f"{key}: {_text(value)}")


def _load_poset(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise FormatError(f"cannot read {path}: not UTF-8 text") from None
    return parse_poset_text(text)


def _load_algebra(path: str) -> Algebra:
    poset, _ = _load_poset(path)
    return Algebra(poset)


def _element(algebra: Algebra, literal: str) -> Element:
    return algebra.element(parse_point_list(literal, algebra.spec))


def _model_from_file(path: str, extra_vars=()):
    frame, colors = _load_poset(path)
    mentioned: set[str] = set()
    if colors:
        for vs in colors.values():
            mentioned |= set(vs)
    mentioned |= set(extra_vars)
    vars = tuple(sorted(mentioned))
    return make_model(frame, vars, colors or {})


# ---------------------------------------------------------------------------
# poset


def cmd_poset_check(args) -> int:
    poset, colors = _load_poset(args.file)
    _emit_pair(args, "points", poset.n)
    _emit_pair(args, "height", poset.height())
    _emit_pair(args, "downsets", poset.count_downsets())
    if colors is not None:
        _emit_pair(args, "colored", "yes")
    return 0


def cmd_poset_show(args) -> int:
    poset, colors = _load_poset(args.file)
    print(poset_to_text(poset, colors), end="")
    for p in range(poset.n):
        _emit_pair(
            args,
            poset.names[p],
            f"rank={poset.ranks[p]} corank={poset.coranks[p]}",
        )
    return 0


# ---------------------------------------------------------------------------
# alg


def cmd_alg(args) -> int:
    algebra = _load_algebra(args.file)
    op = args.op
    if op == "dim":
        _emit(args, "dim", algebra.dim_algebra())
    elif op == "codim":
        _emit(args, "codim", algebra.codim(_element(algebra, args.element)))
    elif op == "dim-elt":
        _emit(args, "dim", algebra.dim_elt(_element(algebra, args.element)))
    elif op == "epsilon":
        _emit(args, "epsilon", algebra.epsilon(args.d))
    elif op == "irr":
        _emit_pair(args, "join", " ".join(str(x) for x in algebra.join_irreducibles()))
        _emit_pair(args, "meet", " ".join(str(x) for x in algebra.meet_irreducibles()))
    elif op == "jsupp":
        elem = _element(algebra, args.element)
        _emit(args, "jsupp", " ".join(str(x) for x in algebra.jsupp(elem)))
    elif op == "msupp":
        elem = _element(algebra, args.element)
        _emit(args, "msupp", " ".join(str(x) for x in algebra.msupp(elem)))
    elif op == "quotient":
        quotient, proj = algebra.quotient_by(algebra.epsilon(args.d))
        _emit_pair(args, "size", quotient.size())
        _emit_pair(args, "kernel", algebra.epsilon(args.d))
        print(poset_to_text(quotient.spec), end="")
    else:
        raise AssertionError(op)
    return 0


def cmd_alg_conj(args) -> int:
    algebra = _load_algebra(args.file)
    elem = _element(algebra, args.element)
    if args.direction == "up":
        _emit(args, "conj", algebra.conj_up(elem))
    else:
        _emit(args, "conj", algebra.conj_down(elem))
    return 0


# ---------------------------------------------------------------------------
# terms


def cmd_terms_parse(args) -> int:
    _emit(args, "term", print_term(parse_term(args.term)))
    return 0


def cmd_terms_dual(args) -> int:
    _emit(args, "dual", print_term(dualize(parse_term(args.term))))
    return 0


def cmd_terms_eval(args) -> int:
    algebra = _load_algebra(args.file)
    term = parse_term(args.term)
    env = {}
    for binding in args.let or []:
        if "=" not in binding:
            raise FormatError(f"bad binding {binding!r}; use name={{p,q}}")
        name, literal = binding.split("=", 1)
        env[name] = _element(algebra, literal)
    _emit(args, "value", eval_term(term, algebra, env))
    return 0


# ---------------------------------------------------------------------------
# kripke


def cmd_kripke_force(args) -> int:
    term = parse_term(args.term)
    model = _model_from_file(args.file, term.variables())
    if args.point == "*":
        verdict = globally_true(model, term)
    else:
        verdict = forces(model, args.point, term)
    _emit(args, "forces", "true" if verdict else "false")
    return 0 if verdict else 1


def cmd_kripke_reduce(args) -> int:
    model = _model_from_file(args.file)
    reduced, to_class = bisim_reduce(model)
    print(reduced.to_text(), end="")
    for p, cls in enumerate(to_class):
        _emit_pair(args, model.frame.names[p], reduced.frame.names[cls])
    return 0


def cmd_kripke_universal(args) -> int:
    uf = universal_frame(args.n, args.d, _max_nodes(args))
    _emit_pair(args, "census", " ".join(str(c) for c in uf.census))
    _emit_pair(args, "points", uf.model.frame.n)
    if args.show:
        print(uf.model.to_text(), end="")
    return 0


def cmd_kripke_models(args) -> int:
    if args.max_points is not None and args.max_points < 1:
        raise FormatError("--max-points must be at least 1")
    count = 0
    models = enumerate_reduced_models(args.n, args.d, args.max_points, _max_nodes(args))
    for model in models:
        count += 1
        if args.show:
            print(model.to_text())
    _emit_pair(args, "models", count)
    return 0


# ---------------------------------------------------------------------------
# free


def cmd_free_size(args) -> int:
    fq = free_quotient(args.n, args.d, _max_nodes(args))
    _emit(args, "size", fq.algebra.size())
    return 0


def cmd_free_epsilon(args) -> int:
    _emit(args, "epsilon", free_epsilon(args.n, args.d, args.e, _max_nodes(args)))
    return 0


def cmd_free_project(args) -> int:
    if args.d < 1:
        raise FormatError("projection needs d >= 1")
    phi = projection(args.n, args.d - 1, _max_nodes(args))
    lower = free_quotient(args.n, args.d - 1, _max_nodes(args))
    upper = free_quotient(args.n, args.d, _max_nodes(args))
    _emit_pair(args, "from", upper.algebra.size())
    _emit_pair(args, "to", lower.algebra.size())
    ok = all(
        phi.apply(g_hi) == g_lo for g_hi, g_lo in zip(upper.gens, lower.gens)
    )
    _emit_pair(args, "generators-preserved", "yes" if ok else "no")
    return 0 if ok else 1


def cmd_equiv(args) -> int:
    same = d_equivalent(
        parse_term(args.term1), parse_term(args.term2), args.n, args.d, _max_nodes(args)
    )
    _emit(args, "equivalent", "equivalent" if same else "distinct")
    return 0 if same else 1


# ---------------------------------------------------------------------------
# tower


def _lift_of_term(args, tower, text: str):
    # the top level of a free tower is the cached free quotient, so its
    # generators bind the variables x1..xn
    fq = free_quotient(args.n, args.depth, _max_nodes(args))
    term = parse_term(text)
    gens = {f"x{i + 1}": g for i, g in enumerate(fq.gens)}
    env = {}
    for nm in sorted(term.variables()):
        if nm not in gens:
            raise UnboundVariable(f"no generator named {nm!r} for n={args.n}")
        env[nm] = gens[nm]
    return tower.lift(eval_term(term, fq.algebra, env))


def cmd_tower_census(args) -> int:
    sizes = precompactness_census(args.n, args.depth, _max_nodes(args))
    _emit(args, "census", " ".join(str(s) for s in sizes))
    return 0


def cmd_tower_lift(args) -> int:
    tower = make_tower(args.n, args.depth, _max_nodes(args))
    family = _lift_of_term(args, tower, args.term)
    for d, comp in enumerate(family.components):
        _emit_pair(args, f"level{d}", comp)
    return 0


def cmd_tower_limit(args) -> int:
    tower = make_tower(args.n, args.depth, _max_nodes(args))
    families = [_lift_of_term(args, tower, t) for t in args.terms]
    try:
        limit = cauchy_limit(families)
    except NotCauchyAtDepth as exc:
        print(f"no limit: {exc}", file=sys.stderr)
        return 1
    for d, comp in enumerate(limit.components):
        _emit_pair(args, f"level{d}", comp)
    return 0


# ---------------------------------------------------------------------------
# search and verify


def cmd_fmp_search(args) -> int:
    if args.max_points < 1 or args.max_assignments < 1:
        raise FormatError("--max-points and --max-assignments must be at least 1")
    formula = parse_formula(args.formula)
    witness = fmp_search(formula, args.max_points, args.max_assignments)
    if witness is None:
        _emit(args, "witness", f"no witness up to {args.max_points} points")
        return 1
    print(witness.describe())
    return 0


def cmd_verify(args) -> int:
    if args.list:
        for name in suite_names():
            print(name)
        return 0
    if args.budget < 1 or args.max_points < 1:
        raise FormatError("--budget and --max-points must be at least 1")
    for name in args.suites:
        if name not in suite_names():
            raise FormatError(f"unknown suite {name!r}; see verify --list")
    ctx = SuiteContext(seed=args.seed, budget=args.budget, max_points=args.max_points)
    names = args.suites or None
    reports = run_suites(names, ctx)
    bad = False
    for report in reports:
        print(report.describe())
        if not report.ok:
            bad = True
    return 1 if bad else 0


def cmd_export_dot(args) -> int:
    poset, colors = _load_poset(args.file)
    lines = ["digraph {", "  rankdir=BT;"]
    for p in range(poset.n):
        label = poset.names[p]
        if colors and colors.get(label):
            label += ":{" + ",".join(sorted(colors[label])) + "}"
        lines.append(f'  "{poset.names[p]}" [label="{label}"];')
    for a, b in poset.covers:
        lines.append(f'  "{poset.names[a]}" -> "{poset.names[b]}";')
    lines.append("}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with one '-' and names no option, such as
    the term '->', as a positional, so the term parser reports it; its own
    errors are one 'error:' line on stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")

    def _parse_optional(self, arg):
        one_dash = arg[:1] == "-" and arg[1:2] != "-"
        if one_dash and arg not in self._option_string_actions:
            return None
        return super()._parse_optional(arg)


_INT = {"type": int}
_N, _D, _DEPTH = ("n", _INT), ("d", _INT), ("depth", _INT)
_ELEMENT = ("element", {"help": "element literal, e.g. {p0,p1}"})
_SHOW = ("--show", {"action": "store_true"})

# One row per leaf command: its handler and its arguments.  An argument is
# a positional name, or an (add_argument name, keywords) pair.  A group is
# made on its first row, so the rows give the order of ``--help``.
_COMMANDS = {
    "poset check": (cmd_poset_check, ["file"]),
    "poset show": (cmd_poset_show, ["file"]),
    "alg dim": (cmd_alg, ["file"]),
    "alg codim": (cmd_alg, ["file", _ELEMENT]),
    "alg dim-elt": (cmd_alg, ["file", _ELEMENT]),
    "alg epsilon": (cmd_alg, ["file", _D]),
    "alg irr": (cmd_alg, ["file"]),
    "alg jsupp": (cmd_alg, ["file", _ELEMENT]),
    "alg msupp": (cmd_alg, ["file", _ELEMENT]),
    "alg quotient": (cmd_alg, ["file", _D]),
    "alg conj": (cmd_alg_conj, [
        ("direction", {"choices": ["up", "down"]}), "file", "element",
    ]),
    "terms parse": (cmd_terms_parse, ["term"]),
    "terms dual": (cmd_terms_dual, ["term"]),
    "terms eval": (cmd_terms_eval, [
        "term", "file", ("--let", {"action": "append", "help": "binding name={p,q}"}),
    ]),
    "kripke force": (cmd_kripke_force, [
        "file", ("point", {"help": "point name, or * for all points"}), "term",
    ]),
    "kripke reduce": (cmd_kripke_reduce, ["file"]),
    "kripke universal": (cmd_kripke_universal, [_N, _D, _SHOW]),
    "kripke models": (cmd_kripke_models, [_N, _D, ("--max-points", _INT), _SHOW]),
    "free size": (cmd_free_size, [_N, _D]),
    "free epsilon": (cmd_free_epsilon, [_N, _D, ("e", _INT)]),
    "free project": (cmd_free_project, [_N, _D]),
    "equiv": (cmd_equiv, [_N, _D, "term1", "term2"]),
    "tower census": (cmd_tower_census, [_N, _DEPTH]),
    "tower lift": (cmd_tower_lift, [_N, _DEPTH, "term"]),
    "tower limit": (cmd_tower_limit, [_N, _DEPTH, ("terms", {"nargs": "+"})]),
    "fmp-search": (cmd_fmp_search, [
        "formula",
        ("--max-points", {
            "type": int, "default": 5,
            "help": "search posets of 1..N points (default 5)",
        }),
        ("--max-assignments", {
            "type": int, "default": 100000,
            "help": "variable assignments tried per poset, not in total, before "
            "the search moves on to the next poset (default 100000)",
        }),
    ]),
    "verify": (cmd_verify, [
        ("suites", {"nargs": "*"}),
        ("--list", {"action": "store_true"}),
        ("--seed", {"type": int, "default": 0}),
        ("--budget", {"type": int, "default": 300}),
        ("--max-points", {"type": int, "default": 5}),
    ]),
    "export dot": (cmd_export_dot, ["file"]),
}

_HELP = {
    "poset": "inspect poset files",
    "poset check": "validate a poset file",
    "poset show": "normalized text plus rank data",
    "alg": "downset algebra of a poset file",
    "terms": "parse, dualize and evaluate terms",
    "kripke": "models over frames",
    "free": "finite stages of free algebras",
    "equiv": "depth-bounded equivalence of terms",
    "tower": "quotient towers of free algebras",
    "fmp-search": "search small posets for a formula witness",
    "verify": "run the law-checking suites",
    "export": "export a poset file",
}


def _add_parser(group, path: str) -> argparse.ArgumentParser:
    # a command without a help line stays out of its group's listing
    keywords = {"help": _HELP[path]} if path in _HELP else {}
    return group.add_parser(path.rpartition(" ")[2], **keywords)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, built on the first call and shared by every
    later one; ``parse_args`` reads it and makes a fresh namespace."""
    parser = _Parser(
        prog="coheyting",
        description="Dimension, codimension and quotient towers of finite "
        "co-Heyting algebras presented as downsets of posets.",
    )
    parser.add_argument(
        "--format", choices=["text", "records"], default="text",
        help="output style: human text or key=value records",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=None,
        help="override the frame size cap",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, (func, arguments) in _COMMANDS.items():
        group, _, op = path.rpartition(" ")
        if group not in groups:
            parent = _add_parser(groups[""], group)
            groups[group] = parent.add_subparsers(dest="sub", required=True)
        leaf = _add_parser(groups[group], path)
        for arg in arguments:
            name, keywords = (arg, {}) if isinstance(arg, str) else arg
            leaf.add_argument(name, **keywords)
        leaf.set_defaults(func=func, op=op)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_nodes is not None and args.max_nodes < 1:
            raise FormatError("--max-nodes must be at least 1")
        return args.func(args)
    except SizeCap as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except CoheytingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
