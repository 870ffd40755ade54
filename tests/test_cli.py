"""End-to-end command line coverage: outputs, exit codes, both formats.

Commands run in-process through main(argv) so assertions can read captured
stdout; subprocess tests run the module and the installed console script.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coheyting.cli import build_parser, main

CHAIN = "points: p0 p1\ncovers: p0<p1\n"
VEE = "points: p0 p1 p2\ncovers: p0<p1 p0<p2\n"
MODEL = (
    "points: w0 w1\n"
    "covers: w0<w1\n"
    "colors: w0:{x} w1:{}\n"
)


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.poset"
    path.write_text(CHAIN)
    return str(path)


@pytest.fixture()
def vee_file(tmp_path):
    path = tmp_path / "vee.poset"
    path.write_text(VEE)
    return str(path)


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.poset"
    path.write_text(MODEL)
    return str(path)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poset_check(capsys, chain_file, model_file):
    code, out, _ = run(capsys, "poset", "check", chain_file)
    assert code == 0
    assert "points: 2" in out
    assert "height: 1" in out
    assert "downsets: 3" in out
    code, out, _ = run(capsys, "poset", "check", model_file)
    assert code == 0
    assert out == "points: 2\nheight: 1\ndownsets: 3\ncolored: yes\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit"
)
def test_poset_check_prints_huge_counts_in_full(capsys, tmp_path):
    # 2**2200 has 663 digits, past the lowest int-to-str limit Python allows
    # (640); the default limit of 4,300 digits is passed at 14,285 points
    wide = tmp_path / "wide.poset"
    wide.write_text("points: " + " ".join(f"a{i}" for i in range(2200)) + "\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "poset", "check", str(wide))
        rcode, rout, _ = run(capsys, "--format", "records", "poset", "check", str(wide))
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and rcode == 0 and err == ""
    count = str(2 ** 2200)
    assert out.splitlines() == ["points: 2200", "height: 0", "downsets: " + count]
    assert rout.splitlines()[2] == "downsets=" + count


def test_poset_show_lists_ranks(capsys, vee_file):
    code, out, _ = run(capsys, "poset", "show", vee_file)
    assert code == 0
    assert "points: p0 p1 p2" in out
    assert "p0: rank=0 corank=1" in out
    assert "p1: rank=1 corank=0" in out


def test_alg_dimensions(capsys, vee_file):
    code, out, _ = run(capsys, "alg", "dim", vee_file)
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "alg", "codim", vee_file, "{p0}")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "alg", "dim-elt", vee_file, "{p0,p1}")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "alg", "codim", vee_file, "{}")
    assert code == 0 and out.strip() == "+inf"
    code, out, _ = run(capsys, "alg", "epsilon", vee_file, "1")
    assert code == 0 and out.strip() == "{p0}"


def test_alg_structure_reports(capsys, vee_file):
    code, out, _ = run(capsys, "alg", "irr", vee_file)
    assert code == 0
    assert "join: {p0} {p0,p1} {p0,p2}" in out
    assert "meet: {} {p0,p1} {p0,p2}" in out
    code, out, _ = run(capsys, "alg", "jsupp", vee_file, "{p0,p1,p2}")
    assert code == 0 and out.strip() == "{p0,p1} {p0,p2}"
    code, out, _ = run(capsys, "alg", "msupp", vee_file, "{}")
    assert code == 0 and out.strip() == "{}"
    code, out, _ = run(capsys, "alg", "conj", "up", vee_file, "{p0}")
    assert code == 0 and out.strip() == "{}"
    code, out, _ = run(capsys, "alg", "conj", "down", vee_file, "{}")
    assert code == 0 and out.strip() == "{p0}"


def test_alg_quotient(capsys, vee_file):
    code, out, _ = run(capsys, "alg", "quotient", vee_file, "1")
    assert code == 0
    assert "size: 4" in out
    assert "kernel: {p0}" in out
    assert "points: p1 p2" in out


def test_terms_commands(capsys):
    code, out, _ = run(capsys, "terms", "parse", "a|b&c")
    assert code == 0 and out.strip() == "a | b & c"
    code, out, _ = run(capsys, "terms", "dual", "a \\ b")
    assert code == 0 and out.strip() == "b -> a"


def test_terms_eval_with_bindings(capsys, chain_file):
    code, out, _ = run(
        capsys,
        "terms", "eval", "a \\ b", chain_file,
        "--let", "a={p0,p1}", "--let", "b={p0}",
    )
    assert code == 0 and out.strip() == "{p0,p1}"
    code, _, err = run(
        capsys, "terms", "eval", "a", chain_file, "--let", "a"
    )
    assert code == 2
    assert "binding" in err


def test_shared_parser_keeps_no_values_between_calls(capsys, chain_file):
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "terms", "eval", "x", chain_file, "--let", "x={p0}")
    assert code == 0 and out.strip() == "{p0}"
    code, out, err = run(capsys, "terms", "eval", "x", chain_file)
    assert code == 2 and out == ""
    assert err == "error: variable 'x' has no value\n"
    # every group names its subcommand dest 'sub', the alg group too
    code, _, err = run(capsys, "alg")
    assert code == 2
    assert err == "error: the following arguments are required: sub\n"


def test_kripke_force(capsys, model_file):
    code, out, _ = run(capsys, "kripke", "force", model_file, "w0", "x")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "kripke", "force", model_file, "w1", "x")
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(
        capsys, "kripke", "force", model_file, "*", "(x -> 0) -> 0"
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(
        capsys, "kripke", "force", model_file, "*", "x | (x -> 0)"
    )
    assert code == 1


def test_kripke_reduce_collapses(capsys, tmp_path):
    path = tmp_path / "blank.poset"
    path.write_text(
        "points: a b c\ncovers: a<b b<c\ncolors: a:{} b:{} c:{}\n"
    )
    code, out, _ = run(capsys, "kripke", "reduce", str(path))
    assert code == 0
    assert "points: a" in out
    assert "b: a" in out
    assert "c: a" in out


def test_kripke_universal_and_models(capsys):
    code, out, _ = run(capsys, "kripke", "universal", "1", "2")
    assert code == 0
    assert "census: 2 2" in out
    assert "points: 4" in out
    code, out, _ = run(capsys, "kripke", "models", "1", "2")
    assert code == 0
    assert "models: 7" in out
    code, out, _ = run(capsys, "kripke", "models", "1", "2", "--max-points", "1")
    assert code == 0
    assert "models: 2" in out
    code, out, _ = run(capsys, "kripke", "universal", "1", "2", "--show")
    assert code == 0
    assert out == (
        "census: 2 2\n"
        "points: 4\n"
        "points: u0 u1 u2 u3\n"
        "covers: u0<u3 u1<u2 u1<u3\n"
        "colors: u0:{} u1:{x1} u2:{} u3:{}\n"
    )
    models = (
        "points: u0\ncolors: u0:{}\n\n"
        "points: u1\ncolors: u1:{x1}\n\n"
        "points: u0 u1\ncolors: u0:{} u1:{x1}\n\n"
    )
    code, out, _ = run(capsys, "kripke", "models", "1", "1", "--show")
    assert code == 0 and out == models + "models: 3\n"
    code, out, _ = run(
        capsys, "--format", "records", "kripke", "models", "1", "1", "--show"
    )
    assert code == 0 and out == models + "models=3\n"


def test_free_commands(capsys):
    code, out, _ = run(capsys, "free", "size", "1", "2")
    assert code == 0 and out.strip() == "8"
    code, out, _ = run(capsys, "free", "epsilon", "1", "2", "1")
    assert code == 0 and out.strip() == "{u2,u3}"
    code, out, _ = run(capsys, "free", "project", "1", "2")
    assert code == 0
    assert "from: 8" in out
    assert "to: 4" in out
    assert "generators-preserved: yes" in out
    code, _, err = run(capsys, "free", "project", "1", "0")
    assert code == 2
    assert "d >= 1" in err


def test_equiv_exit_codes(capsys):
    code, out, _ = run(capsys, "equiv", "1", "1", "x | (x -> 0)", "1")
    assert code == 0 and out.strip() == "equivalent"
    code, out, _ = run(capsys, "equiv", "1", "2", "x | (x -> 0)", "1")
    assert code == 1 and out.strip() == "distinct"
    # the depth and generator count are checked before the variables
    code, out, err = run(capsys, "equiv", "-1", "1", "1", "1")
    assert code == 2 and out == ""
    assert err == "error: need n >= 0 and d >= 0\n"


def test_tower_commands(capsys):
    code, out, _ = run(capsys, "tower", "census", "1", "2")
    assert code == 0 and out.strip() == "1 4 8"
    code, out, _ = run(capsys, "tower", "lift", "1", "2", "x1")
    assert code == 0
    assert "level0: {}" in out
    assert "level1: {u0}" in out
    assert "level2: {u0,u2,u3}" in out
    code, out, _ = run(capsys, "tower", "limit", "1", "2", "0", "x1", "x1")
    assert code == 0
    assert "level2: {u0,u2,u3}" in out
    code, _, err = run(capsys, "tower", "limit", "1", "2", "1", "0")
    assert code == 1
    assert "no limit" in err


def test_fmp_search(capsys):
    code, out, _ = run(capsys, "fmp-search", "x & (1 \\ x) != 0")
    assert code == 0
    assert "points:" in out
    code, out, _ = run(capsys, "fmp-search", "x \\ x != 0")
    assert code == 1
    assert "no witness up to 5 points" in out
    # the assignment cap is per poset: the 1-point poset uses up both of
    # its tries and the 2-point chain still gets two of its own
    formula = "x != 0 && 1 \\ x != 0"
    code, out, _ = run(capsys, "fmp-search", formula, "--max-assignments", "2")
    assert code == 0
    assert "covers: p0<p1" in out and "assignment: x={p0}" in out
    code, out, _ = run(capsys, "fmp-search", formula, "--max-assignments", "1")
    assert code == 1
    # 8 points is past the enumeration cap (exit 3): only fmp_search's own
    # check, made before it enumerates, gives exit 2 there
    for extra in ((), ("--max-points", "8")):
        code, out, err = run(capsys, "fmp-search", "x -> y = 0", *extra)
        assert code == 2 and out == ""
        assert err == "error: implication cannot be evaluated here\n"


def test_verify_list_and_run(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    assert len(out.strip().splitlines()) == 20
    code, out, _ = run(
        capsys, "verify", "s2-identities", "--budget", "15", "--max-points", "4"
    )
    assert code == 0
    assert "s2-identities: ok" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "nope"],
        ["verify", "--max-points", "0", "s2-identities"],
        ["verify", "--budget", "-5", "s2-identities"],
        ["fmp-search", "x != 0", "--max-points", "0"],
        ["fmp-search", "x != 0", "--max-assignments", "-1"],
        ["--max-nodes", "0", "free", "size", "1", "2"],
        ["--max-nodes", "-5", "free", "size", "1", "2"],
        ["kripke", "models", "1", "1", "--max-points", "0"],
        ["kripke", "models", "1", "1", "--max-points", "-2"],
        ["tower", "census", "1", "-3"],
        # a term source that starts with '-' reaches the term parser
        ["terms", "parse", "->"],
        ["terms", "dual", "-x"],
        ["kripke", "force", "model.poset", "*", "-x"],
        ["equiv", "1", "1", "->", "x"],
        ["tower", "lift", "1", "1", "-x"],
        ["fmp-search", "->"],
        # argparse's own errors
        ["terms", "parse", "--bogus", "x"],
        ["-v"],
        ["terms", "parse"],
        ["kripke"],
        ["free", "size", "one", "2"],
    ],
)
def test_verify_bad_input_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_export_dot(capsys, model_file):
    code, out, _ = run(capsys, "export", "dot", model_file)
    assert code == 0
    assert out.startswith("digraph {")
    assert '"w0" -> "w1";' in out
    assert 'label="w0:{x}"' in out


def test_records_format(capsys, vee_file):
    code, out, _ = run(capsys, "--format", "records", "alg", "dim", vee_file)
    assert code == 0 and out.strip() == "dim=1"
    code, out, _ = run(capsys, "--format", "records", "free", "size", "1", "1")
    assert code == 0 and out.strip() == "size=4"


def test_input_errors_exit_two(capsys, tmp_path, vee_file):
    code, _, err = run(capsys, "poset", "check", str(tmp_path / "missing.poset"))
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.poset"
    bad.write_text("points: a\ncovers: a<b\n")
    code, _, err = run(capsys, "poset", "check", str(bad))
    assert code == 2
    code, _, err = run(capsys, "terms", "parse", "a ?")
    assert code == 2
    code, _, err = run(capsys, "alg", "codim", vee_file, "{zz}")
    assert code == 2
    assert "unknown point" in err
    # color variables obey the point-name rule
    for argv, name in ((("export", "dot"), 'a"b'), (("kripke", "reduce"), "a{b")):
        bad.write_text(f"points: w0\ncolors: w0:{{{name}}}\n")
        code, out, err = run(capsys, *argv, str(bad))
        assert code == 2 and out == ""
        assert err.strip().splitlines() == [
            f"error: color variable name {name!r} contains one of , {{ }} < : \" \\"
        ]


def test_size_cap_exit_three(capsys):
    code, _, err = run(capsys, "--max-nodes", "8", "kripke", "universal", "2", "2")
    assert code == 3
    assert "cap exceeded" in err
    # the 2**n points of layer 1 count toward the cap
    code, out, err = run(capsys, "--max-nodes", "3", "kripke", "universal", "2", "1")
    assert code == 3 and out == ""
    assert err == "cap exceeded: universal frame exceeds 3 nodes\n"
    code, out, _ = run(capsys, "--max-nodes", "4", "kripke", "universal", "2", "1")
    assert code == 0 and "census: 4" in out
    # at d = 0 the n variable names count toward it
    code, out, err = run(capsys, "free", "size", "20001", "0")
    assert code == 3 and out == ""
    assert err == (
        "cap exceeded: universal frame names 20001 variables,"
        " over the 20000-node cap\n"
    )
    code, out, _ = run(capsys, "--max-nodes", "20001", "free", "size", "20001", "0")
    assert code == 0 and out == "1\n"


FRAME_COMMANDS = [
    "free size 2 1",
    "free epsilon 2 1 0",
    "free project 2 1",
    "equiv 2 1 x1 x1",
    "kripke models 2 1",
    "tower census 2 1",
    "tower lift 2 1 x1",
    "tower limit 2 1 x1 x1",
]


@pytest.mark.parametrize("command", FRAME_COMMANDS)
def test_max_nodes_reaches_every_frame_command(capsys, command):
    # layer 1 of the (2, 1) frame holds 4 nodes
    code, out, err = run(capsys, "--max-nodes", "3", *command.split())
    assert code == 3 and out == ""
    assert err == "cap exceeded: universal frame exceeds 3 nodes\n"
    code, out, err = run(capsys, *command.split())
    assert code == 0 and out and err == ""


def test_console_script_roundtrip():
    exe = shutil.which("coheyting")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "free", "size", "1", "2"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"


def test_console_script_entry_point_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["coheyting"]
    assert target == "coheyting.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


S2_LAW = (
    "(((x | y) \\ z) \\ ((x \\ z) | (y \\ z)))"
    " | (((x \\ z) | (y \\ z)) \\ ((x | y) \\ z)) != 0"
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["free", "size", "1", "2"], 0),
        (["equiv", "1", "1", "x1", "0"], 1),
        (["verify", "nope"], 2),
        (["--max-nodes", "8", "kripke", "universal", "2", "2"], 3),
        (["fmp-search", "x != 0", "--max-points", "0"], 2),
        (["fmp-search", "x != 0", "--max-assignments", "-1"], 2),
        (["--max-nodes", "0", "free", "size", "1", "2"], 2),
        (["--max-nodes", "-5", "free", "size", "1", "2"], 2),
        (["poset", "check", "{tmp}"], 2),
        (["poset", "check", "{tmp}/binary.poset"], 2),
        (["poset", "check", "x" * 300 + ".poset"], 2),
        (["poset", "check", "{tmp}/chain.poset"], 0),
        (["terms", "parse", "->"], 2),
        (["kripke", "force", "{tmp}/binary.poset", "*", "-x"], 2),
        (["terms", "parse", "--bogus", "x"], 2),
        (["-v"], 2),
        (["terms", "parse"], 2),
        (["-h"], 0),
        # a negated s2 law: every assignment on every poset of <= 5 points
        (["fmp-search", S2_LAW, "--max-points", "5", "--max-assignments", str(10**12)], 1),
        # point names holding the text formats' own syntax
        (["alg", "irr", "{tmp}/comma.poset"], 2),
        (["export", "dot", "{tmp}/quote.poset"], 2),
        # d = 0 names n variables; the cap stops it before any is made
        (["kripke", "universal", "10000000", "0"], 3),
    ],
)
def test_module_exit_codes_out_of_process(argv, expected, tmp_path):
    # {tmp} is a directory holding a file that is not UTF-8 text, two
    # posets with bad point names and a 2,000-point chain, deeper than the
    # default recursion limit
    (tmp_path / "binary.poset").write_bytes(b"\x80\xff\x00points")
    (tmp_path / "comma.poset").write_text("points: a,b c\n")
    (tmp_path / "quote.poset").write_text('points: a"b\n')
    n = 2000
    (tmp_path / "chain.poset").write_text(
        "points: " + " ".join(f"p{i}" for i in range(n)) + "\ncovers: "
        + " ".join(f"p{i}<p{i + 1}" for i in range(n - 1)) + "\n"
    )
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-m", "coheyting.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 2:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    if argv[-1].endswith("chain.poset"):
        assert "downsets: 2001" in proc.stdout.splitlines()


FUZZ_TOKENS = ("a", "b", "0", "1", "|", "&", "\\", "->", "(", ")", "=", "!=", "&&")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "chain.poset").write_text(CHAIN)
    (root / "model.poset").write_text(
        "points: w0 w1\ncovers: w0<w1\ncolors: w0:{a,b} w1:{a}\n"
    )
    return str(root / "chain.poset"), str(root / "model.poset")


@settings(max_examples=40, deadline=None)
@given(
    toks=st.lists(st.sampled_from(FUZZ_TOKENS), max_size=8),
    depth=st.one_of(st.just(0), st.integers(0, 3000)),
)
def test_cli_fuzz_exit_codes(fuzz_files, toks, depth):
    # '--' keeps a source such as '->' from reading as an option
    chain, model = fuzz_files
    src = "(" * depth + " ".join(toks) + ")" * depth
    for argv in [
        ["terms", "parse", "--", src],
        ["terms", "dual", "--", src],
        ["terms", "eval", "--let", "a={p0}", "--let", "b={p0,p1}", "--", src, chain],
        ["kripke", "force", "--", model, "*", src],
        ["equiv", "1", "1", "--", src, "1"],
        ["fmp-search", "--max-points", "2", "--max-assignments", "50", "--", src],
    ]:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv[:2]


LEAVES = [
    "poset check", "poset show",
    "alg dim", "alg codim", "alg dim-elt", "alg epsilon", "alg irr",
    "alg jsupp", "alg msupp", "alg quotient", "alg conj",
    "terms parse", "terms dual", "terms eval",
    "kripke force", "kripke reduce", "kripke universal", "kripke models",
    "free size", "free epsilon", "free project",
    "equiv",
    "tower census", "tower lift", "tower limit",
    "fmp-search", "verify", "export dot",
]


def command_tree(parser, path=()):
    """Every parser's actions, defaults and subcommand help lines, keyed by
    command path.  Leaf ``op`` defaults are left out, and the ``alg``
    group's subcommand dest reads ``sub`` under either of its names
    (``op2`` before the command table): neither is part of the command
    line a user types."""
    tree = {}
    actions = []
    for action in parser._actions:
        record = {
            "class": type(action).__name__,
            "dest": "sub" if action.dest == "op2" else action.dest,
            "options": action.option_strings,
            "nargs": action.nargs,
            "type": getattr(action.type, "__name__", action.type),
            "default": action.default,
            "choices": list(action.choices) if action.choices else None,
            "help": action.help,
            "required": action.required,
        }
        if isinstance(action, argparse._SubParsersAction):
            record["helps"] = {a.dest: a.help for a in action._choices_actions}
            for name, child in action.choices.items():
                tree.update(command_tree(child, path + (name,)))
        actions.append(record)
    defaults = {k: getattr(v, "__name__", v) for k, v in parser._defaults.items()}
    defaults.pop("op", None)
    tree[" ".join(path)] = {"actions": actions, "defaults": defaults}
    return tree


def test_command_tree_pinned():
    # sha256 prefix of the tree as the hand-written parser built it, before
    # the command table; the structure, not the rendered --help text, which
    # varies with the Python version and COLUMNS
    tree = command_tree(build_parser())
    leaves = [path for path, node in tree.items() if "func" in node["defaults"]]
    assert sorted(leaves) == sorted(LEAVES)
    text = json.dumps(tree, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest().startswith("6adec1b804d19bc6")


@pytest.mark.parametrize("path", LEAVES)
def test_every_leaf_has_help(capsys, path):
    code, out, err = run(capsys, *path.split(), "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: coheyting " + path)
