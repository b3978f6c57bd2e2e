"""Exit-code fuzzing of the command line.

Whatever the input file holds, `surgeon front`, `check`, `invariants`,
`d3` and `expand` exit 0 or 1 and never report an internal error (exit 2),
and whatever the arguments, `main` returns 0 or 1 and raises nothing.
The commands run in-process through `cli.main`, with stdout a strict UTF-8
stream and stderr a backslash-escaping one, as in a UTF-8 terminal.
"""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgeon.cli import main

from helpers import CORPUS

DIAGRAM_TEXTS = [p.read_text() for p in sorted((CORPUS / "diagrams").glob("*.json"))]

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(argv):
    """Exit code and stderr of one in-process run."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err.flush()
    return code, err.buffer.getvalue().decode()


def assert_user_outcome(argv):
    """The exit code of one run, asserted to be 0 or 1."""
    code, err = run_cli(argv)
    assert code in (0, 1), (argv, code, err)
    assert "internal error" not in err, (argv, err)
    return code


# ---------------------------------------------------------------------------
# arguments

# Subcommands, flags and choices, good and bad, and file names: FILES
# names a copy, made afresh for each example, of a corpus file.  Half the
# argument lists start with a subcommand and a file, so that some succeed.
# Any word can end up as the output path of `expand` or `--emit-diagram`,
# so the runs start in the work directory.
FILES = {"diagram.json": CORPUS / "diagrams" / "trefoil_chain_rot2.json",
         "demo.front": CORPUS / "fronts" / "surgery_demo.front"}
COMMANDS = ["check", "invariants", "d3", "expand", "front"]
ARGV_WORDS = [*COMMANDS, "bogus", "--format", "json", "text", "xml", "--knot", "L0", "nope",
              "--emit-diagram", "--bogus", "-x", "--", "-", "", *FILES, "out.json", "missing.json"]

argv_lists = st.one_of(
    st.lists(st.sampled_from(ARGV_WORDS), max_size=7),
    st.builds(lambda command, path, rest: [command, path, *rest], st.sampled_from(COMMANDS),
              st.sampled_from(list(FILES)), st.lists(st.sampled_from(ARGV_WORDS), max_size=4)))


@FUZZ
@given(words=argv_lists)
def test_argv_exit_codes(workdir, words):
    for path in workdir.iterdir():
        path.unlink()
    for name, source in FILES.items():
        (workdir / name).write_bytes(source.read_bytes())
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert_user_outcome(words)
    finally:
        os.chdir(cwd)


# ---------------------------------------------------------------------------
# surgeon front

FRONT_WORDS = [
    "L1", "L2", "L3", "R1", "R2", "R3", "X1", "X2", "X3", "L0", "R9", "X01", "L-1",
    "L" + "9" * 5000, "R" + "1" * 40,
    "surgery", "companion", "S", "K", "T", "coeff", "+1", "-1", "+1/3", "-1/2", "3/4", "+1/0",
    "legendrian", "transverse", "positive", "negative", "reversed", "events:",
    "#", "# a comment", "junk", "\u00e9", "\u2028", "\x0b", "\r", "\r\n", "\t", " ",
    "\n", "\n",  # twice, for more multi-line documents
    "surgery S coeff -1\n", "companion K legendrian\n", "companion T transverse positive\n",
    "companion S legendrian\n",  # named like the surgery component: `check` rejects the diagram
    "events:\n", "L1 R1", "L1 L2 X1 X1 R2 R1", "L1 L3 X2 X2 X2 R1 R1",
]
FRONT_BYTES = [b"\xff", b"\xfe", b"\xc3", b"\xe2\x82", b"\x80", b"\x00"]

# Half the documents give each of one to three knots a role header, so that
# `--emit-diagram` often gets as far as assembling a diagram.
HEADER_WORDS = [w for w in FRONT_WORDS if w.startswith(("surgery ", "companion "))]
KNOT_EVENTS = ["L1 R1", "L1 X1 R1", "L1 L3 X2 X2 X2 R1 R1"]

front_texts = st.one_of(
    st.lists(st.one_of(st.sampled_from(FRONT_WORDS).map(str.encode), st.sampled_from(FRONT_BYTES),
                       st.binary(max_size=3)), max_size=40).map(b" ".join),
    st.lists(st.tuples(st.sampled_from(HEADER_WORDS), st.sampled_from(KNOT_EVENTS)), min_size=1, max_size=3)
    .map(lambda knots: ("".join(h for h, _ in knots) + "events:\n" + " ".join(e for _, e in knots)).encode()),
)


@FUZZ
@given(body=front_texts, fmt=st.sampled_from(["text", "json"]), emit=st.booleans())
def test_front_exit_codes(workdir, body, fmt, emit):
    path = workdir / "fuzz.front"
    path.write_bytes(body)
    emitted = workdir / "emitted.json"
    emitted.unlink(missing_ok=True)
    argv = ["front", str(path), "--format", fmt]
    if emit:
        argv += ["--emit-diagram", str(emitted)]
    code = assert_user_outcome(argv)
    if emit and code == 0:  # an emitted diagram is one that `check` accepts
        assert run_cli(["check", str(emitted)])[0] == 0, body


# ---------------------------------------------------------------------------
# surgeon check, invariants, d3 and expand

SCHEMA_KEYS = ["components", "linking", "knots", "name", "tb", "rot", "coeff", "kind", "lk",
               "sl", "sign"]
# Lone surrogates come from JSON escapes such as "\ud800"; they are not
# Unicode text and cannot be written to a UTF-8 stream.
SCHEMA_STRINGS = ["+1", "-1", "+1/2", "-1/1000000", "3/4", "legendrian", "transverse",
                  "positive", "negative", "K", "T", "L0", "", "\u00e9", "\ud800", "K\udcff"]

any_text = st.text(st.characters(exclude_categories=()), max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
    | st.floats() | any_text | st.sampled_from(SCHEMA_STRINGS),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | any_text, children,
                                        max_size=5)),
    max_leaves=20,
)


def _slots(node, out):
    """Every (container, key) pair in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


def _mutate(data, doc):
    slots = _slots(doc, [])
    if not slots:
        return data.draw(json_values)
    node, key = data.draw(st.sampled_from(slots))
    action = data.draw(st.sampled_from(["int", "int", "string", "value", "delete", "copy"]))
    if action == "delete":
        del node[key]
    elif action == "string":
        node[key] = data.draw(st.sampled_from(SCHEMA_STRINGS))
    elif action == "int":
        node[key] = data.draw(st.integers(-3, 3) | st.integers())
    elif action == "copy":
        other, other_key = data.draw(st.sampled_from(slots))
        node[key] = copy.deepcopy(other[other_key])
    else:
        node[key] = data.draw(json_values)
    return doc


def _diagram_commands(path, data, names=()):
    knot = data.draw(st.sampled_from([None, "nope", *names, *names]))
    fmt = data.draw(st.sampled_from(["json", "text"]))
    invariants = ["invariants", str(path), "--format", fmt] + (["--knot", knot] if knot else [])
    return [["check", str(path)], invariants, ["d3", str(path), "--format", fmt],
            ["expand", str(path), str(path.with_name("expanded.json"))]]


@FUZZ
@given(doc=json_values, data=st.data())
def test_random_json_exit_codes(workdir, doc, data):
    path = workdir / "random.json"
    path.write_text(json.dumps(doc))
    for argv in _diagram_commands(path, data):
        assert_user_outcome(argv)


@FUZZ
@given(data=st.data())
def test_mutated_corpus_exit_codes(workdir, data):
    doc = json.loads(data.draw(st.sampled_from(DIAGRAM_TEXTS)))
    names = [knot["name"] for knot in doc.get("knots", [])]
    for _ in range(data.draw(st.integers(0, 3))):
        doc = _mutate(data, doc)
    path = workdir / "mutated.json"
    path.write_text(json.dumps(doc))
    for argv in _diagram_commands(path, data, names):
        assert_user_outcome(argv)
