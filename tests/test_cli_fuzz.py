"""Exit codes under generated requests: every request that is not a selftest
exits 0 or 2, prints exactly one JSON document on stdout and nothing on
stderr, whatever its command line or ``--json`` payload holds."""

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from kleintrace import cli

COMMANDS = sorted(name for name in cli._COMMANDS if name != "selftest")
NAMES = sorted({f for _, flags in cli._COMMANDS.values() for f in flags} - {"seed"})
UNKNOWN = ["bogus", "json", "", "P ", "n=1", "seed"]

# values each flag accepts; sizes stay small, so an accepted request
# answers in well under a second
GOOD = {
    "P": ["x", "x(x-1)", "x(x-2)", "(x-1/2)^2(x+1/2)", "x^2(x-3)", "(x-i)(x-1-i)",
          "(x+1/2)^2(x-3/2)^2", "x^2(x-1)^2"],
    "t": ["2", "-1", "1/2", "i", "1", "1/2+1/3i", "3", "-1/3"],
    "Q": ["1", "-1,-1", "0", "", "1,2", "[1, 2]", '["1/2", "i"]', "[]"],
    "n": ["0", "1", "3", "6"],
    "nmax": ["1", "3", "5"],
    "order": ["0", "2", "5"],
    "a": ["0", "1", "1/2", "i", "-1"],
    "C": ["1", "2", "1/2"],
    "lambda": ["1", "1/3", "0"],
    "kind": ["string", "jordan"],
    "j": ["1", "2"],
    "blocks": ["1", "2"],
    "k": ["1", "2"],
    "mode": ["both", "two-root", "pole-order"],
    "samples": ["[[2.5, 0.3]]", "[[3, 1], [4, 0.5]]"],
}
assert set(GOOD) == set(NAMES)

# texts wrong for most flags or at the edge of one: huge exponents and
# integers, zero denominators, exponent notation, floats, booleans, deep or
# ragged nesting
BAD = st.sampled_from([
    "x^601", f"x^{10**30}", "x^" + "9" * 5000, "(x-1/0)", "(x-1e3)", "(y-1)",
    "x(x-1", "1/0", "1e5", "nan", "", "[1.5]", "[true]", "[[1]]",
    "[" * 3000 + "]" * 3000, "-5", "1001", "41", "2.5", "true", "null", "{}",
    "[[1e400, 0]]", "[[2, 0], [3]]", "1" * 5000, "x" * 50, "-", "--",
    "1" + "0" * 400,
])

# JSON values for --json params: scalars of every JSON type, and nesting
LEAVES = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, 2, 3, -1, 41, 1001, 10**40, -(10**40), 10**400])
    | st.floats(allow_nan=True, allow_infinity=True)
    | BAD
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES + UNKNOWN), inner, max_size=3),
    max_leaves=8,
)


def _rarely(draw, n: int) -> bool:
    """True now and then, at about one draw in n; the simplest draw, which
    hypothesis favours, is False."""
    return draw(st.integers(0, n - 1)) == n - 1


def _value(draw, flag, bad):
    """Mostly a value the flag accepts, else a drawn bad one."""
    return draw(bad) if _rarely(draw, 5) else draw(st.sampled_from(GOOD.get(flag, ["1"])))


def _flags(draw, subcommand):
    """Some of the subcommand's flags, its required ones usually among them,
    now and then with an unknown flag."""
    names = list(draw(st.permutations(cli._COMMANDS[subcommand][1])))
    if _rarely(draw, 6):
        names.pop()
    if _rarely(draw, 6):
        names.append(draw(st.sampled_from(NAMES + UNKNOWN)))
    return names


@st.composite
def command_lines(draw):
    """A subcommand, now and then an unknown one, then flags in both forms
    with text values, valueless and repeated flags among them."""
    subcommand = draw(st.sampled_from(COMMANDS))
    argv = [subcommand]
    if _rarely(draw, 10):
        argv[0] = draw(st.sampled_from(["", "--bogus", "-n", "selftest "]))
    for name in _flags(draw, subcommand):
        value = _value(draw, name, BAD)
        if _rarely(draw, 8):
            argv.append(f"--{name}")
        elif draw(st.booleans()):
            argv += [f"--{name}", value]
        else:
            argv.append(f"--{name}={value}")
    return argv


@st.composite
def payloads(draw):
    """(subcommand, text of a --json request): an object with params, a
    subcommand of any JSON type and unknown keys, or any other JSON value,
    or bad text."""
    subcommand = draw(st.sampled_from(COMMANDS))
    request = {"params": {n: _value(draw, n, VALUES) for n in _flags(draw, subcommand)}}
    if _rarely(draw, 4):
        request["subcommand"] = draw(
            st.sampled_from(COMMANDS)
            | st.integers()
            | st.none()
            | st.lists(BAD, max_size=2)
        )
    if _rarely(draw, 4):
        request[draw(st.sampled_from(UNKNOWN))] = draw(VALUES)
    doc = draw(VALUES) if _rarely(draw, 6) else request
    text = json.dumps(doc)
    if _rarely(draw, 6):
        text = draw(st.sampled_from([text[:-1], "[" * 100000 + text, "1" * 5000]))
    return subcommand, text


def _run(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process request."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _assert_clean(code, out, err, request):
    assert code in (0, 2), request
    assert err == "", request
    doc = json.loads(out)  # exactly one document: trailing text fails here
    assert code == 0 or set(doc) == {"error"}, request


@settings(max_examples=300)
@given(command_lines())
def test_generated_command_lines_exit_0_or_2_with_one_document(argv):
    _assert_clean(*_run(argv), argv)


@settings(max_examples=300)
@given(payloads())
def test_generated_json_requests_exit_0_or_2_with_one_document(request):
    # a payload's subcommand, never selftest here, overrides the command line's
    subcommand, text = request
    _assert_clean(*_run([subcommand, "--json=-"], text), text[:200])
