"""Command-line interface: subcommands, determinism, exit codes."""

import argparse
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropgroups import cli, groups
from tropgroups.groups import build_group


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


# strings with non-ASCII and control characters, quotes and backslashes
json_text = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀'))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200) | st.integers(max_value=-1) | json_text,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(json_text, inner),
    max_leaves=20,
)


@given(json_values)
@example({"é\"\\\x00\u2028": [True, False, None, -3, 2**70, (), [], {}, ("a", [{"b": [[]]}])], "": "😀\x7f"})
@settings(max_examples=150)
def test_writer_is_json_dumps_with_indent(x):
    assert cli._dumps(x) == json.dumps(x, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value,name",
    [
        (1.5, "float"),
        ({"a": [0, {"b": 0.5}]}, "float"),
        (Fraction(1, 2), "Fraction"),
        ({"a": {1, 2}}, "set"),
        ({1: 2}, "int"),
        ({"a": {(1,): 2}}, "tuple"),
        ({None: 0}, "NoneType"),
        ({1: 2, "a": 3}, "int"),  # keys of two types do not sort
    ],
)
def test_writer_rejects_what_no_report_holds(value, name):
    # json.dumps would write a float and a key of int, float, bool or None;
    # the reports hold neither, and the writer names the type
    with pytest.raises(TypeError, match=name):
        cli._dumps(value)


def test_group_info_g2(capsys):
    code, out = run(capsys, ["group-info", "G2"])
    assert code == 0
    data = json.loads(out)
    assert data["weyl_order"] == 12
    assert data["pi1"] == []
    assert data["center_rank"] == 0


def test_group_subcommands_take_the_group_by_position_only(capsys):
    # --family and --n once silently won over the positionals (Sp2's report, exit 0)
    for argv in (["group-info", "--family", "Sp", "--n", "2", "GL", "3"], ["classify", "GL", "3", "--n", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err


def test_an_unknown_option_is_reported_by_the_parser_that_met_it(capsys):
    # one before the subcommand name was once reported with the subcommand's usage line
    for argv, usage in [
        (["--foo", "group-info", "G2"], "usage: tropgroups [-h]"),
        (["--foo", "verify", "relative-weyl"], "usage: tropgroups [-h]"),
        (["verify", "--foo", "relative-weyl"], "usage: tropgroups verify [-h] suite ..."),
        (["verify", "relative-weyl", "--foo"], "usage: tropgroups verify relative-weyl [-h]"),
        (["group-info", "--foo", "G2"], "usage: tropgroups group-info [-h]"),
        (["group-info", "G2", "--foo"], "usage: tropgroups group-info [-h]"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(usage) and err.endswith("error: unrecognized arguments: --foo\n")


def test_no_option_is_hidden():
    def actions(parser):
        for action in parser._actions:
            yield action
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)

    found = list(actions(cli.build_parser()))
    assert len(found) > 40
    assert [a.dest for a in found if a.help == argparse.SUPPRESS] == []


def test_in_and_cocycle_exclude_each_other(capsys, tmp_path):
    entry = {"m": [1, 0], "alpha": ["0", "0"], "w": 0, "j": "1"}
    infile = tmp_path / "c.json"
    infile.write_text(json.dumps(entry))
    for command in ("check-stability", "iso-test"):
        # --in once won silently, judging the file alone
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "GL", "2", "--in", str(infile), "--cocycle", json.dumps({**entry, "w": 1})])
        assert exc.value.code == cli.EXIT_PARSE
        assert "not allowed with argument" in capsys.readouterr().err


def test_output_is_byte_identical(capsys):
    _, out1 = run(capsys, ["classify", "GL", "2", "--j", "1"])
    _, out2 = run(capsys, ["classify", "GL", "2", "--j", "1"])
    assert out1 == out2


# SHA-256 of the stdout of `tropgroups classify FAMILY n --j 3/2` for every
# family with |W| <= 720 and for the larger GL7, Sp5, SO_odd5 and SO_even5, as
# first recorded; the JSON must stay byte-identical
CLASSIFY_GOLDEN = [
    ("GL", 3, "3fabc06d70df94d495595aeb85e1f3d2146a129acbc96c19a7f955efb7fad1f4"),
    ("GL", 4, "10af017d7e6a3ca2cc82d56059e70496d9fd5ba0922f2705d36bf55666e6d0a8"),
    ("GL", 5, "911b728ebcfb89051264202105588e132926e28f60e866ad3d00b0c1de40057d"),
    ("GL", 6, "d7e0b3e0cbd831a63726bad011d0c9fbba7b08c067fde3e95d43dcff5c321c2e"),
    ("GL", 7, "f48e935cdc40171897cdb531303dc87504a4ae0cdb479513a0a13940991efa4e"),
    ("SL", 4, "ec37e035db544cee95b8cb2a125f939add5a5bc881d8e9df0ace2ead070c6c97"),
    ("SL", 5, "2b589e6e4713f459a14dd29bc12a23de27dbd3f4a7e32f90788f12765c9879ba"),
    ("PGL", 4, "d0c639976d6297b0364124d3b4abfde3e90561cf103d8abe9268d6c6f2cd3061"),
    ("PGL", 5, "e719b5095789c3991c6a636563ba5a56c4a9211cadc82b857b94a77248a6a60e"),
    ("Sp", 2, "76877353b52b9b90f2bd1e735477e824bb1a33ba314b9a52e87aca71856b0f47"),
    ("Sp", 3, "7dfaf2366990c38aa4665300b8d919a0c8a4f3bf3662d8805eef0edeae271f2f"),
    ("Sp", 4, "8a3102c0ec2a2d7d17a5b4ae58c0c53a87616d77c02de185c133d7dff0e90df9"),
    ("Sp", 5, "9759b01e8c6151b9fa32eb1197459bf5693591c7d3f505002612e87f96283c5c"),
    ("SO_odd", 2, "ccee5fc34cfa2a906e92e0bf3c3cbaa437110b11c04b8fa9a03a7e5bd1e800bb"),
    ("SO_odd", 3, "79b2c33a379e73584461cfbe65e7bab322bd35c74f4c186b851caa0caf69c0b4"),
    ("SO_odd", 4, "fdcdd581b092a03667c760175ab9a5410dbb0fc19ef450795564c280fd9e3a0b"),
    ("SO_odd", 5, "3fb66c271ceefc94dee21c1e13ce4b1aa06f8667ae1d50cc92b4b0ea9e0dfd0f"),
    ("SO_even", 3, "5152c0ab55626d460ef195d4b7515b5466c3a0d023bf9d15d3d709543db39f33"),
    ("SO_even", 4, "029c8fc2b476d7962372c1e753e31989624f08590c28ac592733b1ceb72c6eca"),
    ("SO_even", 5, "9caed8edfae165af148da2a2e3112821d2fc6edd1e5a2cd37d42596d4350c7a9"),
    ("G2", 0, "61ef1b2ade76301f0dd82a919d53a89c8a48791e8b7a05cb227aff82239fccfe"),
]


@pytest.mark.parametrize("family,n,digest", CLASSIFY_GOLDEN)
def test_classify_output_is_pinned(capsys, family, n, digest):
    code, out = run(capsys, ["classify", family, str(n), "--j", "3/2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,n", [("GL", 4), ("Sp", 3), ("SO_even", 4), ("G2", 0)])
def test_cold_classify_builds_no_inverse_table(capsys, monkeypatch, family, n):
    # the class walk steps by the left and right tables; WeylGroup.inverse
    # is kept for the gauge and the conjugators, which classify does not use
    monkeypatch.setattr(groups, "_GROUP_CACHE", {})
    assert run(capsys, ["classify", family, str(n)])[0] == 0
    assert list(groups._GROUP_CACHE) == [(family, n)]
    assert "inverse" not in groups._GROUP_CACHE[family, n].weyl.__dict__


def test_classify_gl1(capsys):
    code, out = run(capsys, ["classify", "GL", "1", "--j", "1"])
    assert code == 0
    data = json.loads(out)
    assert len(data["components"]) == 1
    comp = data["components"][0]
    assert comp["torus_rank"] == 1 and comp["invariant_factors"] == [0]


def test_check_stability_inline(capsys):
    # w=1 is the identity in the lexicographic element order for GL₂
    payload = json.dumps({"m": [1, 0], "alpha": ["0", "0"], "w": 1, "j": "1"})
    code, out = run(capsys, ["check-stability", "GL", "2", "--cocycle", payload])
    assert code == 0
    data = json.loads(out)
    assert data["semistable"] is False and data["stable"] is False
    payload = json.dumps({"m": [1, 0], "alpha": ["0", "0"], "w": 0, "j": "1"})
    code, out = run(capsys, ["check-stability", "GL", "2", "--cocycle", payload])
    assert json.loads(out)["stable"] is True


def test_iso_test_inline(capsys):
    pair = json.dumps(
        [
            {"m": [0], "alpha": ["0"], "w": 0, "j": "1"},
            {"m": [0], "alpha": ["1"], "w": 0, "j": "1"},
        ]
    )
    code, out = run(capsys, ["iso-test", "GL", "1", "--cocycle", pair])
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert data["witness"]["k"] == [-1]


def test_iso_test_negative(capsys):
    pair = json.dumps(
        [
            {"m": [0], "alpha": ["0"], "w": 0, "j": "1"},
            {"m": [0], "alpha": ["1/2"], "w": 0, "j": "1"},
        ]
    )
    code, out = run(capsys, ["iso-test", "GL", "1", "--cocycle", pair])
    assert code == 0
    assert json.loads(out)["isomorphic"] is False


RELATIVE_WEYL_DIGEST = "dc035680e07598086495c9e16447514f89aa99f65fbd4ec7feb2fad83d6bee30"


def test_verify_suites(capsys):
    code, out = run(capsys, ["verify", "sl-count", "--n", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["component_size"] == 3
    code, out = run(capsys, ["verify", "relative-weyl"])
    assert code == 0
    # SHA-256 of the report as first recorded; it must stay byte-identical
    assert hashlib.sha256(out.encode()).hexdigest() == RELATIVE_WEYL_DIGEST
    code, out = run(capsys, ["verify", "det-homeo", "--n", "2", "--d", "1", "--samples", "20"])
    assert code == 0
    # a passing report carries no first_failure field
    assert sorted(json.loads(out)) == ["agreeing", "d", "discrete_invariants_match", "n", "pass", "samples", "suite"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stability_multiline_suite(capsys, n):
    code, out = run(capsys, ["verify", "stability-multiline", "--n", str(n), "--samples", "40", "--seed", "2"])
    assert code == 0
    assert json.loads(out) == {"suite": "stability-multiline", "n": n, "samples": 40, "agreeing": 40, "pass": True}


def test_stability_multiline_names_its_first_disagreeing_trial(capsys, monkeypatch):
    real = cli.verify.semistable_by_multiline
    calls = []

    def flip_trials_2_and_4(c):
        calls.append(c)
        return not real(c) if len(calls) in (3, 5) else real(c)

    monkeypatch.setattr(cli.verify, "semistable_by_multiline", flip_trials_2_and_4)
    code, out = run(capsys, ["verify", "stability-multiline", "--n", "3", "--samples", "5", "--seed", "7"])
    assert code == cli.EXIT_VERIFY_FAIL
    data = json.loads(out)
    assert (data["pass"], data["agreeing"]) == (False, 3)
    assert data["first_failure"] == {
        "trial": 2,
        "seed": 7,
        "cocycle": calls[2].to_json(),
        "semistable": real(calls[2]),
        "semistable_by_multiline": not real(calls[2]),
    }
    code = cli.main(["verify", "stability-multiline", "--samples", "0"])
    assert code == cli.EXIT_PARSE and "samples" in capsys.readouterr().err


def test_det_homeo_names_its_first_disagreeing_trial(capsys, monkeypatch):
    real = cli.verify.circles.are_isomorphic
    calls = []

    def flip_trial_3(a, b):
        # each trial asks about the determinants, then the full cocycles
        calls.append((a, b))
        out = real(a, b)
        return not out if len(calls) == 2 * 3 + 2 else out

    monkeypatch.setattr(cli.verify.circles, "are_isomorphic", flip_trial_3)
    code, out = run(capsys, ["verify", "det-homeo", "--n", "2", "--d", "1", "--samples", "6", "--seed", "5"])
    assert code == cli.EXIT_VERIFY_FAIL
    data = json.loads(out)
    assert (data["pass"], data["agreeing"]) == (False, 5)
    failure = data["first_failure"]
    assert (failure["trial"], failure["seed"]) == (3, 5)
    assert failure["cocycles"] == [c.to_json() for c in calls[7]]
    assert failure["isomorphic"] is not real(*calls[7])
    assert (failure["expected_isomorphic"], failure["determinants_isomorphic"]) == (False, False)


# SHA-256 of the report as recorded when det-homeo summed m and α onto GL₁ by hand
DET_HOMEO_DIGEST = "9be6243d9a371094c3439ada3ccf645c31e1de4002622c6dda080549bddea7d0"


def test_det_homeo_report_is_pinned_under_any_guard(capsys, monkeypatch):
    """The determinants are pushforwards along det: GL₃ → GL₁ between the groups
    built under the guard, and the report bytes do not depend on the guard."""
    real = cli.verify.circles.pushforward
    calls = []

    def recording(f, c):
        calls.append(f)
        return real(f, c)

    monkeypatch.setattr(cli.verify.circles, "pushforward", recording)
    argv = ["verify", "det-homeo", "--n", "3", "--degree", "2", "--samples", "60", "--seed", "0"]
    for guard in (None, 5000):
        calls.clear()
        code, out = run(capsys, argv + ([] if guard is None else ["--guard", str(guard)]))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DET_HOMEO_DIGEST
        assert len(calls) == 2 * 60
        det = calls[0]
        assert all(f is det for f in calls) and det.lattice_map == ((1, 1, 1),)
        assert det.source is build_group("GL", 3, guard or 10000)
        assert det.target is build_group("GL", 1, guard or 10000)


# the options of each verify suite; it rejects every other one
SUITE_READS = {
    "sl-count": {"--n", "--j"},
    "pgl-count": {"--n", "--j"},
    "det-homeo": {"--n", "--degree", "--d", "--samples", "--seed", "--j"},
    "relative-weyl": set(),
    "stability-multiline": {"--n", "--samples", "--seed", "--j"},
}


def test_each_verify_suite_rejects_the_options_it_does_not_read(capsys):
    assert SUITE_READS.keys() == cli.verify.SUITES.keys()
    values = {"--n": "-2", "--degree": "1", "--d": "1", "--samples": "0", "--seed": "0", "--j": "1"}
    for suite, reads in SUITE_READS.items():
        for option in sorted(values.keys() - reads):
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", suite, option, values[option]])
            assert exc.value.code == cli.EXIT_PARSE
            assert f"unrecognized arguments: {option} {values[option]}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "relative-weyl", "--n", "-2", "--samples", "0"])
    assert exc.value.code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "unrecognized arguments: --n -2 --samples 0" in err
    # with the usage line of the suite, which lists the options it does take
    assert err.startswith("usage: tropgroups verify relative-weyl [-h] [--guard GUARD] [--out OUT]\n")


def test_library_logger_is_silent(capsys):
    code = cli.main(["classify", "GL", "3"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out
    assert captured.err == ""
    # no module logs, so the command line does not import logging at all
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, tropgroups.cli; print('logging' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_file_roundtrip(tmp_path, capsys):
    src = tmp_path / "cocycles.json"
    src.write_text(
        json.dumps(
            [
                {"m": [1, 0], "alpha": ["0", "0"], "w": 1, "j": "1"},
                {"m": [0, 1], "alpha": ["0", "0"], "w": 1, "j": "1"},
            ]
        )
    )
    dst = tmp_path / "report.json"
    code = cli.main(["iso-test", "GL", "2", "--in", str(src), "--out", str(dst)])
    assert code == 0
    data = json.loads(dst.read_text())
    assert data["isomorphic"] is True


def test_parse_error_exit_code(capsys, tmp_path):
    code = cli.main(["group-info", "E8"])
    assert code == 2
    assert "the families are GL, SL, PGL, Sp, SO_odd, SO_even, G2" in capsys.readouterr().err
    code = cli.main(["check-stability", "GL", "2", "--cocycle", "{not json"])
    assert code == 2
    code = cli.main(["iso-test", "GL", "1", "--cocycle", json.dumps({"m": [0], "alpha": ["0"], "w": 0, "j": "1"})])
    assert code == 2  # needs exactly two cocycles

    def gl_cocycle(n, **fields):
        return {"m": [0] * n, "alpha": ["0"] * n, "w": 0, "j": "1", **fields}

    def rejected(argv, field):
        code = cli.main(argv)
        err = capsys.readouterr().err
        return code == 2 and field in err

    # a payload that is not an object or a list of objects, naming the entry
    assert rejected(["check-stability", "GL", "2", "--cocycle", "[1]"], "entry 0")
    assert rejected(["check-stability", "GL", "2", "--cocycle", "5"], "object")
    pair = json.dumps([gl_cocycle(1), 7])
    assert rejected(["iso-test", "GL", "1", "--cocycle", pair], "entry 1")
    # an empty list gives no cocycle, on the command line and in a file
    assert rejected(["check-stability", "GL", "3", "--cocycle", "[]"], "no cocycle given")
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert rejected(["check-stability", "GL", "3", "--in", str(empty)], "no cocycle given")

    # a monodromy index outside range(|W|), negative or too large
    for w in (-1, 99):
        pair = json.dumps([gl_cocycle(3, w=w), gl_cocycle(3, w=w)])
        assert rejected(["iso-test", "GL", "3", "--cocycle", pair], "'w'")
    assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(gl_cocycle(2, w=1.5))], "'w'")
    # a JSON boolean is not coerced to 1 or 0
    pair = json.dumps([gl_cocycle(2, w=True), gl_cocycle(2, w=True)])
    assert rejected(["iso-test", "GL", "2", "--cocycle", pair], "'w'")
    assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(gl_cocycle(2, j=True))], "'j'")
    assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(gl_cocycle(2, m=[True, False]))], "'m'")
    assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(gl_cocycle(2, alpha=[True, 0]))], "'alpha'")
    # a non-integral slope entry is not truncated
    assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(gl_cocycle(2, m=[1.5, 0]))], "'m'")
    # read exactly, 1.5 is still no index and no slope entry, in a file too
    for field, value in (("w", 1.5), ("m", [0, 1.5])):
        bad = tmp_path / f"{field}.json"
        bad.write_text(json.dumps(gl_cocycle(2, **{field: value})))
        assert rejected(["check-stability", "GL", "2", "--in", str(bad)], f"'{field}'")
    # NaN and ±Infinity are JSON extensions that name no rational number
    for field, value in (("alpha", [float("nan"), 0]), ("j", float("inf")), ("alpha", [0, float("-inf")])):
        assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(gl_cocycle(2, **{field: value}))], field)
    # slope and offset lengths must equal the rank
    assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(gl_cocycle(2, m=[1, 0, 0]))], "'m'")
    assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(gl_cocycle(2, alpha=["0"]))], "'alpha'")
    # a missing field is named as missing
    for key in ("m", "alpha", "w", "j"):
        entry = gl_cocycle(2)
        del entry[key]
        assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(entry)], f"missing field(s) '{key}'")
    # the circle length of classify must be positive
    for j in ("0", "-3"):
        assert rejected(["classify", "GL", "2", "--j", j], "--j")
    # a circle length with a zero denominator is named, not a traceback
    assert rejected(["classify", "GL", "3", "--j", "1/0"], "'1/0'")
    for suite in ("sl-count", "pgl-count", "det-homeo"):
        assert rejected(["verify", suite, "--j", "1/0"], "'1/0'")
    # a sample count below 1 is rejected, not reported as a failed or a vacuous verification
    assert rejected(["verify", "det-homeo", "--samples", "-3"], "samples")
    assert rejected(["verify", "det-homeo", "--samples", "0"], "samples")
    # a size guard below 1 is bad input, not an exceeded guard
    for guard in ("0", "-3"):
        assert rejected(["group-info", "GL", "4", "--guard", guard], "--guard")
    # G2 takes no rank parameter
    assert rejected(["classify", "G2", "5"], "G2")


def test_decimal_numbers_are_read_exactly(capsys, tmp_path):
    # 0.1 and 1e-1 are 1/10, not the binary float nearest to it
    exact = {"m": [0, 0], "alpha": ["1/10", 0], "w": 0, "j": 1}
    _, expected = run(capsys, ["iso-test", "GL", "2", "--cocycle", json.dumps([exact, exact])])
    assert json.loads(expected)["isomorphic"]
    for text in ("0.1", "1e-1", "0.10"):
        pair = f'[{{"m": [0, 0], "alpha": [{text}, 0], "w": 0, "j": 1}}, {json.dumps(exact)}]'
        assert run(capsys, ["iso-test", "GL", "2", "--cocycle", pair]) == (0, expected)
        infile = tmp_path / "pair.json"
        infile.write_text(pair)
        assert run(capsys, ["iso-test", "GL", "2", "--in", str(infile)]) == (0, expected)


def test_decimal_exponents_are_bounded(capsys, tmp_path):
    """An exponent beyond 4300 in magnitude is rejected before Fraction expands
    its power of ten; within the bound a decimal is still read exactly."""
    # on GL1 with j = 7, offsets 2500 and a are isomorphic iff a ≡ 2500 mod 7
    for text in ("2.5e3", '"2.5e3"'):
        for other, isomorphic in (('"2500"', True), ('"2501"', False), ("2.5", False)):
            pair = f'[{{"m": [0], "alpha": [{text}], "w": 0, "j": 7}}, {{"m": [0], "alpha": [{other}], "w": 0, "j": 7}}]'
            code, out = run(capsys, ["iso-test", "GL", "1", "--cocycle", pair])
            assert (code, json.loads(out)["isomorphic"]) == (0, isomorphic)
    _, expected = run(capsys, ["classify", "GL", "2", "--j", "2500"])
    assert run(capsys, ["classify", "GL", "2", "--j", "2.5e3"])[1] == expected.replace('"2500"', '"2.5e3"')

    def rejected(argv, name):
        code = cli.main(argv)
        err = capsys.readouterr().err
        return code == 2 and name in err and "exceeds 4300" in err

    for text in ("1e1000000", "1e-1000000"):
        string = json.dumps({"m": [0], "alpha": [text], "w": 0, "j": 1})
        assert rejected(["check-stability", "GL", "1", "--cocycle", string], "'alpha'")
        bare = f'{{"m": [0], "alpha": [{text}], "w": 0, "j": 1}}'
        assert rejected(["check-stability", "GL", "1", "--cocycle", bare], "--cocycle")
        infile = tmp_path / "bare.json"
        infile.write_text(bare)
        assert rejected(["check-stability", "GL", "1", "--in", str(infile)], f"--in {infile}")
        assert rejected(["classify", "GL", "2", "--j", text], "--j")
        assert rejected(["verify", "sl-count", "--j", text], "--j")
        nameless = json.dumps({"m": [0], "alpha": [0], "w": 0})
        assert rejected(["check-stability", "GL", "1", "--cocycle", nameless, "--j", text], "'j'")


def test_guard_exit_code(capsys):
    code = cli.main(["group-info", "GL", "4", "--guard", "5"])
    assert code == 3


def test_guard_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TROPGROUPS_GUARD", "5")
    from tropgroups.groups import _GROUP_CACHE

    _GROUP_CACHE.clear()
    code = cli.main(["group-info", "GL", "4"])
    assert code == 3
    _GROUP_CACHE.clear()
    # a value that is no integer, or below 1, is bad input naming the variable
    for value in ("abc", "0", "-3"):
        monkeypatch.setenv("TROPGROUPS_GUARD", value)
        assert cli.main(["group-info", "GL", "4"]) == 2
        assert "TROPGROUPS_GUARD" in capsys.readouterr().err


def test_verify_holds_the_guard(capsys, monkeypatch):
    # GL₄ has |W| = 24 and Sp₃ |W| = 48
    monkeypatch.setenv("TROPGROUPS_GUARD", "5")
    assert cli.main(["verify", "stability-multiline", "--n", "4", "--samples", "2"]) == 3
    assert "exceeds guard 5" in capsys.readouterr().err
    monkeypatch.delenv("TROPGROUPS_GUARD")
    assert cli.main(["verify", "relative-weyl", "--guard", "40"]) == 3
    assert "Sp, n = 3: |W| exceeds guard 40" in capsys.readouterr().err
    assert cli.main(["verify", "relative-weyl", "--guard", "48"]) == 0
    assert cli.main(["verify", "det-homeo", "--n", "2", "--samples", "1", "--guard", "1"]) == 3
    assert cli.main(["verify", "sl-count", "--guard", "0"]) == 2


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv in (["group-info", "Sp", "2"], ["classify", "GL", "2", "--j", "1/2"], ["group-info", "Sp", "2"]):
        fresh = subprocess.run(
            [sys.executable, "-m", "tropgroups.cli", *argv], env=env, capture_output=True, text=True, check=True
        )
        assert run(capsys, argv) == (0, fresh.stdout)


def test_invariant_failure_exit_code(capsys, monkeypatch):
    from tropgroups.errors import InvariantError

    def broken(c):
        raise InvariantError("verdict check failed for cocycle w=0")

    monkeypatch.setattr(cli.stability, "stability_verdict", broken)
    payload = json.dumps({"m": [1, 0], "alpha": ["0", "0"], "w": 0, "j": "1"})
    code = cli.main(["check-stability", "GL", "2", "--cocycle", payload])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVARIANT == 4
    assert captured.err == "error: verdict check failed for cocycle w=0\n"
    assert captured.out == ""


def stability_inputs(family, n):
    """A fixed list of 20 cocycles: identity monodromy with seeded slopes and
    with slope 0 (semistable, not stable), then class representatives and
    seeded elements, with seeded slopes and offsets."""
    from tropgroups.groups import build_group

    g = build_group(family, n)
    rng = random.Random(f"check-stability {family} {n}")
    classes = g.weyl.conjugacy_classes()
    out = []
    for t in range(20):
        if t < 2:
            w = g.weyl.identity_idx
        elif t < min(len(classes) + 1, 10):
            w = classes[t - 1][0]
        else:
            w = rng.randrange(len(g.weyl))
        m = [rng.randint(-3, 3) if t != 1 else 0 for _ in range(g.rank)]
        alpha = [f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}" for _ in range(g.rank)]
        out.append({"m": m, "alpha": alpha, "w": w, "j": "1"})
    return json.dumps(out)


# SHA-256 of the input list and of the stdout of `tropgroups check-stability
# FAMILY n --cocycle LIST`, as first recorded; verdicts and the order of their
# violations must stay byte-identical
STABILITY_GOLDEN = [
    ("GL", 4,
     "0bba9939fa3ead2020775f767b8a39a59aad9896c37f21f647bbfc278ff25d90",
     "37f5d567fbcba287db5da0ff41f3d6f351a72fc31c5c14c2e3984d326b04f2e3"),
    ("Sp", 3,
     "077df086e5624cdfd3ae3891c5e90d3285edb5de186afc75b498c19d667f005c",
     "6814ded818cd22e41b9ab0d9ed8c5221389afb4ff268e4f885a5f67302751a96"),
    ("SO_odd", 3,
     "477f1f13af628bdc4c867c66e9343e2ea7eee882fbf02a700b1504b5e6c7f31d",
     "582b9466179a208c51140bae122db4e5b484d828a3256350e8432e3099cc1ffc"),
    ("G2", 0,
     "d1f168b7e46afb57325381161fc169708b3ed5c50ffa611e6f3ca648534b671e",
     "84f857ee0d75fd42ab8325aa4009fdbd05cbeb6e251e2daf38c09161dc777bd1"),
    ("GL", 5,
     "d17bbeac71d03b32d824643b3f5161701dbdd67825333f47e27ee2d342b40972",
     "1cb71398ebbf59a7e2a01d29ae4a3cfb900ccb4cacfec8cdbef22301ae7f05cd"),
    ("Sp", 4,
     "9cc159f45b3636d64b67944c3058c3d55f4b50cf22f8f17920d9341887a76ce7",
     "6d09622551b13b548ed45f593f27eb3b78e54edbc70af7e75758904a023ab644"),
    ("SO_even", 4,
     "edb8e7aa26b2d44d4e548ccd3b9179aafc14914a246fa65cc49280c222df039f",
     "537c49a2d595948460cc37746d5dd0499bd7e2972039faa825819456d556d109"),
]


@pytest.mark.parametrize("family,n,input_digest,output_digest", STABILITY_GOLDEN)
def test_check_stability_output_is_pinned(capsys, family, n, input_digest, output_digest):
    payload = stability_inputs(family, n)
    assert hashlib.sha256(payload.encode()).hexdigest() == input_digest
    code, out = run(capsys, ["check-stability", family, str(n), "--cocycle", payload])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == output_digest


def iso_inputs(family, n):
    """A fixed list of 12 cocycle pairs: a gauge-equivalent pair, that pair
    with the second offset moved by j/3 in one coordinate, and an independent
    pair, in turn."""
    from tropgroups import circles
    from tropgroups.groups import build_group

    g = build_group(family, n)
    rng = random.Random(f"iso-test {family} {n}")

    def rand_cocycle():
        m = [rng.randint(-3, 3) for _ in range(g.rank)]
        alpha = [f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}" for _ in range(g.rank)]
        return circles.cocycle(g, m, alpha, rng.randrange(len(g.weyl)), "3/2")

    pairs = []
    for t in range(12):
        a = rand_cocycle()
        if t % 3 == 2:
            b = rand_cocycle()
        else:
            k = [rng.randint(-2, 2) for _ in range(g.rank)]
            beta = [f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}" for _ in range(g.rank)]
            b = circles.gauge_transform(a, k, beta, rng.randrange(len(g.weyl)))
            if t % 3 == 1:
                i = rng.randrange(g.rank)
                offset = b.offset[:i] + (b.offset[i] + b.length / 3,) + b.offset[i + 1 :]
                b = circles.cocycle(g, b.slope, offset, b.mono_idx, b.length)
        pairs.append(json.dumps([a.to_json(), b.to_json()]))
    return pairs


# SHA-256 of the input pairs and of the concatenated stdout of `tropgroups
# iso-test FAMILY n --cocycle PAIR` over the pairs, as first recorded; the
# witnesses ("least v wins") must stay byte-identical
ISO_GOLDEN = [
    ("GL", 4,
     "3d4e160b49cec5b4587c4c0be52091c31cec04b2c4a647ba5203f27f38c73bcb",
     "dc9f7450d7117abccffa2d7081d617d1625b31d99a955cdf9defbbbb795526c0"),
    ("GL", 5,
     "fba38e7fbb331a9c3e11e4eddfa5b675655684d3e6977aa8d7fbe4659899aee7",
     "23fb912859c5322f78483464ffc7a74f739ccbed69ae5baebf914da1cf7d647f"),
    ("Sp", 3,
     "19a01be0b959d45c7b9b9da581315995e0a91ce5b39c29089637f5099a7c9109",
     "1156bf8ad79c291cb5be15a06464345e37e0bc6e53a531d7d2d5b064a6cd848a"),
    ("Sp", 4,
     "83992b24729619ac4a64d81278b301be673a8a202e9388df3f071a16e62073ff",
     "e7f677387360568c095e9b24ce3a9fd6305d5979d3b996a3c28a81a9a6c9b63c"),
    ("SO_odd", 3,
     "2fcf2dbff30f8c3d4f5d017a7594fec7f9a684bbcd1092a2ea3715fdf08f6797",
     "786423d2f5922ea887db0893c90e28485c52cf73304ea058746adb1ea03eeb94"),
    ("SO_even", 4,
     "b50155554cabdc65cb141f1a3bf47e53a5762a8c3a1fca979ca06fd764b32dd6",
     "9b27f65a51488b8d64662c032eefd5412ad0b920781420bf0835e5feeb578577"),
    ("G2", 0,
     "38e8c0c9d0266916d92a4fb36f751aa9efb894ebffc3bcd3d810da9093dac983",
     "0200987a8efe00e40b7585051b6a687b6630ab85e43cbb5d7618f36ff983dc88"),
]


@pytest.mark.parametrize("family,n,input_digest,output_digest", ISO_GOLDEN)
def test_iso_output_is_pinned(capsys, family, n, input_digest, output_digest):
    pairs = iso_inputs(family, n)
    assert hashlib.sha256("\n".join(pairs).encode()).hexdigest() == input_digest
    out = []
    for pair in pairs:
        code, text = run(capsys, ["iso-test", family, str(n), "--cocycle", pair])
        assert code == 0
        out.append(text)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == output_digest


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(section, lang):
    """The first ```lang block after the README heading `## section`."""
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def readme_commands():
    """The `tropgroups …` lines of the README command-line block as argument
    lists; a quoted argument may run over several lines."""
    commands, pending = [], ""
    for line in readme_block("Command line", "sh").splitlines():
        if not pending and not line.startswith("tropgroups "):
            continue
        pending += line + "\n"
        try:
            argv = shlex.split(pending)
        except ValueError:  # the quote is closed on a later line
            continue
        commands.append(argv[1:])
        pending = ""
    return commands


def test_readme_commands_exit_0(capsys):
    commands = readme_commands()
    assert len(commands) == 8
    for argv in commands:
        assert run(capsys, argv)[0] == 0, argv


def test_readme_library_example(capsys):
    exec(readme_block("Library example", "python"), {})
    assert capsys.readouterr().out.split() == ["False", "True"]
