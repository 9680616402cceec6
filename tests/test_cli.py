"""Command-line interface: subcommands, determinism, exit codes."""

import json

from tropgroups import cli


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_group_info_g2(capsys):
    code, out = run(capsys, ["group-info", "G2"])
    assert code == 0
    data = json.loads(out)
    assert data["weyl_order"] == 12
    assert data["pi1"] == []
    assert data["center_rank"] == 0


def test_group_info_flags_equivalent(capsys):
    code1, out1 = run(capsys, ["group-info", "Sp", "2"])
    code2, out2 = run(capsys, ["group-info", "--family", "Sp", "--n", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_output_is_byte_identical(capsys):
    _, out1 = run(capsys, ["classify", "GL", "2", "--j", "1"])
    _, out2 = run(capsys, ["classify", "GL", "2", "--j", "1"])
    assert out1 == out2


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


def test_verify_suites(capsys):
    code, out = run(capsys, ["verify", "sl-count", "--n", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["component_size"] == 3
    code, out = run(capsys, ["verify", "relative-weyl"])
    assert code == 0
    code, out = run(capsys, ["verify", "det-homeo", "--n", "2", "--d", "1", "--samples", "20"])
    assert code == 0


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


def test_parse_error_exit_code(capsys):
    code = cli.main(["group-info", "E8"])
    assert code == 2
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

    # a monodromy index outside range(|W|), negative or too large
    for w in (-1, 99):
        pair = json.dumps([gl_cocycle(3, w=w), gl_cocycle(3, w=w)])
        assert rejected(["iso-test", "GL", "3", "--cocycle", pair], "'w'")
    assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(gl_cocycle(2, w=1.5))], "'w'")
    # a non-integral slope entry is not truncated
    assert rejected(["check-stability", "GL", "2", "--cocycle", json.dumps(gl_cocycle(2, m=[1.5, 0]))], "'m'")
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
