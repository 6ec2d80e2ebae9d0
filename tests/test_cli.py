"""End-to-end checks of the command-line front end and the result cache."""

import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import klrlab
from klrlab import cli, cyclo
from klrlab.cache import ResultCache, default_cache_dir
from klrlab.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert out.endswith("\n")
    return code, json.loads(out), err


def test_gt_enum_pinned(capsys):
    code, doc, _ = run_json(capsys, ["gt", "enum", "--partition", "2,1,0"])
    assert code == 0
    assert len(doc) == 8
    assert [[2, 1, 0], [2, 1], [2]] in doc


def run_module(argv):
    """Run `python -m klrlab argv` in a fresh interpreter on this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(klrlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "klrlab", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_m_klrlab_runs_the_command():
    proc = run_module(["gt", "enum", "--partition", "2,1,0"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc) == 8
    assert [[2, 1, 0], [2, 1], [2]] in doc


def test_branch_check_pinned(capsys):
    code, doc, _ = run_json(capsys, ["branch", "check", "--partition", "2,1,0"])
    assert code == 0
    assert doc == {"ok": True, "lhs": 8, "rhs": [2, 3, 1, 2]}


def test_cyc_compare_pinned(tmp_path, capsys):
    argv = [
        "cyc", "compare", "--partition", "1,0", "--seq", "1",
        "--cache-dir", str(tmp_path),
    ]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc == {"gdim": [[0, 1]], "shapovalov": [[0, 1]], "ok": True}


def test_malformed_partition_exits_2(capsys):
    code, out, err = run(capsys, ["gt", "enum", "--partition", "2,x"])
    assert code == 2 and out == "" and "malformed partition" in err
    code, out, err = run(capsys, ["gt", "enum", "--partition", "1,2"])
    assert code == 2 and out == ""


# One idempotent strand of rank 2, with its label filled in by %.
RANK2_ELEMENT = (
    '{"rank": 2, "terms": [{"coeff": 1,'
    ' "word": {"rank": 2, "bottom": [%d], "ops": []}}]}'
)

# One rank-1 strand, with its coefficient filled in by %s.
COEFF_ELEMENT = (
    '{"rank": 1, "terms": [{"coeff": %s,'
    ' "word": {"rank": 1, "bottom": [1], "ops": []}}]}'
)

# Element documents whose rank, labels or op positions are not ints.
FLOAT_ELEMENT = (
    '{"rank": 1, "terms": [{"coeff": 1, "word": {"rank": 1.7, "bottom": [1.9, 1],'
    ' "ops": [{"kind": "dot", "pos": 2.5}]}}]}'
)
BOOL_RANK_ELEMENT = (
    '{"rank": true, "terms": [{"coeff": 1,'
    ' "word": {"rank": true, "bottom": [1], "ops": []}}]}'
)
STRING_LABEL_ELEMENT = (
    '{"rank": 1, "terms": [{"coeff": 1,'
    ' "word": {"rank": 1, "bottom": ["1"], "ops": []}}]}'
)

# Stands for an empty regular file made under tmp_path, given where a directory is needed.
PLAIN_FILE = "<plain file>"


# Every bad input, with the number that names its test id, "argv<number>-<stdin>".  The
# numbers are fixed, so deleting a case renames no other; a new case takes the next one.
BAD_INPUTS = [
    (0, ["klr", "nf"], "{not json"),
    (1, ["klr", "degree"], "{not json"),
    (2, ["cyc", "reduce", "--partition", "1,0"], "{not json"),
    (3, ["cyc", "reduce", "--partition", "1,0", "--deg-cap", "0"], ""),
    (4, ["cyc", "gdim", "--partition", "2,1,0", "--seq", "1,x"], ""),
    (5, ["cyc", "gdim", "--partition", "1,0", "--seq", "1", "--deg-cap", "-1"], ""),
    (6, ["cyc", "compare", "--partition", "2,1,0", "--seq", "1", "--deg-cap", "0"], ""),
    (7, ["cyc", "gdim", "--partition", "2,1,0", "--seq", "0"], ""),
    (8, ["weights", "schur", "--rank", "0", "--degree", "1"], ""),
    (9, ["cyc", "gt-ortho", "--partition", "1,0", "--deg-cap", "0"], ""),
    (10, ["klr", "factor", "--seq", ""], ""),
    (11, ["cyc", "gdim", "--partition", "2,1,0", "--seq", "5"], ""),
    (12, ["cyc", "gdim", "--partition", "2,1,0", "--seq", "1", "--seq2", "3"], ""),
    (13, ["cyc", "compare", "--partition", "2,1,0", "--seq", "1", "--seq2", "5"], ""),
    (14, ["oracle", "gram", "--partition", "2,1,0", "--beta", "1,1,1"], ""),
    (15, ["oracle", "gram", "--partition", "2,1,0", "--beta", "1"], ""),
    (16, ["branch", "check", "--partition", "2"], ""),
    (17, ["cyc", "reduce", "--partition", "1,0"], RANK2_ELEMENT % 1),
    (18, ["cyc", "reduce", "--partition", "1,0"], RANK2_ELEMENT % 2),
    (19, ["gt", "enum", "--partition", "2,1", "--out", PLAIN_FILE + "/x.json"], ""),
    (
        20,
        ["oracle", "gram", "--partition", "2,1,0", "--beta", "1,0", "--cache-dir", PLAIN_FILE],
        "",
    ),
    (21, ["cyc", "reduce", "--partition", "2,0"], COEFF_ELEMENT % "1.5"),
    (22, ["cyc", "reduce", "--partition", "2,0"], COEFF_ELEMENT % "[1, 0]"),
    (23, ["cyc", "reduce", "--partition", "2,0"], COEFF_ELEMENT % "true"),
    (24, ["cyc", "reduce", "--partition", "2,0"], FLOAT_ELEMENT),
    (25, ["klr", "nf"], BOOL_RANK_ELEMENT),
    (26, ["klr", "nf"], STRING_LABEL_ELEMENT),
    (27, ["cyc", "compare", "--partition", "3", "--seq", ""], ""),
    (28, ["klr", "nf"], '{"rank": -3, "terms": []}'),
    (29, ["gt", "enum", "--partition", "2,x"], ""),
    (30, ["gt", "enum", "--partition", "1,2"], ""),
    (31, ["oracle", "gram", "--partition", "2,1,0", "--beta", "1,x"], ""),
    (32, ["oracle", "gram", "--partition", "2,1,0", "--beta", "1,-1"], ""),
]


@pytest.mark.parametrize(
    "argv, stdin",
    [case[1:] for case in BAD_INPUTS],
    ids=[f"argv{n}-{stdin}" for n, _, stdin in BAD_INPUTS],
)
def test_bad_input_exits_2(argv, stdin, monkeypatch, tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("")
    argv = [a.replace(PLAIN_FILE, str(plain)) for a in argv]
    monkeypatch.setenv("KLRLAB_CACHE", str(tmp_path))
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [plain] and plain.read_text() == ""


@pytest.mark.parametrize(
    "argv, kept, removed",
    [
        (["cyc", "sl2-vanish", "--partition", "2,0"], ["--partition"],
         ["--deg-cap", "--require-exact"]),
        (["cyc", "weyl-vanish", "--partition", "1,0", "--seq", "1"], ["--partition", "--seq"],
         ["--deg-cap", "--require-exact"]),
        (["cyc", "gt-ortho", "--partition", "1,0"], ["--partition", "--deg-cap", "--cache-dir"],
         ["--require-exact"]),
        (["cyc", "reduce", "--partition", "1,0"],
         ["--partition", "--in", "--deg-cap", "--require-exact"], []),
    ],
)
def test_verbs_take_only_the_flags_they_read(argv, kept, removed, capsys):
    """The vanishing checks reduce a degree-0 idempotent, so no degree cap changes them,
    and a capped gt-ortho already exits 1: these flags are rejected, and --help lists
    exactly the flags each verb takes, with both --deg-cap defaults where it is one."""
    for flag in removed:
        extra = [flag, "1"] if flag == "--deg-cap" else [flag]
        with pytest.raises(SystemExit) as info:
            main(argv + extra)
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert "unrecognized arguments: " + " ".join(extra) in err
    with pytest.raises(SystemExit) as info:
        main(argv[:2] + ["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    flags = set(re.findall(r"--[a-z][a-z-]*", out))
    assert flags == {*kept, "--help", "--format", "--out"}
    if "--deg-cap" in kept:
        defaults = "(default 16, or twice the partition's size plus 4 for gt-ortho)"
        assert defaults in " ".join(out.split())


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# The README's command lines; `suite acceptance` is run by tests/test_acceptance.py.
README_COMMANDS = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README, re.S)
    for line in block.splitlines()
    if line.startswith("klrlab ") and not line.startswith("klrlab suite acceptance")
]


@pytest.mark.parametrize(
    "line", README_COMMANDS, ids=lambda line: line.partition("#")[0].strip()
)
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    """Each README command exits 0 with one JSON document, the one its comment shows if any."""
    (element,) = re.findall(r"```json\n(.*?)```", README, re.S)
    (tmp_path / "element.json").write_text(element)
    monkeypatch.chdir(tmp_path)
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    _, verbs = cli.COMMANDS[argv[0]]
    if any(verb == argv[1] and "cache-dir" in flags for verb, _, flags, _ in verbs):
        argv += ["--cache-dir", str(tmp_path / "cache")]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    comment = comment.strip()
    if comment.startswith("{"):
        expected, _ = json.JSONDecoder().raw_decode(comment)
        assert doc == expected


def test_weights_schur(capsys):
    code, doc, _ = run_json(capsys, ["weights", "schur", "--rank", "2", "--degree", "2"])
    assert code == 0 and doc == [[2, 0], [1, 1], [0, 2]]
    code, doc, _ = run_json(
        capsys, ["weights", "schur", "--rank", "2", "--degree", "2", "--dominant"]
    )
    assert code == 0 and doc == [[2, 0], [1, 1]]


def element_file(tmp_path, name, rank, bottom, ops):
    doc = {
        "rank": rank,
        "terms": [
            {
                "coeff": 1,
                "word": {
                    "rank": rank,
                    "bottom": list(bottom),
                    "ops": [{"kind": k, "pos": p} for k, p in ops],
                },
            }
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_klr_nf_kills_double_crossing(tmp_path, capsys):
    path = element_file(tmp_path, "el.json", 1, (1, 1), [("cross", 1), ("cross", 1)])
    code, doc, _ = run_json(capsys, ["klr", "nf", "--in", path])
    assert code == 0 and doc == {"rank": 1, "terms": []}


def test_klr_degree(tmp_path, capsys):
    path = element_file(tmp_path, "el.json", 2, (1, 2), [("dot", 1), ("cross", 1)])
    code, doc, _ = run_json(capsys, ["klr", "degree", "--in", path])
    assert code == 0
    assert doc == {"degrees": [3], "homogeneous": True, "degree": 3}


def test_klr_factor_roundtrip_flag(capsys):
    code, doc, _ = run_json(capsys, ["klr", "factor", "--seq", "1,3,2,3", "--blocks", "2"])
    assert code == 0 and doc["ok"] is True
    assert doc["rank"] == 3 and doc["blocks"] == 2
    assert doc["terms"]
    for term in doc["terms"]:
        xi = term["middle"]["xi"]
        assert xi == sorted(xi) and len(xi) == 2


def test_cyc_reduce_and_require_exact(tmp_path, capsys):
    path = element_file(tmp_path, "dot.json", 1, (1,), [("dot", 1)])
    code, doc, _ = run_json(capsys, ["cyc", "reduce", "--partition", "1,0", "--in", path])
    assert code == 0
    assert doc["element"] == {"rank": 1, "terms": []} and doc["status"] == "exact"
    path3 = element_file(tmp_path, "d3.json", 1, (1,), [("dot", 1)] * 3)
    code, doc, _ = run_json(
        capsys,
        [
            "cyc", "reduce", "--partition", "2,0", "--in", path3,
            "--deg-cap", "1", "--require-exact",
        ],
    )
    assert code == 1 and doc["status"] == "capped"


def test_cyc_gdim_cache_roundtrip(tmp_path, capsys):
    argv = [
        "cyc", "gdim", "--partition", "2,0", "--seq", "1",
        "--cache-dir", str(tmp_path),
    ]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    entries = list(tmp_path.iterdir())
    assert len(entries) == 1
    code, out2, _ = run(capsys, argv)
    assert code == 0 and out2 == out1
    doc = json.loads(out1)
    assert doc["gdim"] == [[0, 1], [2, 1]] and doc["status"] == "exact"
    # tampering with the stored payload must be detected and recomputed
    record = json.loads(entries[0].read_text())
    record["payload"]["gdim"] = [[0, 999]]
    entries[0].write_text(json.dumps(record))
    code, out3, _ = run(capsys, argv)
    assert code == 0 and out3 == out1


def test_cyc_gdim_reversed_pair_keeps_the_given_order(tmp_path, capsys):
    """gdim_hom sweeps each pair in sorted order, but the record reports left and right
    as given, with the forward pair's gdim and status."""
    docs = []
    for seq, seq2 in [("1,1,2,2", "1,2,1,2"), ("1,2,1,2", "1,1,2,2")]:
        argv = ["cyc", "gdim", "--partition", "2,0,0", "--seq", seq, "--seq2", seq2,
                "--cache-dir", str(tmp_path)]
        code, doc, _ = run_json(capsys, argv)
        assert code == 0
        docs.append(doc)
    forward, back = docs
    assert (forward["left"], forward["right"]) == ([1, 1, 2, 2], [1, 2, 1, 2])
    assert (back["left"], back["right"]) == ([1, 2, 1, 2], [1, 1, 2, 2])
    assert back["gdim"] == forward["gdim"] == [[-3, 1], [-1, 3], [1, 3], [3, 1]]
    assert back["status"] == forward["status"] == "exact"


def test_cyc_gdim_flipped_pair_keeps_the_given_order(tmp_path, capsys):
    """At (2,1,1,0), which is self-dual, (3,2,1,2) against (3,1,2,2) is swept on its
    Dynkin flip's class pair ((1,2,3,2), (1,3,2,2)); the record reports left and right as
    given, each way round, with the same gdim and status."""
    docs = []
    for seq, seq2 in [("3,2,1,2", "3,1,2,2"), ("3,1,2,2", "3,2,1,2")]:
        argv = ["cyc", "gdim", "--partition", "2,1,1,0", "--seq", seq, "--seq2", seq2,
                "--cache-dir", str(tmp_path)]
        code, doc, _ = run_json(capsys, argv)
        assert code == 0
        docs.append(doc)
    forward, back = docs
    assert (forward["left"], forward["right"]) == ([3, 2, 1, 2], [3, 1, 2, 2])
    assert (back["left"], back["right"]) == ([3, 1, 2, 2], [3, 2, 1, 2])
    assert back["gdim"] == forward["gdim"] == [[-1, 1], [1, 1]]
    assert back["status"] == forward["status"] == "exact"


def test_cyc_sl2_vanish(capsys):
    code, doc, _ = run_json(capsys, ["cyc", "sl2-vanish", "--partition", "2,0"])
    assert code == 0 and doc == {"lambda1": 2, "ok": True}
    code, out, err = run(capsys, ["cyc", "sl2-vanish", "--partition", "2,1,0"])
    assert code == 2 and out == ""


def test_cyc_weyl_vanish(capsys):
    code, doc, _ = run_json(
        capsys, ["cyc", "weyl-vanish", "--partition", "1,0", "--seq", "1,1"]
    )
    assert code == 0
    assert doc == {"lambda": [1, 0], "idempotent": [1, 1], "ok": True}


def test_cyc_gt_ortho(tmp_path, capsys, monkeypatch):
    """The cache key's cap is the one `gt_orthogonality_check` uses given none."""
    caps = []
    make_context = cyclo.make_context

    def recording_make_context(lam, degree_cap=cyclo.DEFAULT_DEGREE_CAP):
        caps.append(degree_cap)
        return make_context(lam, degree_cap)

    monkeypatch.setattr(cyclo, "make_context", recording_make_context)
    code, doc, _ = run_json(
        capsys,
        ["cyc", "gt-ortho", "--partition", "1,0", "--cache-dir", str(tmp_path)],
    )
    assert code == 0
    assert doc == {"lambda": [1, 0], "patterns": 2, "ok": True}
    (entry,) = tmp_path.iterdir()
    key = json.loads(entry.read_bytes())["key"]
    caps.clear()
    assert cyclo.gt_orthogonality_check([1, 0])
    assert key == ["cyc gt-ortho", [1, 0], caps[0]] and caps == [6]


def test_cyc_gt_ortho_capped_says_so(tmp_path, capsys):
    """At (3,1,0) some pattern pair's graded-symmetry range ends at degree 5: a cap of 5
    certifies the check, and a cap of 2 reports which cap stopped it."""
    argv = ["cyc", "gt-ortho", "--partition", "3,1,0", "--cache-dir", str(tmp_path)]
    code, doc, _ = run_json(capsys, argv + ["--deg-cap", "2"])
    assert code == 1
    assert doc == {
        "lambda": [3, 1, 0],
        "patterns": 15,
        "ok": False,
        "status": "capped",
        "reason": "degree cap 2 is below degree 5, "
        "where the graded-symmetry range of some pattern pair ends",
    }
    code, doc, _ = run_json(capsys, argv + ["--deg-cap", "5"])
    assert code == 0 and doc == {"lambda": [3, 1, 0], "patterns": 15, "ok": True}


def test_oracle_gram(tmp_path, capsys):
    argv = [
        "oracle", "gram", "--partition", "2,0", "--beta", "2",
        "--cache-dir", str(tmp_path),
    ]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc["labels"] == [[1, 1]]
    assert doc["entries"][0][0]["num"] == [[-2, 1], [0, 2], [2, 1]]
    code2, out2, _ = run(capsys, argv)
    assert code2 == 0 and json.loads(out2) == doc


def test_csv_output(tmp_path, capsys):
    argv = [
        "cyc", "compare", "--partition", "1,0", "--seq", "1",
        "--cache-dir", str(tmp_path), "--format", "csv",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.splitlines() == ['gdim,"[[0, 1]]"', 'shapovalov,"[[0, 1]]"', "ok,true"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "patterns.json"
    code, out, _ = run(
        capsys, ["gt", "enum", "--partition", "1,0", "--out", str(target)]
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.endswith("\n") and len(json.loads(text)) == 2


def test_reused_parser_leaks_nothing_between_commands(tmp_path, capsys, monkeypatch):
    """One process runs a command sequence on verb parsers it built once each, and never
    builds the whole tree; every call's stdout, stderr, exit code, --out file and cache
    files equal a fresh interpreter's."""
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    cli._verb_parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    element = element_file(tmp_path, "el.json", 1, (1, 1), [("cross", 1), ("dot", 1)])
    gdim = ["cyc", "gdim", "--partition", "2,1,0", "--seq", "1,2", "--seq2", "1,2"]
    commands = [
        gdim + ["--format", "csv", "--deg-cap", "3", "--cache-dir", "{dir}/cache"],
        gdim + ["--cache-dir", "{dir}/cache"],
        ["cyc", "gdim", "--seq", "1", "--cache-dir", "{dir}/cache"],
        ["klr", "nf", "--in", element],
        ["gt", "enum", "--partition", "2,1,0", "--out", "{dir}/patterns.json"],
    ]

    def outcome(side, code, out, err):
        root = tmp_path / side
        files = {
            str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()
        }
        return code, out, err, files

    here = []
    for command in commands:
        argv = [a.replace("{dir}", str(tmp_path / "here")) for a in command]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        here.append(outcome("here", code, captured.out, captured.err))
    there = []
    for command in commands:
        argv = [a.replace("{dir}", str(tmp_path / "there")) for a in command]
        proc = run_module(argv)
        there.append(outcome("there", proc.returncode, proc.stdout, proc.stderr))

    assert [h[0] for h in here] == [0, 0, 2, 0, 0]
    # The first call's flags do not carry over: CSV and capped, then JSON and exact.
    assert here[0][1].startswith("lambda,") and "status,capped" in here[0][1]
    assert here[1][1].startswith('{"lambda": ') and '"status": "exact"' in here[1][1]
    assert "the following arguments are required: --partition" in here[2][2]
    assert here == there
    assert len(here[-1][3]) == 3  # two cache entries and the --out file
    # One build for each of cyc gdim, klr nf and gt enum; the two later gdims reuse theirs.
    info = cli._verb_parser.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 2, 3)
    assert builds == []


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gt", "bogus"])
    assert info.value.code == 2


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    """The installed `klrlab` script calls `main()`, which parses `sys.argv[1:]`."""
    monkeypatch.setattr(sys, "argv", ["klrlab", "gt", "enum", "--partition", "2,1,0"])
    code, doc, _ = run_json(capsys, None)
    assert code == 0 and len(doc) == 8


def parse_outcome(parse, argv):
    """What parsing argv prints to stdout and stderr, its exit code (None when it does not
    exit) and the namespace's attributes in sorted order."""
    out, err = io.StringIO(), io.StringIO()
    args, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args and sorted(vars(args).items())


# A value for each flag that takes one.
FLAG_VALUES = {
    "partition": "2,1,0", "seq": "1", "seq2": "1,1", "beta": "1", "rank": "2",
    "degree": "2", "in": "el.json", "optional-rank": "2", "blocks": "1", "deg-cap": "3",
    "cache-dir": "cache",
}


def flag_args(names, joined=False):
    """The argv giving each named flag its value, as `--flag=value` if joined."""
    argv = []
    for name in names:
        option, kwargs = cli.FLAGS[name]
        if kwargs.get("action") == "store_true":
            argv.append(option)
        elif joined:
            argv.append(f"{option}={FLAG_VALUES[name]}")
        else:
            argv += [option, FLAG_VALUES[name]]
    return argv


def argv_shapes(flags):
    """Well- and ill-formed argument lists after a verb that takes the named flags."""
    required = flag_args([n for n in flags if cli.FLAGS[n][1].get("required")])
    every = flag_args(flags) + ["--format", "csv", "--out", "out.json"]
    int_flag = next((cli.FLAGS[n][0] for n in flags if cli.FLAGS[n][1].get("type") is int),
                    "--rank")
    return [
        ["-h"],
        ["--help"],
        [],
        required,
        required + ["--out"],
        required + ["--bogus", "1"],
        required + ["-x"],
        required + ["--format", "xml"],
        required + [int_flag, "x"],
        required + ["--part", "3,1,0"],
        flag_args(flags, joined=True) + ["--format=csv"],
        required + ["--format", "csv", "--format", "json"],
        required + ["--", "x"],
        ["--", *required],
        required + [int_flag, "-1"],
        required + ["extra"],
        every,
        every + ["extra", "--help"],
    ]


VERBS = [(group, verb, flags) for group, (_, verbs) in cli.COMMANDS.items()
         for verb, _, flags, _ in verbs]


@pytest.mark.parametrize("group, verb, flags", VERBS, ids=[f"{g}-{v}" for g, v, _ in VERBS])
def test_verb_parser_parses_as_the_whole_tree(group, verb, flags):
    """On every argv shape, main's parse prints, exits and fills the namespace as the
    whole tree does."""
    tree = cli.build_parser()
    for shape in argv_shapes(flags):
        argv = [group, verb, *shape]
        expected = parse_outcome(tree.parse_args, argv)
        assert parse_outcome(cli.parse_args, argv) == expected, argv


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help", "cyc", "gdim"], ["cyc"], ["cyc", "-h"], ["cyc", "bogus"],
    ["bogus", "gdim"], ["cyc", "--part", "2,1,0"], ["gdim", "cyc"],
])
def test_other_argv_parse_as_the_whole_tree(argv):
    """Without a known group and verb first, main parses with the whole tree and builds
    no verb parser."""
    cli._verb_parser.cache_clear()
    expected = parse_outcome(cli.build_parser().parse_args, argv)
    assert parse_outcome(cli.parse_args, argv) == expected
    assert cli._verb_parser.cache_info().currsize == 0


def test_cache_dir_resolution(monkeypatch, tmp_path):
    monkeypatch.setenv("KLRLAB_CACHE", str(tmp_path / "fromenv"))
    assert default_cache_dir() == str(tmp_path / "fromenv")
    assert ResultCache().directory == str(tmp_path / "fromenv")
    assert ResultCache(str(tmp_path / "explicit")).directory == str(tmp_path / "explicit")
    monkeypatch.delenv("KLRLAB_CACHE")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == os.path.join(str(tmp_path / "xdg"), "klrlab")


def test_cache_fetch_and_corruption(tmp_path):
    cache = ResultCache(str(tmp_path))
    calls = []

    def compute():
        calls.append(1)
        return {"value": 7}

    assert cache.fetch(["k", 1], compute) == {"value": 7}
    assert cache.fetch(["k", 1], compute) == {"value": 7}
    assert len(calls) == 1
    path = cache.path_for(["k", 1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    assert cache.fetch(["k", 1], compute) == {"value": 7}
    assert len(calls) == 2


def canonical_sha256(obj):
    """The hash the cache names files by (of the key) and stores (of the payload)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cache_record_format_is_pinned(tmp_path):
    """A record is the one-line default `json.dumps` of key, payload hash and payload."""
    cache = ResultCache(str(tmp_path))
    key = ["oracle gram", [2, 0], [2]]
    payload = {"labels": [[1, 1]], "entries": [[{"num": [[-2, 1], [0, 2], [2, 1]]}]]}
    cache.put(key, payload)
    path = cache.path_for(key)
    assert os.path.basename(path) == canonical_sha256(key) + ".json"
    with open(path, "rb") as fh:
        written = fh.read()
    record = {"key": key, "sha256": canonical_sha256(payload), "payload": payload}
    assert written == json.dumps(record).encode("utf-8")


def test_cache_reads_records_streamed_by_json_dump(tmp_path):
    """Entries written with `json.dump` to the handle, as earlier versions did, still hit."""
    cache = ResultCache(str(tmp_path))
    key = ["cyc gdim", [2, 0], [1], [1], 16, 2]
    payload = {"gdim": [[0, 1], [2, 1]], "status": "exact"}
    record = {"key": key, "sha256": canonical_sha256(payload), "payload": payload}
    with open(cache.path_for(key), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    def miss():
        raise AssertionError("recomputed a cached result")

    assert cache.fetch(key, miss) == payload


def _pinned_record(key, payload):
    """The bytes `put` writes for key and payload."""
    record = {"key": key, "sha256": canonical_sha256(payload), "payload": payload}
    return json.dumps(record).encode("utf-8")


# Each turns the pinned bytes of a record into a bad entry.  The encoding cases would be
# hits for a reader that let `json.loads` guess the encoding of the bytes, or decoded
# them leniently: the cache reads UTF-8 only.
BAD_ENTRIES = {
    "other-key": lambda good: _pinned_record(["k", 2], {"value": 7}),
    "wrong-sha256": lambda good: good.replace(
        canonical_sha256({"value": 7}).encode(), b"0" * 64
    ),
    "not-a-dict": lambda good: b"[" + good + b"]",
    "empty": lambda good: b"",
    "invalid-utf8": lambda good: b'{"note": "\xff", ' + good[1:],
    "utf8-bom": lambda good: b"\xef\xbb\xbf" + good,
    "utf16": lambda good: good.decode("utf-8").encode("utf-16"),
}


@pytest.mark.parametrize("spoil", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_bad_cache_entry_is_a_miss_that_rewrites_it(spoil, tmp_path):
    key, payload = ["k", 1], {"value": 7}
    cache = ResultCache(str(tmp_path))
    good = _pinned_record(key, payload)
    path = Path(cache.path_for(key))
    path.write_bytes(spoil(good))
    calls = []

    def compute():
        calls.append(1)
        return dict(payload)

    assert cache.fetch(key, compute) == payload and calls == [1]
    assert path.read_bytes() == good
    assert cache.fetch(key, compute) == payload and calls == [1]


def test_cache_roundtrips_a_payload_over_64_kib(tmp_path):
    cache = ResultCache(str(tmp_path))
    key = ["big", 1]
    payload = {"rows": [[i, i * i] for i in range(8000)]}
    cache.put(key, payload)
    with open(cache.path_for(key), "rb") as fh:
        written = fh.read()
    assert len(written) > 64 * 1024 and written == _pinned_record(key, payload)

    def miss():
        raise AssertionError("recomputed a cached result")

    assert cache.fetch(key, miss) == payload


def test_cache_put_makes_a_missing_nested_directory(tmp_path):
    directory = tmp_path / "a" / "b"
    cache = ResultCache(str(directory))
    assert cache.put(["k", 1], {"value": 7}) == {"value": 7}
    assert [p.name for p in directory.iterdir()] == [canonical_sha256(["k", 1]) + ".json"]


def test_plain_file_cache_dir_error_is_pinned(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("")
    argv = ["cyc", "gdim", "--partition", "2,0", "--seq", "1", "--cache-dir", str(plain)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot write the cache in {str(plain)!r}: "
        f"[Errno 17] File exists: {str(plain)!r}\n"
    )


@pytest.mark.parametrize("verb", ["gdim", "compare"])
def test_warm_cached_hom_builds_no_context(verb, tmp_path, capsys, monkeypatch):
    """A hit answers from the cache alone; the key's cap is `make_context`'s default."""
    built = []
    make_context = cli.make_context

    def counting_make_context(*args, **kwargs):
        ctx = make_context(*args, **kwargs)
        built.append(ctx)
        return ctx

    monkeypatch.setattr(cli, "make_context", counting_make_context)
    argv = ["cyc", verb, "--partition", "2,1,0", "--seq", "1,2", "--seq2", "2,1",
            "--cache-dir", str(tmp_path)]
    code, cold, _ = run(capsys, argv)
    assert code == 0 and len(built) == 1
    code, warm, _ = run(capsys, argv)
    assert code == 0 and warm == cold and len(built) == 1
    default = inspect.signature(cyclo.make_context).parameters["degree_cap"].default
    assert default == cyclo.DEFAULT_DEGREE_CAP == built[0].degree_cap
    (entry,) = tmp_path.iterdir()
    assert json.loads(entry.read_bytes())["key"] == [
        f"cyc {verb}", [2, 1, 0], [1, 2], [2, 1], cyclo.DEFAULT_DEGREE_CAP
    ]
