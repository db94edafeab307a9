import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchon import backend, census, checks, cli
from cauchon.cli import main
from conftest import GRID_4x6
from test_package import run_child


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, argv):
    """(exit code, stdout, stderr without its elapsed: lines) of ``main(argv)``."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    err = [line for line in captured.err.splitlines() if not line.startswith("elapsed: ")]
    return code, captured.out, err


#: help, parse errors and one valid line of each command; GRID is a grid
#: file, and - reads GRID_4x6 from stdin
PARSER_LINES = [
    ["--help"],
    ["count", "--help"],
    ["check", "--help"],
    ["check", "formula-2xn", "--help"],
    [],
    ["nonsense"],
    ["--", "count", "--rows", "2", "--cols", "2"],
    ["count", "--rows", "x", "--cols", "2"],
    ["check"],
    # options the command does not take, reported with the full parser's usage
    ["count", "--rows", "2", "--cols", "2", "--bogus"],
    ["check", "formula-2xn", "--workers", "2"],
    ["count", "--rows", "2", "--cols", "3", "--histogram", "--format", "json", "--workers", "2"],
    ["table", "--max-rows", "2", "--max-cols", "3", "--format", "csv"],
    ["pfaffian", "--grid", "GRID", "--show-nullity", "--format", "json"],
    ["check", "power-of-two", "--max-rows", "2", "--max-cols", "3", "--format", "csv"],
    ["enumerate", "--rows", "2", "--cols", "2", "--format", "text"],
    ["matchings", "--grid", "GRID", "--format", "text"],
    # lines the CLI leaves to the full parser: --flag=value, an
    # abbreviation, a repeated flag, a value it must reject
    ["count", "--rows=2", "--cols", "2"],
    ["count", "--hist", "--rows", "2", "--cols", "2"],
    ["count", "--rows", "3", "--rows", "2", "--cols", "2"],
    ["count", "--rows", "2", "--cols", "2", "--max-cells", "0"],
    ["pfaffian", "--grid", "-"],
]


@pytest.mark.parametrize("argv", PARSER_LINES)
def test_command_parser_matches_full_parser(capsys, monkeypatch, tmp_path, argv):
    # main reads exact command lines itself and hands the rest to the full
    # parser; parsing every line with the full tree of build_parser() is
    # the oracle for what it prints, exits with and runs
    grid = tmp_path / "grid.txt"
    grid.write_text(GRID_4x6)
    argv = [str(grid) if arg == "GRID" else arg for arg in argv]

    def run():
        monkeypatch.setattr("sys.stdin", io.StringIO(GRID_4x6))
        return outcome(capsys, argv)

    lean = run()
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert run() == lean
    if lean[0] == 0 and "--help" not in argv:
        monkeypatch.undo()
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))


#: values the reader must read as argparse does, or refuse
VALUES = ["0", "00", "1", "2", "3", "-3", "+5", " 5", "\u0663", "-", "-x", "", "jsonl", "text", "csv", "json", "x"]


@st.composite
def command_lines(draw):
    """An argv of one command with an option table, with at most one odd option.

    Each option is an exact flag and a value of its own kind, but for the
    odd one, which takes a value from VALUES, or is abbreviated or joined
    to its value with ``=``. Half the lines hold every required flag, and
    one in five repeats a flag.
    """
    command = draw(st.sampled_from([name for name, spec in cli._COMMANDS.items() if spec[1] is not None]))
    options = cli._COMMANDS[command][1]
    picked = draw(st.lists(st.sampled_from(options), max_size=len(options), unique_by=lambda option: option[0]))
    if draw(st.booleans()):
        picked += [option for option in options if option[1].get("required") and option not in picked]
    if picked and draw(st.integers(0, 4)) == 0:
        picked.append(draw(st.sampled_from(picked)))
    odd = draw(st.integers(-1, len(picked) - 1))
    oddness = draw(st.sampled_from(["value", "value", "abbreviated", "joined"]))
    argv = [command]
    for i, (flag, kwargs) in enumerate(draw(st.permutations(picked))):
        form = oddness if i == odd else "exact"
        fitting = kwargs.get("choices") or (["1", "2", "3"] if "type" in kwargs else ["-", "grid.txt"])
        value = draw(st.sampled_from(VALUES if form == "value" else fitting))
        if form == "abbreviated":
            flag = flag[: draw(st.integers(3, len(flag) - 1))]
        if "action" in kwargs:
            argv.append(f"{flag}={value}" if form == "joined" else flag)
        else:
            argv += [f"{flag}={value}"] if form == "joined" else [flag, value]
    return argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_read_agrees_with_argparse(argv):
    args = cli._read(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--rows=2", "--cols", "2"],
        ["count", "--row", "2", "--cols", "2"],
        ["count", "--rows", "2", "--rows", "2", "--cols", "2"],
        ["count", "--rows", "2", "--cols", "2", "--histogram", "--histogram"],
        ["count", "--rows", "-3", "--cols", "2"],
        ["count", "--rows", "+5", "--cols", "2"],
        ["count", "--rows", " 5", "--cols", "2"],
        ["count", "--rows", "\u0663", "--cols", "2"],
        ["count", "--rows", "2", "--cols", "2", "--workers", "0"],
        ["count", "--rows", "2", "--cols", "2", "--format", "jsonl"],
        ["count", "--rows", "2"],
        ["count", "--rows", "2", "--cols"],
        ["count", "--help"],
        ["pfaffian", "--grid", "-x"],
        ["pfaffian", "--grid", "--show-matrix"],
        ["check", "formula-2xn"],
        ["--help"],
        [],
    ],
)
def test_read_leaves_to_argparse_what_it_cannot_read_exactly(argv):
    assert cli._read(argv) is None


def test_read_refuses_an_option_spec_it_does_not_know(monkeypatch):
    count = cli._COMMANDS["count"]
    options = [*count[1], ("--total", {"type": int, "metavar": "N"})]
    monkeypatch.setitem(cli._COMMANDS, "count", (count[0], options, *count[2:]))
    assert cli._read(["count", "--rows", "2", "--cols", "2"]) is None


#: under ``python -m cauchon.cli``: a usage, guardrail or grid error of each
#: command, its exit code and the last line of stderr; GRID, BAD, EMPTY and
#: MISSING are a non-Cauchon grid, a bad character, a 3x0 grid's text and a
#: missing file
FRESH_ERRORS = [
    (["count", "--rows", "0", "--cols", "1"], 2, "error: --rows must be >= 1 and --cols >= 0"),
    (["count", "--rows", "6", "--cols", "6", "--histogram", "--format", "csv"], 2,
     "error: --histogram needs --format text or json"),
    (["count", "--rows", "6", "--cols", "6"], 3,
     "error: 36 cells exceeds the guardrail of 30; raise it with --max-cells"),
    (["count", "--rows", "x", "--cols", "2"], 2, "cauchon count: error: argument --rows: invalid int value: 'x'"),
    (["table", "--max-rows", "0", "--max-cols", "3"], 2, "error: --max-rows and --max-cols must be >= 1"),
    (["table", "--max-rows", "5", "--max-cols", "7"], 3,
     "error: 35 cells exceeds the guardrail of 30; raise it with --max-cells"),
    (["table", "--max-rows", "2", "--max-cols", "2", "--workers", "-3"], 2,
     "cauchon table: error: argument --workers: must be >= 1, got -3"),
    (["enumerate", "--rows", "0", "--cols", "1"], 2, "error: --rows must be >= 1 and --cols >= 0"),
    (["enumerate", "--rows", "6", "--cols", "6"], 3,
     "error: 36 cells exceeds the guardrail of 30; raise it with --max-cells"),
    (["enumerate", "--rows", "2", "--cols", "3", "--max-cells", "0"], 2,
     "cauchon enumerate: error: argument --max-cells: must be >= 1, got 0"),
    (["check", "formula-2xn", "--max-n", "20", "--max-cells", "5"], 3,
     "error: 40 cells exceeds the guardrail of 5; raise it with --max-cells"),
    (["check", "relation-eqc", "--rows", "20"], 3,
     "error: 160 cells exceeds the guardrail of 30; raise it with --max-cells"),
    (["check", "formula-2xn", "--max-n", "0"], 2,
     "cauchon check formula-2xn: error: argument --max-n: must be >= 1, got 0"),
    (["check", "power-of-two", "--max-n", "5"], 2, "cauchon: error: unrecognized arguments: --max-n 5"),
    (["pfaffian", "--grid", "BAD"], 4,
     "error: bad character 'x' at cell (1, 1); expected '.' (white) or '#' (black)"),
    (["pfaffian", "--grid", "MISSING"], 4, "error: cannot read grid MISSING: [Errno 2] No such file or directory: 'MISSING'"),
    (["pfaffian"], 2, "cauchon pfaffian: error: the following arguments are required: --grid"),
    (["matchings", "--grid", "GRID"], 4,
     "error: cell (2, 2) is black but has a white square to its left in its row and a white square above it in its column"),
    (["matchings", "--grid", "GRID", "--format", "json"], 2,
     "cauchon matchings: error: argument --format: invalid choice: 'json' (choose from 'jsonl', 'text')"),
    (["pfaffian", "--grid", "EMPTY"], 4, "error: grid text holds no squares"),
    (["matchings", "--grid", "EMPTY"], 4, "error: grid text holds no squares"),
    (["enumerate", "--rows", "2", "--cols", "0", "--format", "text"], 2, "error: --cols 0 needs --format jsonl"),
]


@pytest.mark.parametrize("argv,code,last", FRESH_ERRORS)
def test_errors_keep_their_exit_codes_under_python_m(tmp_path, argv, code, last):
    # under -m cauchon.cli is __main__, and the exceptions main catches must
    # be the ones every command raises: no module that a command body imports
    # may import cauchon.cli, or its second copies would escape as exit 1
    (tmp_path / "grid.txt").write_text("..\n.#\n")
    (tmp_path / "bad.txt").write_text("x.\n")
    # a 3x0 grid as format_grid writes it, with a trailing newline
    (tmp_path / "empty.txt").write_text("\n\n\n")
    paths = {
        "GRID": str(tmp_path / "grid.txt"),
        "BAD": str(tmp_path / "bad.txt"),
        "EMPTY": str(tmp_path / "empty.txt"),
        "MISSING": str(tmp_path / "missing.txt"),
    }
    done = run_child(["-m", "cauchon.cli", *(paths.get(arg, arg) for arg in argv)])
    assert (done.returncode, done.stdout) == (code, ""), done.stderr
    assert done.stderr.splitlines()[-1] == last.replace("MISSING", paths["MISSING"])
    if last.startswith("error: "):
        assert done.stderr == last.replace("MISSING", paths["MISSING"]) + "\n"


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--rows", "2"])
    assert err.value.code == 2


def test_unknown_subject_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "nonsense"])
    assert err.value.code == 2


# --- count ---------------------------------------------------------------------


def test_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "--rows", "2", "--cols", "5")
    assert code == 0
    assert "primitive: 167" in out
    assert "total: 454" in out


def test_count_1x1(capsys):
    code, out, _ = run_cli(capsys, "count", "--rows", "1", "--cols", "1")
    assert code == 0
    assert "primitive: 1" in out


def test_count_empty_cols(capsys):
    code, out, _ = run_cli(capsys, "count", "--rows", "2", "--cols", "0")
    assert code == 0
    assert "total: 1" in out
    assert "primitive: 1" in out


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--rows", "2", "--cols", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,n,total,primitive,proportion_num,proportion_den"
    assert lines[1] == "2,2,14,5,5,14"


def test_count_json_with_histogram(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--rows", "2", "--cols", "2", "--format", "json", "--histogram"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["primitive"] == 5
    assert payload["nullity_histogram"]["0"] == 5


def test_count_csv_with_histogram_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "count", "--rows", "2", "--cols", "2", "--format", "csv", "--histogram"
    )
    assert code == 2
    assert out == ""
    assert "--histogram" in err


def test_count_json_without_histogram(capsys):
    code, out, _ = run_cli(capsys, "count", "--rows", "2", "--cols", "2", "--format", "json")
    payload = json.loads(out)
    assert "nullity_histogram" not in payload


def test_count_text_histogram(capsys):
    code, out, _ = run_cli(capsys, "count", "--rows", "2", "--cols", "2", "--histogram")
    assert code == 0
    assert out == (
        "m: 2\nn: 2\ntotal: 14\nprimitive: 5\nproportion: 5/14\n"
        "nullity histogram:\n  0: 5\n  1: 7\n  2: 2\n"
    )


def test_count_bad_rows(capsys):
    code, _, err = run_cli(capsys, "count", "--rows", "0", "--cols", "2")
    assert code == 2


def test_count_elapsed_goes_to_stderr(capsys):
    _, out, err = run_cli(capsys, "count", "--rows", "1", "--cols", "2")
    assert "elapsed" in err
    assert "elapsed" not in out


def test_count_deterministic_output(capsys):
    _, out1, _ = run_cli(
        capsys, "count", "--rows", "3", "--cols", "3", "--format", "json", "--workers", "2"
    )
    _, out2, _ = run_cli(
        capsys, "count", "--rows", "3", "--cols", "3", "--format", "json", "--workers", "1"
    )
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--rows", "2", "--cols", "2"],
        ["table", "--max-rows", "2", "--max-cols", "2"],
        # these subjects take no --workers at all, so any value is a usage error
        ["check", "formula-2xn"],
        ["check", "conjecture-3xn"],
    ],
)
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(argv, workers):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--workers", workers])
    assert err.value.code == 2


# --- guardrail --------------------------------------------------------------------


def test_guardrail_breach(capsys):
    code, _, err = run_cli(capsys, "count", "--rows", "6", "--cols", "6")
    assert code == 3
    assert "guardrail" in err


def test_guardrail_flag_lowers_limit(capsys):
    code, _, err = run_cli(
        capsys, "count", "--rows", "2", "--cols", "4", "--max-cells", "5"
    )
    assert code == 3
    assert "guardrail" in err


def test_guardrail_flag_override(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--rows", "2", "--cols", "4", "--max-cells", "8"
    )
    assert code == 0
    assert "total:" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--rows", "2", "--cols", "3"],
        ["table", "--max-rows", "2", "--max-cols", "3"],
        ["enumerate", "--rows", "2", "--cols", "3"],
        ["check", "criterion-2xn", "--max-n", "3"],
    ],
)
@pytest.mark.parametrize("max_cells", ["-1", "0"])
def test_max_cells_below_one_is_usage_error(argv, max_cells):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--max-cells", max_cells])
    assert err.value.code == 2


def test_max_cells_not_an_integer_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--rows", "2", "--cols", "2", "--max-cells", "x"])
    assert err.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "cauchon count: error: argument --max-cells: invalid integer 'x'"


# --- table --------------------------------------------------------------------------


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--max-rows", "3", "--max-cols", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,n,total,primitive,proportion_num,proportion_den"
    by_cell = {}
    for line in lines[1:]:
        parts = line.split(",")
        by_cell[(int(parts[0]), int(parts[1]))] = int(parts[3])
    assert [by_cell[(3, n)] for n in range(1, 6)] == [4, 17, 70, 329, 1414]
    assert [by_cell[(1, n)] for n in range(1, 5)] == [1, 2, 4, 8]


def test_table_json_is_the_census_payloads(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--max-rows", "3", "--max-cols", "4", "--format", "json"
    )
    assert code == 0
    expected = []
    for m in range(1, 4):
        for n in range(1, 5):
            payload = census.run_census(m, n).to_payload()
            payload.pop("nullity_histogram")
            expected.append(payload)
    assert out == json.dumps(expected) + "\n"


def test_json_writes_what_json_dumps_writes():
    records = census.run_censuses((m, n) for m in range(1, 7) for n in range(0, 7))
    rows = []
    for record in records:
        payload = record.to_payload()
        assert cli._json(payload) == json.dumps(payload)
        payload.pop("nullity_histogram")
        assert cli._json(payload) == json.dumps(payload)
        rows.append(payload)
    assert cli._json(rows) == json.dumps(rows)
    assert cli._json([]) == json.dumps([]) and cli._json({}) == json.dumps({})


@pytest.mark.parametrize(
    "value", [True, [1, False], 1.5, Fraction(1, 2), {"n": 0.5}, {1: 2}, "text", None]
)
def test_json_refuses_what_no_payload_holds(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-rows", "2", "--max-cols", "3")
    assert code == 0
    assert "17" in out


def test_table_bad_bounds(capsys):
    code, _, _ = run_cli(capsys, "table", "--max-rows", "0", "--max-cols", "3")
    assert code == 2


# --- pfaffian --------------------------------------------------------------------------


def test_pfaffian_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("..\n..\n"))
    code, out, _ = run_cli(capsys, "pfaffian", "--grid", "-", "--show-nullity")
    assert code == 0
    assert "pfaffian: 0" in out
    assert "determinant: 0" in out
    assert "nullity: 2" in out
    assert "primitive: false" in out


def test_pfaffian_file(capsys, tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("....\n")
    code, out, _ = run_cli(capsys, "pfaffian", "--grid", str(grid))
    assert code == 0
    assert "pfaffian: 1" in out
    assert "primitive: true" in out


def test_pfaffian_show_matrix(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(".."))
    code, out, _ = run_cli(capsys, "pfaffian", "--grid", "-", "--show-matrix")
    assert code == 0
    assert "matrix:" in out
    assert "0  1" in out


def test_pfaffian_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("..\n.."))
    code, out, _ = run_cli(
        capsys, "pfaffian", "--grid", "-", "--format", "json", "--show-nullity"
    )
    payload = json.loads(out)
    assert payload["pfaffian"] == 0
    assert payload["nullity"] == 2
    assert payload["primitive"] is False


def test_pfaffian_invalid_grid_exit_4(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("..\n.#"))
    code, _, err = run_cli(capsys, "pfaffian", "--grid", "-")
    assert code == 4
    assert "(2, 2)" in err


def test_pfaffian_missing_file_exit_4(capsys, tmp_path):
    not_utf8 = tmp_path / "grid.txt"
    not_utf8.write_bytes(b"\xff\xfe..")
    for command, path in [
        ("pfaffian", "/no/such/file"),
        ("pfaffian", str(tmp_path)),
        ("pfaffian", str(not_utf8)),
        ("matchings", str(not_utf8)),
    ]:
        code, out, err = run_cli(capsys, command, "--grid", path)
        assert (code, out) == (4, ""), (command, path)
        assert "cannot read grid" in err


def test_grid_errors_exit_4_in_a_fresh_interpreter(tmp_path):
    # the CLI loads the diagram module only once a grid command runs, so its
    # GridError is caught lazily; this process has loaded it long ago
    bad_char = tmp_path / "bad.txt"
    bad_char.write_text("x.\n")
    not_cauchon = tmp_path / "not_cauchon.txt"
    not_cauchon.write_text("..\n.#\n")
    for command, path in [
        ("pfaffian", bad_char),
        ("pfaffian", tmp_path),
        ("matchings", not_cauchon),
    ]:
        done = run_child(["-m", "cauchon.cli", command, "--grid", str(path)])
        assert (done.returncode, done.stdout) == (4, ""), (command, path, done.stderr)
        assert any(line.startswith("error: ") for line in done.stderr.splitlines())


# --- check -----------------------------------------------------------------------------


def test_check_formula_2xn(capsys):
    code, out, _ = run_cli(capsys, "check", "formula-2xn", "--max-n", "5")
    assert code == 0
    assert "PASS" in out


def test_check_criterion_2xn(capsys):
    code, out, _ = run_cli(capsys, "check", "criterion-2xn", "--max-n", "5")
    assert code == 0
    assert "PASS" in out


def test_check_conjecture_3xn(capsys):
    code, out, _ = run_cli(capsys, "check", "conjecture-3xn", "--max-n", "3")
    assert code == 0
    assert "no counterexample found" in out


def test_check_power_of_two(capsys):
    code, out, _ = run_cli(
        capsys, "check", "power-of-two", "--max-rows", "3", "--max-cols", "3"
    )
    assert code == 0
    assert "no counterexample found" in out


def test_check_relation_eqc(capsys):
    code, out, _ = run_cli(capsys, "check", "relation-eqc", "--rows", "2", "--max-n", "5")
    assert code == 0
    assert "PASS" in out


def test_check_lemma_decomposition(capsys):
    code, out, _ = run_cli(capsys, "check", "lemma-decomposition", "--max-n", "3")
    assert code == 0
    assert "PASS" in out


def test_check_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "check", "formula-2xn", "--max-n", "3", "--format", "csv"
    )
    assert code == 0
    assert out.startswith("n,formula,census,match")


#: every check subject, small sizes for it, its csv header and json keys
CHECK_SUBJECTS = {
    "formula-2xn": (["--max-n", "3"], "n,formula,census,match"),
    "conjecture-3xn": (["--max-n", "2"], "n,formula,census,match"),
    "criterion-2xn": (["--max-n", "2"], "n,diagrams,mismatches"),
    "power-of-two": (["--max-rows", "2", "--max-cols", "2"], "checked,violations"),
    "relation-eqc": (["--max-n", "2"], "n,total,binomial_sum,match"),
    "lemma-decomposition": (["--max-n", "2"], "n,diagrams,subsets,mismatches"),
}


@pytest.mark.parametrize("subject", CHECK_SUBJECTS)
def test_check_csv_header_and_json_keys(capsys, subject):
    sizes, header = CHECK_SUBJECTS[subject]
    code, out, _ = run_cli(capsys, "check", subject, *sizes, "--format", "csv")
    assert code == 0
    assert out.split("\n")[0] == header
    code, out, _ = run_cli(capsys, "check", subject, *sizes, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows and all(list(row) == header.split(",") for row in rows)
    if subject == "formula-2xn":
        assert [row["formula"] for row in rows] == ["2", "5", "17"]


def test_check_guardrail(capsys):
    code, _, err = run_cli(capsys, "check", "formula-2xn", "--max-n", "20")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "power-of-two", "--max-n", "5"],
        ["check", "criterion-2xn", "--workers", "2"],
        ["check", "formula-2xn", "--max-n", "0"],
        # no check subject takes --workers; only count and table still parse it
        *(
            ["check", subject, "--workers", "2"]
            for subject in CHECK_SUBJECTS
            if subject != "criterion-2xn"
        ),
    ],
)
def test_check_rejects_options_the_subject_does_not_take(argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2


def test_check_mismatch_exits_1_and_shows_row(capsys, monkeypatch):
    report = checks.CheckReport(
        ("n", "formula", "census", "match"),
        [{"n": 1, "formula": Fraction(3), "census": 2, "match": False}],
        ["n=1: formula=3 census=2"],
    )
    monkeypatch.setattr(checks, "check_formula", lambda *a, **k: report)
    code, out, _ = run_cli(capsys, "check", "formula-2xn", "--max-n", "1")
    assert code == 1
    assert "FAIL" in out
    assert "n=1" in out


# --- enumerate / matchings ----------------------------------------------------------------


def test_enumerate_jsonl(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--rows", "2", "--cols", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first["mask"] == [".", "."]
    assert first["pfaffian"] == 1
    assert first["primitive"] is True
    assert {json.loads(line)["d"] for line in lines} == {0, 1, 2}


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--rows", "1", "--cols", "1", "--format", "text")
    assert code == 0
    assert "d=1" in out and "d=0" in out


def test_one_condensation_per_diagram(capsys, monkeypatch):
    calls = []
    classify_cells = backend.classify_cells

    def counted(rows, cols):
        calls.append(len(rows))
        return classify_cells(rows, cols)

    monkeypatch.setattr(backend, "classify_cells", counted)
    code, out, _ = run_cli(capsys, "enumerate", "--rows", "3", "--cols", "3")
    assert code == 0
    assert len(out.splitlines()) == len(calls) == 230
    calls.clear()
    monkeypatch.setattr("sys.stdin", io.StringIO("...\n...\n"))
    code, out, _ = run_cli(capsys, "pfaffian", "--grid", "-", "--show-nullity")
    assert code == 0
    assert "determinant: 4" in out and "nullity: 0" in out
    assert len(calls) == 1


def test_matchings_jsonl(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("..\n.."))
    code, out, _ = run_cli(capsys, "matchings", "--grid", "-")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert len(rows) == 2
    assert sorted(r["sign"] for r in rows) == [-1, 1]
    for row in rows:
        assert row["edges"] == sorted(sorted(e) for e in row["edges"])


def test_matchings_odd_grid_is_empty(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(".#\n.."))
    code, out, _ = run_cli(capsys, "matchings", "--grid", "-")
    assert code == 0
    assert out == ""


def test_matchings_text(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(".."))
    code, out, _ = run_cli(capsys, "matchings", "--grid", "-", "--format", "text")
    assert code == 0
    assert out.strip() == "sign=+1 edges=(1,2)"
