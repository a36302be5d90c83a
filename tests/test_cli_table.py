"""The command-line parser built from ``cli._SUBCOMMANDS``, and a fuzz driven by it.

The table parser is compared with ``helpers.loop_build_parser``, which
declares every flag of every subcommand by hand: the same ``--help`` text,
the same Namespaces and the same refusals.  The fuzz gives every flag row of
the table, and the two environment variables the harness reads, a fixed set
of adversarial values; each run must exit 0 or 2, never 3, and nothing may
warn.
"""

import warnings

import pytest

from gmesim import cli

from helpers import loop_build_parser

SUBCOMMANDS = list(cli._SUBCOMMANDS)
ROWS = [(name, row) for name, (_, rows) in cli._SUBCOMMANDS.items() for row in rows]


def _help(parser, argv, capsys) -> str:
    with pytest.raises(SystemExit) as info:
        parser.parse_args([*argv, "--help"])
    assert info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [[]] + [[name] for name in SUBCOMMANDS],
                         ids=["top"] + SUBCOMMANDS)
def test_help_equals_the_hand_written_parsers(argv, capsys):
    text = _help(cli.build_parser(), argv, capsys)
    assert text and text == _help(loop_build_parser(), argv, capsys)


def _typed(namespace) -> dict:
    # 7 == 7.0, so the types are compared as well
    return {key: (type(value), value) for key, value in vars(namespace).items()}


def _sample(kind, choices) -> list[str]:
    if kind is bool:
        return []
    return [str(choices[0][-1]) if choices else {int: "7", float: "0.25", str: "1,2"}[kind]]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_namespaces_equal_the_hand_written_parsers(name):
    table, loop = cli.build_parser(), loop_build_parser()
    every = [name]
    for flag, kind, _, _, *choices in cli._SUBCOMMANDS[name][1]:
        one = [flag, *_sample(kind, choices)]
        assert _typed(table.parse_args([name, *one])) == _typed(loop.parse_args([name, *one]))
        every += one
    assert _typed(table.parse_args([name])) == _typed(loop.parse_args([name]))
    assert _typed(table.parse_args(every)) == _typed(loop.parse_args(every))


@pytest.mark.parametrize("name, flag", [(name, row[0]) for name, row in ROWS if len(row) == 5])
@pytest.mark.parametrize("value", ["2", "-1", "x"])
def test_choices_refusals_equal_the_hand_written_parsers(name, flag, value, capsys):
    refusals = []
    for parser in (cli.build_parser(), loop_build_parser()):
        with pytest.raises(SystemExit) as info:
            parser.parse_args([name, f"{flag}={value}"])
        refusals.append((info.value.code, capsys.readouterr().err))
    assert refusals[0] == refusals[1]
    assert refusals[0][0] == 2 and f"argument {flag}: invalid" in refusals[0][1]


@pytest.mark.parametrize("flags", [["--schmidt", "1,2", "--weights", "1,2"],
                                   ["--weights", "1,2", "--schmidt", "1,2"]])
def test_prop3_reads_schmidt_before_weights(flags, capsys):
    assert cli.main(["prop3", "--no-mc", *flags]) == 2
    assert capsys.readouterr().err == "gmesim: error: --schmidt expects 4 values, got 2\n"


# ---------------------------------------------------------------------------
# fuzz

#: Non-finite and extreme floats, signed zeros, empty and malformed lists,
#: and small integers outside most ranges.
VALUES = ["nan", "inf", "-inf", "-0", "0", "5e-324", "1e308", "", "x", "1,", ",", "1,2", "-1", "2"]
HUGE = "9" * 20
#: No cost budget bounds these flags yet (ROADMAP item 6): a huge value would
#: run for hours rather than be refused, so it is left out for them.
SIZE_FLAGS = {"--rounds", "--n-max", "--shots"}
VALUED_ROWS = [(name, row) for name, row in ROWS if row[1] is not bool]

#: Flags given before the fuzzed one, which overrides a repeat of itself:
#: small workloads, and builtins that read --p, --schmidt and --weights.
BASES = {
    "prop1": [["--rounds", "1"]],
    "prop2": [["--shots", "2"]],
    "prop3": [["--shots", "2"]],
    "sigma-scan": [["--p-list", "0.5", "--n-max", "2", "--shots", "10"]],
    "certify": [[], ["--builtin", "prop2"], ["--builtin", "prop3"]],
    "svetlichny": [[]],
}


def _exit_code(argv) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse's refusals
            return exc.code


def _failures(runs, capsys) -> list:
    failures = []
    for argv in runs:
        code = _exit_code(argv)
        err = capsys.readouterr().err
        if code not in (0, 2):
            failures.append((argv, code, err[-300:]))
    return failures


@pytest.mark.parametrize("name, row", VALUED_ROWS,
                         ids=[name + row[0] for name, row in VALUED_ROWS])
def test_every_flag_value_exits_0_or_2(name, row, monkeypatch, tmp_path, capsys):
    for variable in ("GME_SEED", "SOURCE_DATE_EPOCH"):
        monkeypatch.delenv(variable, raising=False)
    monkeypatch.chdir(tmp_path)  # --out writes into the test's own directory
    flag = row[0]
    values = VALUES if flag in SIZE_FLAGS else VALUES + [HUGE]
    runs = [[name, *base, f"{flag}={value}"] for base in BASES[name] for value in values]
    assert _failures(runs, capsys) == []


@pytest.mark.parametrize("variable", ["GME_SEED", "SOURCE_DATE_EPOCH"])
def test_every_environment_value_exits_0_or_2(variable, monkeypatch, capsys):
    failures = []
    for value in VALUES + [HUGE]:
        for name in ("GME_SEED", "SOURCE_DATE_EPOCH"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(variable, value)
        failures += _failures([["prop2", "--shots", "2"]], capsys)
    assert failures == []
