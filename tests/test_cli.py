"""End-to-end checks of the command-line harness.

These run the installed entry point in a subprocess with a scrubbed
environment, so seed and timestamp resolution behave exactly as documented
and outputs can be compared byte for byte.
"""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

from gmesim.cli import (
    EPOCH_TIMESTAMP,
    certificate_payload,
    format_float,
    main,
    schema_path,
    save_state_file,
)
from gmesim.entanglement import certify_entangled_all_cuts
from gmesim.protocols import build_prop2_state, build_prop3_state, build_sigma, build_sigma_prime
from gmesim.qcore import PartyDims, PureState, bell_pair, ket

SCHEMA = json.loads(schema_path().read_text(encoding="utf-8"))


def run_cli(*args, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k not in ("GME_SEED", "SOURCE_DATE_EPOCH")}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gmesim", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def load_envelope(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SCHEMA)
    return doc


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ("prop2", "--p", "0"),
            ("prop2", "--p", "1.5"),
            ("sigma-scan", "--p-list", ","),
            ("certify",),  # no input state at all
            ("certify", "--state-file", "/nonexistent/state.json"),
            ("svetlichny", "--builtin", "ghz4"),
            ("svetlichny", "--angles", "0,1,2,3,4"),
            # certify's builtin parameters are no svetlichny flags
            ("svetlichny", "--p", "0.3"),
            ("svetlichny", "--schmidt", "1,1,1"),
            ("svetlichny", "--weights", "1,1,1"),
            ("certify", "--builtin", "no-such-state"),
            ("prop3", "--weights", "1,2"),
        ],
    )
    def test_usage_and_domain_errors_exit_2(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr  # a diagnostic is printed

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("prop3", "--weights", "nan,1,1"), "--weights"),
            (("certify", "--builtin", "prop3", "--weights", "1,inf,1"), "--weights"),
            (("prop2", "--schmidt", "inf,1,1"), "--schmidt"),
            (("prop3", "--schmidt", "1,1,-inf,1"), "--schmidt"),
            (("certify", "--builtin", "sigma", "--schmidt", "1e999,1"), "--schmidt"),
            (("svetlichny", "--angles", "nan,0,0,0,0,0"), "--angles"),
            (("sigma-scan", "--p-list", "0.5,nan"), "--p-list"),
            (("prop1", "--pair-ab", "nan,1"), "--pair-ab"),
            (("prop1", "--pair-bc", "1,-inf"), "--pair-bc"),
        ],
    )
    def test_non_finite_flag_values_exit_2_naming_the_flag(self, capsys, args, flag):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(list(args)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"gmesim: error: {flag} must be finite, got (")
        assert caught == []

    @pytest.mark.parametrize("size", ["1e-200", "1e200"])
    def test_unnormalizable_schmidt_flag_exits_2(self, capsys, size):
        assert main(["prop2", "--schmidt", ",".join([size] * 3)]) == 2
        assert "too small or too large to normalize" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        assert run_cli("prop9").returncode == 2

    def test_conflicting_state_sources_exit_2(self, tmp_path):
        path = tmp_path / "s.json"
        save_state_file(str(path), bell_pair("phi+"))
        proc = run_cli("certify", "--state-file", str(path), "--builtin", "ghz3")
        assert proc.returncode == 2

    def test_malformed_state_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run_cli("certify", "--state-file", str(bad)).returncode == 2
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text('{"dims": [2, 2], "kind": "pure"}', encoding="utf-8")
        assert run_cli("certify", "--state-file", str(incomplete)).returncode == 2

    def test_non_finite_state_file_exits_2(self, tmp_path):
        path = tmp_path / "nan.json"
        # Python's json module writes and reads the NaN literal.
        matrix = [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]
        matrix[1] = matrix[4] = [math.nan, 0.0]
        payload = {"dims": [2, 2], "kind": "density", "matrix": matrix}
        path.write_text(json.dumps(payload), encoding="utf-8")
        proc = run_cli("certify", "--state-file", str(path))
        assert proc.returncode == 2
        assert "matrix entry (0, 1) is (nan+0j); entries must be finite" in proc.stderr

    def test_density_state_rejected_by_svetlichny(self):
        # the mixed builtins are built with their default parameters, then refused
        for builtin in ("prop1", "prop2", "prop3", "sigma"):
            proc = run_cli("svetlichny", "--builtin", builtin)
            assert proc.returncode == 2
            assert "the nonlocality functional needs a pure three-qubit state" in proc.stderr


class TestReproducibility:
    @pytest.mark.parametrize(
        "args",
        [
            ("prop1", "--p", "0.5", "--seed", "3"),
            ("prop2", "--shots", "2000", "--seed", "3"),
            ("prop3", "--shots", "2000", "--seed", "3"),
            ("sigma-scan", "--p-list", "0.3,0.5", "--n-max", "4", "--shots", "2000"),
            ("certify", "--builtin", "sigma", "--p", "0.4"),
            ("svetlichny", "--builtin", "merged-ghz3"),
        ],
    )
    def test_identical_flags_identical_bytes(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout

    def test_seed_resolution_order(self):
        default = load_envelope(run_cli("certify", "--builtin", "ghz3"))
        assert default["manifest"]["seed"] == 42
        from_env = load_envelope(
            run_cli("certify", "--builtin", "ghz3", env_extra={"GME_SEED": "99"})
        )
        assert from_env["manifest"]["seed"] == 99
        flag_wins = load_envelope(
            run_cli("certify", "--builtin", "ghz3", "--seed", "7", env_extra={"GME_SEED": "99"})
        )
        assert flag_wins["manifest"]["seed"] == 7

    def test_bad_env_seed_is_a_usage_error(self):
        proc = run_cli("certify", "--builtin", "ghz3", env_extra={"GME_SEED": "pancake"})
        assert proc.returncode == 2

    def test_timestamp_resolution_order(self):
        default = load_envelope(run_cli("certify", "--builtin", "ghz3"))
        assert default["manifest"]["timestamp"] == EPOCH_TIMESTAMP
        epoch = load_envelope(
            run_cli("certify", "--builtin", "ghz3", env_extra={"SOURCE_DATE_EPOCH": "86400"})
        )
        assert epoch["manifest"]["timestamp"] == "1970-01-02T00:00:00Z"
        explicit = load_envelope(
            run_cli(
                "certify", "--builtin", "ghz3", "--timestamp", "2024-05-01T00:00:00Z",
                env_extra={"SOURCE_DATE_EPOCH": "86400"},
            )
        )
        assert explicit["manifest"]["timestamp"] == "2024-05-01T00:00:00Z"

    def test_out_file_matches_stdout(self, tmp_path):
        to_stdout = run_cli("certify", "--builtin", "phi+")
        path = tmp_path / "report.json"
        rc = main(["certify", "--builtin", "phi+", "--out", str(path)])
        assert rc == 0
        assert path.read_text(encoding="utf-8") == to_stdout.stdout


class TestEnvelopes:
    def test_prop1_report_shape(self):
        doc = load_envelope(run_cli("prop1", "--p", "0.5", "--rounds", "2"))
        payload = doc["payload"]
        assert len(payload["branches"]) == 2
        kept = payload["branches"][0]
        assert kept["entangled"] is True
        assert kept["probability"] == pytest.approx(0.75, abs=1e-12)
        assert kept["fidelity_phi_plus"] == pytest.approx(2 / 3, abs=1e-9)
        assert payload["selected_separable"] is False
        traj = payload["distillation"]["trajectory"]
        assert len(traj) == 3  # initial point plus two rounds
        assert traj[-1][0] > traj[0][0]

    def test_prop1_separable_branch(self):
        doc = load_envelope(run_cli("prop1", "--charlie-outcome", "1"))
        payload = doc["payload"]
        assert payload["selected_separable"] is True
        assert payload["distillation"]["status"] == "not_distillable"

    def test_prop1_custom_family_recorded_in_manifest(self):
        doc = load_envelope(
            run_cli("prop1", "--pair-ab", "0.8,0.6", "--ref-a", "0", "--ref-c", "1")
        )
        fam = doc["manifest"]["config"]["family"]
        assert fam["pair_ab"] == pytest.approx([0.8, 0.6])
        assert fam["ref_a"] == 0 and fam["ref_c"] == 1

    def test_prop2_activation_payload(self):
        doc = load_envelope(run_cli("prop2", "--shots", "20000", "--seed", "5"))
        run = doc["payload"]["run"]
        assert run["success"] is True
        assert run["analytic_success_prob"] == pytest.approx(1 / 9, abs=1e-12)
        assert run["certificates"]["is_gme"] is True
        mc = doc["payload"]["monte_carlo"]
        assert abs(mc["success_rate"] - 1 / 9) < 0.01
        assert doc["manifest"]["config"]["schmidt"] == pytest.approx([1 / math.sqrt(3)] * 3)

    def test_prop2_schmidt_is_normalized_from_the_flag(self):
        doc = load_envelope(
            run_cli("prop2", "--schmidt", "0.577,0.577,0.577", "--no-mc", "--shots", "100")
        )
        coeffs = doc["manifest"]["config"]["schmidt"]
        assert coeffs == pytest.approx([1 / math.sqrt(3)] * 3, abs=1e-9)
        assert doc["payload"]["monte_carlo"] is None

    def test_prop3_activation_payload(self):
        doc = load_envelope(run_cli("prop3", "--shots", "20000", "--seed", "5"))
        run = doc["payload"]["run"]
        assert run["success"] is True
        assert run["analytic_success_prob"] == pytest.approx(1 / 216, abs=1e-12)
        assert run["certificates"]["is_gme"] is True
        assert len(run["final_state"]["amplitudes"]) == 16

    def test_certify_builtin_density(self):
        doc = load_envelope(run_cli("certify", "--builtin", "prop1", "--p", "0.5"))
        payload = doc["payload"]
        assert payload["is_gme"] is None  # rank certificates need a pure state
        assert payload["all_cuts_entangled"] is True
        assert payload["min_negativity"] > 1e-6
        assert len(payload["cuts"]) == 3

    def test_certify_pure_state_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = PureState(PartyDims((2, 2, 2)), amps / np.linalg.norm(amps))
        path = tmp_path / "state.json"
        save_state_file(str(path), state)
        doc = load_envelope(run_cli("certify", "--state-file", str(path)))
        assert doc["manifest"]["config"]["source"]["kind"] == "file"
        assert doc["payload"]["is_gme"] is True  # haar-ish random states are GME

    def test_svetlichny_default_settings_on_ghz(self):
        doc = load_envelope(run_cli("svetlichny"))
        payload = doc["payload"]
        assert payload["value"] == pytest.approx(4 * math.sqrt(2), abs=1e-9)
        assert payload["exceeds_classical"] is True
        assert payload["within_quantum"] is True
        assert doc["manifest"]["config"]["settings_source"] == "default"

    def test_svetlichny_custom_angles(self):
        doc = load_envelope(run_cli("svetlichny", "--angles", "0,0,0,0,0,0"))
        assert doc["manifest"]["config"]["settings_source"] == "custom"
        assert doc["payload"]["value"] <= 4.0 + 1e-9

    def test_product_state_certificate_is_negative(self):
        doc = load_envelope(run_cli("certify", "--builtin", "product3"))
        assert doc["payload"]["is_gme"] is False
        assert doc["payload"]["all_cuts_entangled"] is False


class TestScanOutput:
    def test_csv_layout(self):
        proc = run_cli("sigma-scan", "--p-list", "0.1,0.5", "--n-max", "3", "--shots", "1000")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "p,n,analytic,empirical,abs_error"
        assert len(lines) == 2 + 2 * 4  # two rates, n = 0..3
        first = lines[2].split(",")
        assert first[0] == "0.10000000000000001"  # 17-digit round-trip form
        assert first[1] == "0"
        assert first[2] == "0" and first[3] == "0"
        # manifest comment is itself valid JSON
        manifest = json.loads(lines[0][len("# manifest: "):])
        assert manifest["subcommand"] == "sigma-scan"
        assert manifest["config"]["n_max"] == 3

    def test_json_format_validates(self):
        doc = load_envelope(
            run_cli("sigma-scan", "--p-list", "0.5", "--n-max", "2", "--shots", "1000",
                    "--format", "json")
        )
        rows = doc["payload"]["rows"]
        assert len(rows) == 3
        assert rows[0]["n"] == 0 and rows[0]["empirical"] == 0

    def test_float_formatting_contract(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(1 / 3) == "0.33333333333333331"
        with pytest.raises(ValueError):
            format_float(float("nan"))


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("gmesim ")


def test_main_builds_one_parser_and_looks_up_handlers_per_call(monkeypatch, capsys):
    """Reusing the parser leaves artifacts, usage errors and handler lookup unchanged."""
    from gmesim import cli

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    argv = ["prop2", "--seed", "3", "--no-mc"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main(["prop2", "--bogus"])
    assert info.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    monkeypatch.setattr(cli, "cmd_prop2", lambda args, seed: ({"stub_seed": seed}, {}))
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["manifest"]["config"], doc["payload"]) == ({"stub_seed": 3}, {})
    assert builds == [1]


@pytest.mark.parametrize("command", ["certify"])
@pytest.mark.parametrize("value", ["0", "0.0"])
def test_zero_p_is_refused_not_replaced_by_the_default(capsys, command, value):
    """``--p 0`` reaches the state's constructor, which refuses it; it is not read as 0.5."""
    assert main([command, "--builtin", "prop1", "--p", value, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p must lie strictly inside (0, 1)" in captured.err


@pytest.mark.parametrize("argv", [
    ["prop1", "--rounds", "1"],
    ["prop2", "--no-mc"],
    ["prop3", "--no-mc"],
    ["sigma-scan"],
    ["certify", "--builtin", "ghz3"],
    ["svetlichny"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("source", ["--seed", "GME_SEED"])
def test_negative_seed_exits_2_naming_its_source(monkeypatch, capsys, argv, source):
    if source == "--seed":
        argv = argv + ["--seed", "-1"]
    else:
        monkeypatch.setenv("GME_SEED", "-1")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gmesim: error: {source} must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("argv, message", [
    (["sigma-scan", "--n-max", "-1"], "--n-max must be a non-negative integer, got -1"),
    (["sigma-scan", "--shots", "0"], "--shots must be a positive integer, got 0"),
    (["prop2", "--shots", "0"], "--shots must be a positive integer, got 0"),
    (["prop3", "--shots", "-2", "--no-mc"], "--shots must be a positive integer, got -2"),
    (["prop1", "--rounds", "0"], "--rounds must be a positive integer, got 0"),
    (["prop3", "--weights", "1,0,1", "--no-mc"], "three positive --weights are required"),
    (["certify", "--builtin", "prop3", "--weights", "1,2"], "three positive --weights are required"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_a_count_flag_out_of_range_exits_2_naming_the_flag(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gmesim: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["prop2", "--p", "2"], ["prop1", "--p", "0"], ["certify", "--builtin", "prop1", "--p", "0"],
    ["certify", "--builtin", "sigma", "--p", "1"],
], ids=" ".join)
def test_a_p_flag_out_of_range_exits_2_naming_the_flag(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gmesim: error: --p must lie strictly inside (0, 1)\n"


@pytest.mark.parametrize("value", ["9" * 20, "253402300800", "-" + "9" * 20])
def test_out_of_range_source_date_epoch_exits_2_naming_it(monkeypatch, capsys, value):
    monkeypatch.delenv("GME_SEED", raising=False)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
    assert main(["prop2", "--no-mc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gmesim: error: SOURCE_DATE_EPOCH is out of range, got {value!r}\n"


def certify_in_process(capsys, *argv):
    assert main(["certify", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_sigma_builtin_within_atol_of_maximal_certifies_build_sigma(capsys):
    """Coefficients the adaptive runner treats as maximal select ``build_sigma`` here too."""
    doc = certify_in_process(capsys, "--builtin", "sigma", "--schmidt", "1,1.000000001",
                             "--p", "0.3")
    want = certificate_payload(certify_entangled_all_cuts(build_sigma(0.3)), None)
    assert doc["payload"] == want


@pytest.mark.parametrize(
    "flags",
    [
        ("--builtin", "prop2"),
        ("--builtin", "prop2", "--schmidt", "1,2,3", "--p", "0.4"),
        ("--builtin", "prop3"),
        ("--builtin", "prop3", "--schmidt", "1,2,2,1", "--weights", "1,2,3"),
        ("--builtin", "sigma", "--p", "0.2"),
        ("--builtin", "sigma", "--schmidt", "1,2"),
        ("--builtin", "sigma", "--schmidt", "1,1.000000001"),
    ],
)
def test_builtin_manifest_records_the_parameters_that_rebuild_the_state(capsys, flags):
    doc = certify_in_process(capsys, *flags)
    source = doc["manifest"]["config"]["source"]
    schmidt = source["schmidt"]
    assert math.isclose(sum(c * c for c in schmidt), 1.0, rel_tol=1e-12)
    if source["name"] == "prop2":
        state = build_prop2_state(schmidt, source["p"])
    elif source["name"] == "prop3":
        assert math.isclose(sum(source["weights"]), 1.0, rel_tol=1e-12)
        state = build_prop3_state(schmidt, source["weights"])
    elif math.isclose(schmidt[0], schmidt[1], abs_tol=1e-9):
        state = build_sigma(source["p"])
    else:
        state = build_sigma_prime(ket([schmidt[0], 0, 0, schmidt[1]], (2, 2)), source["p"])
    assert doc["payload"] == certificate_payload(certify_entangled_all_cuts(state), None)


def test_builtin_manifests_differ_when_the_certified_state_does(capsys):
    default = certify_in_process(capsys, "--builtin", "prop2")
    skewed = certify_in_process(capsys, "--builtin", "prop2", "--schmidt", "1,2,3")
    assert default["payload"] != skewed["payload"]
    assert default["manifest"] != skewed["manifest"]


def test_weights_whose_plain_sum_overflows_normalize_like_equal_weights(capsys):
    """Each of 1e308 is finite; their sum is not, so they are scaled by the largest first."""
    assert main(["prop3", "--weights", "1e308,1e308,1e308", "--no-mc"]) == 0
    huge = capsys.readouterr()
    assert main(["prop3", "--weights", "1,1,1", "--no-mc"]) == 0
    assert huge.out == capsys.readouterr().out
    assert huge.err == ""


@pytest.mark.parametrize("subcommand", [["prop3", "--no-mc"], ["certify", "--builtin", "prop3"]])
def test_weights_that_underflow_when_normalized_name_the_underflow(capsys, subcommand):
    """1e-300 / 1e300 is 0.0 although every weight and the sum are finite and positive."""
    assert main(subcommand + ["--weights", "1e300,1e-300,1"]) == 2
    assert capsys.readouterr().err == (
        "gmesim: error: --weights '1e300,1e-300,1': a weight underflows to 0 when normalized\n"
    )


@pytest.mark.parametrize("mc", [[], ["--no-mc"]], ids=["mc", "no-mc"])
@pytest.mark.parametrize("tiny", ["1e-9", "1e-170"])
@pytest.mark.parametrize("protocol, schmidt", [("prop2", "1,{0},{0}"), ("prop3", "1,1,{0},{0}")],
                         ids=["prop2", "prop3"])
def test_a_postselected_chain_names_its_pruned_copy(capsys, protocol, schmidt, tiny, mc):
    """At 1e-170 the accepting probability underflows to 0.0; the message is the prune's."""
    assert main([protocol, "--schmidt", schmidt.format(tiny), *mc]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"gmesim: error: {protocol}: an accepting branch of copy 1 has probability at or "
        "below 1e-12, so the copy leaves no pair\n"
    )


def test_a_merged_state_prints_no_negative_zero(capsys):
    """The phase fix makes every zero amplitude +0.0: at this draw the final state's
    phase has a negative part, and 30 of its zero parts printed as -0.0."""
    assert main([
        "prop3", "--weights", "0.8937500512081724,1.0508571496236117,1.2622384732317333",
        "--schmidt", "0.6515595160591205,0.5042719090669235,0.8287476728484128,0.622758886359967",
        "--seed", "1316504689",
    ]) == 0
    out = capsys.readouterr().out
    assert "[0, 0]" in out
    assert re.findall(r"-0\.0(?![0-9eE])", out) == []
