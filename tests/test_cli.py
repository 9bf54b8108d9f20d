"""Command-line surface: subcommands, file formats, exit codes, seeds."""

import csv
import io
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from hologen import bounds, certify, cli, numrange
from hologen.certify import NotCertifiedError, PseudoDissipativityCertificate
from hologen.cli import run
from hologen.numrange import OracleMismatchError, harris_check
from hologen.polymaps import map_to_dict
from hologen.spaces import NormedSpace

from conftest import identity_map, matrix_searches, minus_identity


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_map(tmp_path, name, pm):
    path = tmp_path / name
    path.write_text(json.dumps(map_to_dict(pm)))
    return str(path)


@pytest.fixture
def minus_id_path(tmp_path):
    return write_map(tmp_path, "minus_id.json", minus_identity(NormedSpace(2, 2.0)))


@pytest.fixture
def identity_path(tmp_path):
    return write_map(tmp_path, "identity.json", identity_map(NormedSpace(2, 2.0)))


@pytest.fixture
def certifications(monkeypatch):
    """("ball", tolerance) of every certify_generator call and ("slices",
    tolerance) of every exact slice batch of restriction_agreement, in order.

    Every module-level name of the certifier is wrapped.
    """
    calls = []
    real_ball, real_slices = certify.certify_generator, certify._disc_verdicts

    def ball(G, budget=None, tolerance=1e-9):
        calls.append(("ball", tolerance))
        return real_ball(G, budget, tolerance)

    def slices(C, tolerance):
        calls.append(("slices", tolerance))
        return real_slices(C, tolerance)

    monkeypatch.setattr(certify, "_disc_verdicts", slices)
    for module in (certify, bounds, cli):
        if hasattr(module, "certify_generator"):
            monkeypatch.setattr(module, "certify_generator", ball)
    return calls


class TestCertifyGen:
    def test_contraction_certifies(self, capsys, minus_id_path):
        rc, out, _ = invoke(capsys, "certify-gen", minus_id_path, "--no-timestamp")
        assert rc == 0
        payload = json.loads(out)
        assert payload["command"] == "certify-gen"
        assert payload["verdict"] == "certified"
        assert "generated_at" not in payload

    def test_expansion_refutes_with_exit_one(self, capsys, identity_path):
        rc, out, _ = invoke(capsys, "certify-gen", identity_path, "--no-timestamp")
        assert rc == 1
        payload = json.loads(out)
        assert payload["verdict"] == "refuted"
        assert payload["witness"] is not None

    def test_timestamp_present_by_default(self, capsys, minus_id_path):
        rc, out, _ = invoke(capsys, "certify-gen", minus_id_path)
        assert rc == 0
        assert "generated_at" in json.loads(out)

    def test_byte_stable_reports(self, capsys, minus_id_path):
        _, first, _ = invoke(capsys, "certify-gen", minus_id_path, "--no-timestamp")
        _, second, _ = invoke(capsys, "certify-gen", minus_id_path, "--no-timestamp")
        assert first == second

    def test_output_file_instead_of_stdout(self, capsys, tmp_path, minus_id_path):
        target = tmp_path / "report.json"
        rc, out, _ = invoke(capsys, "certify-gen", minus_id_path,
                            "--no-timestamp", "-o", str(target))
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "certified"


class TestCertifyPd:
    def test_rotated_shifted_contraction(self, capsys, tmp_path):
        space = NormedSpace(2, 2.0)
        F = minus_identity(space).shifted(0.0, -0.5).shifted(-1.1, 0.0)
        path = write_map(tmp_path, "lifted.json", F)
        rc, out, _ = invoke(capsys, "certify-pd", path, "--no-timestamp")
        assert rc == 0
        payload = json.loads(out)
        assert payload["verdict"] == "certified"
        assert {"theta", "a", "b", "samples"} <= set(payload)
        assert "epsilon" not in payload and "witness" not in payload

    @pytest.mark.parametrize("flag", [["--epsilon", "0.1"], ["--cert-tol", "1e-9"]])
    def test_line_fit_takes_no_annulus_or_tolerance_flag(self, capsys, minus_id_path, flag):
        # the fit is exact in radius and phase and never refutes a PolyMap,
        # so neither an annulus width nor a refutation tolerance is read
        rc, out, err = invoke(capsys, "certify-pd", minus_id_path, *flag)
        assert (rc, out) == (2, "")
        assert "unrecognized arguments" in err


class TestNumrange:
    def test_diagonal_matrix(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps([[1, 0], [0, -2]]))
        rc, out, _ = invoke(capsys, "numrange", str(path), "--no-timestamp")
        assert rc == 0
        payload = json.loads(out)
        assert payload["m"] == pytest.approx(-2.0, abs=1e-6)
        assert payload["V"] == pytest.approx(2.0, abs=1e-6)
        assert payload["dim"] == 2
        assert payload["p"] == 2.0

    def test_complex_entries_as_pairs(self, capsys, tmp_path):
        path = tmp_path / "rot.json"
        path.write_text(json.dumps([[[0, 1]]]))
        rc, out, _ = invoke(capsys, "numrange", str(path), "--no-timestamp")
        assert rc == 0
        payload = json.loads(out)
        assert payload["m"] == pytest.approx(0.0, abs=1e-8)
        assert payload["V"] == pytest.approx(1.0, abs=1e-8)

    def test_sup_norm_space_flag(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({"matrix": [[1, 0], [0, -2]]}))
        rc, out, _ = invoke(capsys, "numrange", str(path), "--p", "inf",
                            "--no-timestamp")
        assert rc == 0
        assert json.loads(out)["p"] == "inf"

    def test_map_description_input_uses_linear_part(self, capsys, minus_id_path):
        rc, out, _ = invoke(capsys, "numrange", minus_id_path, "--no-timestamp")
        assert rc == 0
        payload = json.loads(out)
        assert payload["m"] == pytest.approx(-1.0, abs=1e-8)
        assert payload["V"] == pytest.approx(1.0, abs=1e-8)

    def test_matrix_shape_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        for data, message in [
                ([[1, 0], [0]], "row 1"),
                ({"rows": [[1]]}, "'matrix' key"),
                ([[1, "x"], [0, 1]], "entry [0][1] must be a number or a [re, im] pair")]:
            path.write_text(json.dumps(data))
            rc, _, err = invoke(capsys, "numrange", str(path))
            assert rc == 2
            assert message in err

    def test_bad_p_flag(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps([[1]]))
        assert invoke(capsys, "numrange", str(path), "--p", "abc")[0] == 2
        assert invoke(capsys, "numrange", str(path), "--p", "0.5")[0] == 2


class TestBound:
    def test_contraction_curve(self, capsys, tmp_path, minus_id_path):
        curve = tmp_path / "curve.csv"
        rc, out, _ = invoke(capsys, "bound", minus_id_path, "--no-timestamp",
                            "--curve", str(curve))
        assert rc == 0
        payload = json.loads(out)
        assert payload["mode"] == "generator"
        assert not payload["violated"]
        assert payload["min_slack"] == pytest.approx(0.26374771686506604, abs=1e-6)
        rows = list(csv.reader(io.StringIO(curve.read_text())))
        assert rows[0] == ["r", "lhs_max", "rhs_sharp", "rhs_coarse"]
        by_radius = {float(r[0]): [float(x) for x in r[1:]] for r in rows[1:]}
        mid = min(by_radius, key=lambda r: abs(r - 0.5))
        assert abs(mid - 0.5) < 1e-9
        lhs, sharp, coarse = by_radius[mid]
        assert lhs == pytest.approx(0.5, abs=1e-9)
        assert sharp == pytest.approx(6.586552191989741, abs=1e-6)
        assert coarse == pytest.approx(6.598829049349451, abs=1e-6)

    def test_pseudo_dissipative_fallback(self, capsys, identity_path):
        # the identity refutes as a generator but carries a rotation by pi
        # and shift by -1 onto the zero drift, so the bound still verifies
        rc, out, _ = invoke(capsys, "bound", identity_path, "--no-timestamp")
        assert rc == 0
        payload = json.loads(out)
        assert payload["mode"] == "pseudo-dissipative"
        assert not payload["violated"]

    def test_no_certificate_skips_the_bound(self, capsys, monkeypatch, identity_path):
        def inconclusive(F, budget):
            return PseudoDissipativityCertificate("inconclusive", 0.0, 0.0, 0.0, 0, 0.0)

        monkeypatch.setattr("hologen.cli.certify_pseudo_dissipative", inconclusive)
        rc, out, _ = invoke(capsys, "bound", identity_path, "--no-timestamp")
        assert rc == 1
        payload = json.loads(out)
        assert payload["verdict"] == "inconclusive"
        assert payload["detail"] == "no certificate, growth bound not evaluated"
        assert "min_slack" not in payload

    def test_generator_certified_once(self, capsys, minus_id_path, certifications):
        rc, _, _ = invoke(capsys, "bound", minus_id_path, "--no-timestamp", "--cert-tol", "1e-7")
        assert rc == 0
        assert certifications == [("ball", 1e-7)]

    @pytest.mark.parametrize("error", [OracleMismatchError, NotCertifiedError])
    def test_check_errors_exit_one(self, capsys, monkeypatch, minus_id_path, error):
        def failing(*args, **kwargs):
            raise error("search disagreed")

        monkeypatch.setattr("hologen.cli.verify_growth_bound", failing)
        rc, out, err = invoke(capsys, "bound", minus_id_path, "--no-timestamp")
        assert rc == 1
        assert out == ""
        assert "hologen: search disagreed" in err


class TestFlow:
    def test_decay_endpoint(self, capsys, tmp_path, minus_id_path):
        csv_path = tmp_path / "traj.csv"
        rc, out, _ = invoke(capsys, "flow", minus_id_path,
                            "--z0", "[[0.3,0.2],[0,-0.4]]", "--t", "1.0",
                            "--no-timestamp", "--csv", str(csv_path))
        assert rc == 0
        payload = json.loads(out)
        assert payload["outcome"] == "completed"
        z = np.array([c[0] + 1j * c[1] for c in payload["final_state"]])
        exact = np.array([0.3 + 0.2j, -0.4j]) * math.exp(-1.0)
        assert np.linalg.norm(z - exact) <= 1e-8
        assert payload["nodes"] == payload["accepted"] + 1
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,re(z_1),im(z_1),re(z_2),im(z_2),norm"

    def test_escape_reports_violation(self, capsys, tmp_path, identity_path):
        csv_path = tmp_path / "escape.csv"
        rc, out, _ = invoke(capsys, "flow", identity_path, "--z0", "[0.5,0]",
                            "--t", "3.0", "--no-timestamp", "--csv", str(csv_path))
        assert rc == 1
        payload = json.loads(out)
        assert payload["outcome"] == "invariance-violation"
        assert payload["escape_time"] == pytest.approx(math.log(2.0), abs=0.1)
        assert payload["csv"] == str(csv_path)
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))
        assert rows[0] == ["t", "re(z_1)", "im(z_1)", "re(z_2)", "im(z_2)", "norm"]
        assert [float(x) for x in rows[1]] == [0.0, 0.5, 0.0, 0.0, 0.0, 0.5]
        assert len(rows) > 2

    def test_singular_drift_writes_csv(self, capsys, tmp_path):
        # z' = 1e16 z^2 drives the step controller below its floor at once
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps({
            "space": {"dim": 1, "p": 2}, "constant": [[0, 0]], "linear": [[[0, 0]]],
            "terms": [{"degree": 2, "monomial": [2], "coeff": [[1e16, 0]]}]}))
        csv_path = tmp_path / "stiff.csv"
        rc, out, _ = invoke(capsys, "flow", str(path), "--z0", "[0.5]", "--t", "1.0",
                            "--no-timestamp", "--csv", str(csv_path))
        assert rc == 1
        payload = json.loads(out)
        assert payload["outcome"] == "singular-drift"
        assert payload["failure_time"] == 0.0
        assert payload["csv"] == str(csv_path)
        assert csv_path.read_text() == "t,re(z_1),im(z_1),norm\n0,0.5,0,0.5\n"

    def test_argument_validation(self, capsys, minus_id_path, identity_path):
        assert invoke(capsys, "flow", minus_id_path, "--z0", "[0.1,0]",
                      "--t", "-1.0")[0] == 2
        assert invoke(capsys, "flow", minus_id_path, "--z0", "not json",
                      "--t", "1.0")[0] == 2
        assert invoke(capsys, "flow", minus_id_path, "--z0", "[0.1]",
                      "--t", "1.0")[0] == 2
        assert invoke(capsys, "flow", minus_id_path, "--z0", "[2.0,0]",
                      "--t", "1.0")[0] == 2
        assert invoke(capsys, "flow", minus_id_path, "--z0", "[0.1,0]",
                      "--t", "nan")[0] == 2
        # an infinite horizon once skipped the step loop and "completed"
        rc, out, err = invoke(capsys, "flow", identity_path, "--z0", "[0.5, 0]", "--t", "inf")
        assert (rc, out) == (2, "")
        assert "t_end must be finite and nonnegative, got inf" in err
        rc, out, err = invoke(capsys, "flow", minus_id_path, "--z0", "[NaN, 0]", "--t", "1.0")
        assert (rc, out) == (2, "")
        assert "start point must lie in the open unit ball" in err
        rc, _, err = invoke(capsys, "flow", minus_id_path, "--z0", '[0.1,"x"]',
                            "--t", "1.0")
        assert rc == 2
        assert "--z0 entry 1" in err


class TestSampleGen:
    def test_emitted_map_certifies(self, capsys, tmp_path):
        out_path = tmp_path / "gen.json"
        rc, _, _ = invoke(capsys, "sample-gen", "--n", "2", "--degree", "4",
                          "--seed", "3", "-o", str(out_path))
        assert rc == 0
        rc, out, _ = invoke(capsys, "certify-gen", str(out_path), "--no-timestamp")
        assert rc == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_seed_controls_output(self, capsys):
        _, first, _ = invoke(capsys, "sample-gen", "--n", "1", "--seed", "5")
        _, again, _ = invoke(capsys, "sample-gen", "--n", "1", "--seed", "5")
        _, other, _ = invoke(capsys, "sample-gen", "--n", "1", "--seed", "6")
        assert first == again
        assert first != other

    def test_env_seed_and_flag_priority(self, capsys, monkeypatch):
        monkeypatch.setenv("HOLOGEN_SEED", "5")
        _, via_env, _ = invoke(capsys, "sample-gen", "--n", "1")
        _, via_flag, _ = invoke(capsys, "sample-gen", "--n", "1", "--seed", "5")
        assert via_env == via_flag
        _, override, _ = invoke(capsys, "sample-gen", "--n", "1", "--seed", "6")
        assert override != via_env

    def test_env_seed_validation(self, capsys, monkeypatch):
        monkeypatch.setenv("HOLOGEN_SEED", "not-a-number")
        rc, _, err = invoke(capsys, "sample-gen", "--n", "1")
        assert rc == 2
        assert "HOLOGEN_SEED" in err

    def test_dimension_validation(self, capsys):
        assert invoke(capsys, "sample-gen", "--n", "17")[0] == 2


class TestVerifySuite:
    def test_single_seed_battery(self, capsys):
        rc, out, _ = invoke(capsys, "verify-suite", "--seeds", "1",
                            "--no-timestamp")
        assert rc == 0
        payload = json.loads(out)
        assert payload["all_passed"]
        result = payload["results"][0]
        assert result["passed"]
        assert all(result["checks"].values())
        assert result["seed"] == 0
        assert result["growth_min_slack"] >= -1e-9

    def test_ball_certified_twice_at_cert_tol(self, capsys, certifications):
        # the generator and its perturbed copy, each once; the agreement
        # checks, the linear-dissipation check and the growth certificate
        # take those verdicts, and every slice is held to the same tolerance
        rc, _, _ = invoke(capsys, "verify-suite", "--seeds", "1", "--cert-tol", "1e-7",
                          "--no-timestamp")
        assert rc == 0
        assert [tol for kind, tol in certifications if kind == "ball"] == [1e-7, 1e-7]
        assert [kind for kind, _ in certifications].count("slices") == 2
        assert {tol for _, tol in certifications} == {1e-7}

    def test_linear_part_searched_once(self, capsys, count_calls):
        # the chain reads the linear radius and infimum off the growth inputs
        searches = count_calls(bounds, "_estimates")
        assert invoke(capsys, "verify-suite", "--seeds", "1", "--no-timestamp")[0] == 0
        assert matrix_searches(searches) == (1, 1)

    def test_two_sphere_searches_per_seed(self, capsys, count_calls):
        # one climb for the growth bound and one for the chain; the harris
        # check reads the chain's margin instead of searching again
        searches = count_calls(numrange, "_sphere_search")
        assert invoke(capsys, "verify-suite", "--seeds", "1", "--no-timestamp")[0] == 0
        assert len(searches) == 2

    def test_harris_margin_matches_the_searched_check(self, capsys, monkeypatch):
        # the battery's maps peak on the +-e_k that lead every sphere sample,
        # so the chain's sampled sup norm is the searched one
        chains = []
        real = cli.verify_intermediate_chain

        def chain(G, **kwargs):
            chains.append((G, kwargs["budget"], real(G, **kwargs)))
            return chains[-1][2]

        monkeypatch.setattr(cli, "verify_intermediate_chain", chain)
        assert invoke(capsys, "verify-suite", "--seeds", "9", "--no-timestamp")[0] == 0
        assert len(chains) == 9
        for G, budget, report in chains:
            target = G.part_of_degree(2) or G.higher[0]
            margin = report.coefficient_margins[f"degree_{target.degree}_harris"]
            slack = harris_check(G.space, target, budget)["slack"]
            assert margin == pytest.approx(slack, abs=1e-12)

    def test_parallel_jobs_agree(self, capsys):
        _, serial, _ = invoke(capsys, "verify-suite", "--seeds", "2",
                              "--no-timestamp")
        _, parallel, _ = invoke(capsys, "verify-suite", "--seeds", "2",
                                "--jobs", "2", "--no-timestamp")
        assert serial == parallel

    def test_seed_count_validation(self, capsys):
        assert invoke(capsys, "verify-suite", "--seeds", "0")[0] == 2


# each shared flag with a valid value, and the shared flags each subcommand
# reads: 36 of the 63 (subcommand, flag) pairs
SHARED_FLAGS = {
    "--seed": ["3"], "-o": ["report.json"], "--no-timestamp": [], "--samples": ["8"],
    "--refine-iters": ["2"], "--cert-tol": ["1e-8"], "--bound-tol": ["1e-8"],
    "--rtol": ["1e-8"], "--jobs": ["2"],
}
SAMPLING = {"--seed", "-o", "--no-timestamp", "--samples", "--refine-iters"}
TAKES = {
    "certify-gen": SAMPLING | {"--cert-tol"},
    "certify-pd": SAMPLING,
    "numrange": SAMPLING,
    "bound": SAMPLING | {"--cert-tol", "--bound-tol"},
    "flow": {"-o", "--no-timestamp", "--rtol"},
    "sample-gen": {"--seed", "-o"},
    "verify-suite": SAMPLING | {"--cert-tol", "--bound-tol", "--jobs"},
}


def base_argv(command, map_path):
    """A valid invocation of the subcommand without shared flags."""
    return {
        "flow": ["flow", map_path, "--z0", "[0.1,0]", "--t", "0.1"],
        "sample-gen": ["sample-gen", "--n", "1"],
        "verify-suite": ["verify-suite", "--seeds", "1"],
    }.get(command, [command, map_path])


class TestSharedFlags:
    @pytest.mark.parametrize("command,flag", sorted(
        (c, f) for c in TAKES for f in SHARED_FLAGS if f not in TAKES[c]))
    def test_unread_flag_exits_two(self, capsys, minus_id_path, command, flag):
        argv = base_argv(command, minus_id_path) + [flag] + SHARED_FLAGS[flag]
        rc, out, err = invoke(capsys, *argv)
        assert (rc, out) == (2, "")
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command,flag", sorted(
        (c, f) for c in TAKES for f in TAKES[c]))
    def test_read_flag_is_accepted(self, minus_id_path, command, flag):
        # parsed only: the flag sets exactly one setting away from its default
        parse = cli._build_parser().parse_args
        plain = vars(parse(base_argv(command, minus_id_path)))
        given = vars(parse(base_argv(command, minus_id_path) + [flag] + SHARED_FLAGS[flag]))
        assert len([key for key in given if given[key] != plain[key]]) == 1

    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_help_names_exactly_the_read_flags(self, capsys, command):
        rc, out, _ = invoke(capsys, command, "--help")
        assert rc == 0
        named = set(re.findall(r"(?<![\w-])-{1,2}[a-z][\w-]*", out))
        assert named & set(SHARED_FLAGS) == TAKES[command]

    def test_flow_ignores_a_bad_seed_environment(self, capsys, monkeypatch, minus_id_path):
        # only subcommands that take a seed resolve HOLOGEN_SEED
        monkeypatch.setenv("HOLOGEN_SEED", "not-a-number")
        rc, out, _ = invoke(capsys, *base_argv("flow", minus_id_path), "--no-timestamp")
        assert rc == 0
        assert json.loads(out)["outcome"] == "completed"


class TestErrorPaths:
    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        rc, _, err = invoke(capsys, "certify-gen", str(path))
        assert rc == 2
        assert "line 1" in err and "column" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = invoke(capsys, "certify-gen", str(tmp_path / "absent.json"))
        assert rc == 2
        assert "cannot read" in err

    def test_bad_map_description(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": {"dim": 2, "p": 2.0}}))
        rc, _, err = invoke(capsys, "certify-gen", str(path))
        assert rc == 2
        assert "bad map description" in err

    def test_unknown_subcommand(self, capsys):
        assert run(["no-such-command"]) == 2
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_bad_budget_flags(self, capsys, minus_id_path):
        assert invoke(capsys, "certify-gen", minus_id_path, "--samples", "-5")[0] == 2
        assert invoke(capsys, "certify-gen", minus_id_path, "--cert-tol", "0")[0] == 2
        assert invoke(capsys, "verify-suite", "--jobs", "0")[0] == 2
        # a NaN tolerance compares false against every slack, so even an
        # expanding map would certify under it
        assert invoke(capsys, "certify-gen", minus_id_path, "--cert-tol", "nan")[0] == 2

    def test_negative_infinite_p_rejected(self, capsys, tmp_path):
        assert invoke(capsys, "sample-gen", "--n", "2", "--p=-inf")[0] == 2
        data = map_to_dict(minus_identity(NormedSpace(2, 2.0)))
        data["space"]["p"] = -math.inf
        path = tmp_path / "neg_inf.json"
        path.write_text(json.dumps(data))  # written as -Infinity
        rc, _, err = invoke(capsys, "certify-gen", str(path))
        assert rc == 2
        assert "bad map description" in err

    @pytest.mark.parametrize("field", ["constant", "linear", "terms"])
    def test_non_finite_coefficients_rejected(self, capsys, tmp_path, field):
        # NaN once certified with worst_slack NaN, since no comparison fails
        data = {"space": {"dim": 1, "p": 2}, "constant": [[0.0, 0.0]],
                "linear": [[[-1.0, 0.0]]],
                "terms": [{"degree": 2, "monomial": [2], "coeff": [[0.5, 0.0]]}]}
        if field == "constant":
            data["constant"] = [[math.inf, 0.0]]
        elif field == "linear":
            data["linear"] = [[[math.nan, 0.0]]]
        else:
            data["terms"][0]["coeff"] = [[0.5, math.nan]]
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(data))  # written as NaN and Infinity
        for command in ("certify-gen", "certify-pd"):
            rc, out, err = invoke(capsys, command, str(path))
            assert rc == 2 and out == ""
            assert "bad map description" in err and "must be finite" in err

    def test_boolean_entries_rejected(self, capsys, tmp_path):
        good = map_to_dict(minus_identity(NormedSpace(2, 2.0)))
        path = tmp_path / "bools.json"
        for bad in ({**good, "space": {"dim": 2, "p": True}},
                    {**good, "constant": [[True, False], [0.0, 0.0]]}):
            path.write_text(json.dumps(bad))
            rc, _, err = invoke(capsys, "certify-gen", str(path))
            assert rc == 2
            assert "bad map description" in err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        pm = minus_identity(NormedSpace(1, 2.0))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(map_to_dict(pm)))
        proc = subprocess.run(
            [sys.executable, "-m", "hologen.cli", "certify-gen", str(path),
             "--no-timestamp"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "certified"
