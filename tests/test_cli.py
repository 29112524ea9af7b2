import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groupmcdm.cli import (
    COMMANDS,
    RunConfig,
    _build_parser,
    _config_from_args,
    cmd_aggregate,
    load_priorities,
    main,
)
from groupmcdm.errors import (
    InputError,
    NonPositiveEntry,
    ParseError,
    RaggedRow,
)

from conftest import EXAMPLE_W


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# malformed files and the line their ParseError names
MALFORMED = [
    ("a,b\nx,0.5\n", 2),
    ("a,b\n0.5,0.5\n0.5,nan\n", 3),
    ("a,b\ninf,0.5\n", 2),
    ("a,b\n0.5,-inf\n", 2),
    ("a,b,a\n0.2,0.3,0.5\n", 1),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadPriorities:
    def test_example_file(self, example_csv, tmp_path):
        with_bom = tmp_path / "bom.csv"
        with_bom.write_text(Path(example_csv).read_text(), encoding="utf-8-sig")
        for path in (example_csv, str(with_bom)):
            W, notes = load_priorities(path)
            np.testing.assert_allclose(W.values, EXAMPLE_W, atol=1e-15)
            assert W.labels == ("c1", "c2", "c3", "c4")
            assert notes == []

    def test_row_not_summing_to_one_is_renormalized(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b\n0.599,0.4\n0.5,0.5\n")
        W, notes = load_priorities(path)
        assert len(notes) == 1 and "re-normalized" in notes[0]
        np.testing.assert_allclose(W.values.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_rejected_by_default(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b\n0.5,0.5\n0.0,1.0\n")
        with pytest.raises(NonPositiveEntry) as exc:
            load_priorities(path)
        assert exc.value.line == 3
        assert exc.value.index == 0

    def test_zero_replaced_under_policy(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b\n0.5,0.5\n0.0,1.0\n")
        W, notes = load_priorities(path, zero_policy="replace", zero_eps=1e-6)
        assert any("replaced 1 zero" in n for n in notes)
        assert W.values[1, 0] > 0

    def test_negative_always_rejected(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b\n0.5,0.5\n-0.2,1.2\n")
        with pytest.raises(NonPositiveEntry):
            load_priorities(path, zero_policy="replace")

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b,c\n0.5,0.3,0.2\n0.5,0.5\n")
        with pytest.raises(RaggedRow) as exc:
            load_priorities(path)
        assert exc.value.line == 3

    def test_non_numeric_cell(self, tmp_path):
        for text, line in MALFORMED:
            path = write_csv(tmp_path / "w.csv", text)
            with pytest.raises(ParseError) as exc:
                load_priorities(path)
            assert exc.value.line == line
            if line > 1:
                assert "column" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_priorities(str(tmp_path / "nope.csv"))

    def test_no_data_rows(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b\n")
        with pytest.raises(ParseError):
            load_priorities(path)


class TestAggregateCommand:
    def test_gmm_json(self, capsys, example_csv):
        code, out, err = run_cli(
            capsys, "aggregate", "--input", example_csv, "--method", "gmm"
        )
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(
            report["results"]["weights"]["values"],
            [0.260, 0.405, 0.269, 0.066],
            atol=1e-3,
        )
        assert report["config"]["method"] == "gmm"

    def test_awgmm_flags_deviant_dm(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, "aggregate", "--input", example_csv, "--method", "awgmm"
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["deviants"] == [3]
        assert any("DM3" in w for w in report["warnings"])
        np.testing.assert_allclose(
            report["results"]["weights"]["values"],
            [0.225, 0.410, 0.319, 0.046],
            atol=1e-3,
        )

    def test_amm_carries_fallacy_warning(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, "aggregate", "--input", example_csv, "--method", "amm"
        )
        assert code == 0
        report = json.loads(out)
        assert any("should be avoided" in w for w in report["warnings"])

    def test_single_dm_any_method(self, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", "a,b,c\n0.5,0.3,0.2\n")
        for method in ("amm", "gmm", "awgmm"):
            code, out, _ = run_cli(
                capsys, "aggregate", "--input", path, "--method", method
            )
            assert code == 0
            report = json.loads(out)
            np.testing.assert_allclose(
                report["results"]["weights"]["values"], [0.5, 0.3, 0.2], atol=1e-12
            )

    def test_not_converged_is_numeric_failure(self, capsys, example_csv):
        code, out, err = run_cli(
            capsys,
            "aggregate", "--input", example_csv, "--method", "awgmm",
            "--max-iter", "1", "--tol", "1e-30",
        )
        assert code == 3
        assert "converge" in err

    def test_text_format(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys,
            "aggregate", "--input", example_csv, "--method", "gmm",
            "--format", "text",
        )
        assert code == 0
        assert "weights:" in out and "c2=0.406" in out

    def test_many_criteria_few_dms(self, tmp_path, capsys):
        # every Welsch kernel value exp(-d_k / sigma^2) underflows here unless
        # the distances are shifted by their minimum
        rng = np.random.default_rng(0)
        values = rng.dirichlet(np.full(100, 5.0), size=5)
        lines = [",".join(f"c{i}" for i in range(100))]
        lines += [",".join(f"{v:.17g}" for v in row) for row in values]
        path = write_csv(tmp_path / "w.csv", "\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "aggregate", "--input", path, "--method", "awgmm")
        assert code == 0, err
        results = json.loads(out)["results"]
        assert np.all(np.isfinite(results["weights"]["values"]))
        assert sum(results["dm_weights"]) == pytest.approx(1.0, abs=1e-12)
        code, out, err = run_cli(capsys, "describe", "--input", path)
        assert code == 0, err
        awgmm = json.loads(out)["results"]["ad_arrays"]["awgmm"]
        assert np.all(np.isfinite(awgmm["xi"])) and np.all(np.isfinite(awgmm["tau"]))

    def test_report_round_trips(self, example_csv):
        report = cmd_aggregate(RunConfig(command="aggregate", input=example_csv))
        parsed = json.loads(report.to_json())
        assert parsed["results"] == json.loads(report.to_json())["results"]
        assert parsed["config"]["input"] == example_csv


class TestDescribeCommand:
    def test_three_arrays_emitted(self, capsys, example_csv):
        code, out, _ = run_cli(capsys, "describe", "--input", example_csv)
        assert code == 0
        arrays = json.loads(out)["results"]["ad_arrays"]
        assert set(arrays) == {"mean", "median", "awgmm"}
        combined = np.array(arrays["mean"]["combined"])
        assert combined[0][1] == pytest.approx(-0.4474, abs=1e-3)
        assert combined[1][0] == pytest.approx(0.3522, abs=1e-3)

    def test_identical_rows_zero_lower_triangle(self, tmp_path, capsys):
        rows = "c1,c2,c3\n" + "0.5,0.3,0.2\n" * 4
        path = write_csv(tmp_path / "w.csv", rows)
        code, out, _ = run_cli(capsys, "describe", "--input", path)
        assert code == 0
        arrays = json.loads(out)["results"]["ad_arrays"]
        for name in ("mean", "median", "awgmm"):
            tau = np.array(arrays[name]["tau"])
            np.testing.assert_allclose(tau, 0.0, atol=1e-12)

    def test_text_layout_mentions_orientation(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, "describe", "--input", example_csv, "--format", "text"
        )
        assert code == 0
        assert "averages above diagonal" in out

    def test_random_file_matches_module_oracles(self, tmp_path, capsys):
        from groupmcdm import PriorityMatrix, average_deviation_array

        rng = np.random.default_rng(61)
        values = rng.dirichlet(np.ones(4), size=7)
        lines = ["a,b,c,d"] + [",".join(f"{v:.17g}" for v in row) for row in values]
        path = write_csv(tmp_path / "w.csv", "\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "describe", "--input", path)
        assert code == 0
        arrays = json.loads(out)["results"]["ad_arrays"]
        W = PriorityMatrix(values)
        for estimator in ("mean", "median", "awgmm"):
            ad = average_deviation_array(W, estimator)
            np.testing.assert_allclose(arrays[estimator]["xi"], ad.xi, atol=1e-12)
            np.testing.assert_allclose(arrays[estimator]["tau"], ad.tau, atol=1e-12)


class TestRankCommand:
    def test_dot_output_two_criteria(self, capsys, two_criteria_csv):
        code, out, _ = run_cli(
            capsys,
            "rank", "--input", two_criteria_csv, "--seed", "11", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph credal {")
        assert '"c2" -> "c1"' in out
        label = float(out.split('label="')[1].split('"')[0])
        assert label > 0.95

    def test_uniform_two_criteria_dashed_arc(self, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", "x,y\n0.5,0.5\n0.5,0.5\n")
        code, out, _ = run_cli(
            capsys, "rank", "--input", path, "--seed", "3", "--format", "dot"
        )
        assert code == 0
        assert 'label="0.50"' in out
        assert "style=dashed" in out

    def test_dot_labels_escaped(self, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", 'x"y,b\\c\n0.4,0.6\n0.3,0.7\n')
        code, out, _ = run_cli(
            capsys, "rank", "--input", path, "--test", "sign", "--format", "dot"
        )
        assert code == 0
        assert '  "x\\"y";\n' in out
        assert '  "b\\\\c";\n' in out
        assert '"b\\\\c" -> "x\\"y"' in out

    def test_seed_required_for_bayes(self, capsys, two_criteria_csv):
        code, _, err = run_cli(capsys, "rank", "--input", two_criteria_csv)
        assert code == 2
        assert "--seed" in err

    def test_sign_test_needs_no_seed(self, capsys, two_criteria_csv):
        code, out, _ = run_cli(
            capsys, "rank", "--input", two_criteria_csv, "--test", "sign"
        )
        assert code == 0
        orderings = json.loads(out)["results"]["orderings"]
        assert orderings[0]["relation"] == "<"
        assert orderings[0]["p_greater"] == pytest.approx(697 / 65536, abs=1e-12)

    def test_json_lists_all_pairs(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, "rank", "--input", example_csv, "--seed", "5",
            "--mc-samples", "1000",
        )
        assert code == 0
        orderings = json.loads(out)["results"]["orderings"]
        assert len(orderings) == 6


class TestClusterCommand:
    def test_centroid_sums_reported(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys,
            "cluster", "--input", example_csv, "--clusters", "2", "--seed", "4",
            "--with-baseline",
        )
        assert code == 0
        results = json.loads(out)["results"]
        np.testing.assert_allclose(
            results["compositional"]["centroid_sums"], 1.0, atol=1e-12
        )
        assert results["baseline"]["fallacious_baseline"] is True

    def test_own_cluster_zero_inertia(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, "cluster", "--input", example_csv, "--clusters", "5",
            "--seed", "4",
        )
        assert code == 0
        assert json.loads(out)["results"]["compositional"]["inertia"] == 0.0

    def test_seed_required(self, capsys, example_csv):
        code, _, err = run_cli(
            capsys, "cluster", "--input", example_csv, "--clusters", "2"
        )
        assert code == 2

    def test_two_blob_file_fully_separated(self, tmp_path, capsys):
        from test_clustering import two_blobs

        rng = np.random.default_rng(62)
        W, truth, _ = two_blobs(rng, per_blob=10)
        lines = ["a,b,c,d"] + [
            ",".join(f"{v:.17g}" for v in row) for row in W.values
        ]
        path = write_csv(tmp_path / "blobs.csv", "\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "cluster", "--input", path, "--clusters", "2", "--seed", "3"
        )
        assert code == 0
        assignments = np.array(json.loads(out)["results"]["compositional"]["assignments"])
        assert len(set(assignments[truth == 0])) == 1
        assert len(set(assignments[truth == 1])) == 1
        assert set(assignments) == {0, 1}

    def test_too_many_clusters_is_input_error(self, capsys, example_csv):
        code, _, err = run_cli(
            capsys, "cluster", "--input", example_csv, "--clusters", "12",
            "--seed", "4",
        )
        assert code == 2

    def test_reseeds_noted_once_per_model(self, tmp_path, capsys):
        path = write_csv(
            tmp_path / "w.csv", "a,b,c\n" + "0.7,0.2,0.1\n" * 3 + "0.1,0.2,0.7\n"
        )
        argv = ["cluster", "--input", path, "--clusters", "3", "--seed", "1",
                "--with-baseline"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        report = json.loads(out)
        results = report["results"]
        assert [results[key]["reseeded_clusters"] for key in ("compositional", "baseline")] == [2, 2]
        assert [w for w in report["warnings"] if "re-seeded" in w] == [
            "compositional K-means re-seeded 2 empty cluster(s)",
            "baseline K-means re-seeded 2 empty cluster(s)",
        ]
        code, out, err = run_cli(capsys, *argv, "--format", "text")
        assert code == 0 and err == ""
        assert out.count("re-seeded") == 2

    def test_iteration_and_restart_counts_validated(self, capsys, example_csv):
        for flag in ("--max-iter", "--restarts"):
            code, out, err = run_cli(
                capsys, "cluster", "--input", example_csv, "--clusters", "2",
                "--seed", "1", flag, "0",
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "must be at least 1" in err


class TestExitCodesAndDeterminism:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        for text, line in MALFORMED:
            path = write_csv(tmp_path / "w.csv", text)
            code, _, err = run_cli(capsys, "aggregate", "--input", path)
            assert code == 2
            assert f"error: line {line}:" in err

    def test_zero_policy_flag(self, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", "a,b\n0,1\n0.4,0.6\n")
        code, _, err = run_cli(capsys, "aggregate", "--input", path)
        assert code == 2
        code, out, _ = run_cli(
            capsys,
            "aggregate", "--input", path, "--zero-policy", "replace:1e-5",
        )
        assert code == 0
        assert json.loads(out)["config"]["zero_eps"] == 1e-5

    def test_bad_zero_policy(self, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", "a,b\n0.5,0.5\n")
        code, _, err = run_cli(
            capsys, "aggregate", "--input", path, "--zero-policy", "drop"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "option",
        [
            ["aggregate", "--deviant-threshold", "nan"],
            ["aggregate", "--deviant-threshold", "inf"],
            ["aggregate", "--deviant-threshold", "1.5"],
            ["aggregate", "--deviant-threshold", "-0.1"],
            ["aggregate", "--tol", "inf"],
            ["aggregate", "--sigma-denominator", "inf"],
            ["aggregate", "--zero-policy", "replace:inf"],
            ["rank", "--prior-weight", "inf"],
            ["rank", "--prior-a", "inf"],
            ["rank", "--prior-b", "nan"],
        ],
    )
    def test_non_finite_options_rejected(self, capsys, example_csv, option):
        command, *flags = option
        argv = [command, "--input", example_csv, "--seed", "1", *flags]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flags[0] in err

    @pytest.mark.parametrize(
        "rows, flags",
        [
            ("0.5,0.3,0.2\n", []),  # one DM: InsufficientSamples
            ("0.5,0.3,0.2\n0.2,0.3,0.5\n", ["--mc-samples", "999"]),
            ("0.5,0.3,0.2\n0.2,0.3,0.5\n", ["--prior-weight", "0"]),
            ("0.5,0.3,0.2\n0.2,0.3,0.5\n", ["--test", "t-test"]),
        ],
    )
    def test_invalid_rank_input_exits_2(self, tmp_path, capsys, rows, flags):
        path = write_csv(tmp_path / "w.csv", "a,b,c\n" + rows)
        try:
            code, out, err = run_cli(capsys, "rank", "--input", path, "--seed", "1", *flags)
        except SystemExit as exc:  # argparse rejects an unknown --test choice
            code, out, err = exc.code, "", capsys.readouterr().err
        assert code == 2
        assert out == ""
        assert "error: " in err

    @pytest.mark.parametrize("row, code", [("1e308,1e308,1", 0), ("1e-300,1e300,1", 2)])
    def test_rows_at_the_floating_point_limits(self, tmp_path, capsys, row, code):
        # a row whose sum overflows is still closed; one with a part that
        # underflows to zero is an input error naming the row
        path = write_csv(tmp_path / "w.csv", f"a,b,c\n0.2,0.3,0.5\n0.5,0.3,0.2\n{row}\n")
        for argv in (
            ["aggregate", "--method", "amm"],
            ["aggregate", "--method", "gmm"],
            ["aggregate", "--method", "awgmm"],
            ["describe"],
            ["rank", "--seed", "1", "--mc-samples", "1000"],
            ["rank", "--test", "sign"],
            ["cluster", "--clusters", "2", "--seed", "1", "--with-baseline"],
        ):
            got, out, err = run_cli(capsys, *argv, "--input", path)
            assert got == code, (argv, err)
            if code == 0:
                assert "NaN" not in out and "Infinity" not in out
                results = json.loads(out)["results"]
                if results.get("method") == "amm":
                    # the third DM counts, closed to (0.5, 0.5, 5e-309)
                    np.testing.assert_allclose(
                        results["weights"]["values"], [0.4, 1.1 / 3, 0.7 / 3], atol=1e-15
                    )
                if "compositional" in results:
                    assert len(results["compositional"]["assignments"]) == 3
            else:
                assert err.startswith("error: weight at row 3, column 1 underflows to 0")

    def test_rank_byte_identical(self, capsys, example_csv):
        argv = [
            "rank", "--input", example_csv, "--seed", "123",
            "--mc-samples", "2000",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_cluster_byte_identical(self, capsys, example_csv):
        argv = ["cluster", "--input", example_csv, "--clusters", "2", "--seed", "9"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["aggregate", "--method", "amm"],
        ["aggregate", "--method", "gmm"],
        ["aggregate", "--method", "awgmm"],
        ["describe"],
        ["rank", "--seed", "3", "--mc-samples", "1000"],
        ["rank", "--test", "sign"],
        ["cluster", "--clusters", "2", "--seed", "1"],
        ["cluster", "--clusters", "2", "--seed", "1", "--distance", "madc",
         "--with-baseline"],
    ],
)
def test_json_layout_matches_dataclass_dump(argv, example_csv):
    # the dump of the whole dataclass is the layout the JSON has always had
    args = _build_parser().parse_args([*argv, "--input", example_csv])
    report = COMMANDS[args.command](_config_from_args(args))
    expected = json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n"
    assert report.to_json() == expected


def test_import_does_not_load_scipy():
    # scipy is imported only by the sign test; loading it costs more than the
    # rest of a CLI run
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys, groupmcdm, groupmcdm.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert result.stdout.strip() == "[]"
