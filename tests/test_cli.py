import json
import re

import pytest

from langrepo import cli, errors, evalharness, repository
from langrepo.cli import main
from langrepo.config import load_app_config, make_providers
from langrepo.errors import BackendUnavailable
from langrepo.ingest import load_captions, transform_rate
from langrepo.llm import MockBackend
from langrepo.repository import load as load_repo

from conftest import make_caption_set, write_caption_file


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "llm": {"kind": "mock"},
        "embed": {"kind": "hashed", "dimension": 16},
        "build": {"chunk_schedule": [3, 2]},
        "parallelism": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def captions_path(tmp_path):
    return write_caption_file(tmp_path / "vid.json", make_caption_set(12))


def build_repo(tmp_path, config_path, captions_path):
    out = tmp_path / "repo.json"
    code = main(
        ["build", "--captions", str(captions_path), "--config", str(config_path), "--out", str(out)]
    )
    assert code == 0
    return out


class TestBuildCommand:
    def test_build_writes_repo(self, tmp_path, config_path, captions_path, capsys):
        out = build_repo(tmp_path, config_path, captions_path)
        repo = load_repo(out)
        assert [len(s) for s in repo.scales] == [3, 2]
        printed = capsys.readouterr().out
        assert "scale 0" in printed and "llm calls" in printed

    def test_bad_schedule_exits_2(self, tmp_path, captions_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"build": {"chunk_schedule": [2, 3]}}))
        code = main(
            ["build", "--captions", str(captions_path), "--config", str(bad), "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_missing_captions_exits_2(self, tmp_path, config_path):
        code = main(
            ["build", "--captions", str(tmp_path / "nope.json"), "--config", str(config_path), "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_rebuild_with_cache_issues_no_calls(self, tmp_path, config_path, captions_path, capsys):
        config_path.write_text(json.dumps({**json.loads(config_path.read_text()), "cache_dir": str(tmp_path / "cache")}))
        args = [
            "build",
            "--captions", str(captions_path),
            "--config", str(config_path),
            "--out", str(tmp_path / "repo.json"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "rephrase=0" in second

    def test_backend_unavailable_exits_1(self, tmp_path, config_path, captions_path, capsys, monkeypatch):
        def unavailable(self, req):
            raise BackendUnavailable("llm backend failed after 3 attempts: refused")

        monkeypatch.setattr(MockBackend, "complete", unavailable)
        out = tmp_path / "repo.json"
        code = main(["build", "--captions", str(captions_path), "--config", str(config_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: llm backend failed after 3 attempts: refused\n"
        assert not out.exists()


class TestAnswerCommand:
    def test_answer_prints_choice_and_scores(self, tmp_path, config_path, captions_path, capsys):
        repo_path = build_repo(tmp_path, config_path, captions_path)
        capsys.readouterr()
        code = main(
            [
                "answer",
                "--repo", str(repo_path),
                "--config", str(config_path),
                "--question", "What is happening?",
                "--options", "a", "bb", "ccc", "dddd", "eeeee",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "answer: [0] a" in out  # shortest option wins under the mock scorer
        assert "+" in out or "-" in out  # per-option scores printed
        assert "rephrase=0" in out  # answering never writes

    def test_generative_reply_without_a_letter_falls_back_to_option_0(
        self, tmp_path, config_path, captions_path, capsys, monkeypatch
    ):
        repo_path = build_repo(tmp_path, config_path, captions_path)
        capsys.readouterr()
        complete = MockBackend.complete
        monkeypatch.setattr(
            MockBackend, "complete", lambda self, req: "no idea" if req.purpose_tag == "qa" else complete(self, req)
        )
        config_path.write_text(json.dumps({**json.loads(config_path.read_text()), "classifier": "generative"}))
        argv = ["answer", "--repo", str(repo_path), "--config", str(config_path), "--question", "q", "--options", *"abcde"]
        assert main(argv) == 0
        printed = capsys.readouterr()
        assert "answer: [0] a" in printed.out
        assert printed.err == "warning: reply was unparseable, fell back to option 0\n"

    def test_generative_with_four_options_exits_2(self, tmp_path, config_path, captions_path, monkeypatch):
        repo_path = build_repo(tmp_path, config_path, captions_path)

        def unreachable(*args, **kwargs):
            raise AssertionError("read_from_repo reached before the options were checked")

        monkeypatch.setattr(repository, "read_from_repo", unreachable)
        config_path.write_text(json.dumps({**json.loads(config_path.read_text()), "classifier": "generative"}))
        code = main(
            [
                "answer",
                "--repo", str(repo_path),
                "--config", str(config_path),
                "--question", "q",
                "--options", "a", "b", "c", "d",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("question, options", [("what \udcff", ["a", "b"]), ("q", ["a", "b\udcff"])],
                             ids=["question", "option"])
    def test_argument_with_undecodable_bytes_exits_2(self, tmp_path, config_path, captions_path, capsys,
                                                      question, options):
        # Python reads argv bytes that are not UTF-8 as lone surrogates, which no prompt can carry.
        repo_path = build_repo(tmp_path, config_path, captions_path)
        capsys.readouterr()
        argv = ["answer", "--repo", str(repo_path), "--config", str(config_path), "--question", question,
                "--options", *options]
        assert main(argv) == 2
        assert "question and options must be UTF-8 encodable" in capsys.readouterr().err


class TestEvalCommand:
    def write_dataset(self, tmp_path, n=2):
        items = [
            {
                "question_id": f"q{i}",
                "video_id": "vid",
                "question": f"question {i}",
                "options": [f"o{j}" + "x" * j for j in range(5)],
                "answer_index": 0,
                "split_tag": "causal" if i % 2 else "temporal",
            }
            for i in range(n)
        ]
        path = tmp_path / "qa.json"
        path.write_text(json.dumps({"items": items}))
        return path

    def test_eval_writes_report_and_predictions(self, tmp_path, config_path, captions_path, capsys):
        dataset = self.write_dataset(tmp_path)
        captions_dir = captions_path.parent
        report_out = tmp_path / "report.json"
        predictions_out = tmp_path / "predictions.json"
        code = main(
            [
                "eval",
                "--dataset", str(dataset),
                "--captions-dir", str(captions_dir),
                "--config", str(config_path),
                "--mode", "langrepo",
                "--report-out", str(report_out),
                "--predictions-out", str(predictions_out),
            ]
        )
        assert code == 0
        report = json.loads(report_out.read_text())
        assert report["overall_accuracy"] == 1.0
        assert report["per_split"] == {"causal": 1.0, "temporal": 1.0}
        predictions = json.loads(predictions_out.read_text())
        assert len(predictions["predictions"]) == 2
        assert "overall accuracy" in capsys.readouterr().out

    def test_eval_missing_video_captions_exits_2(self, tmp_path, config_path):
        dataset = self.write_dataset(tmp_path)
        empty_dir = tmp_path / "empty"
        empty_dir.mkdir()
        code = main(
            [
                "eval",
                "--dataset", str(dataset),
                "--captions-dir", str(empty_dir),
                "--config", str(config_path),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "n, problem",
        [(0, "items is empty"), (3, r"items\[2\] repeats question_id 'q0' of items\[0\]")],
        ids=["no-items", "repeated-id"],
    )
    def test_bad_dataset_exits_2_before_writing(self, tmp_path, config_path, captions_path, capsys, n, problem):
        dataset = self.write_dataset(tmp_path, n)
        saved = json.loads(dataset.read_text())
        if n:
            saved["items"][-1]["question_id"] = "q0"
        dataset.write_text(json.dumps(saved))
        report_out, predictions_out = tmp_path / "report.json", tmp_path / "predictions.json"
        code = main(
            [
                "eval",
                "--dataset", str(dataset),
                "--captions-dir", str(captions_path.parent),
                "--config", str(config_path),
                "--report-out", str(report_out),
                "--predictions-out", str(predictions_out),
            ]
        )
        assert code == 2
        assert re.search(rf"qa\.json: {problem}", capsys.readouterr().err)
        assert not report_out.exists() and not predictions_out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("build", "--config"),
        ("build", "--captions"),
        ("answer", "--repo"),
        ("inspect", "--repo"),
        ("eval", "--dataset"),
        ("eval", "--captions-dir"),
    ],
)
def test_missing_input_exits_2_naming_the_path(tmp_path, config_path, captions_path, capsys, command, flag):
    argv = {
        "build": ["--captions", str(captions_path), "--config", str(config_path), "--out", str(tmp_path / "r.json")],
        "answer": ["--repo", "", "--config", str(config_path), "--question", "q", "--options", "a", "b"],
        "inspect": ["--repo", ""],
        "eval": [
            "--dataset", str(TestEvalCommand().write_dataset(tmp_path)),
            "--captions-dir", str(captions_path.parent),
            "--config", str(config_path),
            "--report-out", str(tmp_path / "report.json"),
            "--predictions-out", str(tmp_path / "predictions.json"),
        ],
    }[command]
    missing = tmp_path / "missing" / "input"
    argv[argv.index(flag) + 1] = str(missing)
    assert main([command, *argv]) == 2
    assert str(missing) in capsys.readouterr().err


class TestRateFactor:
    """eval --rate-factor runs the input-length study: the same evaluation on
    each caption set passed through transform_rate."""

    @pytest.fixture(autouse=True)
    def read_dependent_scores(self, monkeypatch):
        # The default mock score ignores the prefix; make it depend on the
        # read so that a different caption rate gives different predictions.
        monkeypatch.setattr(MockBackend, "score", lambda self, prefix, continuation: -len(prefix + continuation) / 1000)

    def run_eval(self, tmp_path, config_path, captions_path, name, *extra):
        dataset = TestEvalCommand().write_dataset(tmp_path)
        report_out, predictions_out = tmp_path / f"report-{name}.json", tmp_path / f"predictions-{name}.json"
        argv = [
            "eval",
            "--dataset", str(dataset),
            "--captions-dir", str(captions_path.parent),
            "--config", str(config_path),
            "--report-out", str(report_out),
            "--predictions-out", str(predictions_out),
            *extra,
        ]
        assert main(argv) == 0
        return report_out.read_bytes(), predictions_out.read_bytes()

    def test_identity_factor_writes_the_files_of_plain_eval(self, tmp_path, config_path, captions_path):
        plain = self.run_eval(tmp_path, config_path, captions_path, "plain")
        assert self.run_eval(tmp_path, config_path, captions_path, "1x", "--rate-factor", "1.0") == plain

    def test_report_records_the_factor(self, tmp_path, config_path, captions_path):
        plain, _ = self.run_eval(tmp_path, config_path, captions_path, "plain")
        assert json.loads(plain)["rate_factor"] == 1.0
        for factor in (0.5, 2.0):
            report, _ = self.run_eval(tmp_path, config_path, captions_path, f"{factor}x", "--rate-factor", str(factor))
            assert json.loads(report)["rate_factor"] == factor

    def test_factor_predicts_as_evaluate_on_transformed_captions(self, tmp_path, config_path, captions_path):
        items = evalharness.load_qa_dataset(TestEvalCommand().write_dataset(tmp_path))
        written = {}
        for factor in (0.5, 2.0):
            _, predictions = self.run_eval(tmp_path, config_path, captions_path, f"{factor}x", "--rate-factor", str(factor))
            written[factor] = json.loads(predictions)
            cfg = load_app_config(config_path)
            captions = {"vid": transform_rate(load_captions(captions_path), factor)}
            report = evalharness.evaluate(
                items, captions, cfg.build, "langrepo", make_providers(cfg), cfg.classifier, cfg.loglik_format
            )
            assert written[factor] == evalharness.predictions_payload(report.predictions)
        assert written[0.5] != written[2.0]

    def test_unsupported_factor_exits_2_before_any_call(self, tmp_path, config_path, captions_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("backend called for an unsupported rate factor")

        monkeypatch.setattr(MockBackend, "complete", unreachable)
        monkeypatch.setattr(MockBackend, "score", unreachable)
        with pytest.raises(SystemExit) as exited:
            self.run_eval(tmp_path, config_path, captions_path, "3x", "--rate-factor", "3")
        assert exited.value.code == 2
        assert "--rate-factor: invalid choice: 3.0" in capsys.readouterr().err
        assert list(tmp_path.glob("report-*")) == list(tmp_path.glob("predictions-*")) == []


class TestInspectCommand:
    def test_inspect_prints_rendered_lines(self, tmp_path, config_path, captions_path, capsys):
        repo_path = build_repo(tmp_path, config_path, captions_path)
        capsys.readouterr()
        assert main(["inspect", "--repo", str(repo_path)]) == 0
        out = capsys.readouterr().out
        assert "scale 0:" in out and "scale 1:" in out
        assert "[0.0s-" in out  # timestamps rendered for display

    def test_scale_filter(self, tmp_path, config_path, captions_path, capsys):
        repo_path = build_repo(tmp_path, config_path, captions_path)
        capsys.readouterr()
        assert main(["inspect", "--repo", str(repo_path), "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "scale 1:" in out and "scale 0:" not in out

    @pytest.mark.parametrize("scale", [2, 7, -1])
    def test_scale_out_of_range_exits_2_naming_the_count(self, tmp_path, config_path, captions_path, capsys, scale):
        repo_path = build_repo(tmp_path, config_path, captions_path)
        capsys.readouterr()
        assert main(["inspect", "--repo", str(repo_path), "--scale", str(scale)]) == 2
        assert "the repository has 2 scale(s)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("text", "", "description text must be non-empty"),
            ("occurrences", 0, "occurrences must be >= 1"),
            ("timestamps", [[5.0, 1.0]], r"invalid span \[5.0, 1.0\]"),
        ],
        ids=["empty-text", "no-occurrences", "reversed-span"],
    )
    def test_invalid_description_exits_2_naming_it(self, tmp_path, config_path, captions_path, capsys, key, value, problem):
        repo_path = build_repo(tmp_path, config_path, captions_path)
        capsys.readouterr()
        saved = json.loads(repo_path.read_text())
        saved["scales"][0][0]["descriptions"][0][key] = value
        repo_path.write_text(json.dumps(saved))
        assert main(["inspect", "--repo", str(repo_path)]) == 2
        assert re.search(rf"scales\[0\]\[0\]\.descriptions\[0\]: {problem}", capsys.readouterr().err)

    def test_version_mismatch_exits_2(self, tmp_path, config_path, captions_path):
        repo_path = build_repo(tmp_path, config_path, captions_path)
        text = repo_path.read_text().replace('"schema_version": 1', '"schema_version": 99')
        repo_path.write_text(text)
        assert main(["inspect", "--repo", str(repo_path)]) == 2


# The CLI's exit status by error class name, so that this pins the behaviour
# whatever the class hierarchy says.
EXITS_2 = {"UsageError", "ConfigError", "MalformedFile", "EmptyInput", "VersionMismatch", "OptionCountError",
           "MissingCaptions"}
ERROR_CLASSES = sorted(
    (value for value in vars(errors).values() if isinstance(value, type) and issubclass(value, errors.LangRepoError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_status_by_error_class(error, capsys, monkeypatch):
    def fail(args):
        raise error(f"raised {error.__name__}")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert main(["inspect", "--repo", "unused.json"]) == (2 if error.__name__ in EXITS_2 else 1)
    assert capsys.readouterr().err == f"error: raised {error.__name__}\n"
