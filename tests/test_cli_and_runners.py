"""Tests for the CLI (`python -m repro`) and the run_all experiment driver."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.core.sequence import TransformationPlan
from repro.experiments.run_all import EXPERIMENTS, run_experiments

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands() -> list[list[str]]:
    """The arguments of every ``python -m repro`` line in the README's
    ``bash`` blocks, with ``\\`` continuations joined and ``#`` comments
    dropped."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:3] == ["python", "-m", "repro"]:
                commands.append(words[3:])
    return commands


class TestParser:
    def test_readme_finds_commands(self):
        assert readme_cli_commands()

    @pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
    def test_readme_command_parses(self, argv):
        """A flag that is removed but still documented fails here."""
        build_parser().parse_args(argv)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_defaults(self):
        args = build_parser().parse_args(["datasets"])
        assert args.task is None

    def test_transform_args(self):
        args = build_parser().parse_args(
            ["transform", "pima_indian", "--episodes", "3", "--scale", "0.1"]
        )
        assert args.dataset == ["pima_indian"]  # several names = one batch
        assert args.episodes == 3
        assert args.scale == 0.1
        assert args.n_jobs == 1

    def test_transform_accepts_several_datasets(self):
        args = build_parser().parse_args(
            ["transform", "pima_indian", "wine_quality_red", "--n-jobs", "2"]
        )
        assert args.dataset == ["pima_indian", "wine_quality_red"]
        assert args.n_jobs == 2

    def test_sweep_args(self):
        args = build_parser().parse_args(
            ["sweep", "pima_indian", "--seeds", "0,1,2", "--n-jobs", "4"]
        )
        assert args.dataset == "pima_indian"
        assert args.seeds == "0,1,2"
        assert args.n_jobs == 4
        assert args.episodes == 8  # shared search flags apply

    def test_experiments_only_subset(self):
        args = build_parser().parse_args(["experiments", "--only", "fig11", "table4"])
        assert args.only == ["fig11", "table4"]

    def test_transform_schedule_flags_are_explicit(self):
        """The schedule knobs the CLI used to override silently are now
        visible flags with the same values as defaults."""
        args = build_parser().parse_args(["transform", "pima_indian"])
        assert args.cold_start_episodes is None  # -> max(1, episodes // 4)
        assert args.retrain_every == 2
        assert args.component_epochs == 4
        assert args.rf_estimators == 8
        custom = build_parser().parse_args(
            [
                "transform", "pima_indian",
                "--cold-start-episodes", "3",
                "--retrain-every", "5",
                "--component-epochs", "9",
                "--rf-estimators", "12",
            ]
        )
        assert custom.cold_start_episodes == 3
        assert custom.retrain_every == 5
        assert custom.component_epochs == 9
        assert custom.rf_estimators == 12

    def test_transform_session_flags(self):
        args = build_parser().parse_args(
            ["transform", "pima_indian", "--checkpoint", "c.ckpt",
             "--time-budget", "30", "--resume", "r.ckpt"]
        )
        assert args.checkpoint == "c.ckpt"
        assert args.time_budget == 30.0
        assert args.resume == "r.ckpt"

    def test_resume_command_args(self):
        args = build_parser().parse_args(["resume", "r.ckpt", "--time-budget", "5"])
        assert args.checkpoint_file == "r.ckpt"
        assert args.time_budget == 5.0

    def test_export_args(self):
        args = build_parser().parse_args(
            ["export", "pima_indian", "--episodes", "3", "--registry", "reg",
             "--name", "pima", "--tag", "prod"]
        )
        assert args.dataset == "pima_indian"
        assert args.episodes == 3
        assert args.registry == "reg" and args.name == "pima" and args.tag == "prod"
        assert args.out is None

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--artifact", "art", "--port", "0", "--max-requests", "3",
             "--max-wait-ms", "1.5", "--url-file", "u.txt"]
        )
        assert args.artifact == "art"
        assert args.port == 0
        assert args.max_requests == 3
        assert args.max_wait_ms == 1.5
        assert args.url_file == "u.txt"
        assert args.registry is None and args.version is None and args.tag is None
        # Production front-end knobs default off.
        assert args.max_queue is None and args.deadline_ms is None
        assert args.reload is False and args.shadow_tag is None

    def test_serve_frontend_args(self):
        args = build_parser().parse_args(
            ["serve", "--registry", "reg", "--name", "churn", "--tag", "prod",
             "--max-queue", "64", "--deadline-ms", "250", "--reload",
             "--shadow-tag", "next"]
        )
        assert args.max_queue == 64
        assert args.deadline_ms == 250.0
        assert args.reload is True
        assert args.shadow_tag == "next"


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cardiovascular" in out
        assert "openml_618" in out

    def test_datasets_task_filter(self, capsys):
        main(["datasets", "--task", "detection"])
        out = capsys.readouterr().out
        assert "thyroid" in out
        assert "pima_indian" not in out

    def test_transform_end_to_end(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        code = main(
            [
                "transform",
                "pima_indian",
                "--scale", "0.08",
                "--episodes", "2",
                "--steps", "2",
                "--save-plan", str(plan_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "score" in out and "plan" in out
        # The saved plan is valid JSON and re-loadable.
        text = plan_path.read_text()
        plan = TransformationPlan.from_json(text)
        assert plan.n_input_columns == 8
        # Saved plans are indent=2 formatted and newline-terminated so
        # they diff cleanly under version control.
        assert text.startswith("{\n  ")
        assert text.endswith("}\n")

    def test_transform_batch_end_to_end(self, capsys):
        code = main(
            [
                "transform", "pima_indian", "wine_quality_red",
                "--scale", "0.08",
                "--episodes", "2",
                "--steps", "2",
                "--cv", "3",
                "--rf-estimators", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pima_indian" in out and "wine_quality_red" in out
        assert out.count("->") == 2  # one score line per dataset

    def test_transform_batch_rejects_single_search_flags(self, capsys):
        code = main(
            ["transform", "pima_indian", "wine_quality_red", "--save-plan", "p.json"]
        )
        assert code == 2
        assert "single search" in capsys.readouterr().err

    def test_sweep_end_to_end(self, capsys, tmp_path):
        plan_path = tmp_path / "best_plan.json"
        code = main(
            [
                "sweep", "pima_indian",
                "--scale", "0.08",
                "--episodes", "2",
                "--steps", "2",
                "--cv", "3",
                "--rf-estimators", "3",
                "--seeds", "0,1",
                "--save-plan", str(plan_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean" in out and "best" in out
        assert TransformationPlan.from_json(plan_path.read_text()).n_input_columns == 8

    def test_sweep_rejects_bad_seeds(self, capsys):
        assert main(["sweep", "pima_indian", "--seeds", "a,b"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err
        assert main(["sweep", "pima_indian", "--seeds", ","]) == 2
        assert "at least one seed" in capsys.readouterr().err

    def test_transform_checkpoint_and_resume_command(self, capsys, tmp_path):
        ckpt = tmp_path / "session.ckpt"
        code = main(
            [
                "transform", "pima_indian",
                "--scale", "0.08",
                "--episodes", "2",
                "--steps", "2",
                "--checkpoint", str(ckpt),
            ]
        )
        assert code == 0
        assert ckpt.exists()
        first = capsys.readouterr().out
        # The finished checkpoint resumes cleanly and reports the same score.
        code = main(["resume", str(ckpt)])
        assert code == 0
        second = capsys.readouterr().out
        score_line = [ln for ln in first.splitlines() if ln.startswith("score")][0]
        assert score_line in second

    def test_transform_resume_flag(self, capsys, tmp_path):
        ckpt = tmp_path / "session.ckpt"
        main(
            ["transform", "pima_indian", "--scale", "0.08", "--episodes", "2",
             "--steps", "2", "--checkpoint", str(ckpt)]
        )
        capsys.readouterr()
        code = main(["transform", "--resume", str(ckpt)])
        assert code == 0
        assert "score" in capsys.readouterr().out

    def test_transform_requires_dataset_or_resume(self, capsys):
        assert main(["transform"]) == 2
        assert "dataset name is required" in capsys.readouterr().err

    def test_export_then_serve_end_to_end(self, capsys, tmp_path):
        """CLI acceptance: export into a registry, then serve it over a
        real socket with a bounded request budget."""
        import json
        import threading
        import time
        import urllib.request

        registry = str(tmp_path / "reg")
        code = main(
            ["export", "pima_indian", "--scale", "0.08", "--episodes", "2",
             "--steps", "2", "--registry", registry, "--name", "pima",
             "--tag", "prod"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "published : pima v0001 (tag 'prod')" in out

        url_file = tmp_path / "url.txt"
        thread = threading.Thread(
            target=main,
            args=(
                ["serve", "--registry", registry, "--name", "pima", "--tag", "prod",
                 "--port", "0", "--max-requests", "2", "--url-file", str(url_file)],
            ),
            daemon=True,
        )
        thread.start()
        for _ in range(200):
            if url_file.exists():
                break
            time.sleep(0.05)
        url = url_file.read_text().strip()
        health = json.loads(urllib.request.urlopen(url + "/healthz", timeout=10).read())
        assert health["status"] == "ok"
        req = urllib.request.Request(
            url + "/predict",
            data=json.dumps({"rows": [[1.0] * 8]}).encode(),
        )
        body = json.loads(urllib.request.urlopen(req, timeout=10).read())
        assert len(body["predictions"]) == 1
        thread.join(timeout=10)
        assert not thread.is_alive()  # --max-requests shut the server down

    def test_export_requires_one_destination(self, capsys):
        assert main(["export", "pima_indian"]) == 2
        assert "exactly one of --out or --registry" in capsys.readouterr().err
        assert main(["export", "pima_indian", "--registry", "r"]) == 2
        assert "requires --name" in capsys.readouterr().err

    def test_serve_requires_one_source(self, capsys):
        assert main(["serve"]) == 2
        assert "exactly one of --artifact or --registry" in capsys.readouterr().err
        assert main(["serve", "--artifact", "/nonexistent/art"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_reload_requires_registry(self, capsys, tmp_path):
        art = tmp_path / "art"
        art.mkdir()
        assert main(["serve", "--artifact", str(art), "--reload"]) == 2
        assert "--reload/--shadow-tag require --registry" in capsys.readouterr().err
        assert main(["serve", "--artifact", str(art), "--shadow-tag", "next"]) == 2
        assert "require --registry" in capsys.readouterr().err

    def test_export_to_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "artifact"
        code = main(
            ["export", "pima_indian", "--scale", "0.08", "--episodes", "2",
             "--steps", "2", "--out", str(out_dir)]
        )
        assert code == 0
        from repro.serve import PipelineArtifact

        artifact = PipelineArtifact.load(out_dir)
        assert artifact.manifest["dataset"] == "pima_indian"
        assert artifact.predict([[1.0] * 8] * 3).shape == (3,)

    def test_experiments_command(self, capsys, tmp_path):
        code = main(
            ["experiments", "--only", "fig11", "--profile", "smoke", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "fig11.txt").exists()


class TestRunAll:
    def test_registry_covers_every_paper_artifact(self):
        expected = {"table1", "table2", "table3", "table4"} | {
            f"fig{i}" for i in range(6, 16)
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_raises(self, tmp_path):
        with pytest.raises(KeyError):
            run_experiments(["fig99"], out_dir=tmp_path)

    def test_run_selected_writes_report(self, tmp_path, capsys):
        reports = run_experiments(["fig11"], profile_name="smoke", out_dir=tmp_path)
        assert "fig11" in reports
        assert "Seq length" in (tmp_path / "fig11.txt").read_text()
