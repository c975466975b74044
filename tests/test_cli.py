"""End-to-end tests for the command-line interface.

Every test drives ``cli.main`` the way a shell would: argv in, exit code
out, one JSON object on stdout (success) or stderr (failure). Artifact
bytes are compared directly where the contract promises reproducibility.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import HashLogprobProvider
from contextmeter import analysis, characteristics, cli, lm, retrieval
from contextmeter._version import __version__
from contextmeter.analysis import GRID_CHARACTERISTICS
from contextmeter.errors import ContextMeterError, InvariantViolation, ParseError, ProviderError
from contextmeter.model import ClaimRecord, EvidencePiece, canonical_json, read_jsonl


def run_cli(*args: str):
    """Invoke the CLI in-process and capture (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def run_dir_of(stdout: str) -> Path:
    return Path(json.loads(stdout)["run_dir"])


def read_rows(path: Path) -> list[dict]:
    return [row for _, row in read_jsonl(path)]


def source_env() -> dict[str, str]:
    """The environment with the imported package's source root first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def header_line(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8").splitlines()[0])


@pytest.fixture(scope="module")
def out_root(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("runs")


@pytest.fixture(scope="module")
def replay_store(tmp_path_factory, druid_fixture_paths) -> Path:
    """Replay store covering every prompt a fixture score run renders."""
    claims_path, evidence_path = druid_fixture_paths
    store_path = tmp_path_factory.mktemp("store") / "store.jsonl"
    scorer = lm.VerdictScorer(
        provider=HashLogprobProvider(),
        store=lm.ReplayStore(store_path),
    )
    claim_template = lm.load_template("claim-0shot")
    evidence_template = lm.load_template("evidence-0shot")
    claims = [ClaimRecord.from_dict(r) for _, r in read_jsonl(claims_path)]
    by_id = {claim.id: claim for claim in claims}
    for claim in claims:
        scorer.score(claim_template, claim)
    for _, row in read_jsonl(evidence_path):
        piece = EvidencePiece.from_dict(row)
        if piece.stance is not None:
            scorer.score(evidence_template, by_id[piece.claim_id], piece)
    scorer.close()
    return store_path


def score_args(druid_fixture_paths, replay_store: Path, out_root: Path) -> list[str]:
    claims_path, evidence_path = druid_fixture_paths
    return [
        "score",
        "--claims", str(claims_path),
        "--evidence", str(evidence_path),
        "--claim-template", "claim-0shot",
        "--evidence-template", "evidence-0shot",
        "--replay", str(replay_store),
        "--provider-id", "hash-mock",
        "--out", str(out_root),
    ]


@pytest.fixture(scope="module")
def scored_run(druid_fixture_paths, replay_store, out_root) -> Path:
    code, stdout, stderr = run_cli(*score_args(druid_fixture_paths, replay_store, out_root))
    assert code == 0, stderr
    return run_dir_of(stdout)


@pytest.fixture(scope="module")
def profile_run(druid_fixture_paths, out_root) -> Path:
    claims_path, evidence_path = druid_fixture_paths
    code, stdout, stderr = run_cli(
        "profile",
        "--claims", str(claims_path),
        "--evidence", str(evidence_path),
        "--out", str(out_root),
    )
    assert code == 0, stderr
    return run_dir_of(stdout)


#: The package modules ``import contextmeter.cli`` loads: what argument
#: parsing, the run config and the error contract need.
STARTUP_MODULES = {f"contextmeter{name}" for name in ("", "._version", ".errors", ".model", ".metrics", ".cli")}

#: The modules each command adds to those: its stage and what the stage imports.
STAGE_MODULES = {
    "ingest": {"ingest"},
    "recast": {"ingest"},
    "retrieve": {"ingest", "retrieval", "_net"},
    "profile": {"ingest", "characteristics"},
    "score": {"ingest", "lm", "_net"},
    "analyze": {"analysis", "characteristics"},
    "report": set(),
}

#: Runs ``cli.main`` on its arguments in a fresh interpreter, then prints the
#: package modules loaded, also after argparse exits.
PROBE = """
import json, sys
from contextmeter import cli
try:
    code = cli.main(sys.argv[1:])
finally:
    print(json.dumps(sorted(name for name in sys.modules if name.startswith("contextmeter"))))
sys.exit(code)
"""


def probe_cli(*args) -> tuple[int, list[str], set[str], str]:
    """(exit code, the CLI's stdout lines, package modules loaded, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, args)], capture_output=True, text=True, env=source_env()
    )
    *output, modules = proc.stdout.splitlines() or [""]
    return proc.returncode, output, set(json.loads(modules or "[]")), proc.stderr


@pytest.fixture(scope="module")
def fresh_chain(druid_fixture_paths, fixture_corpus_dir, replay_store, tmp_path_factory) -> dict:
    """Every command run once in its own interpreter on the fixtures, chained
    as the benchmark chains them: profile, score and retrieve read ingest's
    artifacts, analyze reads profile's and score's, and report merges
    analyze's run directory. Maps each command to ``probe_cli``'s result."""
    out = tmp_path_factory.mktemp("fresh")
    triplets = out / "triplets.jsonl"
    triplets.write_text("".join(json.dumps(row) + "\n" for row in GOLDEN_TRIPLETS["counterfact"]))
    claims_path, evidence_path = druid_fixture_paths
    results = {}

    def run(command: str, *args) -> Path:
        results[command] = code, output, _, _ = probe_cli(command, *args, "--out", out)
        return run_dir_of(output[-1]) if code == 0 else out / "missing"

    ingested = run("ingest", "--claims", claims_path, "--evidence", evidence_path)
    claims, evidence = ingested / "claims.jsonl", ingested / "evidence.jsonl"
    run("recast", "--triplets", triplets, "--dataset", "counterfact")
    run("retrieve", "--claims", claims, "--fixture-corpus", fixture_corpus_dir)
    profiled = run("profile", "--claims", claims, "--evidence", evidence)
    scored = run(
        "score", "--claims", claims, "--evidence", evidence, "--claim-template", "claim-0shot",
        "--evidence-template", "evidence-0shot", "--replay", replay_store, "--provider-id", "hash-mock",
    )
    analyzed = run(
        "analyze", "--scored", scored / "scored.jsonl", "--evidence", evidence,
        "--characteristics", profiled / "characteristics.jsonl", "--dataset", "druid",
    )
    run("report", "--run-dir", analyzed)
    return results


class TestParallelMap:
    def test_first_failure_stops_the_map(self):
        calls = []

        def double(item):
            calls.append(item)
            if item == 30:
                raise ContextMeterError("boom")
            return 2 * item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert cli._parallel_map(double, list(range(30)), str, 8) == [2 * i for i in range(30)]
            calls.clear()
            with pytest.raises(ContextMeterError) as info:
                cli._parallel_map(double, list(range(400)), lambda i: f"item {i}", 8)
        finally:
            sys.setswitchinterval(interval)
        assert str(info.value) == "item 30: boom"
        # Only items that had started before the failure was recorded ran.
        assert len(calls) < 400

    def test_one_worker_runs_items_in_the_calling_thread_in_order(self):
        threads, items = [], list(range(50))
        random.Random(3).shuffle(items)

        def record(item):
            threads.append(threading.get_ident())
            return str(item)

        assert cli._parallel_map(record, items, str, 1) == [str(item) for item in items]
        assert threads == [threading.get_ident()] * len(items)

    def test_one_worker_stops_at_the_first_failure(self):
        calls = []

        def fail_at_five(item):
            calls.append(item)
            if item == 5:
                raise ContextMeterError("boom")
            return item

        with pytest.raises(ContextMeterError) as info:
            cli._parallel_map(fail_at_five, list(range(20)), lambda i: f"item {i}", 1)
        assert str(info.value) == "item 5: boom"
        assert calls == list(range(6))

    def test_one_worker_score_starts_no_thread_pool(self, druid_fixture_paths, replay_store, tmp_path, monkeypatch):
        def no_pool(*_args, **_kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
        code, stdout, stderr = run_cli(
            *score_args(druid_fixture_paths, replay_store, tmp_path), "--max-concurrency", "1"
        )
        assert code == 0, stderr
        assert len(read_rows(run_dir_of(stdout) / "scored.jsonl")) == 10


class TestRunContract:
    def test_stdout_names_command_outputs_and_run_dir(self, druid_fixture_paths, tmp_path):
        claims_path, evidence_path = druid_fixture_paths
        code, stdout, _ = run_cli(
            "ingest",
            "--claims", str(claims_path),
            "--evidence", str(evidence_path),
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert set(payload) == {"command", "outputs", "run_dir"}
        assert payload["command"] == "ingest"
        assert payload["outputs"] == ["claims.jsonl", "evidence.jsonl", "corpus_stats.json"]

    def test_run_dir_name_has_command_stamp_and_hash(self, profile_run):
        assert re.fullmatch(r"profile-\d{8}T\d{6}Z-[0-9a-f]{8}", profile_run.name)

    def test_run_dir_echoes_resolved_config(self, profile_run):
        resolved = json.loads((profile_run / "resolved_config.json").read_text())
        assert set(resolved) == {"meta", "config"}
        assert resolved["config"]["acu_form"] == "sum"
        header = header_line(profile_run / "characteristics.jsonl")
        assert resolved["meta"]["config_hash"] == header["config_hash"]

    def test_config_hash_of_a_fixed_score_config(self, tmp_path):
        # Every artifact header embeds this hash; a codec change that moved
        # it would orphan every run and replay store written before.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "claims_path": "claims.jsonl", "evidence_path": "evidence.jsonl",
            "claim_template": "claim-0shot", "evidence_template": "evidence-0shot",
            "replay_store": "store.jsonl", "acu_form": "mean", "request_timeout": 30,
            "fact_check_domains": ["politifact.com", "snopes.com"], "max_concurrency": 4,
            "out_dir": "elsewhere",
        }))
        resolved = cli.load_config(str(config), {})
        assert resolved.config_hash == "b3af95ee50911409"
        assert resolved.max_concurrency == 4
        assert resolved.to_dict()["request_timeout"] == 30

    def test_list_defaults_are_fresh_on_each_decode(self):
        first, second = cli.RunConfig.from_dict({}), cli.RunConfig.from_dict({})
        assert first.fact_check_domains == [] == first.search_endpoints
        assert first.fact_check_domains is not second.fact_check_domains
        assert first.search_endpoints is not second.search_endpoints

    def test_jsonl_artifacts_start_with_header_line(self, profile_run):
        header = header_line(profile_run / "characteristics.jsonl")
        assert set(header) == {"kind", "config_hash", "acu_form", "version"}
        assert header["kind"] == "header"
        assert header["version"] == __version__

    def test_rerun_gets_fresh_run_dir_same_artifacts(self, druid_fixture_paths, tmp_path):
        claims_path, evidence_path = druid_fixture_paths
        args = (
            "profile",
            "--claims", str(claims_path),
            "--evidence", str(evidence_path),
            "--out", str(tmp_path),
        )
        _, first_out, _ = run_cli(*args)
        _, second_out, _ = run_cli(*args)
        first, second = run_dir_of(first_out), run_dir_of(second_out)
        assert first != second
        for name in ("characteristics.jsonl", "profile.json", "resolved_config.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("command", ["profile", "score", "retrieve"])
    def test_out_root_and_concurrency_leave_artifacts_unchanged(
        self, druid_fixture_paths, fixture_corpus_dir, replay_store, tmp_path, command
    ):
        claims_path, evidence_path = druid_fixture_paths
        runs, outputs = [], None
        for workers, root in (("1", tmp_path / "a"), ("4", tmp_path / "c"), ("8", tmp_path / "b" / "nested")):
            if command == "score":
                args = score_args(druid_fixture_paths, replay_store, root)
            elif command == "retrieve":
                args = ["retrieve", "--claims", str(claims_path), "--fixture-corpus", str(fixture_corpus_dir), "--out", str(root)]
            else:
                args = ["profile", "--claims", str(claims_path), "--evidence", str(evidence_path), "--out", str(root)]
            code, stdout, stderr = run_cli(*args, "--max-concurrency", workers)
            assert code == 0, stderr
            runs.append(run_dir_of(stdout))
            outputs = json.loads(stdout)["outputs"]
        first, *others = runs
        for other in others:
            for name in outputs:
                assert (first / name).read_bytes() == (other / name).read_bytes()
        resolved = [json.loads((run / "resolved_config.json").read_text()) for run in runs]
        assert all(r["meta"] == resolved[0]["meta"] for r in resolved)
        assert [r["config"]["max_concurrency"] for r in resolved] == [1, 4, 8]
        assert len({r["config"]["out_dir"] for r in resolved}) == 3

    def test_version_flag_prints_package_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "contextmeter.cli", "--version"],
            capture_output=True,
            text=True,
            env=source_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__

    def test_pyproject_states_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
            assert tomllib.load(handle)["project"]["version"] == __version__

    def test_import_loads_only_the_standard_library(self):
        # Every stage is its own process, so start-up is paid per command. The
        # HTTP stack and the HTML parser load on the first live request only.
        probed = {"scipy", "numpy", "requests", "http.client", "urllib.request", "ssl", "email", "html.parser"}
        probe = f"import sys, contextmeter.cli; print(sorted({probed!r} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=source_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_stage_module(self):
        # Each command imports its own stage, so start-up compiles no other.
        probe = "import json, sys, contextmeter.cli; print(json.dumps(sorted(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=source_env())
        assert proc.returncode == 0, proc.stderr
        assert {name for name in json.loads(proc.stdout) if name.startswith("contextmeter")} == STARTUP_MODULES

    @pytest.mark.parametrize(
        ("argv", "expected_code"),
        [(["--version"], 0), (["ingest", "--help"], 0), (["score"], 2)],
        ids=["version", "help", "config-error"],
    )
    def test_exit_before_the_stage_loads_no_stage_module(self, argv, expected_code):
        code, _, modules, stderr = probe_cli(*argv)
        assert code == expected_code, stderr
        assert modules == STARTUP_MODULES

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_command_in_a_fresh_interpreter_loads_only_its_stage(self, command, fresh_chain):
        # In-process runs share the modules earlier tests imported, so only
        # a fresh interpreter shows what one command loads.
        code, output, modules, stderr = fresh_chain[command]
        assert code == 0, stderr
        assert json.loads(output[-1])["command"] == command
        assert modules == STARTUP_MODULES | {f"contextmeter.{name}" for name in STAGE_MODULES[command]}

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_under_every_command_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: contextmeter")

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
            ([], "the following arguments are required: command"),
            (["--out", "runs"], "the following arguments are required: command"),
        ],
        ids=["unknown", "missing", "flags-only"],
    )
    def test_unknown_or_missing_command_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: contextmeter")
        assert message in captured.err

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_flag_parses_under_every_command(self, command):
        values = {"--acu-form": ("mean", "mean"), "--max-concurrency": ("3", 3)}
        for flag, dest in [("--config", "config")] + [(flag, dest) for flag, dest, _ in cli._FLAGS]:
            text, expected = values.get(flag, ("value", "value"))
            args = cli.build_parser().parse_args([command, flag, text])
            assert (args.command, getattr(args, dest)) == (command, expected), flag

    def test_input_order_leaves_summaries_unchanged(self, druid_fixture_paths, replay_store, tmp_path):
        """Shuffled claim and evidence rows give byte-identical profile,
        analysis and grid documents."""
        inputs = tmp_path / "in"
        inputs.mkdir()
        claims, evidence, scored, characteristics = (
            inputs / name for name in ("claims.jsonl", "evidence.jsonl", "scored.jsonl", "characteristics.jsonl")
        )
        rows = [path.read_text(encoding="utf-8").splitlines() for path in druid_fixture_paths]
        rng = random.Random(11)
        documents = []
        for round_no in range(2):
            if round_no:
                for lines in rows:
                    original = list(lines)
                    while lines == original:
                        rng.shuffle(lines)
            for path, lines in zip((claims, evidence), rows):
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            out = tmp_path / f"runs{round_no}"

            def run(*args):
                code, stdout, stderr = run_cli(*map(str, args), "--out", str(out))
                assert code == 0, stderr
                return run_dir_of(stdout)

            profile = run("profile", "--claims", claims, "--evidence", evidence)
            score = run(
                "score", "--claims", claims, "--evidence", evidence,
                "--claim-template", "claim-0shot", "--evidence-template", "evidence-0shot",
                "--replay", replay_store, "--provider-id", "hash-mock",
            )
            # fixed input paths, so both rounds share one config hash
            shutil.copy(profile / "characteristics.jsonl", characteristics)
            shutil.copy(score / "scored.jsonl", scored)
            analysis = run(
                "analyze", "--scored", scored, "--evidence", evidence,
                "--characteristics", characteristics, "--dataset", "druid",
            )
            documents.append(
                [(profile / "profile.json").read_bytes()]
                + [(analysis / name).read_bytes() for name in ("analysis.json", "grid.json")]
            )
        assert documents[0] == documents[1]


class TestConfigErrors:
    def assert_config_error(self, args, fragment: str):
        code, _, stderr = run_cli(*args)
        assert code == 2
        payload = json.loads(stderr)
        assert payload["error"] == "ConfigError"
        assert fragment in payload["message"]

    def test_score_without_any_settings(self):
        self.assert_config_error(
            ["score"],
            "missing required settings: claims_path, evidence_path, "
            "claim_template, evidence_template",
        )

    def test_score_without_templates(self, druid_fixture_paths):
        claims_path, evidence_path = druid_fixture_paths
        self.assert_config_error(
            ["score", "--claims", str(claims_path), "--evidence", str(evidence_path)],
            "missing required settings: claim_template, evidence_template",
        )

    def test_analyze_without_inputs(self):
        self.assert_config_error(["analyze"], "scored_path")

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"acu_form": "sum", "frobnicate": 1}\n')
        self.assert_config_error(
            ["score", "--config", str(config)], "unknown config keys: frobnicate"
        )

    def test_config_file_missing(self, tmp_path):
        self.assert_config_error(
            ["score", "--config", str(tmp_path / "nope.json")], "not found"
        )

    def test_config_file_invalid_json(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("{not json")
        self.assert_config_error(["score", "--config", str(config)], "not valid JSON")

    @pytest.mark.parametrize(
        "number, refusal", [("NaN", "NaN is not a JSON number"), ("-Infinity", "-Infinity is not a JSON number"),
                            ("1e999", "1e999 is not a finite JSON number")],
    )
    def test_config_number_json_cannot_hold(self, druid_fixture_paths, tmp_path, number, refusal):
        # The resolved config is echoed into the run directory as JSON.
        claims_path, evidence_path = druid_fixture_paths
        config = tmp_path / "run.json"
        config.write_text(f'{{"request_timeout": {number}}}\n')
        self.assert_config_error(
            ["ingest", "--config", str(config), "--claims", str(claims_path), "--evidence", str(evidence_path),
             "--out", str(tmp_path / "runs")],
            f"{config}:1: {refusal}",
        )
        assert not (tmp_path / "runs").exists()

    def test_config_file_must_be_object(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('["sum"]\n')
        self.assert_config_error(["score", "--config", str(config)], "JSON object")

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"fact_check_domains": 5}, "fact_check_domains: expected a list, got int"),
            ({"fact_check_domains": ["ok.example", 5]}, "fact_check_domains: expected a string, got int"),
            ({"search_endpoints": {"name": "x"}}, "search_endpoints: expected a list, got dict"),
            ({"provider_id": 5}, "provider_id: expected a string, got int"),
            ({"request_timeout": "slow"}, "request_timeout: expected a number, got str"),
            ({"max_concurrency": True}, "max_concurrency: expected an integer, got bool"),
            ({"dataset": 7}, "dataset: expected a string, got int"),
            ({"max_concurrency": 2.0}, "max_concurrency: expected an integer, got float"),
        ],
    )
    def test_config_value_types(
        self, druid_fixture_paths, fixture_corpus_dir, tmp_path, settings, message
    ):
        claims_path, _ = druid_fixture_paths
        config = tmp_path / "run.json"
        config.write_text(json.dumps(settings) + "\n")
        out = tmp_path / "runs"
        code, _, stderr = run_cli(
            "retrieve", "--config", str(config), "--claims", str(claims_path),
            "--fixture-corpus", str(fixture_corpus_dir), "--out", str(out),
        )
        assert code == 2
        assert len(stderr.strip().splitlines()) == 1
        assert json.loads(stderr) == {"error": "ConfigError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            ("no-dir", "ParseError: {corpus}/manifest.json:0: cannot open: No such file or directory"),
            ("missing-page", "soup-recipes.txt"),
            ("manifest-not-json", "ParseError: {corpus}/manifest.json:1: Expecting property name"),
            ("entry-without-file", "KeyError: 'file'"),
        ],
    )
    def test_unreadable_fixture_corpus(
        self, druid_fixture_paths, fixture_corpus_dir, tmp_path, damage, fragment
    ):
        claims_path, _ = druid_fixture_paths
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_corpus_dir, corpus)
        if damage == "no-dir":
            shutil.rmtree(corpus)
        elif damage == "missing-page":
            (corpus / "soup-recipes.txt").unlink()
        elif damage == "manifest-not-json":
            (corpus / "manifest.json").write_text("{broken")
        else:
            (corpus / "manifest.json").write_text('[{"url": "https://x.example/a"}]')
        out = tmp_path / "runs"
        code, _, stderr = run_cli(
            "retrieve", "--claims", str(claims_path), "--fixture-corpus", str(corpus),
            "--out", str(out),
        )
        assert code == 2
        payload = json.loads(stderr)
        assert payload["error"] == "ConfigError"
        assert fragment.format(corpus=corpus) in payload["message"]
        assert not out.exists()

    def test_bad_acu_form_in_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"acu_form": "median"}\n')
        self.assert_config_error(["score", "--config", str(config)], "acu_form")

    def test_recast_needs_known_dataset(self, tmp_path):
        triplets = tmp_path / "rows.jsonl"
        triplets.write_text("{}\n")
        self.assert_config_error(
            ["recast", "--triplets", str(triplets)], "counterfact or conflictqa"
        )

    def test_retrieve_needs_some_search_backend(self, druid_fixture_paths):
        claims_path, _ = druid_fixture_paths
        self.assert_config_error(
            ["retrieve", "--claims", str(claims_path)],
            "fixture_corpus or search_endpoints",
        )

    def test_score_needs_provider_or_replay(self, druid_fixture_paths):
        claims_path, evidence_path = druid_fixture_paths
        self.assert_config_error(
            [
                "score",
                "--claims", str(claims_path),
                "--evidence", str(evidence_path),
                "--claim-template", "claim-0shot",
                "--evidence-template", "evidence-0shot",
            ],
            "provider endpoint or a replay store",
        )

    @pytest.mark.parametrize(
        "case",
        [
            "no-templates", "missing-claims-file", "claim-without-id", "claim-not-object", "bad-scored-mode",
            "claim-id-list", "claim-text-number", "evidence-claim-id-list",
            "triplet-not-object", "triplet-subject-number", "triplet-memory-answer-list",
            "analyze-duplicate-scored", "analyze-duplicate-evidence", "analyze-duplicate-characteristics",
            "report-artifact-not-json", "report-artifact-not-object",
            "sidecar-without-mode", "sidecar-not-json", "sidecar-unknown-mode",
            "field-map-list", "field-map-section-list", "field-map-name-not-string",
            "field-map-recast-nested", "template-bad-shots", "template-body-without-claim-slot",
            "template-body-not-utf8",
            "not-utf8-ingest", "not-utf8-recast", "not-utf8-profile", "not-utf8-replay-store",
            "not-utf8-config", "not-utf8-field-map", "not-utf8-report-artifact",
            "report-artifact-is-directory", "out-is-file", "out-under-file",
            "out-is-dangling-symlink", "out-is-file-before-live-score", "analyze-characteristics-not-json",
            "dangling-ingest", "dangling-profile", "dangling-replay-score",
            "duplicate-evidence-ingest", "duplicate-evidence-profile", "duplicate-evidence-replay-score",
            "pub-after-claim-ingest", "pub-after-claim-profile", "pub-after-claim-replay-score",
            "duplicate-claim-profile", "duplicate-claim-retrieve", "write-fails",
            "fixture-bad-pub-date", "fixture-pub-date-number", "fixture-without-url", "fixture-url-number",
            "search-endpoint-name-list", "search-endpoint-endpoint-number",
            "search-endpoint-without-scheme", "search-endpoint-without-host",
            "rerank-endpoint-without-scheme", "provider-endpoint-without-scheme",
        ],
    )
    def test_config_error_leaves_no_run_dir(
        self, druid_fixture_paths, fixture_corpus_dir, replay_store, scored_run, profile_run, tmp_path, monkeypatch,
        case,
    ):
        claims_path, evidence_path = druid_fixture_paths
        out = tmp_path / "runs"
        bad = tmp_path / "bad.jsonl"
        templates = tmp_path / "templates"
        templates.mkdir()
        shutil.copy(Path(lm.__file__).parent / "data" / "prompts" / "claim-0shot.txt", templates)
        sidecar = templates / "claim-0shot.json"
        score_with_templates = [
            "score", "--claims", claims_path, "--evidence", evidence_path,
            "--claim-template", "claim-0shot", "--evidence-template", "evidence-0shot",
            "--template-dir", templates,
        ]
        valid_sidecar = {
            "mode": "claim-only", "shots": 0,
            "verbalizer_map": {"True": "True", "None": "None", "False": "False"},
        }
        probs = {"p_true": 0.5, "p_none": 0.25, "p_false": 0.25, "mode": "claim-only"}
        scored = {
            "claim_id": "c1", "evidence_id": "e1", "delta_p": [0.0, 0.0, 0.0],
            "acu": 0.0, "model_id": "m", "prompt_id": "p",
            "probs_without": probs, "probs_with": {**probs, "mode": "claim+context"},
        }
        field_map = tmp_path / "field_map.json"
        not_utf8 = b"\xff\xfe{bad"
        config = tmp_path / "config.json"
        blocker = tmp_path / "blocker"
        profile = ["profile", "--claims", claims_path, "--evidence", evidence_path]
        ingest_with_map = [
            "ingest", "--claims", claims_path, "--evidence", evidence_path, "--field-map", field_map,
        ]
        builtin_templates = ["--claim-template", "claim-0shot", "--evidence-template", "evidence-0shot"]
        piece = {
            "id": "e-x", "claim_id": "c-pf-001", "text": "Some evidence.",
            "url": "https://example.org/x", "relevance": "relevant", "stance": "supports",
        }
        first_claim = claims_path.read_text(encoding="utf-8").splitlines()[0]
        # Faults in joining evidence to claims: (bad file content, the one
        # message every stage that reads the pair gives for it).
        join_faults = {
            "dangling": (
                json.dumps({**piece, "claim_id": "c-missing"}),
                f"{bad}:1: evidence 'e-x' references unknown claim 'c-missing'",
            ),
            "duplicate-evidence": (
                json.dumps(piece) + "\n" + json.dumps(piece), f"{bad}:2: duplicate evidence id 'e-x'",
            ),
            "pub-after-claim": (
                json.dumps({**piece, "pub_date": "2022-05-01", "pub_after_claim": True}),
                f"{bad}:1: pub_after_claim: flag True inconsistent with dates 2022-05-01 vs 2022-05-10",
            ),
            "duplicate-claim": (first_claim + "\n" + first_claim, f"{bad}:2: duplicate claim id 'c-pf-001'"),
        }
        evidence_stages = {
            "ingest": ["ingest", "--claims", claims_path, "--evidence", bad],
            "profile": ["profile", "--claims", claims_path, "--evidence", bad],
            "replay-score": [
                "score", "--claims", claims_path, "--evidence", bad, *builtin_templates,
                "--replay", replay_store, "--provider-id", "hash-mock",
            ],
        }
        claim_stages = {
            "profile": ["profile", "--claims", bad, "--evidence", evidence_path],
            "retrieve": ["retrieve", "--claims", bad, "--fixture-corpus", fixture_corpus_dir],
        }
        recast = {
            dataset: ["recast", "--triplets", bad, "--dataset", dataset] for dataset in ("counterfact", "conflictqa")
        }
        # A row that is not an object, or a string field holding another JSON
        # type: (row, argv, message after path:line).
        claim = {"id": "c1", "text": "A claim.", "source": "politifact", "verdict": "True"}
        edit = {"subject": "Ann", "relation": "works for", "object_true": "A", "object_edited": "B"}
        memory = {"memory_answer": "An answer.", "parametric_evidence": "For.", "counter_evidence": "Against."}
        type_faults = {
            "triplet-not-object": ([1, 2], recast["counterfact"], "not a JSON object: [1, 2]"),
            "triplet-subject-number": (
                {**edit, "subject": 5}, recast["counterfact"], "subject: expected a string, got int",
            ),
            "triplet-memory-answer-list": (
                {**memory, "memory_answer": ["x"]}, recast["conflictqa"], "memory_answer: expected a string, got list",
            ),
            "claim-id-list": ({**claim, "id": ["c1"]}, claim_stages["profile"], "id: expected a string, got list"),
            "claim-text-number": ({**claim, "text": 7}, claim_stages["profile"], "text: expected a string, got int"),
            "evidence-claim-id-list": (
                {**piece, "claim_id": ["c-pf-001"]}, evidence_stages["profile"], "claim_id: expected a string, got list",
            ),
        }
        # One of analyze's inputs with its last row repeated: (file content,
        # argv, message). Each input is keyed by evidence id.
        analyze_inputs = {
            "scored": (scored_run / "scored.jsonl", "evidence_id"),
            "evidence": (evidence_path, "id"),
            "characteristics": (profile_run / "characteristics.jsonl", "evidence_id"),
        }
        duplicate_faults = {}
        for name, (source, key) in analyze_inputs.items():
            lines = source.read_text(encoding="utf-8").splitlines()
            argv = ["analyze"]
            for other, (path, _) in analyze_inputs.items():
                argv += [f"--{other}", bad if other == name else path]
            duplicate_faults[f"analyze-duplicate-{name}"] = (
                "\n".join(lines + lines[-1:]),
                argv,
                f"{bad}:{len(lines) + 1}: duplicate evidence id {json.loads(lines[-1])[key]!r}",
            )
        # A fixture corpus whose manifest's first entry has a bad field.
        corpus = tmp_path / "corpus"
        shutil.copytree(fixture_corpus_dir, corpus)
        manifest = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
        manifest_faults = {
            "fixture-bad-pub-date": {**manifest[0], "pub_date": "2020-13-45"},
            "fixture-pub-date-number": {**manifest[0], "pub_date": 20200101},
            "fixture-without-url": {key: value for key, value in manifest[0].items() if key != "url"},
            "fixture-url-number": {**manifest[0], "url": 7},
        }
        # A search_endpoints entry with a value of the wrong type; no search
        # is made, so the endpoint URL is never contacted.
        endpoint_faults = {
            "search-endpoint-name-list": {"name": ["web"], "endpoint": "http://127.0.0.1:9/search"},
            "search-endpoint-endpoint-number": {"name": "x", "endpoint": 5},
        }
        # An endpoint URL that is not scheme://host, refused before any call:
        # (config, argv, setting, URL).
        retrieve = ["retrieve", "--claims", claims_path]
        scheme_faults = {
            "search-endpoint-without-scheme": (
                {"search_endpoints": [{"name": "web", "endpoint": "127.0.0.1:9/search"}]},
                retrieve, "search_endpoints[0].endpoint", "127.0.0.1:9/search",
            ),
            "search-endpoint-without-host": (
                {"search_endpoints": [{"name": "web", "endpoint": "http:///search"}]},
                retrieve, "search_endpoints[0].endpoint", "http:///search",
            ),
            "rerank-endpoint-without-scheme": (
                {"fixture_corpus": str(fixture_corpus_dir), "rerank_endpoint": "localhost:9/rerank"},
                retrieve, "rerank_endpoint", "localhost:9/rerank",
            ),
            "provider-endpoint-without-scheme": (
                {"provider_endpoint": "localhost:9/v1", "provider_id": "m"},
                ["score", "--claims", claims_path, "--evidence", evidence_path, *builtin_templates],
                "provider_endpoint", "localhost:9/v1",
            ),
        }
        # case: (exit code, {input file: content}, argv)
        cases = {
            "no-templates": (2, {}, ["score", "--claims", claims_path, "--evidence", evidence_path]),
            "missing-claims-file": (
                1, {}, ["ingest", "--claims", tmp_path / "nope.jsonl", "--evidence", evidence_path],
            ),
            "claim-without-id": (
                1,
                {bad: json.dumps({"text": "A claim.", "source": "politifact", "verdict": "True"})},
                ["profile", "--claims", bad, "--evidence", evidence_path],
            ),
            "claim-not-object": (
                1,
                {bad: "5", field_map: '{"claims": {"text": "claim"}}'},
                ["ingest", "--claims", bad, "--evidence", evidence_path, "--field-map", field_map],
            ),
            **{case: (1, {bad: json.dumps(row)}, argv) for case, (row, argv, _) in type_faults.items()},
            **{case: (1, {bad: text}, argv) for case, (text, argv, _) in duplicate_faults.items()},
            "bad-scored-mode": (
                1, {bad: json.dumps(scored)}, ["analyze", "--scored", bad, "--evidence", evidence_path],
            ),
            "report-artifact-not-json": (
                1, {tmp_path / "profile.json": "{broken"}, ["report", "--run-dir", tmp_path],
            ),
            "report-artifact-not-object": (
                1, {tmp_path / "profile.json": "[1, 2]"}, ["report", "--run-dir", tmp_path],
            ),
            "sidecar-without-mode": (
                1,
                {sidecar: json.dumps({k: v for k, v in valid_sidecar.items() if k != "mode"})},
                score_with_templates,
            ),
            "sidecar-not-json": (1, {sidecar: "{mode: claim-only"}, score_with_templates),
            "sidecar-unknown-mode": (
                1, {sidecar: json.dumps({**valid_sidecar, "mode": "chat"})}, score_with_templates,
            ),
            "field-map-list": (2, {field_map: "[1, 2]"}, ingest_with_map),
            "field-map-section-list": (2, {field_map: '{"claims": ["text"]}'}, ingest_with_map),
            "field-map-name-not-string": (2, {field_map: '{"claims": {"text": 5}}'}, ingest_with_map),
            "field-map-recast-nested": (
                2,
                {field_map: '{"claims": {"text": "claim"}}', bad: "{}"},
                ["recast", "--triplets", bad, "--dataset", "counterfact", "--field-map", field_map],
            ),
            "template-bad-shots": (1, {sidecar: json.dumps({**valid_sidecar, "shots": 2})}, score_with_templates),
            "template-body-without-claim-slot": (
                1,
                {sidecar: json.dumps(valid_sidecar), templates / "claim-0shot.txt": "Is it true? Answer:"},
                score_with_templates,
            ),
            "template-body-not-utf8": (
                1,
                {sidecar: json.dumps(valid_sidecar), templates / "claim-0shot.txt": b"Claim: {claim}\n\xff"},
                score_with_templates,
            ),
            "not-utf8-ingest": (1, {bad: not_utf8}, ["ingest", "--claims", bad, "--evidence", evidence_path]),
            "not-utf8-recast": (
                1, {bad: b"\n" + not_utf8}, ["recast", "--triplets", bad, "--dataset", "counterfact"],
            ),
            "not-utf8-profile": (1, {bad: not_utf8}, ["profile", "--claims", bad, "--evidence", evidence_path]),
            "not-utf8-replay-store": (
                1,
                # Newline-terminated: an unterminated final line that is not
                # JSON is a torn append, which the store skips.
                {bad: not_utf8 + b"\n"},
                ["score", "--claims", claims_path, "--evidence", evidence_path, "--replay", bad,
                 "--provider-id", "m", "--claim-template", "claim-0shot", "--evidence-template", "evidence-0shot"],
            ),
            "not-utf8-config": (2, {config: not_utf8}, [*profile, "--config", config]),
            "not-utf8-field-map": (2, {field_map: not_utf8}, ingest_with_map),
            "not-utf8-report-artifact": (
                1, {tmp_path / "profile.json": b'{"rows":\n' + not_utf8}, ["report", "--run-dir", tmp_path],
            ),
            "report-artifact-is-directory": (1, {}, ["report", "--run-dir", tmp_path]),
            "out-is-file": (2, {blocker: "a file"}, profile),
            "out-under-file": (2, {blocker: "a file"}, profile),
            "out-is-dangling-symlink": (2, {blocker: "a file"}, profile),
            # The --out check runs before the stage, so no provider is called.
            "out-is-file-before-live-score": (
                2,
                {blocker: "a file"},
                ["score", "--claims", claims_path, "--evidence", evidence_path, *builtin_templates,
                 "--provider-endpoint", "http://127.0.0.1:9/v1", "--provider-id", "m"],
            ),
            "analyze-characteristics-not-json": (
                1,
                {bad: "{broken"},
                ["analyze", "--scored", scored_run / "scored.jsonl", "--evidence", evidence_path,
                 "--characteristics", bad],
            ),
            **{
                f"{fault}-{stage}": (1, {bad: join_faults[fault][0]}, argv)
                for fault in ("dangling", "duplicate-evidence", "pub-after-claim")
                for stage, argv in evidence_stages.items()
            },
            **{
                f"duplicate-claim-{stage}": (1, {bad: join_faults["duplicate-claim"][0]}, argv)
                for stage, argv in claim_stages.items()
            },
            "write-fails": (1, {}, profile),
            **{
                case: (
                    2,
                    {corpus / "manifest.json": json.dumps([entry, *manifest[1:]])},
                    ["retrieve", "--claims", claims_path, "--fixture-corpus", corpus],
                )
                for case, entry in manifest_faults.items()
            },
            **{
                case: (
                    2,
                    {config: json.dumps({"search_endpoints": [entry]})},
                    ["retrieve", "--claims", claims_path, "--config", config],
                )
                for case, entry in endpoint_faults.items()
            },
            **{
                case: (2, {config: json.dumps(settings)}, [*argv, "--config", config])
                for case, (settings, argv, _, _) in scheme_faults.items()
            },
        }
        expected_code, files, argv = cases[case]
        for path, text in files.items():
            if isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text + "\n", encoding="utf-8")
        if case == "report-artifact-is-directory":
            (tmp_path / "profile.json").mkdir()
        if case == "out-is-dangling-symlink":
            (tmp_path / "link").symlink_to(tmp_path / "nowhere")
        if case == "write-fails":

            def write_jsonl(path, *_args, **_kwargs):
                raise OSError(28, "No space left on device", str(path))

            monkeypatch.setattr(cli, "write_jsonl", write_jsonl)
        out_root = {
            "out-is-file": blocker,
            "out-under-file": blocker / "runs",
            "out-is-file-before-live-score": blocker,
            "out-is-dangling-symlink": tmp_path / "link",
        }.get(case, out)
        code, _, stderr = run_cli(*map(str, argv), "--out", str(out_root))
        join_fault = next((fault for fault in join_faults if case.startswith(f"{fault}-")), None)
        assert code == expected_code
        assert len(stderr.strip().splitlines()) == 1
        payload = json.loads(stderr)
        assert "Traceback" not in stderr
        if case.startswith("field-map-"):
            assert payload["error"] == "ConfigError"
            assert f"field map {field_map} must be an object of" in payload["message"]
        elif case == "template-body-not-utf8":
            body = templates / "claim-0shot.txt"
            assert payload == {
                "error": "InvariantViolation",
                "message": f"template_id: invalid template 'claim-0shot' ({body}): not UTF-8: invalid start byte",
            }
        elif case.startswith(("sidecar-", "template-")):
            assert payload["error"] == "InvariantViolation"
            assert f"invalid template 'claim-0shot' ({sidecar}): " in payload["message"]
        elif case.startswith("not-utf8-"):
            errors = {
                "not-utf8-replay-store": "StoreCorruption",
                "not-utf8-config": "ConfigError",
                "not-utf8-field-map": "ConfigError",
            }
            assert payload["error"] == errors.get(case, "ParseError")
            where = {
                "not-utf8-recast": f"{bad}:2",
                "not-utf8-report-artifact": f"{tmp_path / 'profile.json'}:2",
            }.get(case, f"{bad}:1")
            if expected_code == 1:
                assert payload["message"].startswith(f"{where}: not UTF-8")
        elif case.startswith("out-"):
            assert payload["error"] == "ConfigError"
            assert blocker.read_text(encoding="utf-8") == "a file\n"
        elif join_fault:
            assert payload == {"error": "ParseError", "message": join_faults[join_fault][1]}
        elif case == "write-fails":
            assert payload["error"] == "ContextMeterError"
            assert "No space left on device" in payload["message"]
            assert list(out.iterdir()) == []
            out.rmdir()
        elif case in type_faults:
            assert payload == {"error": "ParseError", "message": f"{bad}:1: {type_faults[case][2]}"}
        elif case in duplicate_faults:
            assert payload == {"error": "ParseError", "message": duplicate_faults[case][2]}
        elif case in manifest_faults:
            assert payload["error"] == "ConfigError"
            assert payload["message"].startswith(f"cannot read fixture corpus {corpus}: ")
        elif case in endpoint_faults:
            assert payload == {
                "error": "ConfigError",
                "message": f"search_endpoints entries need a string name and endpoint, got {endpoint_faults[case]!r}",
            }
        elif case in scheme_faults:
            _, _, setting, url = scheme_faults[case]
            assert payload == {"error": "ConfigError", "message": f"{setting} must be a scheme://host URL, got {url!r}"}
        elif expected_code == 1:
            assert payload["error"] == "ParseError"
            assert re.search(r"\.jsonl?:\d+: ", payload["message"])
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, store",
        [
            ("--replay", "store-dir"),
            ("--replay", "missing.jsonl"),
            ("--record", "store-dir"),
            ("--record", "missing/store.jsonl"),
        ],
    )
    def test_store_path_that_cannot_be_opened(self, druid_fixture_paths, tmp_path, monkeypatch, flag, store):
        calls = []

        class CountingProvider(HashLogprobProvider):
            def __init__(self, endpoint, provider_id, **_kwargs):
                super().__init__(provider_id=provider_id)

            def next_token_distribution(self, prompt):
                calls.append(prompt)
                return super().next_token_distribution(prompt)

        monkeypatch.setattr(lm, "HttpLogprobProvider", CountingProvider)
        (tmp_path / "store-dir").mkdir()
        claims_path, evidence_path = druid_fixture_paths
        live = [] if flag == "--replay" else ["--provider-endpoint", "http://127.0.0.1:9/v1"]
        out = tmp_path / "runs"
        code, _, stderr = run_cli(
            "score", "--claims", str(claims_path), "--evidence", str(evidence_path),
            "--claim-template", "claim-0shot", "--evidence-template", "evidence-0shot",
            *live, "--provider-id", "hash-mock", flag, str(tmp_path / store), "--out", str(out),
        )
        assert code == 2
        assert len(stderr.strip().splitlines()) == 1
        payload = json.loads(stderr)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(f"cannot open store {tmp_path / store}: ")
        assert not out.exists()
        assert calls == []
        assert not (tmp_path / "missing.jsonl").exists()

    def test_record_creates_a_store_that_does_not_exist(self, druid_fixture_paths, tmp_path, monkeypatch):
        class Provider(HashLogprobProvider):
            def __init__(self, endpoint, provider_id, **_kwargs):
                super().__init__(provider_id=provider_id)

        monkeypatch.setattr(lm, "HttpLogprobProvider", Provider)
        claims_path, evidence_path = druid_fixture_paths
        store = tmp_path / "new.jsonl"
        code, _, stderr = run_cli(
            "score", "--claims", str(claims_path), "--evidence", str(evidence_path),
            "--claim-template", "claim-0shot", "--evidence-template", "evidence-0shot",
            "--provider-endpoint", "http://127.0.0.1:9/v1", "--provider-id", "hash-mock",
            "--record", str(store), "--out", str(tmp_path / "runs"),
        )
        assert code == 0, stderr
        assert len(lm.ReplayStore(store)) == 15  # 5 claims and 10 claim-evidence pairs

    def test_replay_requires_provider_id(self, druid_fixture_paths, replay_store):
        claims_path, evidence_path = druid_fixture_paths
        self.assert_config_error(
            [
                "score",
                "--claims", str(claims_path),
                "--evidence", str(evidence_path),
                "--claim-template", "claim-0shot",
                "--evidence-template", "evidence-0shot",
                "--replay", str(replay_store),
            ],
            "provider_id",
        )

    @pytest.mark.parametrize(
        "setting,flag,value",
        [
            ("provider_endpoint", "--provider-endpoint", "http://127.0.0.1:9/v1"),
            ("record_store", "--record", "{tmp}/recorded.jsonl"),
        ],
    )
    def test_replay_conflicts_with_live_or_recording_settings(
        self, druid_fixture_paths, replay_store, tmp_path, setting, flag, value
    ):
        # Replay never contacts a provider and never writes a store, so a
        # setting that would do either is refused before anything runs.
        out = tmp_path / "runs"
        args = score_args(druid_fixture_paths, replay_store, out)
        code, _, stderr = run_cli(*args, flag, value.format(tmp=tmp_path))
        assert code == 2
        assert json.loads(stderr) == {
            "error": "ConfigError",
            "message": f"replay_store conflicts with {setting}; set one or the other",
        }
        assert not out.exists()
        assert not (tmp_path / "recorded.jsonl").exists()


class TestFailureExitCode:
    def test_parse_error_exits_one(self, druid_fixture_paths, tmp_path):
        claims_path, _ = druid_fixture_paths
        bad_evidence = tmp_path / "evidence.jsonl"
        bad_evidence.write_text(
            json.dumps(
                {
                    "id": "e-x",
                    "claim_id": "c-missing",
                    "text": "Dangling evidence.",
                    "url": "https://example.org/x",
                }
            )
            + "\n"
        )
        code, _, stderr = run_cli(
            "ingest",
            "--claims", str(claims_path),
            "--evidence", str(bad_evidence),
            "--out", str(tmp_path),
        )
        assert code == 1
        payload = json.loads(stderr)
        assert payload["error"] == "ParseError"
        assert "unknown claim" in payload["message"]

    def test_missing_auth_env_var_exits_one(self, druid_fixture_paths, tmp_path, monkeypatch):
        monkeypatch.delenv("CONTEXTMETER_TEST_TOKEN", raising=False)
        claims_path, evidence_path = druid_fixture_paths
        code, _, stderr = run_cli(
            "score",
            "--claims", str(claims_path),
            "--evidence", str(evidence_path),
            "--claim-template", "claim-0shot",
            "--evidence-template", "evidence-0shot",
            "--provider-endpoint", "https://lm.example/api",
            "--provider-id", "some-model",
            "--auth-env", "CONTEXTMETER_TEST_TOKEN",
            "--out", str(tmp_path),
        )
        assert code == 1
        payload = json.loads(stderr)
        assert payload["error"] == "ProviderError"
        assert "CONTEXTMETER_TEST_TOKEN" in payload["message"]

    @pytest.mark.parametrize(
        "error,args,message",
        [
            (InvariantViolation, ("x", "y"), "x: y"),
            (ParseError, ("pages.jsonl", 3, "bad row"), "pages.jsonl:3: bad row"),
        ],
    )
    def test_multi_argument_error_keeps_contract(
        self, druid_fixture_paths, fixture_corpus_dir, tmp_path, monkeypatch, error, args, message
    ):
        # The claim id is added without calling the error's constructor,
        # which for these takes more than a message.
        claims_path, _ = druid_fixture_paths
        first_claim = next(read_jsonl(claims_path))[1]["id"]

        def run_pipeline(*_args, **_kwargs):
            raise error(*args)

        monkeypatch.setattr(retrieval, "run_pipeline", run_pipeline)
        code, _, stderr = run_cli(
            "retrieve",
            "--claims", str(claims_path),
            "--fixture-corpus", str(fixture_corpus_dir),
            "--out", str(tmp_path),
        )
        assert code == 1
        assert len(stderr.splitlines()) == 1
        assert json.loads(stderr) == {
            "error": error.__name__,
            "message": f"claim {first_claim}: {message}",
        }

    def test_replay_miss_exits_one(self, druid_fixture_paths, tmp_path):
        claims_path, evidence_path = druid_fixture_paths
        # Store only covers the claim-only prompts, so the first
        # claim+evidence lookup must fail loudly instead of guessing.
        store_path = tmp_path / "short.jsonl"
        scorer = lm.VerdictScorer(
            provider=HashLogprobProvider(),
            store=lm.ReplayStore(store_path),
        )
        template = lm.load_template("claim-0shot")
        for _, row in read_jsonl(claims_path):
            scorer.score(template, ClaimRecord.from_dict(row))
        scorer.close()
        code, _, stderr = run_cli(
            "score",
            "--claims", str(claims_path),
            "--evidence", str(evidence_path),
            "--claim-template", "claim-0shot",
            "--evidence-template", "evidence-0shot",
            "--replay", str(store_path),
            "--provider-id", "hash-mock",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert json.loads(stderr)["error"] == "ReplayMiss"

    def test_non_finite_input_number_is_a_parse_error(self, druid_fixture_paths, scored_run, profile_run, tmp_path):
        _, evidence_path = druid_fixture_paths
        characteristics = tmp_path / "characteristics.jsonl"
        header, first, *rest = (profile_run / "characteristics.jsonl").read_text(encoding="utf-8").splitlines()
        first, replaced = re.subn(r'"flesch":[^,}]+', '"flesch":NaN', first)
        assert replaced == 1
        characteristics.write_text("\n".join([header, first, *rest]) + "\n", encoding="utf-8")
        out = tmp_path / "runs"
        code, stdout, stderr = run_cli(
            "analyze", "--scored", str(scored_run / "scored.jsonl"), "--evidence", str(evidence_path),
            "--characteristics", str(characteristics), "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {
            "error": "ParseError", "message": f"{characteristics}:2: NaN is not a JSON number",
        }
        assert not out.exists()

    @pytest.mark.parametrize("artifact", ["characteristics.jsonl", "profile.json"])
    def test_non_finite_artifact_value_leaves_no_run_dir(self, druid_fixture_paths, tmp_path, monkeypatch, artifact):
        # JSON has no NaN, so the writer refuses it rather than write a file
        # that a strict reader rejects.
        original = characteristics.profile

        def profile(*args, **kwargs):
            vectors, report = original(*args, **kwargs)
            if artifact == "profile.json":
                return vectors, {**report, "flesch": float("nan")}
            return [replace(vectors[0], flesch=float("inf")), *vectors[1:]], report

        monkeypatch.setattr(characteristics, "profile", profile)
        claims_path, evidence_path = druid_fixture_paths
        out = tmp_path / "runs"
        code, stdout, stderr = run_cli(
            "profile", "--claims", str(claims_path), "--evidence", str(evidence_path), "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        payload = json.loads(stderr)
        assert payload["error"] == "ContextMeterError"
        assert payload["message"].startswith(f"cannot write run directory {out / 'profile-'}")
        assert payload["message"].endswith(": Out of range float values are not JSON compliant")
        assert list(out.iterdir()) == []


#: SHA-256 of the rows (the bytes after the header line) of the fixture
#: retrieve run and of both recast datasets, computed before quota-first page
#: selection and the recast loader's repeated-claim rule.
GOLDEN_ROWS_SHA256 = {
    "retrieve": {
        "evidence.jsonl": "a39aae431bb21ed8f719ef69596099b716ef2055aee213edf302ed1e7aeed980",
        "traces.jsonl": "fd723ef63d94e8c512df7175c2f4e76643c6829e054ec939e95d87e06801c2d2",
    },
    "counterfact": {
        "claims.jsonl": "3065052d988a24a868be47c04ccb6c5875e5a27714a520434cba984f1d1d9e29",
        "evidence.jsonl": "c37463895b733a47cace704df64a18225a02e0b53eba15e8a30df3753fa9f010",
    },
    "conflictqa": {
        "claims.jsonl": "12c7efa9c4e8c389df6f10fa8f03407f66790c00cff16ed471cd96fc795d5e84",
        "evidence.jsonl": "cd9a11de904a9881c4127162e1dab1c85b37f0d7da1c2825453f2cd2bb9ae8fa",
    },
}
GOLDEN_TRIPLETS = {
    "counterfact": [
        {"subject": "Danube", "relation": "flows through", "object_true": "Vienna", "object_edited": "Oslo"},
        {"subject": "Mount Kenya", "relation": "is located in", "object_true": "Kenya", "object_edited": "Chile"},
        {"subject": "Ada Lovelace", "relation": "was born in", "object_true": "London", "object_edited": " Paris "},
        {"subject": "Danube", "relation": "flows through", "object_true": "Vienna", "object_edited": "Oslo"},
    ],
    "conflictqa": [
        {"memory_answer": "Paris is the capital of France.", "parametric_evidence": "Paris hosts the government. ",
         "counter_evidence": "Lyon became the capital in 2020."},
        {"memory_answer": " Water boils at 100 C at sea level", "parametric_evidence": "Textbooks give 100 C.",
         "counter_evidence": "It boils at 90 C."},
        {"memory_answer": "Paris is the capital of France.", "parametric_evidence": "Paris hosts the government. ",
         "counter_evidence": "Lyon became the capital in 2020."},
    ],
}


def rows_sha256(run_dir: Path) -> dict[str, str]:
    """SHA-256 of each JSON Lines artifact's bytes after its header line."""
    return {
        path.name: hashlib.sha256(path.read_bytes().split(b"\n", 1)[1]).hexdigest()
        for path in sorted(run_dir.glob("*.jsonl"))
    }


#: Each number JSON cannot hold, with the refusal every reader gives for it.
REFUSED_NUMBERS = {
    "NaN": "NaN is not a JSON number",
    "Infinity": "Infinity is not a JSON number",
    "-Infinity": "-Infinity is not a JSON number",
    "1e999": "1e999 is not a finite JSON number",
}


class TestRefusedNumbers:
    """Every kind of JSON input refuses NaN, Infinity, -Infinity and a literal
    that overflows a float, within the error contract: one JSON object on
    stderr, exit 2 for a config error and 1 otherwise, and no run directory.
    A backend reply holding one fails after one request."""

    @pytest.mark.parametrize("number", sorted(REFUSED_NUMBERS))
    @pytest.mark.parametrize(
        "kind",
        ["jsonl-row", "replay-store", "config", "field-map", "sidecar", "manifest", "report-artifact",
         "provider-reply", "search-reply", "rerank-reply"],
    )
    def test_every_input_kind_refuses(
        self, druid_fixture_paths, fixture_corpus_dir, replay_store, scored_run, tmp_path, serve, kind, number,
    ):
        claims_path, evidence_path = druid_fixture_paths
        templates = ["--claim-template", "claim-0shot", "--evidence-template", "evidence-0shot"]
        refusal = REFUSED_NUMBERS[number]
        first_claim = read_rows(claims_path)[0]["id"]
        path = tmp_path / "input.json"
        backend = None
        if kind == "jsonl-row":
            path = tmp_path / "scored.jsonl"
            header, first, *rest = (scored_run / "scored.jsonl").read_text(encoding="utf-8").splitlines()
            first, replaced = re.subn(r'"acu":[^,}]+', f'"acu":{number}', first)
            assert replaced == 1
            path.write_text("\n".join([header, first, *rest]) + "\n", encoding="utf-8")
            argv = ["analyze", "--scored", path, "--evidence", evidence_path]
            expected = (1, "ParseError", f"{path}:2: {refusal}")
        elif kind == "replay-store":
            path = tmp_path / "store.jsonl"
            first, *rest = replay_store.read_text(encoding="utf-8").splitlines()
            first, replaced = re.subn(r'"True":[^,}]+', f'"True":{number}', first, count=1)
            assert replaced == 1
            path.write_text("\n".join([first, *rest]) + "\n", encoding="utf-8")
            argv = ["score", "--claims", claims_path, "--evidence", evidence_path, *templates,
                    "--replay", path, "--provider-id", "hash-mock"]
            expected = (1, "StoreCorruption", f"{path}:1: {refusal}")
        elif kind == "config":
            path.write_text(f'{{"request_timeout": {number}}}\n', encoding="utf-8")
            argv = ["profile", "--config", path, "--claims", claims_path, "--evidence", evidence_path]
            expected = (2, "ConfigError", f"config file is not valid JSON: {path}:1: {refusal}")
        elif kind == "field-map":
            path.write_text(f'{{"claims": {{"text": "claim"}},\n "weight": {number}}}\n', encoding="utf-8")
            argv = ["ingest", "--claims", claims_path, "--evidence", evidence_path, "--field-map", path]
            expected = (2, "ConfigError", f"cannot read field map: {path}:1: {refusal}")
        elif kind == "sidecar":
            shutil.copy(Path(lm.__file__).parent / "data" / "prompts" / "claim-0shot.txt", tmp_path)
            path = tmp_path / "claim-0shot.json"
            path.write_text(f'{{"mode": "claim-only", "shots": {number}}}\n', encoding="utf-8")
            argv = ["score", "--claims", claims_path, "--evidence", evidence_path, *templates,
                    "--template-dir", tmp_path, "--replay", replay_store, "--provider-id", "hash-mock"]
            message = f"template_id: invalid template 'claim-0shot' ({path}): {path}:1: {refusal}"
            expected = (1, "InvariantViolation", message)
        elif kind == "manifest":
            corpus = tmp_path / "corpus"
            shutil.copytree(fixture_corpus_dir, corpus)
            path = corpus / "manifest.json"
            path.write_text(f'[{{"file": "a.txt", "url": "https://a.example", "rank": {number}}}]\n', encoding="utf-8")
            argv = ["retrieve", "--claims", claims_path, "--fixture-corpus", corpus]
            expected = (2, "ConfigError", f"cannot read fixture corpus {corpus}: ParseError: {path}:1: {refusal}")
        elif kind == "report-artifact":
            path = tmp_path / "staged" / "profile.json"
            path.parent.mkdir()
            path.write_text(f'{{"profile": {{"mean": {number}}}}}\n', encoding="utf-8")
            argv = ["report", "--run-dir", path.parent]
            expected = (1, "ParseError", f"{path}:1: {refusal}")
        else:
            reply = {
                "provider-reply": f'{{"top_logprobs": {{"True": {number}, "False": -1.0}}}}',
                "search-reply": f'{{"results": [{{"url": "https://a.example", "text": "Body.", "score": {number}}}]}}',
                "rerank-reply": f'{{"scores": [{number}]}}',
            }[kind]
            backend = serve((200, reply.encode()))
            endpoint = {"provider-reply": "provider_endpoint", "search-reply": "search_endpoints",
                        "rerank-reply": "rerank_endpoint"}[kind]
            url = [{"name": "web", "endpoint": backend.url}] if kind == "search-reply" else backend.url
            path.write_text(json.dumps({endpoint: url, "max_concurrency": 1}), encoding="utf-8")
            if kind == "provider-reply":
                argv = ["score", "--claims", claims_path, "--evidence", evidence_path, *templates, "--provider-id", "m"]
            else:
                argv = ["retrieve", "--claims", claims_path]
                argv += ["--fixture-corpus", fixture_corpus_dir] if kind == "rerank-reply" else []
            argv += ["--config", path]
            error = {"provider-reply": "ProviderError", "search-reply": "SearchBackendError",
                     "rerank-reply": "RerankBackendError"}[kind]
            expected = (1, error, f"claim {first_claim}: {backend.url} returned a malformed reply: {refusal}")
        out = tmp_path / "runs"
        code, stdout, stderr = run_cli(*map(str, argv), "--out", str(out))
        assert (code, stdout) == (expected[0], "")
        assert len(stderr.strip().splitlines()) == 1
        assert json.loads(stderr) == {"error": expected[1], "message": expected[2]}
        assert not out.exists()
        if backend is not None:
            assert len(backend.requests) == 1


class TestIngestRecast:
    def test_corpus_stats_match_fixture(self, druid_fixture_paths, tmp_path):
        claims_path, evidence_path = druid_fixture_paths
        code, stdout, _ = run_cli(
            "ingest",
            "--claims", str(claims_path),
            "--evidence", str(evidence_path),
            "--out", str(tmp_path),
        )
        assert code == 0
        stats = json.loads((run_dir_of(stdout) / "corpus_stats.json").read_text())["stats"]
        assert stats["claims"] == 5
        assert stats["evidence"] == 12
        assert stats["dropped_claims"] == 0
        assert stats["inter_context_conflicts"] == 2
        assert stats["per_source"]["politifact"] == {"claims": 2, "samples": 5}
        assert stats["relevance_histogram"] == {"not-relevant": 2, "relevant": 10}

    def test_ingest_claims_round_trip_through_artifact(self, druid_fixture_paths, tmp_path):
        claims_path, evidence_path = druid_fixture_paths
        _, stdout, _ = run_cli(
            "ingest",
            "--claims", str(claims_path),
            "--evidence", str(evidence_path),
            "--out", str(tmp_path),
        )
        artifact = run_dir_of(stdout) / "claims.jsonl"
        reloaded = [ClaimRecord.from_dict(row) for row in read_rows(artifact)]
        original = [ClaimRecord.from_dict(row) for _, row in read_jsonl(claims_path)]
        assert reloaded == original

    def test_profile_maps_raw_verdicts_as_ingest_does(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        evidence = tmp_path / "evidence.jsonl"
        claim = {"text": "The national debt doubled in a single year.", "source": "politifact"}
        claims.write_text(
            json.dumps({**claim, "id": "c1", "raw_verdict": "MISLEADING"}) + "\n"
            + json.dumps({**claim, "id": "c2", "raw_verdict": "Pants on Fire!"}) + "\n"
        )
        evidence.write_text("".join(
            json.dumps({"id": f"e-{claim_id}", "claim_id": claim_id, "text": "Borrowing doubled."}) + "\n"
            for claim_id in ("c1", "c2")
        ))
        code, stdout, stderr = run_cli(
            "ingest", "--claims", str(claims), "--evidence", str(evidence), "--out", str(tmp_path),
        )
        assert code == 0, stderr
        ingested = run_dir_of(stdout)
        rows = []
        for inputs in ((claims, evidence), (ingested / "claims.jsonl", ingested / "evidence.jsonl")):
            code, stdout, stderr = run_cli(
                "profile", "--claims", str(inputs[0]), "--evidence", str(inputs[1]), "--out", str(tmp_path),
            )
            assert code == 0, stderr
            rows.append(read_rows(run_dir_of(stdout) / "characteristics.jsonl"))
        assert [row["evidence_id"] for row in rows[0]] == ["e-c1"]
        assert rows[0] == rows[1]

    def test_profile_gives_a_malformed_ipv6_url_no_reliability(self, tmp_path):
        claims = tmp_path / "claims.jsonl"
        evidence = tmp_path / "evidence.jsonl"
        claims.write_text(json.dumps(
            {"id": "c1", "text": "The bridge opened in 1932.", "source": "politifact", "verdict": "True"}
        ) + "\n")
        evidence.write_text(json.dumps(
            {"id": "e1", "claim_id": "c1", "text": "It opened in 1932.", "url": "http://[abc"}
        ) + "\n")
        code, stdout, stderr = run_cli(
            "profile", "--claims", str(claims), "--evidence", str(evidence), "--out", str(tmp_path),
        )
        assert code == 0, stderr
        [row] = read_rows(run_dir_of(stdout) / "characteristics.jsonl")
        assert row["unreliable"] is None

    @pytest.mark.parametrize("dataset", sorted(GOLDEN_TRIPLETS))
    def test_golden_recast_rows(self, tmp_path, dataset):
        triplets = tmp_path / "triplets.jsonl"
        triplets.write_text("".join(json.dumps(row) + "\n" for row in GOLDEN_TRIPLETS[dataset]))
        code, stdout, stderr = run_cli(
            "recast", "--triplets", str(triplets), "--dataset", dataset, "--out", str(tmp_path),
        )
        assert code == 0, stderr
        assert rows_sha256(run_dir_of(stdout)) == GOLDEN_ROWS_SHA256[dataset]

    def test_recast_counterfact_writes_balanced_corpus(self, tmp_path):
        triplets = tmp_path / "triplets.jsonl"
        rows = [
            {
                "case_id": 101,
                "subject": "Danube",
                "relation": "flows through",
                "object_true": "Vienna",
                "object_edited": "Oslo",
            },
            {
                "case_id": 102,
                "subject": "Mount Kenya",
                "relation": "is located in",
                "object_true": "Kenya",
                "object_edited": "Chile",
            },
        ]
        triplets.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, stdout, stderr = run_cli(
            "recast",
            "--triplets", str(triplets),
            "--dataset", "counterfact",
            "--out", str(tmp_path),
        )
        assert code == 0, stderr
        run_dir = run_dir_of(stdout)
        stats = json.loads((run_dir / "corpus_stats.json").read_text())["stats"]
        assert stats["claims"] == 2
        assert stats["evidence"] == 4
        assert stats["stance_histogram"] == {"refutes": 2, "supports": 2}
        evidence = [EvidencePiece.from_dict(row) for row in read_rows(run_dir / "evidence.jsonl")]
        assert all(piece.relevance is not None for piece in evidence)


class TestRetrieve:
    def test_golden_rows(self, fixture_corpus_dir, tmp_path):
        lighthouse = "The red lighthouse on Gull Island was built in 1932."
        claims = [
            ("c-dated", lighthouse, "2022-05-10"),
            # The quota swaps the undated chess page for the pre-claim wildlife page.
            ("c-swap", "Chess gambits, tomato soup and a registry entry: the island tower was first lit in 1932.",
             "2020-01-01"),
            ("c-early", lighthouse, "1990-01-01"),
            ("c-undated", "Tomato soup with basil and chess gambits appear in the national registry of the island.",
             None),
        ]
        claims_path = tmp_path / "claims.jsonl"
        claims_path.write_text("".join(
            json.dumps({"id": claim_id, "text": text, "claimant": None, "source": "politifact",
                        "claim_date": claim_date, "verdict": "True", "raw_verdict": "True"}) + "\n"
            for claim_id, text, claim_date in claims
        ))
        code, stdout, stderr = run_cli(
            "retrieve", "--claims", str(claims_path), "--fixture-corpus", str(fixture_corpus_dir),
            "--out", str(tmp_path),
        )
        assert code == 0, stderr
        assert rows_sha256(run_dir_of(stdout)) == GOLDEN_ROWS_SHA256["retrieve"]

    def test_fixture_corpus_pipeline(self, fixture_corpus_dir, tmp_path):
        claims = tmp_path / "claims.jsonl"
        claims.write_text(
            json.dumps(
                {
                    "id": "c-lh-1",
                    "text": "The red lighthouse on Gull Island was built in 1932.",
                    "claimant": "Somebody",
                    "source": "politifact",
                    "claim_date": "2022-05-10",
                    "verdict": "True",
                    "raw_verdict": "True",
                }
            )
            + "\n"
        )
        code, stdout, stderr = run_cli(
            "retrieve",
            "--claims", str(claims),
            "--fixture-corpus", str(fixture_corpus_dir),
            "--out", str(tmp_path),
        )
        assert code == 0, stderr
        payload = json.loads(stdout)
        assert payload["outputs"] == ["evidence.jsonl", "traces.jsonl"]
        run_dir = Path(payload["run_dir"])
        evidence = [EvidencePiece.from_dict(row) for row in read_rows(run_dir / "evidence.jsonl")]
        assert len(evidence) == 3
        assert all(piece.claim_id == "c-lh-1" for piece in evidence)
        traces = read_rows(run_dir / "traces.jsonl")
        assert len(traces) == 1
        assert traces[0]["claim_id"] == "c-lh-1"
        assert traces[0]["chunks_kept"] >= 3


class TestScore:
    def test_replay_runs_are_byte_identical(self, druid_fixture_paths, replay_store, out_root, scored_run):
        code, stdout, stderr = run_cli(*score_args(druid_fixture_paths, replay_store, out_root))
        assert code == 0, stderr
        rerun = run_dir_of(stdout)
        assert rerun != scored_run
        for name in ("scored.jsonl", "resolved_config.json"):
            assert (rerun / name).read_bytes() == (scored_run / name).read_bytes()

    def test_scored_rows_carry_provider_and_prompt_ids(self, scored_run):
        rows = read_rows(scored_run / "scored.jsonl")
        assert len(rows) == 10
        assert {row["model_id"] for row in rows} == {"hash-mock"}
        assert {row["prompt_id"] for row in rows} == {"claim-0shot+evidence-0shot"}

    def test_header_records_acu_form(self, scored_run):
        assert header_line(scored_run / "scored.jsonl")["acu_form"] == "sum"

    def test_mean_form_is_sum_over_three(self, druid_fixture_paths, replay_store, out_root, scored_run):
        args = score_args(druid_fixture_paths, replay_store, out_root)
        code, stdout, _ = run_cli(*args, "--acu-form", "mean")
        assert code == 0
        mean_run = run_dir_of(stdout)
        assert header_line(mean_run / "scored.jsonl")["acu_form"] == "mean"
        sums = {
            (row["claim_id"], row["evidence_id"]): row["acu"]
            for row in read_rows(scored_run / "scored.jsonl")
        }
        means = {
            (row["claim_id"], row["evidence_id"]): row["acu"]
            for row in read_rows(mean_run / "scored.jsonl")
        }
        assert set(means) == set(sums)
        for key, value in means.items():
            assert value == pytest.approx(sums[key] / 3)

    def test_record_resumes_after_a_crash(self, druid_fixture_paths, tmp_path, monkeypatch):
        claims_path, evidence_path = druid_fixture_paths
        calls = []

        class FailingProvider(HashLogprobProvider):
            """Answers ``limit`` prompts in all, then fails every call."""

            limit = None

            def __init__(self, endpoint, provider_id, **_kwargs):
                super().__init__(provider_id=provider_id)

            def next_token_distribution(self, prompt):
                if self.limit is not None and len(calls) >= self.limit:
                    raise ProviderError("connection reset")
                calls.append(prompt)
                return super().next_token_distribution(prompt)

        monkeypatch.setattr(lm, "HttpLogprobProvider", FailingProvider)

        def record(workdir, limit=None):
            # Relative store and out paths keep the config hash, and so the
            # artifact headers, equal across the working directories.
            workdir.mkdir(exist_ok=True)
            monkeypatch.chdir(workdir)
            FailingProvider.limit = limit
            calls.clear()
            return run_cli(
                "score", "--claims", str(claims_path), "--evidence", str(evidence_path),
                "--claim-template", "claim-0shot", "--evidence-template", "evidence-0shot",
                "--provider-endpoint", "http://127.0.0.1:9/v1", "--provider-id", "hash-mock",
                "--record", "store.jsonl", "--max-concurrency", "1", "--out", "runs",
            )

        code, stdout, stderr = record(tmp_path / "whole")
        assert code == 0, stderr
        uninterrupted = (run_dir_of(stdout) / "scored.jsonl").read_bytes()
        prompts = len(calls)
        assert prompts == 15  # 5 claims and 10 claim-evidence pairs

        resumed = tmp_path / "resumed"
        code, _, stderr = record(resumed, limit=7)
        assert code == 1
        assert json.loads(stderr)["error"] == "ProviderError"
        assert not (resumed / "runs").exists()
        assert len(lm.ReplayStore(resumed / "store.jsonl")) == 7
        first_calls = list(calls)

        code, stdout, stderr = record(resumed)
        assert code == 0, stderr
        assert len(calls) == prompts - 7
        assert not set(calls) & set(first_calls)
        assert (run_dir_of(stdout) / "scored.jsonl").read_bytes() == uninterrupted
        # Records carry no timestamp, so the resumed store is the whole one.
        whole_store = (tmp_path / "whole" / "store.jsonl").read_bytes()
        assert (resumed / "store.jsonl").read_bytes() == whole_store

        code, _, stderr = record(resumed)
        assert code == 0, stderr
        assert calls == []
        assert (resumed / "store.jsonl").read_bytes() == whole_store

    def test_record_stops_calling_the_provider_after_a_failure(self, druid_fixture_paths, tmp_path, monkeypatch):
        claims_path, evidence_path = druid_fixture_paths
        calls = []

        class FailingProvider(HashLogprobProvider):
            """Fails from its 4th call on."""

            def __init__(self, endpoint, provider_id, **_kwargs):
                super().__init__(provider_id=provider_id)

            def next_token_distribution(self, prompt):
                calls.append(prompt)
                if len(calls) >= 4:
                    raise ProviderError("connection reset")
                return super().next_token_distribution(prompt)

        monkeypatch.setattr(lm, "HttpLogprobProvider", FailingProvider)
        code, _, stderr = run_cli(
            "score", "--claims", str(claims_path), "--evidence", str(evidence_path),
            "--claim-template", "claim-0shot", "--evidence-template", "evidence-0shot",
            "--provider-endpoint", "http://127.0.0.1:9/v1", "--provider-id", "hash-mock",
            "--record", str(tmp_path / "store.jsonl"), "--max-concurrency", "1", "--out", str(tmp_path / "runs"),
        )
        assert code == 1
        assert json.loads(stderr)["error"] == "ProviderError"
        # The 5th claim is never sent once the 4th has failed.
        assert len(calls) == 4
        assert len(lm.ReplayStore(tmp_path / "store.jsonl")) == 3
        assert not (tmp_path / "runs").exists()

    def record_store(self, druid_fixture_paths, store, monkeypatch, fail_after=None, workers=1):
        """``score --record store`` against a hash provider that answers
        ``fail_after`` calls, then fails every call, with ResourceWarning as
        an error; returns the exit code and every error raised in a
        finalizer, such as an unclosed file's ResourceWarning."""
        calls = []

        class Provider(HashLogprobProvider):
            def __init__(self, endpoint, provider_id, **_kwargs):
                super().__init__(provider_id=provider_id)

            def next_token_distribution(self, prompt):
                with lock:
                    calls.append(prompt)
                    if fail_after is not None and len(calls) > fail_after:
                        raise ProviderError("connection reset")
                return super().next_token_distribution(prompt)

        lock = threading.Lock()
        unraised = []
        monkeypatch.setattr(lm, "HttpLogprobProvider", Provider)
        monkeypatch.setattr(sys, "unraisablehook", lambda hook: unraised.append(hook.exc_value))
        claims_path, evidence_path = druid_fixture_paths
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            code, _, _ = run_cli(
                "score", "--claims", str(claims_path), "--evidence", str(evidence_path),
                "--claim-template", "claim-0shot", "--evidence-template", "evidence-0shot",
                "--provider-endpoint", "http://127.0.0.1:9/v1", "--provider-id", "hash-mock",
                "--record", str(store), "--max-concurrency", str(workers), "--out", str(store.parent / "runs"),
            )
            gc.collect()
        return code, unraised

    def test_golden_recorded_store(self, druid_fixture_paths, tmp_path, monkeypatch):
        code, unraised = self.record_store(druid_fixture_paths, tmp_path / "store.jsonl", monkeypatch)
        assert (code, unraised) == (0, [])
        assert hashlib.sha256((tmp_path / "store.jsonl").read_bytes()).hexdigest() == GOLDEN_STORE_SHA256

    def test_failed_record_run_leaves_whole_lines_and_no_open_file(self, druid_fixture_paths, tmp_path, monkeypatch):
        store = tmp_path / "store.jsonl"
        code, unraised = self.record_store(druid_fixture_paths, store, monkeypatch, fail_after=6)
        assert (code, unraised) == (1, [])
        text = store.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert [lm.ScoreRecord.from_dict(json.loads(line)).line() for line in text.splitlines()] == text.splitlines()
        assert len(lm.ReplayStore(store)) == 6

    def test_concurrent_record_run_stores_each_prompt_once(self, druid_fixture_paths, tmp_path, monkeypatch):
        store = tmp_path / "store.jsonl"
        code, unraised = self.record_store(druid_fixture_paths, store, monkeypatch, workers=4)
        assert (code, unraised) == (0, [])
        lines = store.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len({json.loads(line)["prompt_hash"] for line in lines}) == 15
        serial = tmp_path / "serial" / "store.jsonl"
        serial.parent.mkdir()
        assert self.record_store(druid_fixture_paths, serial, monkeypatch) == (0, [])
        assert sorted(lines) == sorted(serial.read_text(encoding="utf-8").splitlines())


#: Computed from the druid fixture run before the analysis and profile
#: results became plain objects.
GOLDEN_SUMMARY_SHA256 = {
    "analysis": "b5f5ffd4619c36e8d44a5a2a730ff36458813acc2fa35fc16b07b2733076a72b",
    "grid": "4a637bad6db146d3e005e2ed67a86d42f2baef7063f188abf60ae53e7a0bb493",
    "profile": "7b2860193721aaf913c4ba006a91e3d0ed9f2973db47354d63438413ea80be5b",
}
#: The same run's per-vector rows: SHA-256 of ``characteristics.jsonl``
#: after its header line, computed before the bulk readability counts.
GOLDEN_PROFILE_ROWS_SHA256 = {
    "characteristics.jsonl": "8915b7662bce1a9f90a8dc9acc3adf98f8e3d95207a035f349598e4f15989837",
}
#: SHA-256 of the store ``score --record`` writes for the druid fixture
#: with the hash provider, one worker; computed before appends went through
#: one file handle.
GOLDEN_STORE_SHA256 = "6e75245bc115b25a9822cf0bbcb7248571d6cb75cafdf48a39dc23e896c6edcf"


@pytest.fixture(scope="module")
def analysis_run(druid_fixture_paths, scored_run, profile_run, out_root) -> Path:
    _, evidence_path = druid_fixture_paths
    code, stdout, stderr = run_cli(
        "analyze",
        "--scored", str(scored_run / "scored.jsonl"),
        "--evidence", str(evidence_path),
        "--characteristics", str(profile_run / "characteristics.jsonl"),
        "--dataset", "druid",
        "--out", str(out_root),
    )
    assert code == 0, stderr
    assert json.loads(stdout)["outputs"] == ["analysis.json", "grid.json", "grid.csv"]
    return run_dir_of(stdout)


class TestAnalyze:
    def test_analysis_document_shape(self, analysis_run):
        document = json.loads((analysis_run / "analysis.json").read_text())
        assert set(document) == {"meta", "analysis"}
        payload = document["analysis"]
        assert set(payload) == {
            "stratified_acu",
            "prediction_shift",
            "memory_conflicts",
            "agreement",
            "skipped_samples",
        }
        # Every scored row points at stance-annotated evidence in the fixture.
        assert payload["skipped_samples"] == 0
        assert set(payload["agreement"]) == {"relevance", "stance"}

    def test_stratified_acu_covers_fixture_stances(self, analysis_run):
        stratified = json.loads((analysis_run / "analysis.json").read_text())["analysis"][
            "stratified_acu"
        ]
        assert stratified["n"] == 10
        assert stratified["empty_strata"] == []
        assert set(stratified["strata"]) == {
            "supports",
            "insufficient-supports",
            "insufficient-neutral",
            "insufficient-contradictory",
            "insufficient-refutes",
            "refutes",
        }

    def test_memory_conflict_rate_in_unit_interval(self, analysis_run):
        conflicts = json.loads((analysis_run / "analysis.json").read_text())["analysis"][
            "memory_conflicts"
        ]
        assert conflicts["count"] >= 0
        assert 0.0 <= conflicts["rate"] <= 1.0

    def test_grid_schema_and_columns(self, analysis_run):
        grid = json.loads((analysis_run / "grid.json").read_text())["grid"]
        assert tuple(grid["rows"]) == GRID_CHARACTERISTICS
        assert grid["columns"] == [
            "druid|supports",
            "druid|insufficient-supports",
            "druid|insufficient-neutral",
            "druid|insufficient-contradictory",
            "druid|insufficient-refutes",
            "druid|refutes",
        ]
        for row in grid["rows"]:
            assert set(grid["cells"][row]) == set(grid["columns"])

    def test_grid_csv_is_comment_header_then_one_line_per_row(self, analysis_run):
        lines = (analysis_run / "grid.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].split(",")[0] == "characteristic"
        assert len(lines) == 2 + len(GRID_CHARACTERISTICS)

    def test_golden_summary_objects(self, analysis_run, profile_run):
        # SHA-256 of the canonical JSON of each summary object the fixture
        # run writes, without "meta"; any changed byte in them shows here.
        documents = {
            "analysis": analysis_run / "analysis.json",
            "grid": analysis_run / "grid.json",
            "profile": profile_run / "profile.json",
        }
        digests = {
            name: hashlib.sha256(
                canonical_json(json.loads(path.read_text(encoding="utf-8"))[name]).encode("utf-8")
            ).hexdigest()
            for name, path in documents.items()
        }
        assert digests == GOLDEN_SUMMARY_SHA256

    def test_golden_profile_rows(self, profile_run):
        # The aggregate averages the vectors; a one-bit change in a single
        # vector's value shows only here.
        assert rows_sha256(profile_run) == GOLDEN_PROFILE_ROWS_SHA256

    def analyze(self, scored: Path, evidence: Path, profile_run: Path, out: Path) -> dict:
        """The analysis and grid objects of one analyze run, and the ACU of
        each sample it passed to the grid. Spearman cells only see ranks, so
        the grid alone would not show a rescaled ACU."""
        grid_acus, original = {}, analysis.correlation_grid

        def correlation_grid(samples):
            samples = list(samples)
            grid_acus.update((sample.vector.evidence_id, sample.acu) for sample in samples)
            return original(samples)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "correlation_grid", correlation_grid)
            code, stdout, stderr = run_cli(
                "analyze", "--scored", str(scored), "--evidence", str(evidence),
                "--characteristics", str(profile_run / "characteristics.jsonl"),
                "--dataset", "druid", "--out", str(out),
            )
        assert code == 0, stderr
        run_dir = run_dir_of(stdout)
        documents = {name: json.loads((run_dir / f"{name}.json").read_text()) for name in ("analysis", "grid")}
        assert documents["analysis"]["meta"]["acu_form"] == "sum"
        assert len(grid_acus) == 10
        return {"grid_acus": grid_acus, **{name: document[name] for name, document in documents.items()}}

    def test_analyze_recomputes_acu_in_its_own_form(
        self, druid_fixture_paths, replay_store, scored_run, profile_run, analysis_run, tmp_path
    ):
        code, stdout, stderr = run_cli(
            *score_args(druid_fixture_paths, replay_store, tmp_path), "--acu-form", "mean"
        )
        assert code == 0, stderr
        mean_scored = run_dir_of(stdout) / "scored.jsonl"
        got = self.analyze(mean_scored, druid_fixture_paths[1], profile_run, tmp_path)
        expected = self.analyze(scored_run / "scored.jsonl", druid_fixture_paths[1], profile_run, tmp_path)
        assert got == expected
        for name in ("analysis", "grid"):
            assert got[name] == json.loads((analysis_run / f"{name}.json").read_text())[name]

    def test_analyze_takes_the_stance_it_is_given(
        self, druid_fixture_paths, replay_store, scored_run, profile_run, analysis_run, tmp_path
    ):
        claims_path, evidence_path = druid_fixture_paths
        rows = [json.loads(line) for line in evidence_path.read_text(encoding="utf-8").splitlines()]
        changed = next(row for row in rows if row["id"] == "e-pf-001b")
        assert changed["stance"] == "refutes"
        changed["stance"] = "supports"
        restanced = tmp_path / "evidence.jsonl"
        restanced.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")

        got = self.analyze(scored_run / "scored.jsonl", restanced, profile_run, tmp_path)
        # Scoring against the new stance gives the same probabilities, and so
        # the ACU that analyze must compute for that stance.
        code, stdout, stderr = run_cli(*score_args((claims_path, restanced), replay_store, tmp_path))
        assert code == 0, stderr
        expected = self.analyze(run_dir_of(stdout) / "scored.jsonl", restanced, profile_run, tmp_path)
        assert got == expected
        strata = got["analysis"]["stratified_acu"]["strata"]
        assert (strata["supports"]["n"], strata["refutes"]["n"]) == (4, 2)
        old = json.loads((analysis_run / "analysis.json").read_text())["analysis"]["stratified_acu"]
        assert strata["supports"] != old["strata"]["supports"]


class TestReport:
    def test_report_merges_sibling_artifacts(self, druid_fixture_paths, scored_run, tmp_path):
        _, evidence_path = druid_fixture_paths
        code, stdout, _ = run_cli(
            "analyze",
            "--scored", str(scored_run / "scored.jsonl"),
            "--evidence", str(evidence_path),
            "--out", str(tmp_path),
        )
        assert code == 0
        analysis_run = run_dir_of(stdout)

        staged = tmp_path / "staged"
        staged.mkdir()
        shutil.copy(analysis_run / "analysis.json", staged / "analysis.json")

        code, stdout, stderr = run_cli("report", "--run-dir", str(staged), "--out", str(tmp_path))
        assert code == 0, stderr
        payload = json.loads(stdout)
        assert payload["outputs"] == ["report.json", "report.csv"]
        report_dir = Path(payload["run_dir"])

        report = json.loads((report_dir / "report.json").read_text())
        assert set(report["sections"]) == {"analysis"}
        assert "meta" not in report["sections"]["analysis"]

        lines = (report_dir / "report.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "key,value"
        assert any(line.startswith("analysis.analysis.stratified_acu") for line in lines[2:])

    def test_non_finite_artifact_value_is_a_parse_error(self, scored_run, druid_fixture_paths, tmp_path):
        _, evidence_path = druid_fixture_paths
        code, stdout, _ = run_cli(
            "analyze", "--scored", str(scored_run / "scored.jsonl"), "--evidence", str(evidence_path),
            "--out", str(tmp_path),
        )
        assert code == 0
        staged = tmp_path / "staged"
        staged.mkdir()
        text, replaced = re.subn(r'"rate":[^,}]+', '"rate":NaN', (run_dir_of(stdout) / "analysis.json").read_text())
        assert replaced == 1
        (staged / "analysis.json").write_text(text, encoding="utf-8")
        out = tmp_path / "reports"
        code, stdout, stderr = run_cli("report", "--run-dir", str(staged), "--out", str(out))
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {
            "error": "ParseError", "message": f"{staged / 'analysis.json'}:1: NaN is not a JSON number",
        }
        assert not out.exists()

    def test_report_requires_existing_directory(self, tmp_path):
        code, _, stderr = run_cli(
            "report", "--run-dir", str(tmp_path / "absent"), "--out", str(tmp_path)
        )
        assert code == 2
        assert json.loads(stderr)["error"] == "ConfigError"


class TestConfigFileDrivenRun:
    def test_flags_override_config_file(self, druid_fixture_paths, tmp_path):
        claims_path, evidence_path = druid_fixture_paths
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "claims_path": str(claims_path),
                    "evidence_path": str(evidence_path),
                    "acu_form": "mean",
                    "out_dir": str(tmp_path / "ignored"),
                }
            )
            + "\n"
        )
        code, stdout, _ = run_cli(
            "profile", "--config", str(config), "--out", str(tmp_path / "actual")
        )
        assert code == 0
        run_dir = run_dir_of(stdout)
        assert run_dir.parent == tmp_path / "actual"
        # Settings not overridden on the command line keep config values.
        assert header_line(run_dir / "characteristics.jsonl")["acu_form"] == "mean"
