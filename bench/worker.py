"""Runs one workload's round trip repeatedly in a fresh interpreter.

Started by ``run.py`` with the generated inputs already in the working
directory. Every stage goes through ``contextmeter.cli.main`` in this
process; each stage's run directory is moved to a fixed path under ``out/``
so that later stages, and the config hashes in every artifact, see the same
paths on every repetition. Prints one JSON object with the per-repetition
timings, the check tallies and, with ``--trace 1``, per-layer values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
from provider import PROVIDER_ID, HashLogprobProvider  # noqa: E402
from tracing import Tracer, is_time, layer_metrics  # noqa: E402

from contextmeter import cli, lm  # noqa: E402

#: Pinned so the config hash, and with it every artifact's bytes, is the
#: same on every machine. One worker thread: the stages are pure Python, so
#: a second thread only adds interpreter-lock hand-offs, and their timing
#: noise, on a shared core.
MAX_CONCURRENCY = "1"
COMMON = ["--out", "runs", "--max-concurrency", MAX_CONCURRENCY]
TEMPLATES = ["--claim-template", "llama-claim-3shot", "--evidence-template", "llama-evidence-3shot"]
RECORD = ["--provider-endpoint", "inprocess://bench", "--provider-id", PROVIDER_ID]
REPLAY = ["--provider-id", PROVIDER_ID]
MIN_REPS = 3
SETUP_SAMPLES = 9
MIN_TRACED_REPS = 2


class StageFailed(Exception):
    pass


class Repetition:
    """Runs CLI stages for one repetition and tallies what failed."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.stage_s: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def stage(self, label: str, out: str, argv: list[str]) -> Path:
        """Run one CLI command; its run directory becomes ``out``."""
        self.attempted += 1
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                if self.tracer is None:
                    code = cli.main(argv + COMMON)
                else:
                    code = self.tracer.run_span(f"cli.{label}", cli.main, argv + COMMON)
        except Exception as exc:  # a crash is a failed stage, reported below
            code, detail = None, repr(exc)
        else:
            detail = captured.getvalue().strip()
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.errors.append(f"{label}: exit {code}: {detail}")
            raise StageFailed(label)
        self.stage_s[label] = self.stage_s.get(label, 0.0) + elapsed
        run_dir = json.loads(detail.splitlines()[-1])["run_dir"]
        target = Path(out)
        target.parent.mkdir(parents=True, exist_ok=True)
        os.rename(run_dir, target)
        return target

    def check(self, message: str | None) -> None:
        self.attempted += 1
        if message is not None:
            self.failed += 1
            self.errors.append(message)


def merge_for_report(target: str, *dirs: Path) -> str:
    """Gather the JSON artifacts ``report`` merges into one directory."""
    merged = Path(target)
    merged.mkdir(parents=True)
    for directory in dirs:
        for path in directory.glob("*.json"):
            if path.name != "resolved_config.json":
                shutil.copyfile(path, merged / path.name)
    return str(merged)


# -- workloads ---------------------------------------------------------------------
#
# Each ``*_prepare`` runs once, untimed; each ``*_round_trip`` is one timed
# repetition and each ``*_checks`` verifies its outputs afterwards.

def druid_prepare(rep: Repetition) -> None:
    """Build the replay store that the timed score stage reads."""
    ingested = rep.stage("ingest", "prep/ingest", ["ingest", "--claims", "in/claims.jsonl", "--evidence", "in/evidence.jsonl"])
    rep.stage("score_record", "prep/score_record", [
        "score", "--claims", f"{ingested}/claims.jsonl", "--evidence", f"{ingested}/evidence.jsonl",
        *TEMPLATES, *RECORD, "--record", "prep/store.jsonl",
    ])


def druid_round_trip(rep: Repetition) -> None:
    ingested = rep.stage("ingest", "out/ingest", ["ingest", "--claims", "in/claims.jsonl", "--evidence", "in/evidence.jsonl"])
    claims, evidence = f"{ingested}/claims.jsonl", f"{ingested}/evidence.jsonl"
    profiled = rep.stage("profile", "out/profile", ["profile", "--claims", claims, "--evidence", evidence])
    scored = rep.stage("score_replay", "out/score_replay", [
        "score", "--claims", claims, "--evidence", evidence, *TEMPLATES, *REPLAY, "--replay", "prep/store.jsonl",
    ])
    analyzed = rep.stage("analyze", "out/analyze", [
        "analyze", "--scored", f"{scored}/scored.jsonl", "--evidence", evidence,
        "--characteristics", f"{profiled}/characteristics.jsonl", "--dataset", "druid",
    ])
    merged = merge_for_report("out/merged", ingested, profiled, analyzed)
    rep.stage("report", "out/report", ["report", "--run-dir", merged])


def druid_checks(rep: Repetition) -> None:
    evidence = Path("out/ingest/evidence.jsonl")
    scored = Path("out/score_replay/scored.jsonl")
    rep.check(checks.check_vector_count(Path("out/profile/characteristics.jsonl"), evidence))
    rep.check(checks.check_scored_count(scored, evidence))
    rep.check(checks.check_acu(scored, evidence))
    rep.check(checks.check_same_rows(Path("prep/score_record/scored.jsonl"), scored))


def retrieve_round_trip(rep: Repetition) -> None:
    retrieved = rep.stage("retrieve", "out/retrieve", [
        "retrieve", "--claims", "in/claims.jsonl", "--fixture-corpus", "in/corpus",
        "--config", "in/retrieve_config.json",
    ])
    rep.stage("profile", "out/profile", ["profile", "--claims", "in/claims.jsonl", "--evidence", f"{retrieved}/evidence.jsonl"])


def retrieve_checks(rep: Repetition) -> None:
    evidence = Path("out/retrieve/evidence.jsonl")
    rep.check(checks.check_retrieve_caps(evidence))
    rep.check(checks.check_vector_count(Path("out/profile/characteristics.jsonl"), evidence))


RECAST_DATASETS = ("counterfact", "conflictqa")


def recast_round_trip(rep: Repetition) -> None:
    for dataset in RECAST_DATASETS:
        base = f"out/{dataset}"
        recast = rep.stage("recast", f"{base}/recast", ["recast", "--triplets", f"in/{dataset}.jsonl", "--dataset", dataset])
        claims, evidence = f"{recast}/claims.jsonl", f"{recast}/evidence.jsonl"
        profiled = rep.stage("profile", f"{base}/profile", ["profile", "--claims", claims, "--evidence", evidence])
        score = ["score", "--claims", claims, "--evidence", evidence, *TEMPLATES]
        rep.stage("score_record", f"{base}/score_record", [*score, *RECORD, "--record", f"{base}/store.jsonl"])
        scored = rep.stage("score_replay", f"{base}/score_replay", [*score, *REPLAY, "--replay", f"{base}/store.jsonl"])
        analyzed = rep.stage("analyze", f"{base}/analyze", [
            "analyze", "--scored", f"{scored}/scored.jsonl", "--evidence", evidence,
            "--characteristics", f"{profiled}/characteristics.jsonl", "--dataset", dataset,
        ])
        merged = merge_for_report(f"{base}/merged", recast, profiled, analyzed)
        rep.stage("report", f"{base}/report", ["report", "--run-dir", merged])


def recast_checks(rep: Repetition) -> None:
    for dataset in RECAST_DATASETS:
        base = Path("out", dataset)
        evidence = base / "recast" / "evidence.jsonl"
        scored = base / "score_replay" / "scored.jsonl"
        rep.check(checks.check_vector_count(base / "profile" / "characteristics.jsonl", evidence))
        rep.check(checks.check_scored_count(scored, evidence))
        rep.check(checks.check_acu(scored, evidence))
        rep.check(checks.check_same_rows(base / "score_record" / "scored.jsonl", scored))


WORKLOADS = {
    "druid": (druid_prepare, druid_round_trip, druid_checks),
    "retrieve": (None, retrieve_round_trip, retrieve_checks),
    "recast": (None, recast_round_trip, recast_checks),
}


# -- repetitions -------------------------------------------------------------------

class Runner:
    """Repeats one workload and tallies every stage run and check."""

    def __init__(self, workload: str):
        self.prepare, self.round_trip, self.checks = WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference_digests: dict[str, str] | None = None

    def _tally(self, rep: Repetition) -> None:
        self.attempted += rep.attempted
        self.failed += rep.failed
        self.errors.extend(rep.errors)

    def run_once(self, tracer: Tracer | None = None) -> dict | None:
        """One timed repetition plus its checks; None if a stage failed."""
        for stale in ("out", "runs"):
            shutil.rmtree(stale, ignore_errors=True)
        rep = Repetition(tracer)
        start = time.perf_counter()
        try:
            self.round_trip(rep)
        except StageFailed:
            self._tally(rep)
            return None
        wall = time.perf_counter() - start
        self.checks(rep)
        digests = checks.digests(Path("out"))
        if self.reference_digests is None:
            self.reference_digests = digests
        else:
            rep.check(None if digests == self.reference_digests else "artifact digests differ between repetitions")
        self._tally(rep)
        return {"wall_s": wall, "stages": rep.stage_s}

    def repeat(self, seconds: float, setups: list) -> list[dict]:
        """Repetitions for ``seconds``, with ``SETUP_SAMPLES`` import timings
        spread evenly between them so that both see the same stretch of
        host load."""
        results = []
        start = time.perf_counter()
        while len(results) < MIN_REPS or time.perf_counter() - start < seconds:
            result = self.run_once()
            if result is None:
                break
            results.append(result)
            if len(setups) < SETUP_SAMPLES and time.perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
                setups.append(time_setup())
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup())
        return results

    def trace_pairs(self, seconds: float) -> tuple[list[dict], list[dict], list]:
        """Alternate untraced and traced repetitions for ``seconds``, so that
        both halves of each pair see the same host load; also returns the
        spans of the last traced repetition."""
        untraced, traced = [], []
        tracer = Tracer()
        start = time.perf_counter()
        while len(traced) < MIN_TRACED_REPS or time.perf_counter() - start < seconds:
            plain = self.run_once()
            tracer.reset()
            tracer.install(HashLogprobProvider)
            try:
                result = self.run_once(tracer)
            finally:
                tracer.uninstall()
            if plain is None or result is None:
                break
            result["layers"] = layer_metrics(tracer.spans, tracer.counts)
            untraced.append(plain)
            traced.append(result)
        return untraced, traced, tracer.spans


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI, as every CLI
    invocation pays it."""
    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))
    subprocess.run([sys.executable, "-c", "import contextmeter.cli"], cwd=BENCH_DIR.parent, env=env, check=True)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="where to write the spans of the last traced repetition")
    args = parser.parse_args(argv)

    # The CLI builds its HTTP provider from this module attribute; the
    # record pass gets the in-process one instead.
    lm.HttpLogprobProvider = HashLogprobProvider
    runner = Runner(args.workload)
    report: dict = {}
    if runner.prepare is not None:
        prep = Repetition()
        try:
            runner.prepare(prep)
        except StageFailed:
            pass
        runner._tally(prep)
    if runner.failed == 0 and runner.run_once() is not None:  # warm-up, discarded
        if args.trace:
            untraced, traced, spans = runner.trace_pairs(args.seconds)
            if args.trace_file:
                with open(args.trace_file, "w", encoding="utf-8") as handle:
                    for span in spans:
                        handle.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "thread"), span))) + "\n")
            report["untraced"] = untraced
            report["traced"] = traced
            counts = [
                {k: v for k, v in result["layers"].items() if not is_time(k)} for result in traced
            ]
            runner.attempted += 1
            if any(c != counts[0] for c in counts[1:]):
                runner.failed += 1
                runner.errors.append("per-layer counts differ between traced repetitions")
        else:
            # This process's own import already wrote the bytecode caches
            # and paged in the libraries, so every sample is a warm start.
            report["setup_s"] = []
            report["reps"] = runner.repeat(args.seconds, report["setup_s"])
    report.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        digests=runner.reference_digests or {},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
