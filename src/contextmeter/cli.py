"""Command-line entry point wiring the modules into reproducible batch runs.

Every invocation resolves one RunConfig (JSON file + flag overrides), checks
the command's required settings and runs its stage, which returns its
artifacts by file name. Only then is a timestamped run directory created,
the resolved config echoed into it and the artifacts written, so a failed
stage leaves nothing behind. Artifact contents are byte-identical across
reruns of the same config and replay store. Each artifact embeds the config
hash, the ACU form, and the tool version: JSON Lines files as a leading
header line, JSON files under a "meta" key, CSV files as a leading comment
line.

Exit codes: 0 success, 2 configuration error, 1 any other failure; errors
are printed to stderr as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Optional

from . import metrics
from ._version import __version__
from .errors import ConfigError, ContextMeterError, InvariantViolation, NoPairableValues, ParseError
from .model import (
    CharacteristicVector,
    ClaimRecord,
    EvidencePiece,
    Record,
    ScoredSample,
    canonical_json,
    csv_text,
    read_json,
    read_jsonl,
    write_jsonl,
)

#: Settings that never change an artifact's bytes, left out of the config hash.
_UNHASHED = ("out_dir", "max_concurrency")


@dataclass
class RunConfig(Record):
    """Single source of truth for a run; secrets stay in the environment.

    ``auth_env_var`` names the environment variable holding the provider
    token; the token itself never appears in config files or run archives.
    """

    claims_path: Optional[str] = None
    evidence_path: Optional[str] = None
    triplets_path: Optional[str] = None
    dataset: str = "dataset"
    field_map_path: Optional[str] = None

    fixture_corpus: Optional[str] = None
    search_endpoints: list = field(default_factory=list)
    rerank_endpoint: Optional[str] = None
    fact_check_domains: list[str] = field(default_factory=list)

    provider_endpoint: Optional[str] = None
    provider_id: Optional[str] = None
    auth_env_var: Optional[str] = None
    request_timeout: float = 60.0

    claim_template: Optional[str] = None
    evidence_template: Optional[str] = None
    template_dir: Optional[str] = None

    acu_form: str = "sum"

    replay_store: Optional[str] = None
    record_store: Optional[str] = None

    scored_path: Optional[str] = None
    characteristics_path: Optional[str] = None
    run_dir: Optional[str] = None

    out_dir: str = "runs"
    max_concurrency: int = 0

    def __post_init__(self) -> None:
        if self.acu_form not in metrics.ACU_FORMS:
            raise ConfigError(f"acu_form must be one of {metrics.ACU_FORMS}, got {self.acu_form!r}")
        if self.max_concurrency <= 0:
            self.max_concurrency = os.cpu_count() or 1

    @property
    def config_hash(self) -> str:
        hashed = {k: v for k, v in self.to_dict().items() if k not in _UNHASHED}
        return hashlib.sha256(canonical_json(hashed).encode("utf-8")).hexdigest()[:16]


def load_config(path: Optional[str], overrides: dict[str, Any]) -> RunConfig:
    data: dict[str, Any] = {}
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = read_json(Path(path))
        except ParseError as exc:  # at line 0 when the file cannot be opened
            reason = "config file is not valid JSON" if exc.line_no else "cannot read config file"
            raise ConfigError(f"{reason}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig.from_dict(data)
    except InvariantViolation as exc:
        raise ConfigError(str(exc)) from exc


# -- run directory -----------------------------------------------------------------

#: A stage's output: artifact file name to content, in output order. A
#: ``.jsonl`` name holds rows, a ``.json`` name an object, a ``.csv`` name text.
Artifacts = dict[str, Any]


def _check_out_dir(config: RunConfig) -> None:
    """Refuse an ``out_dir`` that names a file or a path under one; creates nothing."""
    out = Path(config.out_dir)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"out_dir is not a directory: {path}")
            return


def write_run(config: RunConfig, command: str, artifacts: Artifacts) -> Path:
    """Create ``<out>/<command>-<stamp>-<hash>/`` holding the resolved config
    and every artifact, each with the run's meta."""
    meta = {"config_hash": config.config_hash, "acu_form": config.acu_form, "version": __version__}
    base = Path(config.out_dir)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    name = f"{command}-{stamp}-{meta['config_hash'][:8]}"
    run_dir = base / name
    try:
        base.mkdir(parents=True, exist_ok=True)
        suffix = 1
        while run_dir.exists():
            run_dir = base / f"{name}-{suffix}"
            suffix += 1
        run_dir.mkdir()
    except OSError as exc:
        raise ConfigError(f"cannot create a run directory under {base}: {exc}") from exc
    try:
        files = {"resolved_config.json": {"config": config.to_dict()}, **artifacts}
        for file_name, content in files.items():
            path = run_dir / file_name
            if file_name.endswith(".jsonl"):
                write_jsonl(path, content, header=meta)
            elif file_name.endswith(".json"):
                path.write_text(canonical_json({"meta": meta, **content}) + "\n", encoding="utf-8")
            else:
                comment = "# " + " ".join(f"{key}={value}" for key, value in meta.items())
                path.write_text(comment + "\n" + content, encoding="utf-8")
    except (OSError, ValueError) as exc:
        shutil.rmtree(run_dir, ignore_errors=True)
        raise ContextMeterError(f"cannot write run directory {run_dir}: {exc}") from exc
    return run_dir


def _load_records(path: str, cls: type, key: str) -> dict:
    """Decode every row of a JSON Lines file, in file order, keyed by the
    evidence id each record holds in its ``key`` field; a bad row or a
    repeated id is a ParseError."""
    records = {}
    for line_no, row in read_jsonl(Path(path)):
        try:
            record = cls.from_dict(row)
        except (InvariantViolation, TypeError) as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        evidence_id = getattr(record, key)
        if evidence_id in records:
            raise ParseError(path, line_no, f"duplicate evidence id {evidence_id!r}")
        records[evidence_id] = record
    return records


def _parallel_map(fn: Callable, items: list, label: Callable[[Any], str], workers: int) -> list:
    """``fn`` over ``items``, results in input order.

    With one worker every item runs in the calling thread; with more, on a
    thread pool, which overlaps only items that wait on I/O. The first item
    to fail stops the map: no item starts after it, and its error is raised
    once the items already running have finished. A package error raised
    for an item gets ``label(item)`` prefixed to its message, on the same
    exception object.
    """
    failed = threading.Event()

    def run(item):
        # Items start in input order, so one skipped here comes after the
        # failure that is raised first.
        if failed.is_set():
            return None
        try:
            return fn(item)
        except Exception as exc:
            failed.set()
            if isinstance(exc, ContextMeterError):
                exc.args = (f"{label(item)}: {exc}",)
            raise

    if workers == 1:
        return [run(item) for item in items]
    # ``map`` cancels the items not yet started once a result raises.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, items))


def _load_field_map(config: RunConfig, per_file: bool) -> Optional[dict]:
    """The ``--field-map`` JSON: an object of strings (our field name to the
    upstream one), or with ``per_file`` one such object per input file."""
    if config.field_map_path is None:
        return None
    try:
        field_map = read_json(Path(config.field_map_path))
    except ParseError as exc:
        raise ConfigError(f"cannot read field map: {exc}") from exc

    def is_names(value: Any) -> bool:
        return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())

    if per_file:
        valid = isinstance(field_map, dict) and all(map(is_names, field_map.values()))
    else:
        valid = is_names(field_map)
    if not valid:
        shape = "an object of objects of strings" if per_file else "an object of strings"
        raise ConfigError(f"field map {config.field_map_path} must be {shape}")
    return field_map


def _corpus_artifacts(corpus: ingest.Corpus) -> Artifacts:
    n_claims, n_evidence = corpus.totals()
    stats = {
        "claims": n_claims,
        "evidence": n_evidence,
        "dropped_claims": corpus.dropped_claims,
        "per_source": {
            source: {"claims": c, "samples": s}
            for source, (c, s) in sorted(corpus.per_source_counts().items())
        },
        "stance_histogram": dict(sorted(corpus.stance_histogram().items())),
        "relevance_histogram": dict(sorted(corpus.relevance_histogram().items())),
        "inter_context_conflicts": corpus.inter_context_conflicts(),
    }
    return {
        "claims.jsonl": corpus.claims.values(),
        "evidence.jsonl": corpus.evidence,
        "corpus_stats.json": {"stats": stats},
    }


# -- subcommands -------------------------------------------------------------------

def cmd_ingest(config: RunConfig) -> Artifacts:
    from . import ingest

    return _corpus_artifacts(ingest.load_druid(
        Path(config.claims_path),
        Path(config.evidence_path),
        field_map=_load_field_map(config, per_file=True),
    ))


def cmd_recast(config: RunConfig) -> Artifacts:
    from . import ingest

    if config.dataset not in ("counterfact", "conflictqa"):
        raise ConfigError(
            "recast needs dataset set to counterfact or conflictqa, "
            f"got {config.dataset!r}"
        )
    return _corpus_artifacts(ingest.load_triplets(
        Path(config.triplets_path),
        dataset=config.dataset,
        field_map=_load_field_map(config, per_file=False),
    ))


def _build_search_clients(config: RunConfig) -> list:
    from . import retrieval

    clients = []
    if config.fixture_corpus:
        try:
            clients.append(retrieval.FixtureSearchClient(Path(config.fixture_corpus)))
        except (ParseError, OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"cannot read fixture corpus {config.fixture_corpus}: {type(exc).__name__}: {exc}"
            ) from exc
    for entry in config.search_endpoints:
        valid = isinstance(entry, dict) and all(isinstance(entry.get(key), str) for key in ("name", "endpoint"))
        if not valid:
            raise ConfigError(f"search_endpoints entries need a string name and endpoint, got {entry!r}")
        clients.append(
            retrieval.HttpSearchClient(endpoint=entry["endpoint"], name=entry["name"], timeout=config.request_timeout)
        )
    if not clients:
        raise ConfigError("retrieve needs fixture_corpus or search_endpoints")
    return clients


def cmd_retrieve(config: RunConfig) -> Artifacts:
    from . import ingest, retrieval

    claims = list(ingest.load_druid(Path(config.claims_path)).claims.values())
    engines = _build_search_clients(config)
    if config.rerank_endpoint:
        reranker = retrieval.HttpRerankClient(
            config.rerank_endpoint, timeout=config.request_timeout
        )
    else:
        reranker = retrieval.LexicalOverlapReranker()
    domains = frozenset(config.fact_check_domains)

    outcomes = _parallel_map(
        lambda claim: retrieval.run_pipeline(claim, engines, reranker, fact_check_domains=domains),
        claims,
        lambda claim: f"claim {claim.id}",
        config.max_concurrency,
    )
    return {
        "evidence.jsonl": [piece for evidences, _ in outcomes for piece in evidences],
        "traces.jsonl": [trace for _, trace in outcomes],
    }


def cmd_profile(config: RunConfig) -> Artifacts:
    from . import characteristics, ingest

    corpus = ingest.load_druid(Path(config.claims_path), Path(config.evidence_path))
    providers = characteristics.DetectorProviders(
        perplexity_model=config.provider_id or "model"
    )
    vectors, report = characteristics.profile(corpus.pairs(), providers=providers)
    return {"characteristics.jsonl": vectors, "profile.json": {"profile": report}}


def _build_scorer(config: RunConfig) -> lm.VerdictScorer:
    from . import lm

    if config.replay_store:
        # Replay never contacts a provider and never writes a store.
        for name in ("provider_endpoint", "record_store"):
            if getattr(config, name):
                raise ConfigError(f"replay_store conflicts with {name}; set one or the other")
    elif not config.provider_endpoint:
        raise ConfigError("score needs a provider endpoint or a replay store")
    if not config.provider_id:
        raise ConfigError(
            "replay without a provider requires provider_id" if config.replay_store
            else "provider_endpoint requires provider_id"
        )
    provider = None if config.replay_store else lm.HttpLogprobProvider(
        endpoint=config.provider_endpoint,
        provider_id=config.provider_id,
        auth_env_var=config.auth_env_var,
        timeout=config.request_timeout,
    )
    store_path = config.replay_store or config.record_store
    # Checked before any provider call: a record store is first written after one.
    if store_path and not Path(store_path).parent.is_dir():
        raise ConfigError(f"cannot open store {store_path}: no such directory")
    # A replay store that does not exist could only miss.
    if config.replay_store and not Path(store_path).exists():
        raise ConfigError(f"cannot open store {store_path}: no such file")
    try:
        store = lm.ReplayStore(Path(store_path)) if store_path else None
    except OSError as exc:
        raise ConfigError(f"cannot open store {store_path}: {exc.strerror or exc}") from exc
    return lm.VerdictScorer(provider=provider, store=store, provider_id=config.provider_id)


def cmd_score(config: RunConfig) -> Artifacts:
    from . import ingest, lm

    template_dir = Path(config.template_dir) if config.template_dir else None
    claim_template = lm.load_template(config.claim_template, template_dir)
    evidence_template = lm.load_template(config.evidence_template, template_dir)
    scorer = _build_scorer(config)
    try:
        acu_config = metrics.AcuConfig(form=config.acu_form)

        corpus = ingest.load_druid(Path(config.claims_path), Path(config.evidence_path))
        claims = list(corpus.claims.values())
        pairs = [(claim, piece) for claim, piece in corpus.pairs() if piece.stance is not None]
        prompt_id = f"{claim_template.id}+{evidence_template.id}"

        claim_records = _parallel_map(
            lambda claim: scorer.score(claim_template, claim),
            claims,
            lambda claim: f"claim {claim.id}",
            config.max_concurrency,
        )
        without = {claim.id: record for claim, record in zip(claims, claim_records)}

        def score_pair(pair: tuple[ClaimRecord, EvidencePiece]) -> ScoredSample:
            claim, piece = pair
            with_record = scorer.score(evidence_template, claim, piece)
            return metrics.score_sample(
                claim_id=claim.id,
                evidence_id=piece.id,
                probs_without=without[claim.id].probs,
                probs_with=with_record.probs,
                stance=piece.stance,
                model_id=scorer.provider_id,
                prompt_id=prompt_id,
                config=acu_config,
            )

        samples = _parallel_map(
            score_pair,
            pairs,
            lambda pair: f"claim {pair[0].id} evidence {pair[1].id}",
            config.max_concurrency,
        )
    finally:
        scorer.close()
    return {"scored.jsonl": samples}


def cmd_analyze(config: RunConfig) -> Artifacts:
    from . import analysis

    scored = _load_records(config.scored_path, ScoredSample, "evidence_id")
    evidence = _load_records(config.evidence_path, EvidencePiece, "id")
    acu_config = metrics.AcuConfig(form=config.acu_form)

    kept: list[ScoredSample] = []
    acus, stances = [], []
    preds_without, preds_with = [], []
    conflicts = 0
    skipped = 0
    for sample in scored.values():
        piece = evidence.get(sample.evidence_id)
        if piece is None or piece.stance is None:
            skipped += 1
            continue
        kept.append(sample)
        # Recomputed in this run's form for the stance given here.
        triples = [(p.p_true, p.p_none, p.p_false) for p in (sample.probs_without, sample.probs_with)]
        acus.append(metrics.acu_from_triples(*triples, piece.stance, acu_config))
        stances.append(piece.stance)
        before = metrics.argmax_label(sample.probs_without)
        after = metrics.argmax_label(sample.probs_with)
        preds_without.append(before)
        preds_with.append(after)
        if metrics.memory_conflict(before, piece.stance):
            conflicts += 1
    if not acus:
        raise ContextMeterError("no scored samples with stance-annotated evidence")

    agreement: dict[str, Optional[float]] = {}
    for index, name in enumerate(("relevance", "stance")):
        units = [
            [labels[index] for labels in piece.annotator_labels]
            for piece in evidence.values()
            if piece.annotator_labels
        ]
        try:
            agreement[name] = analysis.krippendorff_alpha(units)
        except NoPairableValues:
            agreement[name] = None

    payload = {
        "stratified_acu": analysis.stratified_acu(acus, stances),
        "prediction_shift": analysis.prediction_shift(preds_without, preds_with, stances),
        "memory_conflicts": {
            "count": conflicts,
            "rate": conflicts / len(acus),
        },
        "agreement": agreement,
        "skipped_samples": skipped,
    }
    artifacts: Artifacts = {"analysis.json": {"analysis": payload}}

    if config.characteristics_path:
        vectors = _load_records(config.characteristics_path, CharacteristicVector, "evidence_id")
        grid_samples = [
            analysis.GridSample(
                dataset=config.dataset, stance=stance, acu=acu, vector=vectors[sample.evidence_id]
            )
            for sample, stance, acu in zip(kept, stances, acus)
            if sample.evidence_id in vectors
        ]
        grid = analysis.correlation_grid(grid_samples)
        artifacts["grid.json"] = {"grid": grid}
        artifacts["grid.csv"] = analysis.grid_to_csv(grid)
    return artifacts


def cmd_report(config: RunConfig) -> Artifacts:
    source = Path(config.run_dir)
    if not source.is_dir():
        raise ConfigError(f"run_dir is not a directory: {source}")
    sections: dict[str, Any] = {}
    for name in ("corpus_stats", "profile", "analysis", "grid"):
        artifact = source / f"{name}.json"
        if artifact.exists():
            document = read_json(artifact)
            if not isinstance(document, dict):
                raise ParseError(str(artifact), 1, "not a JSON object")
            document.pop("meta", None)
            sections[name] = document

    def flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
        elif isinstance(value, list):
            rows.append((prefix, json.dumps(value, ensure_ascii=False)))
        else:
            rows.append((prefix, "" if value is None else str(value)))

    rows: list[tuple[str, str]] = [("key", "value")]
    flatten("", sections, rows)
    return {"report.json": {"sections": sections}, "report.csv": csv_text(rows)}


#: Each command's stage and the settings it cannot run without.
COMMANDS: dict[str, tuple[Callable[[RunConfig], Artifacts], tuple[str, ...]]] = {
    "ingest": (cmd_ingest, ("claims_path", "evidence_path")),
    "recast": (cmd_recast, ("triplets_path",)),
    "retrieve": (cmd_retrieve, ("claims_path",)),
    "profile": (cmd_profile, ("claims_path", "evidence_path")),
    "score": (cmd_score, ("claims_path", "evidence_path", "claim_template", "evidence_template")),
    "analyze": (cmd_analyze, ("scored_path", "evidence_path")),
    "report": (cmd_report, ("run_dir",)),
}


#: Every flag that overrides a RunConfig field: (flag, field, argparse keywords).
_FLAGS = (
    ("--out", "out_dir", {"help": "output root (default: runs)"}),
    ("--replay", "replay_store", {"help": "replay store path (read-only)"}),
    ("--record", "record_store", {"help": "record store path (append)"}),
    ("--acu-form", "acu_form", {"choices": metrics.ACU_FORMS}),
    ("--max-concurrency", "max_concurrency", {"type": int}),
    ("--claims", "claims_path", {"help": "claims JSON Lines path"}),
    ("--evidence", "evidence_path", {"help": "evidence JSON Lines path"}),
    ("--triplets", "triplets_path", {"help": "raw triplet JSON Lines path"}),
    ("--dataset", "dataset", {"help": "dataset name (recast: counterfact|conflictqa)"}),
    ("--field-map", "field_map_path", {"help": "upstream field-name mapping JSON"}),
    ("--fixture-corpus", "fixture_corpus", {"help": "local search corpus directory"}),
    ("--claim-template", "claim_template", {"help": "claim-only prompt template id"}),
    ("--evidence-template", "evidence_template", {"help": "claim+evidence prompt template id"}),
    ("--template-dir", "template_dir", {"help": "directory of custom templates"}),
    ("--provider-endpoint", "provider_endpoint", {"help": "logprob provider URL"}),
    ("--provider-id", "provider_id", {"help": "provider/model identifier"}),
    ("--auth-env", "auth_env_var", {"help": "env var naming the provider token"}),
    ("--scored", "scored_path", {"help": "scored samples JSON Lines path"}),
    ("--characteristics", "characteristics_path", {"help": "characteristics JSON Lines path"}),
    ("--run-dir", "run_dir", {"help": "existing run directory to merge (report)"}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextmeter",
        usage="%(prog)s [-h] [--version] command [options]",
        description="Claim-verification context-utilisation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # Every command takes the same flags, so one parser serves them all.
    parser.add_argument("command", choices=COMMANDS, help="the stage to run")
    parser.add_argument("--config", help="JSON run-config file")
    for flag, dest, keywords in _FLAGS:
        parser.add_argument(flag, dest=dest, **keywords)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    stage, required = COMMANDS[args.command]
    try:
        config = load_config(args.config, {dest: getattr(args, dest) for _, dest, _ in _FLAGS})
        _check_out_dir(config)
        missing = [name for name in required if not getattr(config, name)]
        if missing:
            raise ConfigError(f"missing required settings: {', '.join(missing)}")
        artifacts = stage(config)
        run_dir = write_run(config, args.command, artifacts)
    except ContextMeterError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    print(canonical_json({"command": args.command, "outputs": list(artifacts), "run_dir": str(run_dir)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
