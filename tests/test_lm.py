"""Prompt templates, logprob extraction, and the record/replay scorer."""

import hashlib
import json
import math
import re
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextmeter import lm
from contextmeter.errors import (
    ContextMeterError,
    InvariantViolation,
    MissingSlotValue,
    ProviderError,
    ReplayMiss,
    StoreCorruption,
    ZeroMass,
)
from contextmeter.ingest import load_druid
from contextmeter.model import (
    CANONICAL_LABELS,
    PromptMode,
    Record,
    VerdictLabel,
    VerdictProbabilities,
    canonical_json,
)

from conftest import (
    HashLogprobProvider,
    PoisonProvider,
    UniformLogprobProvider,
    make_claim,
    make_evidence,
)

FULL_MAP = {
    "True": VerdictLabel.TRUE,
    "None": VerdictLabel.NONE,
    "False": VerdictLabel.FALSE,
}

TEMPLATE_IDS = (
    "llama-claim-3shot",
    "pythia-claim-3shot",
    "claim-0shot",
    "llama-evidence-3shot",
    "pythia-evidence-3shot",
    "evidence-0shot",
)


class TestBuiltinTemplates:
    def test_six_templates(self):
        shipped = {path.stem for path in lm._template_dir().iterdir() if path.name.endswith(".json")}
        assert shipped == set(TEMPLATE_IDS)
        assert {lm.load_template(tid).id for tid in TEMPLATE_IDS} == set(TEMPLATE_IDS)

    def test_modes_and_shots(self):
        templates = {tid: lm.load_template(tid) for tid in TEMPLATE_IDS}
        expected = {
            "claim-0shot": (PromptMode.CLAIM_ONLY, 0),
            "evidence-0shot": (PromptMode.CLAIM_EVIDENCE, 0),
            "llama-claim-3shot": (PromptMode.CLAIM_ONLY, 3),
            "llama-evidence-3shot": (PromptMode.CLAIM_EVIDENCE, 3),
            "pythia-claim-3shot": (PromptMode.CLAIM_ONLY, 3),
            "pythia-evidence-3shot": (PromptMode.CLAIM_EVIDENCE, 3),
        }
        for template_id, (mode, shots) in expected.items():
            template = templates[template_id]
            assert template.mode is mode
            assert template.shots == shots
            assert template.body.endswith("Answer:")
            assert len(template.verbalizer_map) == 3

    def test_evidence_templates_preserve_source_quirks(self):
        body = lm.load_template("llama-evidence-3shot").body
        # exact exemplar text: typographic quotes and a second exemplar whose
        # Claim/Evidence lines are adjacent without a blank line
        assert "“" in body
        assert "$31.4" in body
        assert re.search(r'Claim: "[^"]+"\nEvidence:', body)

    def test_llama_evidence_verbalizer(self):
        template = lm.load_template("llama-evidence-3shot")
        assert template.verbalizer_map == {
            "Support": VerdictLabel.TRUE,
            "None": VerdictLabel.NONE,
            "Refute": VerdictLabel.FALSE,
        }

    def test_unknown_template_id(self):
        with pytest.raises(InvariantViolation):
            lm.load_template("nonexistent-prompt")


class TestTemplateSidecar:
    SIDECAR = {
        "mode": "claim-only",
        "shots": 0,
        "verbalizer_map": {"True": "True", "None": "None", "False": "False"},
    }

    def _load(self, tmp_path, sidecar):
        (tmp_path / "t.txt").write_text('Claimant: <claimant>\n\nClaim: "<claim>"\n\nAnswer:')
        (tmp_path / "t.json").write_text(sidecar if isinstance(sidecar, str) else json.dumps(sidecar))
        return lm.load_template("t", tmp_path)

    def test_fields_come_from_the_sidecar(self, tmp_path):
        template = self._load(tmp_path, {**self.SIDECAR, "include_claimant": False})
        assert template.id == "t"
        assert template.mode is PromptMode.CLAIM_ONLY
        assert template.verbalizer_map == FULL_MAP
        assert template.include_claimant is False
        assert self._load(tmp_path, {**self.SIDECAR, "id": "other"}).id == "other"
        assert self._load(tmp_path, self.SIDECAR).include_claimant is True

    @pytest.mark.parametrize(
        "sidecar, fault",
        [
            ({"shots": 3.9}, "shots: expected an integer, got float"),
            ({"shots": "0"}, "shots: expected an integer, got str"),
            ({"include_claimant": "false"}, "include_claimant: expected a boolean, got str"),
            ({"verbalizer_map": {"True": "True", "None": "None", "False": "Wrong"}}, "verbalizer_map: "),
            ({"verbalizer_map": [["True", "True"]]}, "verbalizer_map: expected an object, got list"),
            ({"mode": "chat"}, "mode: 'chat' is not a valid PromptMode"),
            ({"shots": 2}, "shots: expected 0 or 3, got 2"),
            ("[1, 2]", "PromptTemplate: not a JSON object: [1, 2]"),
            ("{mode: claim-only", "Expecting property name enclosed in double quotes"),
        ],
    )
    def test_every_sidecar_fault_is_one_invalid_template_error(self, tmp_path, sidecar, fault):
        if isinstance(sidecar, dict):
            sidecar = {**self.SIDECAR, **sidecar}
        with pytest.raises(InvariantViolation) as exc_info:
            self._load(tmp_path, sidecar)
        assert exc_info.value.field == "template_id"
        assert str(exc_info.value).startswith(f"template_id: invalid template 't' ({tmp_path / 't.json'}): ")
        assert fault in str(exc_info.value)

    def test_sidecar_without_a_key_names_it(self, tmp_path):
        with pytest.raises(InvariantViolation, match="invalid template 't' .*: verbalizer_map: missing"):
            self._load(tmp_path, {"mode": "claim-only", "shots": 0})


class TestTemplateValidation:
    def _make(self, **kwargs):
        defaults = dict(
            id="x",
            mode=PromptMode.CLAIM_ONLY,
            shots=0,
            body='Claim: "<claim>"\n\nAnswer:',
            verbalizer_map=dict(FULL_MAP),
        )
        defaults.update(kwargs)
        return lm.PromptTemplate(**defaults)

    def test_valid(self):
        assert self._make().id == "x"

    def test_shots_restricted(self):
        with pytest.raises(InvariantViolation):
            self._make(shots=1)

    def test_verbalizer_must_cover_canonical_labels(self):
        with pytest.raises(InvariantViolation):
            self._make(verbalizer_map={"True": VerdictLabel.TRUE})
        with pytest.raises(InvariantViolation):
            self._make(
                verbalizer_map={
                    "Yes": VerdictLabel.TRUE,
                    "No": VerdictLabel.FALSE,
                }
            )
        # several surface forms may map onto one canonical label
        template = self._make(
            verbalizer_map={
                "Yes": VerdictLabel.TRUE,
                "Maybe": VerdictLabel.NONE,
                "No": VerdictLabel.FALSE,
                "Nope": VerdictLabel.FALSE,
            }
        )
        assert len(template.verbalizer_map) == 4

    def test_claim_only_must_not_take_evidence_slot(self):
        with pytest.raises(InvariantViolation):
            self._make(body='Claim: "<claim>" <evidence>\n\nAnswer:')

    def test_evidence_mode_requires_evidence_slot(self):
        with pytest.raises(InvariantViolation):
            self._make(
                mode=PromptMode.CLAIM_EVIDENCE,
                body='Claim: "<claim>"\n\nAnswer:',
            )


class TestRenderPrompt:
    def test_claimant_lines_present(self):
        template = lm.load_template("llama-claim-3shot")
        prompt = lm.render_prompt(template, make_claim(text="The sky is green."))
        assert prompt.count("Claimant:") == 4  # three exemplars + the target
        assert 'Claim: "The sky is green."' in prompt
        assert prompt.endswith("Answer:")

    def test_claimant_dropped_when_disabled(self):
        template = replace(
            lm.load_template("llama-claim-3shot"), include_claimant=False
        )
        prompt = lm.render_prompt(template, make_claim(claimant=None))
        assert "Claimant:" not in prompt
        # dropping the line must not leave doubled blank lines behind
        assert "\n\n\n" not in prompt

    def test_claimant_from_record(self):
        template = lm.load_template("llama-claim-3shot")
        prompt = lm.render_prompt(template, make_claim(claimant="Jane Roe"))
        assert "Claimant: Jane Roe" in prompt

    def test_evidence_template(self):
        template = lm.load_template("llama-evidence-3shot")
        prompt = lm.render_prompt(
            template,
            make_claim(text="The sky is green."),
            evidence=make_evidence(text="Observations show a blue sky."),
        )
        assert 'Evidence: "Observations show a blue sky."' in prompt
        assert prompt.endswith("Answer:")

    def test_evidence_rejected_for_claim_only(self):
        template = lm.load_template("llama-claim-3shot")
        with pytest.raises(InvariantViolation):
            lm.render_prompt(template, make_claim(), evidence=make_evidence())

    def test_missing_evidence_rejected(self):
        template = lm.load_template("llama-evidence-3shot")
        with pytest.raises(MissingSlotValue):
            lm.render_prompt(template, make_claim())

    def test_missing_claimant_rejected(self):
        template = lm.load_template("llama-claim-3shot")
        with pytest.raises(MissingSlotValue):
            lm.render_prompt(template, make_claim(claimant=""))

    def test_none_claimant_drops_claimant_lines(self):
        template = lm.load_template("llama-claim-3shot")
        claim = make_claim(claimant=None)
        assert lm.render_prompt(template, claim) == lm.render_prompt(
            replace(template, include_claimant=False), claim
        )

    def test_slot_markers_inside_values_are_inserted_verbatim(self):
        template = lm.load_template("evidence-0shot")
        claim = make_claim(claimant="Someone <claim>", text="The page said <evidence> here.")
        evidence = make_evidence(text="Quoting <claimant> and <claim> on <evidence>.")
        prompt = lm.render_prompt(template, claim, evidence)
        assert "Claimant: Someone <claim>\n" in prompt
        assert 'Claim: "The page said <evidence> here."' in prompt
        assert 'Evidence: "Quoting <claimant> and <claim> on <evidence>."' in prompt

    def test_prompt_hash_stable(self):
        assert lm.prompt_hash("abc") == lm.prompt_hash("abc")
        assert lm.prompt_hash("abc") != lm.prompt_hash("abd")


#: prompt_hash of every built-in template rendered for make_claim() (with
#: the default claimant, and with none) and, for evidence templates,
#: make_evidence(). A store keys its records on these hashes, so a change
#: to rendering that moves one of them orphans every store recorded before.
GOLDEN_PROMPT_HASHES = {
    ("claim-0shot", "Somebody"): "37f3d3184ec127b42eb24673965a360714944e4e84f108478c27890772fa5378",
    ("claim-0shot", None): "f6a9b15a86a0377f3665461223ed36627eb830a13aebf5b14d5c894a6da73987",
    ("evidence-0shot", "Somebody"): "bd88f90b2b78c571ecce9d9ec4d915f4405c7f3698640ca28a5fb43fb758fe55",
    ("evidence-0shot", None): "1c83430b3b033654e0d30340da16586bb93901acee65c0b0fe0857d96f65c0bf",
    ("llama-claim-3shot", "Somebody"): "97267177cfe9b51a022ed6ecc8eb5214a0bfaabb4f3bc3e4ca41b595b487abd0",
    ("llama-claim-3shot", None): "a1904ccf2473ce9195c25613dbda6e1a40c43d37792ec92c4cea3f6fbc11f9a3",
    ("llama-evidence-3shot", "Somebody"): "24a7c0c313117fa47b0566f9f299263aaddddc91e190d98671c97992bdf53fc4",
    ("llama-evidence-3shot", None): "f27da3b6ba063d227222f619e0816c36ff6a606a7542fbae32e95e72b1fe82ff",
    ("pythia-claim-3shot", "Somebody"): "e1f0a3ee6ae8e5b88ada541e3366c29e7f9364afb5b9d0985820f0708a22f595",
    ("pythia-claim-3shot", None): "d5d3362ed938c987f36f1f936af7f8109a46d5134b67e3dc4c609e2215db5ffe",
    ("pythia-evidence-3shot", "Somebody"): "e1700122d3fffbfe3753851d256bab3abb7f6e731d8a4b57cd7579a0ccfadd4e",
    ("pythia-evidence-3shot", None): "57efab35d1d529c8703416bba713c0526c973dcbd47b790bbbc48be1caae467d",
}


@pytest.mark.parametrize("template_id, claimant", sorted(GOLDEN_PROMPT_HASHES, key=str))
def test_golden_prompt_hashes(template_id, claimant):
    template = lm.load_template(template_id)
    evidence = make_evidence() if template.mode is PromptMode.CLAIM_EVIDENCE else None
    prompt = lm.render_prompt(template, make_claim(claimant=claimant), evidence)
    assert lm.prompt_hash(prompt) == GOLDEN_PROMPT_HASHES[template_id, claimant]


class TestSurfaceMass:
    def test_exact_plus_leading_space(self):
        mass = lm.surface_label_mass({"True": 0.1, " True": 0.05, "Tru": 0.2},
                                     "True")
        assert mass == pytest.approx(0.15)

    def test_longest_prefix_fallback(self):
        # the full label never appears as a token; fall back to its prefixes
        mass = lm.surface_label_mass(
            {"Supp": 0.3, " Sup": 0.1, "None": 0.2, "Ref": 0.1}, "Support"
        )
        assert mass == pytest.approx(0.4)

    def test_absent_label_is_zero(self):
        assert lm.surface_label_mass({"Other": 1.0}, "True") == 0.0


class TestVerdictProbabilities:
    def test_renormalizes_label_mass(self):
        class Fixed:
            provider_id = "fixed"

            def next_token_distribution(self, prompt):
                return {"True": 0.2, "False": 0.6, "None": 0.1, "the": 0.1}

            def token_logprobs(self, text):
                return [-1.0]

        probs, surface = lm.verdict_probabilities(
            Fixed(), "p", FULL_MAP, PromptMode.CLAIM_ONLY
        )
        assert probs.p_true == pytest.approx(0.2 / 0.9)
        assert probs.p_none == pytest.approx(0.1 / 0.9)
        assert probs.p_false == pytest.approx(0.6 / 0.9)
        assert surface == {"True": 0.2, "None": 0.1, "False": 0.6}

    def test_verbalizer_reroutes_surface_labels(self):
        class Fixed:
            provider_id = "fixed"

            def next_token_distribution(self, prompt):
                return {"Support": 0.5, "Refute": 0.3, "None": 0.2}

            def token_logprobs(self, text):
                return [-1.0]

        verbalizer = {
            "Support": VerdictLabel.TRUE,
            "None": VerdictLabel.NONE,
            "Refute": VerdictLabel.FALSE,
        }
        probs, surface = lm.verdict_probabilities(
            Fixed(), "p", verbalizer, PromptMode.CLAIM_EVIDENCE
        )
        assert probs.p_true == pytest.approx(0.5)
        assert probs.p_false == pytest.approx(0.3)
        assert surface == {"Support": 0.5, "None": 0.2, "Refute": 0.3}

    def test_zero_mass_rejected(self):
        class Empty:
            provider_id = "empty"

            def next_token_distribution(self, prompt):
                return {"the": 0.8, "a": 0.2}

            def token_logprobs(self, text):
                return [-1.0]

        with pytest.raises(ZeroMass):
            lm.verdict_probabilities(Empty(), "p", FULL_MAP, PromptMode.CLAIM_ONLY)


class TestPerplexity:
    def test_uniform_vocabulary(self):
        provider = UniformLogprobProvider(vocab_size=50)
        assert lm.perplexity(provider, "one two three four") == pytest.approx(50.0)

    def test_repeat_invariance(self):
        provider = UniformLogprobProvider(vocab_size=10)
        once = lm.perplexity(provider, "alpha beta")
        thrice = lm.perplexity(provider, "alpha beta " * 3)
        assert once == pytest.approx(thrice)

    def test_empty_text_rejected(self):
        from contextmeter.errors import DegenerateText

        with pytest.raises(DegenerateText):
            lm.perplexity(UniformLogprobProvider(), "  ")

    def test_matches_direct_formula(self):
        provider = HashLogprobProvider()
        text = "some words to measure"
        logprobs = provider.token_logprobs(text)
        expected = math.exp(-math.fsum(logprobs) / len(logprobs))
        assert lm.perplexity(provider, text) == pytest.approx(expected)


class TestScoreRecord:
    def _record(self):
        provider = HashLogprobProvider()
        scorer = lm.VerdictScorer(provider=provider)
        return scorer.score(lm.load_template("claim-0shot"), make_claim())

    def test_round_trip(self):
        record = self._record()
        clone = lm.ScoreRecord.from_dict(record.to_dict())
        assert clone == record

    def test_checksum_detects_tampering(self):
        record = self._record()
        data = record.to_dict()
        data["surface_probs"]["True"] = 0.42
        with pytest.raises(StoreCorruption):
            lm.ScoreRecord.from_dict(data)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda data: data.pop("provider_id"),
            lambda data: data["probs"].update(mode="claim+context"),
            lambda data: data["probs"].update(p_true=0.9),
            lambda data: data["probs"].update(p_true="high"),
            lambda data: data.update(probs=[0.2, 0.3, 0.5]),
        ],
        ids=["missing-key", "bad-mode", "sum-not-one", "string-prob", "probs-not-object"],
    )
    def test_malformed_record_is_store_corruption(self, tamper):
        data = json.loads(json.dumps(self._record().to_dict()))
        tamper(data)
        with pytest.raises(StoreCorruption):
            lm.ScoreRecord.from_dict(data)

    def test_record_written_with_a_timestamp_still_loads(self):
        # Stores written before the timestamp was dropped checksum it too.
        record = self._record()
        data = record.to_dict()
        del data["checksum"]
        data["timestamp"] = 1700000000.25
        data["checksum"] = hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()
        assert lm.ScoreRecord.from_dict(json.loads(json.dumps(data))) == record

    def test_non_object_line_is_store_corruption(self):
        with pytest.raises(StoreCorruption):
            lm.ScoreRecord.from_dict(["prompt_hash"])


SURFACE_KEYS = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6)
MASSES = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestReplayStore:
    @settings(max_examples=50, deadline=None)
    @given(
        prompt_hashes=st.lists(st.text(max_size=8), min_size=1, max_size=4),
        surface_probs=st.dictionaries(SURFACE_KEYS, MASSES, max_size=4),
        weights=st.tuples(MASSES, MASSES, MASSES).filter(any),
        provider_id=st.text(max_size=8),
    )
    @example(
        prompt_hashes=["h"], surface_probs={" Wahr": 0.5, "ложь": 0.25, "无": 0.0}, weights=(1.0, 0.5, 0.0), provider_id="ü"
    )
    def test_appended_line_is_the_canonical_record_with_its_checksum(
        self, prompt_hashes, surface_probs, weights, provider_id
    ):
        probs = VerdictProbabilities.from_weights(dict(zip(CANONICAL_LABELS, weights)), PromptMode.CLAIM_EVIDENCE)
        records = [
            lm.ScoreRecord(prompt_hash=key, surface_probs=surface_probs, probs=probs, provider_id=provider_id)
            for key in prompt_hashes
        ]
        with tempfile.TemporaryDirectory() as directory:
            store = lm.ReplayStore(Path(directory) / "store.jsonl")
            for record in records:
                store.append(record)
            store.close()
            lines = store.path.read_bytes().decode("utf-8").split("\n")
        assert lines.pop() == ""
        for record, line in zip(records, lines, strict=True):
            payload = Record.to_dict(record)
            digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
            assert line == canonical_json({**payload, "checksum": digest})
            assert line == canonical_json(record.to_dict())

    def test_each_append_reaches_the_file_and_close_keeps_the_store_appendable(self, tmp_path):
        store = lm.ReplayStore(tmp_path / "store.jsonl")
        scorer = lm.VerdictScorer(provider=HashLogprobProvider(), store=store)
        template = lm.load_template("claim-0shot")
        record = scorer.score(template, make_claim(id="c1", text="One."))
        assert store.path.read_text(encoding="utf-8") == record.line() + "\n"  # before any close
        store.close()
        store.close()
        scorer.score(template, make_claim(id="c2", text="Two."))
        scorer.close()
        assert len(lm.ReplayStore(store.path)) == 2

    def test_failed_append_is_a_package_error(self, tmp_path):
        directory = tmp_path / "gone"
        directory.mkdir()
        store = lm.ReplayStore(directory / "store.jsonl")
        directory.rmdir()
        record = lm.VerdictScorer(provider=HashLogprobProvider()).score(
            lm.load_template("claim-0shot"), make_claim()
        )
        with pytest.raises(ContextMeterError, match=r"cannot append to .*store\.jsonl: "):
            store.append(record)

    def test_non_finite_record_is_a_package_error(self, tmp_path):
        store = lm.ReplayStore(tmp_path / "store.jsonl")
        record = lm.VerdictScorer(provider=HashLogprobProvider()).score(
            lm.load_template("claim-0shot"), make_claim()
        )
        bad = replace(record, surface_probs={**record.surface_probs, "True": math.nan})
        with pytest.raises(ContextMeterError, match=r"cannot append to .*store\.jsonl: Out of range float"):
            store.append(bad)
        assert len(store) == 0
        assert not store.path.exists()
        store.append(record)
        assert len(lm.ReplayStore(store.path)) == 1

    def test_record_then_replay_identical(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        provider = HashLogprobProvider()
        template = lm.load_template("claim-0shot")
        claim = make_claim(text="The sky is green.")

        recorder = lm.VerdictScorer(
            provider=provider, store=lm.ReplayStore(store_path)
        )
        recorded = recorder.score(template, claim)

        replayer = lm.VerdictScorer(
            store=lm.ReplayStore(store_path), provider_id=provider.provider_id,
        )
        replayed = replayer.score(template, claim)
        assert replayed.probs == recorded.probs
        assert replayed.surface_probs == recorded.surface_probs
        assert replayed.checksum() == recorded.checksum()

    def test_replay_never_contacts_provider(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        provider = HashLogprobProvider()
        template = lm.load_template("claim-0shot")
        claim = make_claim()
        lm.VerdictScorer(
            provider=provider, store=lm.ReplayStore(store_path)
        ).score(template, claim)

        poisoned = lm.VerdictScorer(
            provider=PoisonProvider(), store=lm.ReplayStore(store_path),
            provider_id=provider.provider_id,
        )
        poisoned.score(template, claim)  # PoisonProvider raises if touched

    def test_replay_miss(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        provider = HashLogprobProvider()
        template = lm.load_template("claim-0shot")
        lm.VerdictScorer(
            provider=provider, store=lm.ReplayStore(store_path)
        ).score(template, make_claim(text="Seen claim."))

        replayer = lm.VerdictScorer(
            store=lm.ReplayStore(store_path), provider_id=provider.provider_id,
        )
        with pytest.raises(ReplayMiss):
            replayer.score(template, make_claim(text="Unseen claim."))

    def test_tampered_store_rejected(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        provider = HashLogprobProvider()
        template = lm.load_template("claim-0shot")
        record = lm.VerdictScorer(
            provider=provider, store=lm.ReplayStore(store_path)
        ).score(template, make_claim())

        lines = store_path.read_text(encoding="utf-8").splitlines()
        payload = json.loads(lines[-1])
        payload["surface_probs"]["True"] = 0.999
        store_path.write_text(
            "\n".join(lines[:-1] + [json.dumps(payload)]) + "\n", encoding="utf-8"
        )
        with pytest.raises(StoreCorruption):
            lm.ReplayStore(store_path).get(
                record.prompt_hash, provider.provider_id
            )

    @pytest.mark.parametrize(
        "tamper, reason",
        [
            (lambda data: data["surface_probs"].update({"True": 0.999}), "checksum mismatch"),
            (lambda data: data.pop("provider_id"), "malformed score record"),
        ],
        ids=["checksum", "malformed"],
    )
    def test_corruption_names_path_and_line(self, tmp_path, tamper, reason):
        store_path = tmp_path / "store.jsonl"
        store = lm.ReplayStore(store_path)
        scorer = lm.VerdictScorer(provider=HashLogprobProvider(), store=store)
        template = lm.load_template("claim-0shot")
        scorer.score(template, make_claim(id="c1", text="First claim."))
        scorer.score(template, make_claim(id="c2", text="Second claim."))
        lines = store_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        payload = json.loads(lines[1])
        tamper(payload)
        store_path.write_text(lines[0] + "\n" + json.dumps(payload) + "\n", encoding="utf-8")
        with pytest.raises(StoreCorruption) as excinfo:
            lm.ReplayStore(store_path)
        assert str(excinfo.value).startswith(f"{store_path}:2: {reason}")

    def test_lines_may_end_in_lone_cr(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store = lm.ReplayStore(store_path)
        scorer = lm.VerdictScorer(provider=HashLogprobProvider(), store=store)
        template = lm.load_template("claim-0shot")
        scorer.score(template, make_claim(id="c1", text="First claim."))
        scorer.score(template, make_claim(id="c2", text="Second claim."))
        lines = store_path.read_text(encoding="utf-8").splitlines()
        store_path.write_text("\r".join(lines) + "\r", encoding="utf-8", newline="")
        assert len(lm.ReplayStore(store_path)) == 2
        store_path.write_text(lines[0] + "\r{broken\r", encoding="utf-8", newline="")
        with pytest.raises(StoreCorruption) as excinfo:
            lm.ReplayStore(store_path)
        assert str(excinfo.value).startswith(f"{store_path}:2: Expecting property name")

    def test_truncated_line_rejected(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        store_path.write_text('{"prompt_hash": "ab\n', encoding="utf-8")
        with pytest.raises(StoreCorruption):
            lm.ReplayStore(store_path)

    @staticmethod
    def _record_claims(store_path, numbers):
        scorer = lm.VerdictScorer(provider=HashLogprobProvider(), store=lm.ReplayStore(store_path))
        template = lm.load_template("claim-0shot")
        for n in numbers:
            scorer.score(template, make_claim(id=f"c{n}", text=f"Claim number {n}."))

    def test_torn_final_line_is_skipped_then_cut_away(self, tmp_path):
        uninterrupted = tmp_path / "uninterrupted.jsonl"
        self._record_claims(uninterrupted, (1, 2, 3))
        store_path = tmp_path / "store.jsonl"
        self._record_claims(store_path, (1, 2))
        # A crash mid-append leaves part of a record without its newline.
        torn = store_path.read_bytes() + uninterrupted.read_bytes().splitlines()[2][:40]
        store_path.write_bytes(torn)
        replayer = lm.VerdictScorer(
            store=lm.ReplayStore(store_path), provider_id=HashLogprobProvider().provider_id,
        )
        replayer.score(lm.load_template("claim-0shot"), make_claim(id="c2", text="Claim number 2."))
        assert len(lm.ReplayStore(store_path)) == 2
        assert store_path.read_bytes() == torn  # replay never writes the store
        self._record_claims(store_path, (1, 2, 3))
        assert store_path.read_bytes() == uninterrupted.read_bytes()

    def test_final_record_without_newline_gets_one_before_the_next(self, tmp_path):
        uninterrupted = tmp_path / "uninterrupted.jsonl"
        self._record_claims(uninterrupted, (1, 2, 3))
        store_path = tmp_path / "store.jsonl"
        self._record_claims(store_path, (1, 2))
        store_path.write_bytes(store_path.read_bytes().rstrip(b"\n"))
        assert len(lm.ReplayStore(store_path)) == 2
        self._record_claims(store_path, (1, 2, 3))
        assert store_path.read_bytes() == uninterrupted.read_bytes()
        assert len(lm.ReplayStore(store_path)) == 3

    def test_missing_file_is_empty(self, tmp_path):
        store = lm.ReplayStore(tmp_path / "absent.jsonl")
        assert len(store) == 0


class TestVerdictScorer:
    def test_needs_a_provider_id(self, tmp_path):
        with pytest.raises(InvariantViolation):
            lm.VerdictScorer()
        with pytest.raises(InvariantViolation):
            lm.VerdictScorer(store=lm.ReplayStore(tmp_path / "store.jsonl"))

    def test_none_claimant_falls_back_to_claimantless_prompt(self):
        provider = HashLogprobProvider()
        scorer = lm.VerdictScorer(provider=provider)
        template = lm.load_template("llama-claim-3shot")
        record = scorer.score(template, make_claim(claimant=None))
        assert record.provider_id == provider.provider_id

    def test_provider_called_only_for_unstored_prompts(self, druid_fixture_paths, tmp_path):
        corpus = load_druid(*druid_fixture_paths)
        claim_template, evidence_template = lm.load_template("claim-0shot"), lm.load_template("evidence-0shot")
        requests = [(claim_template, claim, None) for claim in corpus.claims.values()]
        requests += [(evidence_template, claim, piece) for claim, piece in corpus.pairs()]
        prompts = [lm.render_prompt(*request) for request in requests]
        assert len(set(prompts)) == len(prompts) > 2

        store_path = tmp_path / "store.jsonl"
        recorder = lm.VerdictScorer(provider=HashLogprobProvider(), store=lm.ReplayStore(store_path))
        stored = {prompt: recorder.score(*request) for prompt, request in zip(prompts[::2], requests[::2])}

        class Counting(HashLogprobProvider):
            def next_token_distribution(self, prompt):
                seen[prompt] += 1
                return super().next_token_distribution(prompt)

        seen = Counter()
        scorer = lm.VerdictScorer(provider=Counting(), store=lm.ReplayStore(store_path))
        records = [scorer.score(*request) for request in requests]
        assert seen == Counter(prompt for prompt in prompts if prompt not in stored)
        for prompt, record in zip(prompts, records):
            if prompt in stored:
                assert record == stored[prompt]
        assert len(store_path.read_text(encoding="utf-8").splitlines()) == len(prompts)
        assert len(lm.ReplayStore(store_path)) == len(prompts)


class TestHttpProvider:
    def test_auth_env_var_required(self, monkeypatch):
        monkeypatch.delenv("TEST_LM_TOKEN", raising=False)
        with pytest.raises(ProviderError):
            lm.HttpLogprobProvider(
                "https://lm.example/api", "test-model",
                auth_env_var="TEST_LM_TOKEN",
            )

    def test_token_read_from_environment(self, monkeypatch):
        monkeypatch.setenv("TEST_LM_TOKEN", "sekrit")
        provider = lm.HttpLogprobProvider(
            "https://lm.example/api", "test-model", auth_env_var="TEST_LM_TOKEN"
        )
        assert provider.provider_id == "test-model"
