"""End-to-end mining pipeline and its command-line interface.

Subcommands: parse, filter-train, filter, train, eval, ensemble-eval,
mine, stats, merge. A JSON config file (sections: tokenize, vocab, model,
train) carries everything not given as a flag. The dump is JSON Lines, one
record per question:

    {"question_id": int, "title": str, "tags": [str],
     "question_body_html": str, "accepted_answer_html": str}
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum

from . import baselines, models, question_filter, train_eval
from .baselines import LinearBundle
from .models import CheckpointMismatch, Variant, VariantConfig, check_json_type
from .post_parser import (
    BlockSequence,
    EmptyPost,
    PositionMismatch,
    check_positions,
    code_stream,
    extract_instances,
    parse_answer_post,
    tokenize_sequence,
)
from .tokenize import Language, Tokenizer, load_keep_list, tokenize_text
from .train_eval import Decision, TrainConfig, evaluate
from .vocab_embed import build_vocab


class DumpParseError(ValueError):
    pass


class Provenance(Enum):
    SINGLE_CODE = "single_code"
    ENSEMBLE_MINED = "ensemble_mined"
    ANNOTATED = "annotated"


@dataclass
class MinedPair:
    question_id: int
    title: str
    code: str
    position: int
    provenance: Provenance
    score: float | None = None

    def to_json(self) -> str:
        return models.JSON_ENCODER.encode({**vars(self), "provenance": self.provenance.value})

    @classmethod
    def from_json(cls, line: str) -> "MinedPair":
        """The pair of one pairs-file line. The ids must be non-bool ints,
        title and code strings, and score a finite number or null; any
        other field value raises a ValueError naming it."""
        obj = json.loads(line)
        for key, default in (("question_id", 0), ("title", ""), ("code", ""), ("position", 0)):
            check_json_type("pair", key, obj[key], default)
        score = obj.get("score")
        if score is not None:
            check_json_type("pair", "score", score, 0.0)
        return cls(
            question_id=obj["question_id"],
            title=obj["title"],
            code=obj["code"],
            position=obj["position"],
            provenance=Provenance(obj["provenance"]),
            score=score,
        )


DEFAULT_CONFIG = {
    "language": "python",
    "tokenize": {"python_keep_list": None, "connectives": None},
    "vocab": {"min_count": 1},
    # The config file's schema, read by load_config only. The model and
    # neural-training defaults are VariantConfig's and TrainConfig's.
    "model": {
        **VariantConfig().to_dict(), "word_embedding_file": None, "code_embedding_file": None
    },
    "train": {**asdict(TrainConfig()), "l2": 1e-4, "linear_epochs": 30, "linear_lr": 0.1},
}


@dataclass(frozen=True)
class Config:
    """Every setting a command reads, built once by ``load_config``."""

    tokenizer: Tokenizer
    connectives: list[list[str]]
    min_count: int
    model: VariantConfig
    word_embedding_file: str | None
    code_embedding_file: str | None
    train: TrainConfig
    linear: dict  # l2, epochs, lr and seed, the keywords of every linear trainer


# The values a key may take beyond its default's JSON type, which for a
# float key admits only finite numbers (``models.check_json_type``). A
# size, count or patience below 1, a step size of 0 or less, or a negative
# penalty would make a command crash or train nothing.
_CHOICES = {"language": ("python", "sql"), "variant": tuple(v.value for v in Variant)}
_AT_LEAST = {**dict.fromkeys(["min_count", "d_embed", "d_token_gru", "d_block", "batch_size",
                              "max_epochs", "linear_epochs", "patience"], 1), "l2": 0}
_ABOVE_ZERO = {"lr", "linear_lr"}


def load_config(path=None) -> Config:
    """The Config of DEFAULT_CONFIG updated by the JSON file at ``path``,
    with the lexicon files it names read. A file that is not UTF-8 JSON, a
    key the default lacks, a non-object section, a value of another JSON
    type than its default's (``models.check_json_type``) or out of range
    (``_CHOICES``, ``_AT_LEAST``, ``_ABOVE_ZERO``), or a lexicon file that
    cannot be read or is not UTF-8 raises a ValueError naming the file and
    the key."""
    raw = {k: dict(v) if isinstance(v, dict) else v for k, v in DEFAULT_CONFIG.items()}
    if path:
        with open(path, encoding="utf-8-sig") as f:
            try:
                user = json.load(f)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ValueError(f"{path}: not a UTF-8 JSON file: {exc}") from None
        for key, value in _known_items(path, user, raw, "the config"):
            if isinstance(raw[key], dict):
                raw[key].update(_known_items(path, value, raw[key], f"config section {key!r}"))
            else:
                raw[key] = value
    lexicons = {}  # None where the config names no file
    for key, read in (("python_keep_list", load_keep_list), ("connectives", baselines.load_connectives)):
        file = raw["tokenize"][key]
        try:
            lexicons[key] = read(file) if file else None
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {key!r} names {file}, which cannot be read: {exc}") from None
    model, train, connectives = raw["model"], raw["train"], lexicons["connectives"]
    return Config(
        tokenizer=Tokenizer(Language(raw["language"]), lexicons["python_keep_list"]),
        connectives=baselines.default_connectives() if connectives is None else connectives,
        min_count=raw["vocab"]["min_count"],
        model=VariantConfig.from_dict(model),
        word_embedding_file=model["word_embedding_file"],
        code_embedding_file=model["code_embedding_file"],
        train=TrainConfig(**{f.name: train[f.name] for f in fields(TrainConfig)}),
        linear={"l2": train["l2"], "epochs": train["linear_epochs"], "lr": train["linear_lr"],
                "seed": train["seed"]},
    )


def _known_items(path, given, known: dict, where: str):
    """``given.items()`` once ``given`` is a JSON object whose keys ``known``
    has, each value a section or of its default's JSON type and in range."""
    if not isinstance(given, dict):
        raise ValueError(f"{path}: {where} is not a JSON object")
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ValueError(f"{path}: unknown keys {unknown} in {where}")
    for key, value in given.items():
        if not isinstance(known[key], dict):
            check_json_type(path, key, value, known[key])
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ValueError(f"{path}: {key!r} must be one of {_CHOICES[key]}, not {value!r}")
        if key in _AT_LEAST and value < _AT_LEAST[key]:
            raise ValueError(f"{path}: {key!r} must be at least {_AT_LEAST[key]}, not {value}")
        if key in _ABOVE_ZERO and value <= 0:
            raise ValueError(f"{path}: {key!r} must be above 0, not {value}")
    return given.items()


# --------------------------------------------------------------------------
# Dump and label readers
# --------------------------------------------------------------------------

_REQUIRED_FIELDS = ("question_id", "title", "tags", "accepted_answer_html")
_REQUIRED_KEYS = frozenset(_REQUIRED_FIELDS)


def _type_error(record: dict) -> str | None:
    """Why a record's fields have the wrong JSON type, or None."""
    qid = record["question_id"]
    # bool is an int to Python, and floats (7.9, NaN, Infinity) are not ids
    if isinstance(qid, bool) or not isinstance(qid, (int, str)):
        return "question_id must be an integer or a numeric string"
    for name in ("title", "accepted_answer_html"):
        if not isinstance(record[name], str):
            return f"{name} must be a string"
    tags = record["tags"]
    if not isinstance(tags, list):
        return "tags must be a list of strings"
    for t in tags:
        if not isinstance(t, str):
            return "tags must be a list of strings"
    body = record.get("question_body_html", "")
    if not isinstance(body, (str, type(None))):
        return "question_body_html must be a string or null"
    try:
        # A lone surrogate (a "\ud800" escape, or a byte that is not UTF-8)
        # cannot be written to the UTF-8 outputs. An ASCII string holds none,
        # and isascii() reads a flag, so only other strings are encoded.
        for text in (record["title"], record["accepted_answer_html"], body or "", *tags):
            if not text.isascii():
                text.encode("utf-8")
    except UnicodeEncodeError:
        return "text is not valid Unicode"
    return None


# The id member spelled plainly: the key, JSON whitespace, a colon, an
# integer literal, and the end of the member.
_PLAIN_ID = re.compile(r'"question_id"[ \t\n\r]*:[ \t\n\r]*(-?[0-9]+)[ \t\n\r]*[,}]')
# A \u escape of one of the key's characters (_ d e i n o q s t u): besides
# the characters themselves, the one way JSON can spell them. Escapes of
# other characters, such as an HTML-safe writer's \u003c, spell no key.
_KEY_ESCAPE = re.compile(r"\\u00(?:5[Ff]|6[459EFef]|7[1345])")


def _other_id(line: str, ids) -> bool:
    """Whether a raw dump line proves that its record's question_id is not
    in ``ids``, so that reading it in full would yield no record in ``ids``.

    It does when the line spells ``"question_id"`` once, unescaped, as a
    key whose value is an integer literal int() gives outside ``ids``, and
    holds no ``\\u00XX`` escape of a character of the key. The
    one raw spelling is then the top-level key, whose value json.loads
    reads as the same int, or the record has no top-level id at all.
    """
    match = _PLAIN_ID.search(line)
    if match is None:
        return False
    try:
        if int(match[1]) in ids:
            return False
    except ValueError:  # more digits than int() converts
        return False
    if line.count('"question_id"') != 1:
        return False
    return "\\u00" not in line or _KEY_ESCAPE.search(line) is None


def read_dump(path, ids=None):
    """Yield (record, error) pairs; malformed lines, including records whose
    fields have the wrong JSON type or are not valid UTF-8, yield
    (None, DumpParseError) so callers can count skips without aborting.

    Given a set of question ``ids``, yield only the records whose id is in
    it. A line whose raw text proves its id is not (``_other_id``) is then
    passed over unparsed, so it yields nothing, not even its error; every
    other line is read as without ``ids``.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, 1):
            if line.isspace():
                continue
            if ids is not None and _other_id(line, ids):
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # bad JSON, or an integer int() refuses
                yield None, DumpParseError(f"line {line_no}: {exc}")
                continue
            if not isinstance(record, dict):
                yield None, DumpParseError(f"line {line_no}: record is not a JSON object")
                continue
            if not record.keys() >= _REQUIRED_KEYS:
                missing = [k for k in _REQUIRED_FIELDS if k not in record]
                yield None, DumpParseError(f"line {line_no}: missing fields {missing}")
                continue
            problem = _type_error(record)
            if problem is None:
                try:
                    record["question_id"] = int(record["question_id"])
                except ValueError:
                    problem = "non-integer question_id"
            if problem:
                yield None, DumpParseError(f"line {line_no}: {problem}")
                continue
            if ids is None or record["question_id"] in ids:
                yield record, None


def read_answers(path, report, skip=None, prose=True, ids=None):
    """Yield (record, parsed accepted answer) for each usable dump record.

    The one path from a dump line to a parsed answer, parsed without its
    prose unless ``prose`` (see ``parse_answer_post``). Adds to ``report``:
    ``records`` per line ``read_dump(path, ids)`` yields, ``parse_errors``
    per malformed record or empty answer, and the key ``skip(record)``
    returns for a record it drops before its answer is parsed (None keeps
    the record).
    """
    for record, err in read_dump(path, ids=ids):
        report["records"] += 1
        if err:
            report["parse_errors"] += 1
            continue
        reason = skip(record) if skip else None
        if reason:
            report[reason] += 1
            continue
        try:
            seq = parse_answer_post(record["accepted_answer_html"], record["question_id"], prose)
        except EmptyPost:
            report["parse_errors"] += 1
            continue
        yield record, seq


def domain_matches(tags, language: Language) -> bool:
    if language is Language.PYTHON:
        # no tag's lowercase spans the "\n" between two, and "python" holds none
        return "python" in "\n".join(tags).lower()
    return any(t.lower() in ("sql", "database", "oracle") for t in tags)


def _csv_rows(path):
    """Yield ("file:line", question id, row) for each row that is not blank.
    The first such row is a header, and skipped, if its first field is not
    an integer; a later one raises a ValueError naming the file, the line
    and the id, a file that is not UTF-8 one naming the file, and a row csv
    cannot read, such as a field over its size limit, one naming the file
    and the line."""
    with open(path, encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        rows = (row for row in reader if any(field.strip() for field in row))
        try:
            for n, row in enumerate(rows):
                where = f"{path}:{reader.line_num}"
                try:
                    qid = int(row[0])
                except ValueError:
                    if n == 0:
                        continue
                    raise ValueError(f"{where}: question id {row[0]!r} is not an integer") from None
                yield where, qid, row
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def read_annotation_csv(path) -> dict[int, dict[int, int]]:
    """CSV (question_id, code_position, label) -> {qid: {position: label}}.
    A position labeled twice must be labeled alike."""
    labels: dict[int, dict[int, int]] = {}
    for where, qid, row in _csv_rows(path):
        if len(row) < 3:
            raise ValueError(f"{where}: expected question_id,code_position,label, got {row}")
        try:
            pos, label = int(row[1]), int(row[2])
        except ValueError:
            raise ValueError(f"{where}: non-integer field in {row}") from None
        if label not in (0, 1):
            raise ValueError(f"{where}: label must be 0/1, got {label}")
        if labels.setdefault(qid, {}).setdefault(pos, label) != label:
            raise ValueError(f"{where}: question {qid} position {pos} was labeled {1 - label} before")
    return labels


def read_question_labels_csv(path) -> dict[int, question_filter.QuestionLabel]:
    """CSV (question_id, label) with labels howto/other -> {qid: label}. A
    question labeled twice must be labeled alike."""
    out = {}
    for where, qid, row in _csv_rows(path):
        if len(row) < 2:
            raise ValueError(f"{where}: expected question_id,label, got {row}")
        try:
            label = question_filter.QuestionLabel(row[1].strip().lower())
        except ValueError:
            raise ValueError(f"{where}: label must be howto or other, got {row[1]!r}") from None
        if out.setdefault(qid, label) is not label:
            raise ValueError(f"{where}: question {qid} was labeled {out[qid].value} before")
    return out


# Both the scanner and html.parser open a <pre> element only at these
# characters, and only inside one is a code block made.
_PRE_TAG = re.compile("<pre", re.IGNORECASE)


def _parse_or_empty(html, qid: int) -> BlockSequence:
    """A post's blocks for the question filter's features, which read only
    its code blocks, so prose is left empty. A post that is missing, shows
    nothing, or holds no "<pre" in any letter case has no blocks; the last
    is not parsed, as it cannot hold a code block."""
    if not html or not _PRE_TAG.search(html):
        return BlockSequence(qid, [])
    try:
        return parse_answer_post(html, qid, prose=False)
    except EmptyPost:
        return BlockSequence(qid, [])


def _question_records(path, report, keywords=None, ids=None):
    """(record, question-filter features) of each well-formed record that
    ``read_dump(path, ids=ids)`` yields; ``report["skipped"]`` counts the rest."""
    for record, err in read_dump(path, ids=ids):
        if err:
            report["skipped"] += 1
            continue
        body, answer = (_parse_or_empty(record.get(key), record["question_id"])
                        for key in ("question_body_html", "accepted_answer_html"))
        yield record, question_filter.featurize_question(record["title"], body, answer, keywords)


# --------------------------------------------------------------------------
# Dataset assembly
# --------------------------------------------------------------------------


def load_labeled_instances(dump_path, label_maps, tokenizer: Tokenizer, every_answer=None):
    """Extract labeled instances for training/evaluation in one pass.

    ``label_maps`` is a list of {qid: {position: label}} maps; returns one
    instance list per map. Positions without a label are dropped; label
    positions that do not exist raise PositionMismatch. ``every_answer``,
    when given, is called with an iterator over the parsed answers of every
    dump record, labeled or not, read in the same pass. Without it the pass
    reads only the labeled records (``read_dump``'s ``ids``).
    """
    out = [[] for _ in label_maps]
    ids = None if every_answer else set().union(*label_maps)

    def answers():
        for record, seq in read_answers(dump_path, Counter(), ids=ids):
            qid = record["question_id"]
            if any(qid in labels for labels in label_maps):
                tokenize_sequence(seq, tokenizer)
                for instances, labels in zip(out, label_maps):
                    if qid in labels:
                        instances.extend(
                            inst
                            for inst in extract_instances(record["title"], seq, labels[qid], tokenizer)
                            if inst.label is not None
                        )
            yield seq

    pending = answers()
    if every_answer:
        every_answer(pending)
    for _ in pending:  # the records every_answer left unread
        pass
    return out


def build_vocabs(instances, min_count: int = 1):
    words = [t for i in instances for t in (i.question_tokens, i.pre_tokens, i.post_tokens)]
    return build_vocab(words, min_count), build_vocab([i.code_tokens for i in instances], min_count)


# --------------------------------------------------------------------------
# Mining
# --------------------------------------------------------------------------


def _load_ensemble(biv_path, text_path, code_path, tokenizer: Tokenizer):
    biv, text, code = (models.load_model(path, tokenizer) for path in (biv_path, text_path, code_path))
    expected = (Variant.BIV_HNN, Variant.TEXT_HNN, Variant.CODE_HNN)
    actual = (biv.config.variant, text.config.variant, code.config.variant)
    if actual != expected:
        raise CheckpointMismatch(f"ensemble needs variants {expected}, got {actual}")
    if not biv.word_vocab.token_to_id == text.word_vocab.token_to_id == code.word_vocab.token_to_id:
        raise CheckpointMismatch("ensemble checkpoints disagree on the word vocabulary")
    if biv.code_vocab.token_to_id != code.code_vocab.token_to_id:
        raise CheckpointMismatch("ensemble checkpoints disagree on the code vocabulary")
    return biv, text, code


def mine(
    dump_path,
    biv_path,
    text_path,
    code_path,
    filter_model_path,
    out_path,
    config: Config | None = None,
) -> dict:
    """Run the full mining pipeline over a dump.

    Per question: drop non-how-to questions; single-code answers emit the
    pair directly; multi-code answers go through the agreement ensemble,
    with unanimous label-1 blocks mined, unanimous label-0 dropped, and
    disagreements recorded in an abstentions sidecar. Answers and question
    bodies are parsed without their prose; an answer bound for the ensemble
    is parsed again with it.

    The how-to answers with code are taken in ``train_eval.chunked`` runs:
    a run closes once its multi-code answers fill a chunk of instances, or
    at once while it holds none, so a single-code pair waits only behind a
    multi-code answer. Each voter runs once over a run's instances, and the
    run's lines are then written in dump order. Both files are written
    through ``models.open_output``: they replace ``out_path`` and its sidecar
    only once the whole dump is read, so a failed run leaves both as they were.
    """
    tokenizer = (config or load_config()).tokenizer
    voters = _load_ensemble(biv_path, text_path, code_path, tokenizer)
    qfilter = question_filter.QuestionFilterModel.load(filter_model_path)
    keywords = qfilter.weighed_keywords()

    report = dict.fromkeys([
        "records", "parse_errors", "domain_skipped", "non_howto", "no_code",
        "single_code_pairs", "ensemble_pairs", "ensemble_rejections", "abstentions",
    ], 0)

    def off_domain(record):
        return None if domain_matches(record["tags"], tokenizer.language) else "domain_skipped"

    def how_to_answers():
        """(qid, title, code blocks, instances) of each how-to answer with
        code; only multi-code answers have instances."""
        for record, answer_seq in read_answers(dump_path, report, off_domain, prose=False):
            code_blocks = answer_seq.code_blocks()
            if not code_blocks:
                report["no_code"] += 1
                continue
            qid, title = record["question_id"], record["title"]
            question_seq = _parse_or_empty(record.get("question_body_html"), qid)
            feats = question_filter.featurize_question(title, question_seq, answer_seq, keywords)
            label, _ = question_filter.classify_question(feats, qfilter)
            if label is not question_filter.QuestionLabel.HOW_TO:
                report["non_howto"] += 1
            elif len(code_blocks) == 1:
                yield qid, title, code_blocks, ()
            else:
                # only the ensemble reads the prose around each code block
                answer_seq = parse_answer_post(record["accepted_answer_html"], qid)
                tokenize_sequence(answer_seq, tokenizer)
                yield qid, title, code_blocks, extract_instances(title, answer_seq, None, tokenizer)

    abstention_path = str(out_path) + ".abstentions.jsonl"
    with models.open_output(out_path) as out, models.open_output(abstention_path) as abstain_out:
        for run in train_eval.chunked(how_to_answers(), lambda answer: len(answer[3])):
            decisions = ()
            if run[0][3]:  # else the run is one single-code answer
                instances = [inst for answer in run for inst in answer[3]]
                decisions = iter(train_eval.ensemble_batch(*voters, instances))
            for qid, title, code_blocks, answer_instances in run:
                if not answer_instances:
                    pair = MinedPair(qid, title, code_blocks[0].raw, 1, Provenance.SINGLE_CODE)
                    out.write(pair.to_json() + "\n")
                    report["single_code_pairs"] += 1
                    continue
                for inst, decision in zip(answer_instances, decisions):
                    if decision.decision is Decision.LABEL1:
                        pair = MinedPair(
                            qid, title, inst.raw_code, inst.position, Provenance.ENSEMBLE_MINED,
                            score=decision.scores[0],
                        )
                        out.write(pair.to_json() + "\n")
                        report["ensemble_pairs"] += 1
                    elif decision.decision is Decision.LABEL0:
                        report["ensemble_rejections"] += 1
                    else:
                        abstain_out.write(models.JSON_ENCODER.encode({
                            "question_id": qid, "position": inst.position,
                            "votes": list(decision.votes), "scores": list(decision.scores),
                        }) + "\n")
                        report["abstentions"] += 1
    return report


def merge_annotated(mined_path, annotated_csv, dump_path, out_path) -> dict:
    """Add annotated label-1 pairs to a mined dataset.

    On a (question_id, position) collision the annotated pair wins.
    Positions that do not exist in the dump raise PositionMismatch.
    ``out_path`` may be ``mined_path``: it is replaced once the merge is done.
    """
    labels = read_annotation_csv(annotated_csv)
    posts: dict[int, tuple[str, BlockSequence]] = {}
    for record, seq in read_answers(dump_path, Counter(), prose=False, ids=set(labels)):
        posts[record["question_id"]] = (record["title"], seq)

    annotated: dict[tuple[int, int], MinedPair] = {}
    for qid, by_pos in sorted(labels.items()):
        if qid not in posts:
            raise PositionMismatch(f"the dump has no usable answer for annotated question {qid}")
        title, seq = posts[qid]
        check_positions(seq, by_pos)
        code_blocks = seq.code_blocks()
        for pos, label in sorted(by_pos.items()):
            if label == 1:
                annotated[(qid, pos)] = MinedPair(
                    qid, title, code_blocks[pos - 1].raw, pos, Provenance.ANNOTATED
                )

    report = {"mined_kept": 0, "mined_replaced": 0, "annotated_added": len(annotated)}
    with models.open_output(out_path) as out:
        for pair in read_pairs(mined_path):
            if (pair.question_id, pair.position) in annotated:
                report["mined_replaced"] += 1
                continue
            out.write(pair.to_json() + "\n")
            report["mined_kept"] += 1
        for key in sorted(annotated):
            out.write(annotated[key].to_json() + "\n")
    report["total"] = report["mined_kept"] + report["annotated_added"]
    return report


def read_pairs(path):
    """The MinedPair of every non-blank line of a pairs file. A line that
    is not a pair raises a ValueError naming ``file:line``. A leading
    byte order mark is skipped."""
    with open(path, encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                yield MinedPair.from_json(line)
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: not a mined pair: {exc!r}") from exc


def dataset_stats(dataset_path, tokenizer: Tokenizer = Tokenizer()) -> dict:
    """Pair counts, average token lengths, and distinct-token counts."""
    n = 0
    by_provenance = {p.value: 0 for p in Provenance}
    question_tokens = 0
    code_tokens = 0
    distinct_q: set[str] = set()
    distinct_c: set[str] = set()
    for pair in read_pairs(dataset_path):
        n += 1
        by_provenance[pair.provenance.value] += 1
        q_toks = tokenize_text(pair.title).tokens
        c_toks = code_stream(pair.code, tokenizer).tokens
        question_tokens += len(q_toks)
        code_tokens += len(c_toks)
        distinct_q.update(q_toks)
        distinct_c.update(c_toks)
    return {
        "pairs": n,
        "by_provenance": by_provenance,
        "avg_question_tokens": question_tokens / n if n else 0.0,
        "avg_code_tokens": code_tokens / n if n else 0.0,
        "distinct_question_tokens": len(distinct_q),
        "distinct_code_tokens": len(distinct_c),
        "provenance_sum_matches_total": sum(by_provenance.values()) == n,
    }


# --------------------------------------------------------------------------
# Training / evaluation entry points
# --------------------------------------------------------------------------


def train_neural(dump_path, train_csv, valid_csv, config: Config, variant=None, out_path=None):
    """Train ``variant`` (by default the config's) and save it to ``out_path``."""
    train_insts, valid_insts = load_labeled_instances(
        dump_path, [read_annotation_csv(train_csv), read_annotation_csv(valid_csv)], config.tokenizer
    )
    word_vocab, code_vocab = build_vocabs(train_insts, config.min_count)
    cfg = replace(config.model, variant=Variant(variant or config.model.variant))
    embeddings = (config.word_embedding_file, config.code_embedding_file)
    model = models.init_model(cfg, word_vocab, code_vocab, *embeddings, config.tokenizer)
    model, history = train_eval.train(model, train_insts, valid_insts, config.train)
    if out_path:
        models.save_model(model, out_path)
    return model, history


def train_linear_baseline(dump_path, train_csv, config, kind, out_path=None, valid_csv=None):
    """Train the LR / SVM baseline, including the Python CodeClass
    sub-classifier harvested from the same dump.

    Returns the bundle and, when ``valid_csv`` is given, the validation
    instances, read in the same pass as the training ones (else None).
    """
    tokenizer = config.tokenizer
    csvs = [train_csv] + ([valid_csv] if valid_csv else [])
    corpus = []  # the CodeClass harvest, for Python only

    def harvest(sequences):
        corpus.extend(baselines.harvest_codeclass_corpus(sequences, seed=config.linear["seed"]))

    train_insts, *valid = load_labeled_instances(
        dump_path,
        [read_annotation_csv(path) for path in csvs],
        tokenizer,
        harvest if tokenizer.language is Language.PYTHON else None,
    )

    codeclass_model = None
    if len({label for _, label in corpus}) == 2:
        streams = [(code_stream(raw, tokenizer), label) for raw, label in corpus]
        codeclass_model = baselines.train_codeclass(streams, **config.linear)

    data = [
        (baselines.extract_features(inst, codeclass_model, config.connectives), inst.label)
        for inst in train_insts
    ]
    linear = baselines.train_linear(data, kind=kind, **config.linear)
    # a copy, so that the bundle does not alias the config's lexicon
    connectives = [list(p) for p in config.connectives]
    bundle = LinearBundle(linear, tokenizer.fingerprint(), codeclass_model, connectives)
    if out_path:
        bundle.save(out_path)
    return bundle, (valid[0] if valid else None)


def evaluate_checkpoint(dump_path, labels_csv, checkpoint_path, config) -> dict:
    """Evaluate any checkpoint (neural or linear) plus the two heuristics
    on a labeled set. The checkpoint is read once, before the dump."""
    tokenizer = config.tokenizer
    obj = models.parse_model_file(checkpoint_path)
    # any bundle version, so an older one is refused as a bundle
    linear = isinstance(obj, dict) and str(obj.get("format")).startswith("qcmine-linear-")
    if linear:
        model = LinearBundle.from_obj(obj, checkpoint_path, tokenizer)
    else:
        model = models.model_from_obj(obj, checkpoint_path, tokenizer)
    del obj
    (instances,) = load_labeled_instances(dump_path, [read_annotation_csv(labels_csv)], tokenizer)
    golds = [inst.label for inst in instances]
    if linear:
        preds = [model.predict(inst)[0] for inst in instances]
    else:
        preds = train_eval.predict_labels(model, instances)

    return {
        "model": evaluate(preds, golds).to_dict(),
        "select_first": evaluate(train_eval.select_first(instances), golds).to_dict(),
        "select_all": evaluate(train_eval.select_all(instances), golds).to_dict(),
        "instances": len(instances),
    }


def ensemble_evaluate(dump_path, labels_csv, biv_path, text_path, code_path, config) -> dict:
    """Agreement-ensemble coverage and quality on a labeled set."""
    tokenizer = config.tokenizer
    biv, text, code = _load_ensemble(biv_path, text_path, code_path, tokenizer)
    (instances,) = load_labeled_instances(dump_path, [read_annotation_csv(labels_csv)], tokenizer)
    decided_preds, decided_golds = [], []
    abstained = 0
    for chunk in train_eval.chunked(instances):
        for inst, decision in zip(chunk, train_eval.ensemble_batch(biv, text, code, chunk)):
            if decision.decision is Decision.ABSTAIN:
                abstained += 1
            else:
                decided_preds.append(decision.decision.value)
                decided_golds.append(inst.label)
    coverage = len(decided_preds) / len(instances) if instances else 0.0
    return {
        "instances": len(instances),
        "coverage": coverage,
        "abstained": abstained,
        "decided_metrics": evaluate(decided_preds, decided_golds).to_dict(),
    }


# --------------------------------------------------------------------------
# CLI wiring
# --------------------------------------------------------------------------


# Each cmd_* takes the parsed arguments and the loaded config and returns
# the JSON report that ``main`` prints.


def cmd_parse(args, config):
    report = Counter()
    with models.open_output(args.out) as out:
        for record, seq in read_answers(args.dump, report):
            out.write(models.JSON_ENCODER.encode({
                "question_id": record["question_id"], "title": record["title"],
                "blocks": [{"kind": b.kind.value, "raw": b.raw} for b in seq.blocks],
            }) + "\n")
    return {"parsed": report["records"] - report["parse_errors"], "skipped": report["parse_errors"]}


def cmd_filter_train(args, config):
    labels = read_question_labels_csv(args.labels)
    labeled = [
        (feats, labels[record["question_id"]])
        for record, feats in _question_records(args.dump, Counter(), ids=set(labels))
    ]
    model = question_filter.train_question_filter(labeled, **config.linear)
    model.save(args.out)
    preds = [
        1 if question_filter.classify_question(f, model)[0] is question_filter.QuestionLabel.HOW_TO else 0
        for f, _ in labeled
    ]
    golds = [1 if lab is question_filter.QuestionLabel.HOW_TO else 0 for _, lab in labeled]
    return {"train_metrics": evaluate(preds, golds).to_dict(), "questions": len(labeled)}


def cmd_filter(args, config):
    model = question_filter.QuestionFilterModel.load(args.model)
    report = {"classified": 0, "skipped": 0}
    with models.open_output(args.out) as out:
        for record, feats in _question_records(args.dump, report, model.weighed_keywords()):
            label, prob = question_filter.classify_question(feats, model)
            out.write(models.JSON_ENCODER.encode(
                {"question_id": record["question_id"], "label": label.value, "probability": prob}
            ) + "\n")
            report["classified"] += 1
    return report


def cmd_train(args, config):
    variant = args.variant or config.model.variant.value
    if variant in ("lr", "svm"):
        kind = baselines.LOGISTIC if variant == "lr" else baselines.HINGE_SVM
        bundle, insts = train_linear_baseline(
            args.dump, args.train_labels, config, kind, args.out, args.valid_labels
        )
        if insts is None:
            return {"trained": variant}
        preds = [bundle.predict(inst)[0] for inst in insts]
        return {"valid_metrics": evaluate(preds, [i.label for i in insts]).to_dict()}
    if not args.valid_labels:
        raise SystemExit("neural training requires --valid-labels")
    _, history = train_neural(
        args.dump, args.train_labels, args.valid_labels, config, variant, args.out
    )
    best = max(history, key=lambda h: h.valid.f1)
    return {
        "epochs": history[-1].epoch,
        "best_epoch": best.epoch,
        "best_valid": best.valid.to_dict(),
        "history": [h.to_dict() for h in history],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, required, optional=("--config",)):
        p = sub.add_parser(name)
        for flag in required:
            p.add_argument(flag, required=True)
        for flag in optional:
            p.add_argument(flag, default=None)
        p.set_defaults(fn=fn)
        return p

    add("parse", cmd_parse, ["--dump", "--out"])
    add("filter-train", cmd_filter_train, ["--dump", "--labels", "--out"])
    add("filter", cmd_filter, ["--dump", "--model", "--out"])
    train = add("train", cmd_train, ["--dump", "--train-labels", "--out"], ["--valid-labels", "--config"])
    train.add_argument("--variant", choices=[*_CHOICES["variant"], "lr", "svm"])
    add(
        "eval", lambda a, c: evaluate_checkpoint(a.dump, a.labels, a.checkpoint, c),
        ["--dump", "--labels", "--checkpoint"],
    )
    add(
        "ensemble-eval",
        lambda a, c: ensemble_evaluate(a.dump, a.labels, a.biv, a.text, a.code, c),
        ["--dump", "--labels", "--biv", "--text", "--code"],
    )
    add(
        "mine", lambda a, c: mine(a.dump, a.biv, a.text, a.code, a.filter_model, a.out, c),
        ["--dump", "--biv", "--text", "--code", "--filter-model", "--out"],
    )
    add("stats", lambda a, c: dataset_stats(a.dataset, c.tokenizer), ["--dataset"])
    add(
        "merge", lambda a, c: merge_annotated(a.mined, a.annotated, a.dump, a.out),
        ["--mined", "--annotated", "--dump", "--out"], optional=(),
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = load_config(getattr(args, "config", None))  # merge takes no --config
    print(json.dumps(args.fn(args, config), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
