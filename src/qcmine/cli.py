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
from dataclasses import asdict, dataclass, fields
from enum import Enum

from . import baselines, models, question_filter, train_eval
from .baselines import LinearBundle
from .models import CheckpointMismatch, Variant, VariantConfig, check_json_type
from .post_parser import (
    Block,
    BlockKind,
    BlockSequence,
    EmptyPost,
    PositionMismatch,
    code_stream,
    extract_instances,
    parse_answer_post,
    tokenize_sequence,
)
from .tokenize import Language, Tokenizer, load_keep_list, tokenize_text
from .train_eval import Decision, Metrics, TrainConfig, evaluate
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
        obj = {**vars(self), "provenance": self.provenance.value}
        return json.dumps(obj, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "MinedPair":
        obj = json.loads(line)
        return cls(
            question_id=int(obj["question_id"]),
            title=obj["title"],
            code=obj["code"],
            position=int(obj["position"]),
            provenance=Provenance(obj["provenance"]),
            score=obj.get("score"),
        )


DEFAULT_CONFIG = {
    "language": "python",
    "tokenize": {"python_keep_list": None, "connectives": None},
    "vocab": {"min_count": 1},
    # The model and neural-training defaults are VariantConfig's and
    # TrainConfig's; the other keys are read by the CLI only.
    "model": {
        **VariantConfig().to_dict(), "word_embedding_file": None, "code_embedding_file": None
    },
    "train": {**asdict(TrainConfig()), "l2": 1e-4, "linear_epochs": 30, "linear_lr": 0.1},
}


def load_config(path=None) -> dict:
    """DEFAULT_CONFIG updated by the JSON file at ``path``. A key it lacks,
    at the top or in a section, a non-object section, a value of another
    JSON type than its default's (``models.check_json_type``) or a
    language other than python or sql raises a ValueError naming the key."""
    config = {k: dict(v) if isinstance(v, dict) else v for k, v in DEFAULT_CONFIG.items()}
    if path:
        with open(path, encoding="utf-8") as f:
            user = json.load(f)
        for key, value in _known_items(path, user, config, "the config"):
            if isinstance(config[key], dict):
                config[key].update(_known_items(path, value, config[key], f"config section {key!r}"))
            else:
                config[key] = value
        if config["language"] not in ("python", "sql"):
            raise ValueError(f"{path}: 'language' must be python or sql, not {user['language']!r}")
    return config


def _known_items(path, given, known: dict, where: str):
    """``given.items()`` once ``given`` is a JSON object whose keys ``known``
    has, each value a section or of its default's JSON type."""
    if not isinstance(given, dict):
        raise ValueError(f"{path}: {where} is not a JSON object")
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ValueError(f"{path}: unknown keys {unknown} in {where}")
    for key, value in given.items():
        if not isinstance(known[key], dict):
            check_json_type(path, key, value, known[key])
    return given.items()


def config_tokenizer(config) -> Tokenizer:
    """The config's language and, when it names one, its Python keep-list."""
    path = config.get("tokenize", {}).get("python_keep_list")
    keep = load_keep_list(path) if path else None
    return Tokenizer(Language(config.get("language", "python")), keep)


def config_connectives(config):
    path = config.get("tokenize", {}).get("connectives")
    return baselines.load_connectives(path) if path else baselines.default_connectives()


# --------------------------------------------------------------------------
# Dump and label readers
# --------------------------------------------------------------------------

_REQUIRED_FIELDS = ("question_id", "title", "tags", "accepted_answer_html")


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
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
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
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
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
            missing = [k for k in _REQUIRED_FIELDS if k not in record]
            if missing:
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
    lowered = [str(t).lower() for t in tags]
    if language is Language.PYTHON:
        return any("python" in t for t in lowered)
    if language is Language.SQL:
        return any(t in ("sql", "database", "oracle") for t in lowered)
    return False


def _csv_rows(path):
    """Yield ("file:line", row) for each row whose first field is an
    integer; a header and blank rows are skipped."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        for row in reader:
            if row and row[0].strip().lstrip("-").isdigit():
                yield f"{path}:{reader.line_num}", row


def read_annotation_csv(path) -> dict[int, dict[int, int]]:
    """CSV (question_id, code_position, label) -> {qid: {position: label}}."""
    labels: dict[int, dict[int, int]] = {}
    for where, row in _csv_rows(path):
        if len(row) < 3:
            raise ValueError(f"{where}: expected question_id,code_position,label, got {row}")
        try:
            qid, pos, label = int(row[0]), int(row[1]), int(row[2])
        except ValueError:
            raise ValueError(f"{where}: non-integer field in {row}") from None
        if label not in (0, 1):
            raise ValueError(f"{where}: label must be 0/1, got {label}")
        labels.setdefault(qid, {})[pos] = label
    return labels


def read_question_labels_csv(path) -> dict[int, question_filter.QuestionLabel]:
    """CSV (question_id, label) with labels howto/other -> {qid: label}."""
    out = {}
    for where, row in _csv_rows(path):
        if len(row) < 2:
            raise ValueError(f"{where}: expected question_id,label, got {row}")
        try:
            out[int(row[0])] = question_filter.QuestionLabel(row[1].strip().lower())
        except ValueError:
            raise ValueError(f"{where}: label must be howto or other, got {row[1]!r}") from None
    return out


def _parse_or_empty(html: str, qid: int) -> BlockSequence:
    """A body's blocks without their prose, which no question feature reads."""
    try:
        return parse_answer_post(html or "", qid, prose=False)
    except EmptyPost:
        return BlockSequence(qid, [Block(BlockKind.TEXT, "")])


def _question_features(record, answer_seq, keywords=None):
    """The question filter's features of one dump record."""
    question_seq = _parse_or_empty(record.get("question_body_html", ""), record["question_id"])
    return question_filter.featurize_question(record["title"], question_seq, answer_seq, keywords)


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
    biv = models.load_model(biv_path, tokenizer)
    text = models.load_model(text_path, tokenizer)
    code = models.load_model(code_path, tokenizer)
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
    config: dict | None = None,
) -> dict:
    """Run the full mining pipeline over a dump.

    Per question: drop non-how-to questions; single-code answers emit the
    pair directly; multi-code answers go through the agreement ensemble,
    with unanimous label-1 blocks mined, unanimous label-0 dropped, and
    disagreements recorded in an abstentions sidecar. Answers and question
    bodies are parsed without their prose; an answer bound for the ensemble
    is parsed again with it.

    Multi-code answers are collected until they hold ``INFERENCE_CHUNK``
    instances, and each voter then runs once over the whole chunk. Output
    that follows a waiting answer waits with it, so lines are written in
    dump order.
    """
    config = config or load_config()
    tokenizer = config_tokenizer(config)
    biv, text, code = _load_ensemble(biv_path, text_path, code_path, tokenizer)
    qfilter = question_filter.QuestionFilterModel.load(filter_model_path)

    report = {
        "records": 0,
        "parse_errors": 0,
        "domain_skipped": 0,
        "non_howto": 0,
        "no_code": 0,
        "single_code_pairs": 0,
        "ensemble_pairs": 0,
        "ensemble_rejections": 0,
        "abstentions": 0,
    }
    # In dump order: pair lines, and (qid, title, instances) of multi-code
    # answers waiting for the ensemble.
    pending: list = []
    n_pending = 0

    def off_domain(record):
        return None if domain_matches(record["tags"], tokenizer.language) else "domain_skipped"

    abstention_path = str(out_path) + ".abstentions.jsonl"
    with open(out_path, "w", encoding="utf-8") as out, open(
        abstention_path, "w", encoding="utf-8"
    ) as abstain_out:
        for record, answer_seq in read_answers(dump_path, report, off_domain, prose=False):
            code_blocks = answer_seq.code_blocks()
            if not code_blocks:
                report["no_code"] += 1
                continue

            feats = _question_features(record, answer_seq, qfilter.keywords)
            label, _ = question_filter.classify_question(feats, qfilter)
            if label is not question_filter.QuestionLabel.HOW_TO:
                report["non_howto"] += 1
                continue

            qid, title = record["question_id"], record["title"]
            if len(code_blocks) == 1:
                pair = MinedPair(qid, title, code_blocks[0].raw, 1, Provenance.SINGLE_CODE)
                line = pair.to_json() + "\n"
                if pending:
                    pending.append(line)
                else:
                    out.write(line)
                report["single_code_pairs"] += 1
                continue

            # only the ensemble reads the prose around each code block
            answer_seq = parse_answer_post(record["accepted_answer_html"], qid)
            tokenize_sequence(answer_seq, tokenizer)
            instances = extract_instances(title, answer_seq, None, tokenizer)
            pending.append((qid, title, instances))
            n_pending += len(instances)
            if n_pending >= train_eval.INFERENCE_CHUNK:
                _flush(pending, (biv, text, code), out, abstain_out, report)
                n_pending = 0
        _flush(pending, (biv, text, code), out, abstain_out, report)
    return report


def _flush(pending, voters, out, abstain_out, report) -> None:
    """Decide every waiting answer with one batched ensemble call, then
    write all waiting output in dump order and empty ``pending``."""
    instances = [inst for item in pending if isinstance(item, tuple) for inst in item[2]]
    decisions = iter(train_eval.ensemble_batch(*voters, instances))
    for item in pending:
        if isinstance(item, str):
            out.write(item)
            continue
        qid, title, answer_instances = item
        for inst in answer_instances:
            decision = next(decisions)
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
                abstain_out.write(json.dumps({
                    "question_id": qid, "position": inst.position,
                    "votes": list(decision.votes), "scores": list(decision.scores),
                }, sort_keys=True) + "\n")
                report["abstentions"] += 1
    pending.clear()


def merge_annotated(mined_path, annotated_csv, dump_path, out_path) -> dict:
    """Add annotated label-1 pairs to a mined dataset.

    On a (question_id, position) collision the annotated pair wins.
    Positions that do not exist in the dump raise PositionMismatch.
    """
    labels = read_annotation_csv(annotated_csv)
    posts: dict[int, tuple[str, list[str]]] = {}
    for record, seq in read_answers(dump_path, Counter(), prose=False, ids=set(labels)):
        posts[record["question_id"]] = (
            record["title"],
            [b.raw for b in seq.code_blocks()],
        )

    annotated: dict[tuple[int, int], MinedPair] = {}
    for qid, by_pos in sorted(labels.items()):
        if qid not in posts:
            raise PositionMismatch(f"annotated question {qid} not found in dump")
        title, code_blocks = posts[qid]
        for pos, label in sorted(by_pos.items()):
            if pos < 1 or pos > len(code_blocks):
                raise PositionMismatch(
                    f"annotated position {pos} of question {qid} exceeds "
                    f"{len(code_blocks)} code blocks"
                )
            if label == 1:
                annotated[(qid, pos)] = MinedPair(
                    qid, title, code_blocks[pos - 1], pos, Provenance.ANNOTATED
                )

    report = {"mined_kept": 0, "mined_replaced": 0, "annotated_added": len(annotated)}
    with open(out_path, "w", encoding="utf-8") as out:
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
    is not a pair raises a ValueError naming ``file:line``."""
    with open(path, encoding="utf-8") as f:
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


def train_neural(dump_path, train_csv, valid_csv, config, variant=None, out_path=None):
    tokenizer = config_tokenizer(config)
    train_insts, valid_insts = load_labeled_instances(
        dump_path, [read_annotation_csv(train_csv), read_annotation_csv(valid_csv)], tokenizer
    )
    word_vocab, code_vocab = build_vocabs(train_insts, config["vocab"]["min_count"])
    section = config["model"]
    cfg = VariantConfig.from_dict({**section, "variant": variant or section["variant"]})
    model = models.init_model(
        cfg,
        word_vocab,
        code_vocab,
        section["word_embedding_file"],
        section["code_embedding_file"],
        tokenizer,
    )
    hyper = TrainConfig(**{f.name: config["train"][f.name] for f in fields(TrainConfig)})
    model, history = train_eval.train(model, train_insts, valid_insts, hyper)
    if out_path:
        models.save_model(model, out_path)
    return model, history


def train_linear_baseline(dump_path, train_csv, config, kind, out_path=None, valid_csv=None):
    """Train the LR / SVM baseline, including the Python CodeClass
    sub-classifier harvested from the same dump.

    Returns the bundle and, when ``valid_csv`` is given, the validation
    instances, read in the same pass as the training ones (else None).
    """
    tokenizer = config_tokenizer(config)
    section = config["train"]
    connectives = config_connectives(config)
    csvs = [train_csv] + ([valid_csv] if valid_csv else [])
    corpus = []  # the CodeClass harvest, for Python only

    def harvest(sequences):
        corpus.extend(baselines.harvest_codeclass_corpus(sequences, seed=section["seed"]))

    train_insts, *valid = load_labeled_instances(
        dump_path,
        [read_annotation_csv(path) for path in csvs],
        tokenizer,
        harvest if tokenizer.language is Language.PYTHON else None,
    )

    codeclass_model = None
    if len({label for _, label in corpus}) == 2:
        streams = [(code_stream(raw, tokenizer), label) for raw, label in corpus]
        codeclass_model = baselines.train_codeclass(
            streams, l2=section["l2"], epochs=section["linear_epochs"],
            lr=section["linear_lr"], seed=section["seed"],
        )

    data = [
        (baselines.extract_features(inst, codeclass_model, connectives), inst.label)
        for inst in train_insts
    ]
    linear = baselines.train_linear(
        data,
        kind=kind,
        l2=section["l2"],
        epochs=section["linear_epochs"],
        lr=section["linear_lr"],
        seed=section["seed"],
    )
    # a copy: the default lexicon is a shared cache the bundle must not alias
    connectives = [list(p) for p in connectives]
    bundle = LinearBundle(linear, tokenizer.fingerprint(), codeclass_model, connectives)
    if out_path:
        bundle.save(out_path)
    return bundle, (valid[0] if valid else None)


def evaluate_checkpoint(dump_path, labels_csv, checkpoint_path, config) -> dict:
    """Evaluate any checkpoint (neural or linear) plus the two heuristics
    on a labeled set. The checkpoint is read once, before the dump."""
    tokenizer = config_tokenizer(config)
    with open(checkpoint_path, encoding="utf-8") as f:
        obj = json.load(f)
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

    # The heuristics of train_eval.select_first / select_all, which depend
    # only on a block's position.
    first_preds = [1 if inst.position == 1 else 0 for inst in instances]
    return {
        "model": evaluate(preds, golds).to_dict(),
        "select_first": evaluate(first_preds, golds).to_dict(),
        "select_all": evaluate([1] * len(instances), golds).to_dict(),
        "instances": len(instances),
    }


def ensemble_evaluate(dump_path, labels_csv, biv_path, text_path, code_path, config) -> dict:
    """Agreement-ensemble coverage and quality on a labeled set."""
    tokenizer = config_tokenizer(config)
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
    decided = (
        evaluate(decided_preds, decided_golds).to_dict() if decided_preds else Metrics().to_dict()
    )
    return {
        "instances": len(instances),
        "coverage": coverage,
        "abstained": abstained,
        "decided_metrics": decided,
    }


# --------------------------------------------------------------------------
# CLI wiring
# --------------------------------------------------------------------------


# Each cmd_* takes the parsed arguments and the loaded config and returns
# the JSON report that ``main`` prints.


def cmd_parse(args, config):
    report = Counter()
    with open(args.out, "w", encoding="utf-8") as out:
        for record, seq in read_answers(args.dump, report):
            out.write(json.dumps({
                "question_id": record["question_id"], "title": record["title"],
                "blocks": [{"kind": b.kind.value, "raw": b.raw} for b in seq.blocks],
            }, sort_keys=True, ensure_ascii=False) + "\n")
    return {"parsed": report["records"] - report["parse_errors"], "skipped": report["parse_errors"]}


def cmd_filter_train(args, config):
    labels = read_question_labels_csv(args.labels)
    section = config["train"]
    labeled = []
    for record, err in read_dump(args.dump):
        if err or record["question_id"] not in labels:
            continue
        answer_seq = _parse_or_empty(record["accepted_answer_html"], record["question_id"])
        labeled.append((_question_features(record, answer_seq), labels[record["question_id"]]))
    model = question_filter.train_question_filter(
        labeled, l2=section["l2"], epochs=section["linear_epochs"],
        lr=section["linear_lr"], seed=section["seed"],
    )
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
    with open(args.out, "w", encoding="utf-8") as out:
        for record, err in read_dump(args.dump):
            if err:
                report["skipped"] += 1
                continue
            answer_seq = _parse_or_empty(record["accepted_answer_html"], record["question_id"])
            feats = _question_features(record, answer_seq, model.keywords)
            label, prob = question_filter.classify_question(feats, model)
            out.write(json.dumps(
                {"question_id": record["question_id"], "label": label.value, "probability": prob},
                sort_keys=True,
            ) + "\n")
            report["classified"] += 1
    return report


def cmd_train(args, config):
    variant = args.variant or config["model"]["variant"]
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

    add("parse", cmd_parse, ["--dump", "--out"])
    add("filter-train", cmd_filter_train, ["--dump", "--labels", "--out"])
    add("filter", cmd_filter, ["--dump", "--model", "--out"])
    add(
        "train", cmd_train, ["--dump", "--train-labels", "--out"],
        ["--valid-labels", "--variant", "--config"],
    )
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
    add("stats", lambda a, c: dataset_stats(a.dataset, config_tokenizer(c)), ["--dataset"])
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
