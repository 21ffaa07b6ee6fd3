import codecs
import contextlib
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import SINGLE_HTML, SOLUTION_HTML, build_workspace, dump_record
from qcmine import baselines, cli, models, nn_core, question_filter, tokenize, train_eval
from qcmine.models import CheckpointMismatch, load_model, predict_label
from qcmine.nn_core import blas_thread_control, softmax
from qcmine.post_parser import (
    BlockSequence, PositionMismatch, extract_instances, parse_answer_post, tokenize_sequence,
)
from qcmine.tokenize import Tokenizer, default_python_keep_list, normalize_python


def trained_workspace(root, language="python"):
    """``build_workspace`` with a trained filter and the three voters."""
    paths = build_workspace(root, language)
    paths["root"] = root
    paths["filter"] = root / "filter.json"
    cli.main(
        [
            "filter-train", "--dump", str(paths["dump"]), "--labels", str(paths["qlabels"]),
            "--out", str(paths["filter"]), "--config", str(paths["config"]),
        ]
    )
    for variant in ("biv_hnn", "text_hnn", "code_hnn"):
        out = root / f"{variant}.json"
        cli.main(
            [
                "train", "--dump", str(paths["dump"]),
                "--train-labels", str(paths["train"]), "--valid-labels", str(paths["valid"]),
                "--variant", variant, "--out", str(out), "--config", str(paths["config"]),
            ]
        )
        paths[variant] = out
    return paths


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    return trained_workspace(tmp_path_factory.mktemp("pipeline"))


@pytest.fixture(scope="module")
def linear(ws, tmp_path_factory):
    """An lr bundle trained on the workspace with its config."""
    path = tmp_path_factory.mktemp("linear") / "lr.json"
    cli.train_linear_baseline(ws["dump"], ws["train"], cli.load_config(ws["config"]), "logistic", path)
    return path


class TestParseCommand:
    def test_block_cache(self, ws, capsys):
        out = ws["root"] / "blocks.jsonl"
        cli.main(["parse", "--dump", str(ws["dump"]), "--out", str(out)])
        report = json.loads(capsys.readouterr().out)
        assert report["parsed"] == 28
        assert report["skipped"] == 2  # malformed json + missing fields
        first = json.loads(out.read_text().splitlines()[0])
        assert [b["kind"] for b in first["blocks"]] == ["text", "code", "text", "code", "text"]


WRONG_TYPED = [
    dump_record(500, "How to frob", None, SINGLE_HTML),
    dump_record(501, "How to frob", ["python"], None),
    dump_record(502, 5, ["python"], SINGLE_HTML),
    dump_record(503, "How to frob", ["python", 3], SINGLE_HTML),
    dump_record(504, "How to frob", ["python"], SINGLE_HTML, question_html=7),
    dump_record(505, "How to \ud800 frob", ["python"], SINGLE_HTML),
    [1, 2],
    7,
    "question_id title tags accepted_answer_html",
]


@pytest.fixture(scope="module")
def bad_dump(ws):
    """The workspace dump with wrong-typed records mixed in."""
    path = ws["root"] / "bad_dump.jsonl"
    lines = ws["dump"].read_text().splitlines(keepends=True)
    for i, record in enumerate(WRONG_TYPED):
        lines.insert(3 * i, json.dumps(record) + "\n")
    path.write_text("".join(lines))
    return path


class TestWrongTypedRecords:
    def test_parse_skips_and_counts(self, bad_dump, ws, capsys):
        cli.main(["parse", "--dump", str(bad_dump), "--out", str(ws["root"] / "bad_blocks.jsonl")])
        report = json.loads(capsys.readouterr().out)
        assert report == {"parsed": 28, "skipped": 2 + len(WRONG_TYPED)}

    def test_mine_skips_and_counts(self, bad_dump, ws, mined):
        _, clean = mined
        report = cli.mine(
            bad_dump, ws["biv_hnn"], ws["text_hnn"], ws["code_hnn"],
            ws["filter"], ws["root"] / "bad_pairs.jsonl", cli.load_config(ws["config"]),
        )
        assert report["records"] == clean["records"] + len(WRONG_TYPED)
        assert report["parse_errors"] == clean["parse_errors"] + len(WRONG_TYPED)
        for key in clean:
            if key not in ("records", "parse_errors"):
                assert report[key] == clean[key], key

    def test_null_question_body_still_read(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        record = dump_record(1, "How to frob", ["python"], SINGLE_HTML, question_html=None)
        path.write_text(json.dumps(record) + "\n")
        assert [err for _, err in cli.read_dump(path)] == [None]

    def test_bytes_that_are_not_utf8_skipped(self, tmp_path, capsys):
        path = tmp_path / "dump.jsonl"
        record = json.dumps(dump_record(1, "How to frob", ["python"], SINGLE_HTML))
        path.write_bytes(record.replace("frob", "fr\xffob").encode("latin-1") + b"\n\xff\n")
        cli.main(["parse", "--dump", str(path), "--out", str(tmp_path / "blocks.jsonl")])
        assert json.loads(capsys.readouterr().out) == {"parsed": 0, "skipped": 2}


class TestQuestionIds:
    """A question id is a JSON integer or a string int() accepts."""

    def one_record_dump(self, tmp_path, raw_id):
        path = tmp_path / "dump.jsonl"
        record = json.dumps(dump_record(0, "How to frob", ["python"], SINGLE_HTML))
        path.write_text(record.replace('"question_id": 0', f'"question_id": {raw_id}') + "\n")
        return path

    @pytest.mark.parametrize("raw", ["true", "false", "7.9", "7.0", "NaN", "Infinity", "-Infinity"])
    def test_refused_and_counted(self, tmp_path, capsys, raw):
        path = self.one_record_dump(tmp_path, raw)
        [(record, err)] = cli.read_dump(path)
        assert record is None and "question_id" in str(err)
        cli.main(["parse", "--dump", str(path), "--out", str(tmp_path / "blocks.jsonl")])
        assert json.loads(capsys.readouterr().out) == {"parsed": 0, "skipped": 1}

    @pytest.mark.parametrize("raw", ["7", '"7"', '" 7 "'])
    def test_accepted(self, tmp_path, raw):
        [(record, err)] = cli.read_dump(self.one_record_dump(tmp_path, raw))
        assert err is None and record["question_id"] == 7


class TestLoneSurrogates:
    """Only a text field that is not ASCII is encoded to look for lone
    surrogates; every lone one is still caught, whether it came from an
    escape in an ASCII line or from a byte that is not UTF-8."""

    def read(self, tmp_path, title_json: bytes):
        path = tmp_path / "dump.jsonl"
        record = json.dumps(dump_record(1, "TITLE", ["python"], SINGLE_HTML)).encode()
        path.write_bytes(record.replace(b'"TITLE"', title_json) + b"\n")
        [(record, err)] = cli.read_dump(path)
        return record, err

    @pytest.mark.parametrize("title", [
        rb'"How to \ud800 frob"',
        rb'"How to \uDFFF frob"',
        b'"How to fr\xffob"',  # a byte that is not UTF-8
        rb'"a pair backwards: \ude00\ud83d"',
        '"not ASCII, and lone: \u00e9 \\ud83d"'.encode(),
    ])
    def test_lone_surrogate_skipped(self, tmp_path, title):
        record, err = self.read(tmp_path, title)
        assert record is None and "text is not valid Unicode" in str(err)

    @pytest.mark.parametrize("title,text", [
        (rb'"How to \ud83d\ude00 frob"', "How to \U0001f600 frob"),
        ('"How to fr\u00e9ob \U0001f600"'.encode(), "How to fr\u00e9ob \U0001f600"),
        (rb'"How to frob \\ud800"', "How to frob \\ud800"),
        (b'"How to frob"', "How to frob"),
    ])
    def test_valid_text_kept(self, tmp_path, title, text):
        record, err = self.read(tmp_path, title)
        assert err is None and record["title"] == text


class TestAnnotationCsv:
    @pytest.mark.parametrize("row", ["101,1", "101", "101,x,1", "101,1,1.5"])
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "labels.csv"
        path.write_text(f"question_id,code_position,label\n100,1,1\n{row}\n")
        with pytest.raises(ValueError, match=rf"labels\.csv:3: "):
            cli.read_annotation_csv(path)

    @pytest.mark.parametrize(
        "qid", ["1O", "\u00b2", "", "x"], ids=["letter_o", "superscript_two", "empty", "word"]
    )
    def test_bad_id_after_header_names_file_line_and_id(self, tmp_path, qid):
        path = tmp_path / "labels.csv"
        path.write_text(f"question_id,code_position,label\n10,1,1\n{qid},2,1\n11,1,0\n")
        with pytest.raises(ValueError, match=rf"labels\.csv:3: question id {qid!r} "):
            cli.read_annotation_csv(path)

    def test_good_rows(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("question_id,code_position,label\n100,1,1\n100,2,0\n\n101,1,0\n")
        assert cli.read_annotation_csv(path) == {100: {1: 1, 2: 0}, 101: {1: 0}}


class TestQuestionLabelCsv:
    @pytest.mark.parametrize("row", ["101", "101,maybe", "101,"])
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "qlabels.csv"
        path.write_text(f"question_id,label\n100,howto\n{row}\n")
        with pytest.raises(ValueError, match=r"qlabels\.csv:3: "):
            cli.read_question_labels_csv(path)

    @pytest.mark.parametrize("qid", ["\u00b2", "1O"], ids=["superscript_two", "letter_o"])
    def test_bad_id_after_header_names_file_line_and_id(self, tmp_path, qid):
        path = tmp_path / "qlabels.csv"
        path.write_text(f"question_id,label\n100,howto\n{qid},howto\n")
        with pytest.raises(ValueError, match=rf"qlabels\.csv:3: question id {qid!r} "):
            cli.read_question_labels_csv(path)

    def test_good_rows(self, tmp_path):
        path = tmp_path / "qlabels.csv"
        path.write_text("question_id,label\n100,howto\n\n101, Other\n")
        assert cli.read_question_labels_csv(path) == {
            100: cli.question_filter.QuestionLabel.HOW_TO,
            101: cli.question_filter.QuestionLabel.NON_HOW_TO,
        }


@pytest.mark.parametrize("read", [cli.read_annotation_csv, cli.read_question_labels_csv])
def test_label_csv_not_utf8_names_the_file(tmp_path, read):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"question_id,label\n100,howto\xff\n")
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": not UTF-8 text"):
        read(path)


@pytest.mark.parametrize("read", [cli.read_annotation_csv, cli.read_question_labels_csv])
def test_label_csv_field_over_the_csv_limit_names_the_line(tmp_path, read):
    path = tmp_path / "labels.csv"
    path.write_text("question_id,label\n101," + "x" * 140_000 + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(str(path)) + ":2: field larger than field limit"):
        read(path)


class TestByteOrderMark:
    """A leading UTF-8 byte order mark, which a spreadsheet's "CSV UTF-8"
    export writes, is read as no text: each input reads as the same file
    without it."""

    def test_annotation_csv_without_header_keeps_first_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("12,1,1\n13,2,0\n", encoding="utf-8-sig")
        assert cli.read_annotation_csv(path) == {12: {1: 1}, 13: {2: 0}}

    def test_question_labels_csv_without_header_keeps_first_row(self, tmp_path):
        path = tmp_path / "qlabels.csv"
        path.write_text("12,howto\n13,other\n", encoding="utf-8-sig")
        assert cli.read_question_labels_csv(path) == {
            12: cli.question_filter.QuestionLabel.HOW_TO,
            13: cli.question_filter.QuestionLabel.NON_HOW_TO,
        }

    def test_dump_first_record_read(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        lines = [json.dumps(dump_record(qid, "How to frob", ["python"], SINGLE_HTML)) for qid in (1, 2)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        read = list(cli.read_dump(path))
        assert [err for _, err in read] == [None, None]
        assert [record["question_id"] for record, _ in read] == [1, 2]
        assert [record["question_id"] for record, _ in cli.read_dump(path, ids={1})] == [1]

    def test_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"vocab": {"min_count": 2}}', encoding="utf-8-sig")
        assert cli.load_config(path).min_count == 2

    # Files qcmine writes itself, which a user may open and save again

    def test_checkpoint_through_eval(self, ws, tmp_path):
        config = cli.load_config(ws["config"])
        reports = [
            cli.evaluate_checkpoint(ws["dump"], ws["valid"], path, config)
            for path in (ws["biv_hnn"], with_bom(ws["biv_hnn"], tmp_path))
        ]
        assert reports[0] == reports[1]

    def test_lr_bundle_through_eval(self, ws, linear, tmp_path):
        config = cli.load_config(ws["config"])
        copy = with_bom(linear, tmp_path)
        reports = [
            cli.evaluate_checkpoint(ws["dump"], ws["valid"], path, config) for path in (linear, copy)
        ]
        assert reports[0] == reports[1]
        bundles = [baselines.LinearBundle.load(path) for path in (linear, copy)]
        assert bundles[0].linear.to_dict() == bundles[1].linear.to_dict()

    def test_voters_and_filter_through_mine(self, ws, mined, tmp_path):
        out = tmp_path / "pairs.jsonl"
        copies = [with_bom(ws[k], tmp_path) for k in ("biv_hnn", "text_hnn", "code_hnn", "filter")]
        report = cli.mine(ws["dump"], *copies, out, cli.load_config(ws["config"]))
        assert report == mined[1]
        for suffix in ("", ".abstentions.jsonl"):
            assert Path(f"{out}{suffix}").read_bytes() == Path(f"{mined[0]}{suffix}").read_bytes()

    def test_pairs_file_through_merge_and_stats(self, ws, mined, tmp_path):
        runs = []
        for path in (mined[0], with_bom(mined[0], tmp_path)):
            merged = tmp_path / f"merged-{path.name}"
            report = cli.merge_annotated(path, ws["train"], ws["dump"], merged)
            runs.append((report, merged.read_bytes(), cli.dataset_stats(path)))
        assert runs[0] == runs[1]
        assert runs[0][2]["pairs"] > 0


def with_bom(path, tmp_path):
    """A copy of ``path`` in ``tmp_path`` with a UTF-8 byte order mark
    before its text."""
    copy = tmp_path / f"bom-{Path(path).name}"
    copy.write_bytes(codecs.BOM_UTF8 + Path(path).read_bytes())
    return copy


class TestDuplicateCsvRows:
    def test_conflicting_repeat_refused_identical_accepted(self, tmp_path):
        annotations, qlabels = tmp_path / "labels.csv", tmp_path / "qlabels.csv"
        annotations.write_text("question_id,code_position,label\n100,1,1\n100,1,1\n100,2,0\n")
        qlabels.write_text("question_id,label\n100,howto\n100,HowTo\n101,other\n")
        assert cli.read_annotation_csv(annotations) == {100: {1: 1, 2: 0}}
        assert set(cli.read_question_labels_csv(qlabels)) == {100, 101}
        annotations.write_text("question_id,code_position,label\n100,1,1\n100,1,0\n")
        with pytest.raises(ValueError, match=r"labels\.csv:3: question 100 position 1 "):
            cli.read_annotation_csv(annotations)
        qlabels.write_text("question_id,label\n100,howto\n101,other\n100,other\n")
        with pytest.raises(ValueError, match=r"qlabels\.csv:4: question 100 "):
            cli.read_question_labels_csv(qlabels)


class TestFilter:
    def test_filter_learns_howto_keyword(self, ws, capsys):
        out = ws["root"] / "filtered.jsonl"
        cli.main(["filter", "--dump", str(ws["dump"]), "--model", str(ws["filter"]), "--out", str(out)])
        assert json.loads(capsys.readouterr().out) == {"classified": 28, "skipped": 2}
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        by_qid = {r["question_id"]: r["label"] for r in rows}
        assert by_qid[100] == "howto"
        assert by_qid[300] == "other"


def filters_of(paths):
    """The workspace's trained filter, whose index lacks the keywords no
    training title holds, and one whose keyword list leaves out a keyword
    that its index names."""
    trained = question_filter.QuestionFilterModel.load(paths["filter"])
    weighed = trained.weighed_keywords()
    assert weighed and len(weighed) < len(trained.keywords)
    unlisted = question_filter.QuestionFilterModel(
        trained.linear, [kw for kw in trained.keywords if kw != weighed[0]],
    )
    return trained, unlisted


def decision(model, title, body, answer, keywords):
    """The filter's label and the bits of its probability."""
    feats = question_filter.featurize_question(title, body, answer, keywords)
    label, prob = question_filter.classify_question(feats, model)
    return label, prob.hex()


# Title pieces: every keyword, some in capitals, and characters whose
# lowercase is longer or context-dependent
TITLE_PIECES = st.one_of(
    st.sampled_from(question_filter.default_keywords()),
    st.sampled_from(question_filter.default_keywords()).map(str.upper),
    st.sampled_from(["\u212a", "\u0130", "\u03a3", "\n", "?"]),
    st.text(max_size=6),
)


class TestWeighedKeywords:
    """A filter that featurizes with only the keywords its model weighs,
    as ``mine`` and ``filter`` do, decides every question as with all of
    its keywords, bit for bit."""

    @pytest.mark.parametrize("workspace", ["ws", "sql_ws"])
    def test_workspace_questions_decide_alike(self, request, workspace):
        paths = request.getfixturevalue(workspace)
        records = [record for record, err in cli.read_dump(paths["dump"]) if err is None]
        assert records
        for model in filters_of(paths):
            weighed = model.weighed_keywords()
            assert all(f"kw:{kw}" in model.linear.index for kw in weighed)
            for record in records:
                body, answer = (cli._parse_or_empty(record.get(key), record["question_id"])
                                for key in ("question_body_html", "accepted_answer_html"))
                assert (decision(model, record["title"], body, answer, weighed)
                        == decision(model, record["title"], body, answer, model.keywords))

    @pytest.mark.parametrize("workspace", ["ws", "sql_ws"])
    def test_fuzzed_titles_decide_alike(self, request, workspace):
        paths = request.getfixturevalue(workspace)
        filters = filters_of(paths)
        _, single, *_ = helpers._DOMAINS[cli.load_config(paths["config"]).tokenizer.language.value]
        body, answer = BlockSequence(1, []), parse_answer_post(single, 1)

        @settings(max_examples=200, deadline=None)
        @given(title=st.lists(TITLE_PIECES, max_size=8).map(" ".join))
        def check(title):
            for model in filters:
                assert (decision(model, title, body, answer, model.weighed_keywords())
                        == decision(model, title, body, answer, model.keywords))

        check()

    @pytest.mark.parametrize("workspace", ["ws", "sql_ws"])
    def test_filter_output_matches_all_keywords(self, request, workspace, tmp_path):
        """``filter``'s lines are those of a run that featurizes every keyword."""
        paths = request.getfixturevalue(workspace)
        out, reference = tmp_path / "weighed.jsonl", tmp_path / "all.jsonl"
        argv = ["filter", "--dump", str(paths["dump"]), "--model", str(paths["filter"])]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([*argv, "--out", str(out)])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(question_filter.QuestionFilterModel, "weighed_keywords",
                           lambda self: self.keywords)
                cli.main([*argv, "--out", str(reference)])
        assert out.read_bytes() == reference.read_bytes()


# Tags whose lowercase is longer (U+0130), maps to ASCII (U+212A KELVIN
# SIGN) or depends on what follows (a final capital sigma), next to "\n",
# which joins the tags
TAG_TEXT = st.text(st.one_of(
    st.sampled_from(["\n", "\u212a", "\u0130", "\u03a3", *"PYTHONpython"]),
    st.characters(exclude_categories=["Cs"]),
), max_size=10)


@settings(max_examples=500, deadline=None)
@given(tags=st.lists(st.one_of(TAG_TEXT, TAG_TEXT.map(lambda t: t + "\u03a3")), max_size=5))
@example(tags=["pyt", "hon"])
@example(tags=["pyt\nhon", "PYTHON\u03a3"])
@example(tags=["\u0130python\u03a3", "x"])
def test_python_domain_is_a_lowercased_tag_holding_python(tags):
    assert cli.domain_matches(tags, cli.Language.PYTHON) == any("python" in t.lower() for t in tags)


@pytest.mark.parametrize("dropped", [
    fields for n in range(1, 5) for fields in itertools.combinations(cli._REQUIRED_FIELDS, n)
], ids="-".join)
def test_missing_fields_named_in_field_order(tmp_path, dropped):
    """The refusal names the missing fields in ``_REQUIRED_FIELDS`` order,
    whatever the order of the record's keys."""
    record = dict(reversed(dump_record(1, "How to frob", ["python"], SINGLE_HTML).items()))
    for name in dropped:
        del record[name]
    path = tmp_path / "dump.jsonl"
    path.write_text(json.dumps(record) + "\n")
    [(none, err)] = list(cli.read_dump(path))
    want = [name for name in cli._REQUIRED_FIELDS if name in dropped]
    assert none is None and str(err) == f"line 1: missing fields {want}"


class TestTrainEval:
    def test_trained_models_fit_training_posts(self, ws):
        model = load_model(ws["biv_hnn"])
        seq = parse_answer_post(SOLUTION_HTML, 100)
        tokenize_sequence(seq, Tokenizer())
        insts = extract_instances("How to frob the 1 widget", seq, None, Tokenizer())
        labels = [predict_label(model, inst)[0] for inst in insts]
        assert labels == [1, 0]

    def test_eval_command(self, ws, capsys):
        cli.main(
            [
                "eval", "--dump", str(ws["dump"]), "--labels", str(ws["valid"]),
                "--checkpoint", str(ws["biv_hnn"]), "--config", str(ws["config"]),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["instances"] == 8
        assert report["model"]["f1"] == 1.0
        assert report["select_all"]["recall"] == 1.0
        assert report["select_all"]["precision"] == 0.5
        assert report["select_first"]["f1"] == 1.0  # position 1 is always the solution here

    def test_eval_heuristics_match_train_eval(self, ws, tmp_path, capsys):
        labels = tmp_path / "labels.csv"  # position 1 of 110 and 112 unlabeled
        labels.write_text("question_id,code_position,label\n110,2,0\n111,1,1\n111,2,0\n112,2,1\n")
        cli.main(
            [
                "eval", "--dump", str(ws["dump"]), "--labels", str(labels),
                "--checkpoint", str(ws["biv_hnn"]), "--config", str(ws["config"]),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        records = {r["question_id"]: r for r, err in cli.read_dump(ws["dump"]) if not err}
        first, every, golds = [], [], []
        for qid, by_pos in cli.read_annotation_csv(labels).items():
            seq = parse_answer_post(records[qid]["accepted_answer_html"], qid)
            answer = extract_instances(records[qid]["title"], seq)
            for pos, label in sorted(by_pos.items()):
                first.append(train_eval.select_first(answer)[pos - 1])
                every.append(train_eval.select_all(answer)[pos - 1])
                golds.append(label)
        assert report["instances"] == 4
        assert report["select_first"] == train_eval.evaluate(first, golds).to_dict()
        assert report["select_all"] == train_eval.evaluate(every, golds).to_dict()

    def test_eval_select_first_without_position_one(self, ws, tmp_path, capsys):
        labels = tmp_path / "labels.csv"  # no position 1 labeled: select_first predicts all 0
        labels.write_text("question_id,code_position,label\n110,2,0\n111,2,1\n112,2,0\n")
        cli.main(
            [
                "eval", "--dump", str(ws["dump"]), "--labels", str(labels),
                "--checkpoint", str(ws["biv_hnn"]), "--config", str(ws["config"]),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        golds = [0, 1, 0]
        assert report["instances"] == 3
        assert report["select_first"] == train_eval.evaluate([0, 0, 0], golds).to_dict()
        assert report["select_first"]["tp"] == report["select_first"]["fp"] == 0
        assert report["select_all"] == train_eval.evaluate([1, 1, 1], golds).to_dict()

    def test_linear_bundle_persists_connectives(self, ws, tmp_path):
        bundle, valid = cli.train_linear_baseline(
            ws["dump"], ws["train"], cli.load_config(ws["config"]), "logistic"
        )
        assert valid is None
        path = tmp_path / "lr.json"
        bundle.save(path)
        loaded = cli.LinearBundle.load(path)
        assert loaded.connectives == bundle.connectives
        assert loaded.connectives  # the default lexicon travels with the model

    def test_codeclass_corpus_reads_code_like_instances(self, ws, tmp_path, monkeypatch):
        """A snippet the normalizer yields nothing for is word/punct split in
        the CodeClass corpus, as in the instances CodeClass predicts on."""
        html = "<p>Do it</p><pre><code>'''unterminated docstring\nstill inside</code></pre>"
        demo = "<p>run</p><pre><code>f(1)</code></pre><p>output:</p><pre><code>1</code></pre>"
        dump = tmp_path / "dump.jsonl"
        extra = [dump_record(600, "How to a", ["python"], html), dump_record(601, "How to b", ["python"], demo)]
        dump.write_text(ws["dump"].read_text() + "".join(json.dumps(r) + "\n" for r in extra))
        corpus = []
        train = baselines.train_codeclass
        monkeypatch.setattr(baselines, "train_codeclass", lambda c, **kw: train(corpus.extend(c) or c, **kw))
        bundle, _ = cli.train_linear_baseline(dump, ws["train"], cli.load_config(ws["config"]), "logistic")
        assert bundle.codeclass is not None
        seq = tokenize_sequence(parse_answer_post(html, 600), Tokenizer())
        expected = seq.code_blocks()[0].tokens
        assert len(expected) == 5
        assert expected in [stream.tokens for stream, label in corpus if label == 1]

    def test_linear_bundle_does_not_alias_default_connectives(self, ws):
        from qcmine.baselines import default_connectives

        before = [list(p) for p in default_connectives()]
        bundle, _ = cli.train_linear_baseline(
            ws["dump"], ws["train"], cli.load_config(ws["config"]), "logistic"
        )
        bundle.connectives.append(["frob"])
        bundle.connectives[0].append("frob")
        assert default_connectives() == before

    @pytest.mark.parametrize("kind", ["neural", "linear"])
    def test_eval_parses_the_checkpoint_once(self, ws, tmp_path, monkeypatch, kind):
        config = cli.load_config(ws["config"])
        checkpoint = ws["biv_hnn"]
        if kind == "linear":
            checkpoint = tmp_path / "lr.json"
            cli.train_linear_baseline(ws["dump"], ws["train"], config, "logistic", checkpoint)
        parses = []
        parse = models.parse_model_file

        def counting(path):
            parses.append(str(path))
            return parse(path)

        # the one reader of model files, under each name eval can reach it by
        for module in (models, baselines):
            monkeypatch.setattr(module, "parse_model_file", counting)
        report = cli.evaluate_checkpoint(ws["dump"], ws["valid"], checkpoint, config)
        assert parses.count(str(checkpoint)) == 1
        assert report["instances"] == 8

    def test_linear_baseline_round_trip(self, ws, capsys):
        out = ws["root"] / "lr.json"
        cli.main(
            [
                "train", "--dump", str(ws["dump"]), "--train-labels", str(ws["train"]),
                "--valid-labels", str(ws["valid"]), "--variant", "lr",
                "--out", str(out), "--config", str(ws["config"]),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["valid_metrics"]["accuracy"] == 1.0
        cli.main(
            [
                "eval", "--dump", str(ws["dump"]), "--labels", str(ws["valid"]),
                "--checkpoint", str(out), "--config", str(ws["config"]),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["model"]["accuracy"] == 1.0

    def test_ensemble_eval(self, ws, capsys):
        cli.main(
            [
                "ensemble-eval", "--dump", str(ws["dump"]), "--labels", str(ws["valid"]),
                "--biv", str(ws["biv_hnn"]), "--text", str(ws["text_hnn"]),
                "--code", str(ws["code_hnn"]), "--config", str(ws["config"]),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["instances"] == 8
        assert report["coverage"] + report["abstained"] / 8 == pytest.approx(1.0)
        if report["coverage"]:
            assert report["decided_metrics"]["accuracy"] >= 0.5


@pytest.fixture(scope="module")
def mined(ws):
    out = ws["root"] / "pairs.jsonl"
    report = cli.mine(
        ws["dump"], ws["biv_hnn"], ws["text_hnn"], ws["code_hnn"],
        ws["filter"], out, cli.load_config(ws["config"]),
    )
    return out, report


class TestMine:
    def test_report_counts(self, ws, mined):
        out, report = mined
        assert report["records"] == 30
        assert report["parse_errors"] == 2
        assert report["domain_skipped"] == 1
        assert report["no_code"] == 1
        assert report["non_howto"] == 8
        assert report["single_code_pairs"] == 4
        blocks_considered = (
            report["ensemble_pairs"] + report["ensemble_rejections"] + report["abstentions"]
        )
        assert blocks_considered == 14 * 2

    def test_no_pair_from_filtered_question(self, ws, mined):
        out, _ = mined
        pairs = [cli.MinedPair.from_json(l) for l in out.read_text().splitlines()]
        assert all(not 300 <= p.question_id < 400 for p in pairs)

    def test_single_code_provenance(self, ws, mined):
        out, _ = mined
        pairs = [cli.MinedPair.from_json(l) for l in out.read_text().splitlines()]
        singles = [p for p in pairs if p.provenance is cli.Provenance.SINGLE_CODE]
        assert {p.question_id for p in singles} == {200, 201, 202, 203}
        assert all(p.position == 1 and p.score is None for p in singles)

    def test_ensemble_pairs_replay_unanimously(self, ws, mined):
        out, _ = mined
        biv = load_model(ws["biv_hnn"])
        text = load_model(ws["text_hnn"])
        code = load_model(ws["code_hnn"])
        dump_records = {}
        for rec, err in cli.read_dump(ws["dump"]):
            if not err:
                dump_records[rec["question_id"]] = rec
        pairs = [cli.MinedPair.from_json(l) for l in out.read_text().splitlines()]
        mined_pairs = [p for p in pairs if p.provenance is cli.Provenance.ENSEMBLE_MINED]
        assert mined_pairs, "expected some ensemble-mined pairs"
        for pair in mined_pairs:
            rec = dump_records[pair.question_id]
            seq = parse_answer_post(rec["accepted_answer_html"], pair.question_id)
            tokenize_sequence(seq, Tokenizer())
            insts = extract_instances(rec["title"], seq, None, Tokenizer())
            inst = insts[pair.position - 1]
            votes = [predict_label(m, inst)[0] for m in (biv, text, code)]
            assert votes == [1, 1, 1]

    def test_abstentions_sidecar_well_formed(self, ws, mined):
        out, report = mined
        sidecar = out.parent / (out.name + ".abstentions.jsonl")
        rows = [json.loads(l) for l in sidecar.read_text().splitlines()]
        assert len(rows) == report["abstentions"]
        for row in rows:
            assert len(set(row["votes"])) > 1

    def test_mining_idempotent(self, ws, mined, capsys):
        out, _ = mined
        out2 = ws["root"] / "pairs2.jsonl"
        cli.main(
            [
                "mine", "--dump", str(ws["dump"]), "--biv", str(ws["biv_hnn"]),
                "--text", str(ws["text_hnn"]), "--code", str(ws["code_hnn"]),
                "--filter-model", str(ws["filter"]), "--out", str(out2),
                "--config", str(ws["config"]),
            ]
        )
        capsys.readouterr()
        assert out.read_bytes() == out2.read_bytes()

    def test_ensemble_instances_carry_their_context(self, ws, tmp_path, monkeypatch):
        """Answers are read without their prose, so an answer bound for the
        ensemble must be parsed again with it: each instance keeps the
        tokens of the text before and after its code block."""
        fed, ensemble_batch = [], train_eval.ensemble_batch

        def spy(biv, text, code, instances):
            fed.extend(instances)
            return ensemble_batch(biv, text, code, instances)

        monkeypatch.setattr(train_eval, "ensemble_batch", spy)
        cli.mine(
            ws["dump"], ws["biv_hnn"], ws["text_hnn"], ws["code_hnn"],
            ws["filter"], tmp_path / "pairs.jsonl", cli.load_config(ws["config"]),
        )
        seq = tokenize_sequence(parse_answer_post(SOLUTION_HTML), Tokenizer())
        want = [(i.pre_tokens, i.code_tokens, i.post_tokens) for i in extract_instances("t", seq)]
        assert want[0][0] == ["you", "can", "try", "this", "approach"]
        assert want[1][2] == ["works", "fine"]
        assert [(i.pre_tokens, i.code_tokens, i.post_tokens) for i in fed] == want * 14

    def test_wrong_variant_checkpoint_rejected(self, ws):
        with pytest.raises(CheckpointMismatch):
            cli.mine(
                ws["dump"], ws["text_hnn"], ws["text_hnn"], ws["code_hnn"],
                ws["filter"], ws["root"] / "nope.jsonl", cli.load_config(ws["config"]),
            )


@pytest.fixture(scope="module")
def sql_ws(tmp_path_factory):
    return trained_workspace(tmp_path_factory.mktemp("sql_pipeline"), "sql")


class TestSqlPipeline:
    """The paper's second domain through filter-train, train and mine."""

    def mine(self, sql_ws, name):
        out = sql_ws["root"] / name
        report = cli.mine(
            sql_ws["dump"], sql_ws["biv_hnn"], sql_ws["text_hnn"], sql_ws["code_hnn"],
            sql_ws["filter"], out, cli.load_config(sql_ws["config"]),
        )
        return out, report

    def test_mine_report(self, sql_ws):
        _, report = self.mine(sql_ws, "pairs.jsonl")
        assert report["domain_skipped"] == 1  # the python-tagged record
        assert report["records"] == 30 and report["parse_errors"] == 2
        assert report["no_code"] == 1 and report["single_code_pairs"] == 4
        assert report["non_howto"] == 8
        decided = report["ensemble_pairs"] + report["ensemble_rejections"] + report["abstentions"]
        assert decided == 14 * 2

    def test_voters_record_sql_tokens(self, sql_ws):
        sql = cli.load_config(sql_ws["config"]).tokenizer
        for variant in ("biv_hnn", "text_hnn", "code_hnn"):
            model = load_model(sql_ws[variant], sql)
            assert model.preprocessing == sql.fingerprint()
            assert {"select", "from", "where", "tab0", "col0"} <= set(model.code_vocab.token_to_id)

    def test_rerun_is_byte_identical(self, sql_ws):
        first, report = self.mine(sql_ws, "first.jsonl")
        again, report_again = self.mine(sql_ws, "again.jsonl")
        assert report_again == report
        for suffix in ("", ".abstentions.jsonl"):
            assert Path(f"{again}{suffix}").read_bytes() == Path(f"{first}{suffix}").read_bytes()
        singles = [cli.MinedPair.from_json(line) for line in first.read_text().splitlines()]
        assert "UPDATE items SET price = price + 1" in {p.code for p in singles}

    def commands(self, sql_ws, out):
        """train lr, eval, ensemble-eval, mine, merge and stats, writing
        their files under ``out``."""
        dump, config = str(sql_ws["dump"]), ["--config", str(sql_ws["config"])]
        labels = ["--dump", dump, "--labels", str(sql_ws["valid"])]
        voters = ["--biv", str(sql_ws["biv_hnn"]), "--text", str(sql_ws["text_hnn"]),
                  "--code", str(sql_ws["code_hnn"])]
        return {
            "train": ["train", "--dump", dump, "--train-labels", str(sql_ws["train"]),
                      "--valid-labels", str(sql_ws["valid"]), "--variant", "lr",
                      "--out", str(out / "lr.json"), *config],
            "eval lr": ["eval", *labels, "--checkpoint", str(out / "lr.json"), *config],
            "eval": ["eval", *labels, "--checkpoint", str(sql_ws["biv_hnn"]), *config],
            "ensemble-eval": ["ensemble-eval", *labels, *voters, *config],
            "mine": ["mine", "--dump", dump, *voters, "--filter-model", str(sql_ws["filter"]),
                     "--out", str(out / "pairs.jsonl"), *config],
            "merge": ["merge", "--mined", str(out / "pairs.jsonl"), "--annotated",
                      str(sql_ws["train"]), "--dump", dump, "--out", str(out / "merged.jsonl")],
            "stats": ["stats", "--dataset", str(out / "merged.jsonl"), *config],
        }

    def run_commands(self, sql_ws, out, capsys):
        out.mkdir()
        reports = {}
        for name, argv in self.commands(sql_ws, out).items():
            cli.main(argv)
            reports[name] = capsys.readouterr().out
        return reports

    def test_every_command_reruns_byte_identical(self, sql_ws, capsys):
        first = self.run_commands(sql_ws, sql_ws["root"] / "run1", capsys)
        again = self.run_commands(sql_ws, sql_ws["root"] / "run2", capsys)
        assert again == first
        files = sorted(p.name for p in (sql_ws["root"] / "run1").iterdir())
        assert files == ["lr.json", "merged.jsonl", "pairs.jsonl", "pairs.jsonl.abstentions.jsonl"]
        for name in files:
            assert (sql_ws["root"] / "run2" / name).read_bytes() == (
                sql_ws["root"] / "run1" / name).read_bytes(), name

        reports = {name: json.loads(text) for name, text in first.items()}
        assert reports["eval lr"]["instances"] == reports["eval"]["instances"] == 8
        assert reports["ensemble-eval"]["instances"] == 8
        assert reports["mine"]["domain_skipped"] == 1  # the python-tagged record
        merge = reports["merge"]
        assert merge["total"] == merge["mined_kept"] + merge["annotated_added"]
        assert reports["stats"]["pairs"] == merge["total"]
        assert reports["stats"]["provenance_sum_matches_total"]


class TestCrossProcess:
    """Reruns in one process share its string hashes and its BLAS thread
    count, so an output that follows set or dict-of-str hash order, or a
    sum that BLAS splits across its threads, cannot differ there. These run
    each command in processes with other hash seeds or BLAS thread counts,
    set only in the child's environment."""

    def run(self, ws, out, **env):
        out.mkdir()
        dump, config = str(ws["dump"]), ["--config", str(ws["config"])]
        voters = ["--biv", str(ws["biv_hnn"]), "--text", str(ws["text_hnn"]),
                  "--code", str(ws["code_hnn"])]
        argvs = [
            ["mine", "--dump", dump, *voters, "--filter-model", str(ws["filter"]),
             "--out", str(out / "pairs.jsonl"), *config],
            ["filter", "--dump", dump, "--model", str(ws["filter"]),
             "--out", str(out / "labels.jsonl"), *config],
            ["ensemble-eval", "--dump", dump, "--labels", str(ws["valid"]), *voters, *config],
            ["eval", "--dump", dump, "--labels", str(ws["valid"]), "--checkpoint",
             str(ws["biv_hnn"]), *config],
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, **env,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        reports = [
            subprocess.run([sys.executable, "-m", "qcmine.cli", *argv], env=env, check=True,
                           capture_output=True, text=True).stdout
            for argv in argvs
        ]
        return reports, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_mine_and_filter_byte_identical_across_hash_seeds(self, ws, tmp_path):
        reports, files = self.run(ws, tmp_path / "seed0", PYTHONHASHSEED="0")
        assert (reports, files) == self.run(ws, tmp_path / "seed1", PYTHONHASHSEED="1")
        assert sorted(files) == ["labels.jsonl", "pairs.jsonl", "pairs.jsonl.abstentions.jsonl"]
        assert files["pairs.jsonl"] and files["labels.jsonl"]
        assert json.loads(reports[2])["instances"] == 8

    def test_inference_byte_identical_across_blas_thread_counts(self, ws, tmp_path):
        if nn_core._usable_cpus() < 2:
            pytest.skip("one usable CPU: OpenBLAS runs one thread under either count")
        # the child's count does follow the variable, where it can be read
        probe = "from qcmine.nn_core import blas_thread_control as c; print(c() and c()[0]())"
        src = str(Path(cli.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            read = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                  capture_output=True, text=True).stdout.strip()
            assert read in (threads, "None")
        one = self.run(ws, tmp_path / "one", OPENBLAS_NUM_THREADS="1")
        assert one == self.run(ws, tmp_path / "two", OPENBLAS_NUM_THREADS="2")

    def test_training_byte_identical_across_blas_thread_counts(self, tmp_path):
        """``train`` holds BLAS to one thread, so its checkpoint is the same
        under any thread count; on the wide workspace it differed between 1
        and 2 threads before. Where qcmine cannot hold the count, the
        README promises identity per thread count only."""
        if blas_thread_control() is None:
            pytest.skip("numpy links no OpenBLAS whose thread count qcmine can hold")
        ws = helpers.build_wide_workspace(tmp_path)
        src = str(Path(cli.__file__).resolve().parents[1])
        checkpoints = []
        for threads, hash_seed in (("1", "0"), ("2", "1")):
            out = tmp_path / f"threads{threads}.json"
            argv = ["train", "--dump", str(ws["dump"]), "--train-labels", str(ws["train"]),
                    "--valid-labels", str(ws["valid"]), "--variant", "biv_hnn",
                    "--out", str(out), "--config", str(ws["config"])]
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "qcmine.cli", *argv], env=env, check=True,
                           capture_output=True, text=True)
            checkpoints.append(out.read_bytes())
        assert checkpoints[0] == checkpoints[1]


class TestThreadedEnsemble:
    @pytest.mark.parametrize("workspace", ["ws", "sql_ws"])
    def test_matches_voters_in_turn(self, workspace, request):
        paths = request.getfixturevalue(workspace)
        tokenizer = cli.load_config(paths["config"]).tokenizer
        voters = cli._load_ensemble(paths["biv_hnn"], paths["text_hnn"], paths["code_hnn"], tokenizer)
        labels = [cli.read_annotation_csv(paths[split]) for split in ("train", "valid")]
        train, valid = cli.load_labeled_instances(paths["dump"], labels, tokenizer)
        helpers.assert_ensemble_matches_voters_in_turn(voters, train + valid)


PAIRS = st.builds(
    cli.MinedPair,
    st.integers(),
    st.text(),
    st.text(st.characters(max_codepoint=0x9f)) | st.text(),
    st.integers(1, 9),
    st.sampled_from(cli.Provenance),
    st.none() | st.integers() | st.floats(),
)


@given(PAIRS)
@settings(max_examples=300, deadline=None)
def test_pair_line_is_json_dumps(pair):
    # the writer reuses one encoder; its lines must be json.dumps's
    expected = json.dumps({**vars(pair), "provenance": pair.provenance.value},
                          sort_keys=True, ensure_ascii=False)
    assert pair.to_json() == expected


def tape_ensemble_batch(biv, text, code, instances):
    """The ensemble computed one instance at a time on the per-timestep
    reference graph."""
    decisions = []
    for inst in instances:
        scores = tuple(
            float(softmax(helpers.forward_graph(m, inst)[0].value)[1]) for m in (biv, text, code)
        )
        votes = tuple(1 if s >= 0.5 else 0 for s in scores)
        decisions.append(
            train_eval.EnsembleDecision(train_eval.combine_votes(votes), votes, scores)
        )
    return decisions


def chunk_dump(path, seed=0):
    """Multi-code how-to answers with more blocks than two chunks of 64,
    interleaved with single-code, non-how-to, off-domain and malformed
    records."""
    rng = random.Random(seed)
    texts = ["You can try this approach", "The output is", "works fine", "frob it", ""]
    codes = ["print(alpha)\nbeta = compute(1)", "&gt;&gt;&gt; run(2)\n42", "x = frob(y)"]
    lines = []
    for i in range(100):
        html = "".join(
            f"<p>{rng.choice(texts)}</p><pre><code>{rng.choice(codes)}</code></pre>"
            for _ in range(rng.randint(2, 4))
        ) + f"<p>{rng.choice(texts)}</p>"
        lines.append(json.dumps(dump_record(1000 + i, f"How to frob the {i} widget", ["python"], html)))
        kind = i % 5
        if kind == 0:
            lines.append(json.dumps(dump_record(2000 + i, f"How to unfrob {i}", ["python"], SINGLE_HTML)))
        elif kind == 1:
            lines.append(json.dumps(dump_record(3000 + i, f"Why does {i} explode", ["python"], SOLUTION_HTML)))
        elif kind == 2:
            lines.append(json.dumps(dump_record(4000 + i, "How to join", ["sql"], SOLUTION_HTML)))
        elif kind == 3:
            lines.append("{broken")
    path.write_text("\n".join(lines) + "\n")


class TestChunkedMining:
    def test_matches_per_instance_tape(self, ws, tmp_path, monkeypatch):
        dump = tmp_path / "dump.jsonl"
        chunk_dump(dump)
        args = (dump, ws["biv_hnn"], ws["text_hnn"], ws["code_hnn"], ws["filter"])
        config = cli.load_config(ws["config"])
        flushes = []  # instances per batched ensemble call
        batch = train_eval.ensemble_batch

        def counting(biv, text, code, instances):
            if instances:
                flushes.append(len(instances))
            return batch(biv, text, code, instances)

        # several flushes at a small chunk, then the default chunk, one flush
        reports = {}
        for name, chunk in (("small", 64), ("default", train_eval.INFERENCE_CHUNK)):
            flushes.clear()
            with monkeypatch.context() as m:
                m.setattr(train_eval, "INFERENCE_CHUNK", chunk)
                m.setattr(train_eval, "ensemble_batch", counting)
                report = cli.mine(*args, tmp_path / f"{name}.jsonl", config)
                decided = (
                    report["ensemble_pairs"] + report["ensemble_rejections"] + report["abstentions"]
                )
                if name == "small":
                    assert decided > 2 * train_eval.INFERENCE_CHUNK
                    assert len(flushes) >= 4
                else:
                    assert flushes == [decided]
            reports[name] = report

        # reference: every answer decided on its own, on the tape, in dump order
        monkeypatch.setattr(train_eval, "INFERENCE_CHUNK", 1)
        monkeypatch.setattr(train_eval, "ensemble_batch", tape_ensemble_batch)
        reference = cli.mine(*args, tmp_path / "tape.jsonl", config)
        assert reference["ensemble_pairs"] and reference["abstentions"]
        assert reference["single_code_pairs"]

        for name, report in reports.items():
            assert report == reference
            for suffix, key in (("", "score"), (".abstentions.jsonl", "scores")):
                got = (tmp_path / f"{name}.jsonl{suffix}").read_text().splitlines()
                want = (tmp_path / f"tape.jsonl{suffix}").read_text().splitlines()
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    g, w = json.loads(g), json.loads(w)
                    g_scores, w_scores = g.pop(key), w.pop(key)
                    if key == "score":
                        g_scores, w_scores = [g_scores], [w_scores]
                    assert g == w
                    assert [a is None for a in g_scores] == [b is None for b in w_scores]
                    assert all(
                        a is None or abs(a - b) <= 1e-12 for a, b in zip(g_scores, w_scores)
                    )

    def test_ensemble_asked_only_with_instances(self, ws, tmp_path, monkeypatch):
        """A dump without multi-code answers makes no ensemble call, and at a
        chunk of 64 each call holds the instances of consecutive multi-code
        answers, in dump order, up to the first answer that fills the chunk."""
        calls = []  # instances per ensemble call
        batch = train_eval.ensemble_batch

        def recording(biv, text, code, instances):
            calls.append(len(instances))
            return batch(biv, text, code, instances)

        monkeypatch.setattr(train_eval, "ensemble_batch", recording)
        args = (ws["biv_hnn"], ws["text_hnn"], ws["code_hnn"], ws["filter"])
        config = cli.load_config(ws["config"])

        single = tmp_path / "single.jsonl"
        single.write_text("".join(
            json.dumps(dump_record(2000 + i, f"How to unfrob {i}", ["python"], SINGLE_HTML)) + "\n"
            for i in range(5)
        ))
        report = cli.mine(single, *args, tmp_path / "single_pairs.jsonl", config)
        assert report["single_code_pairs"] == 5
        assert calls == []

        dump = tmp_path / "dump.jsonl"
        chunk_dump(dump)
        monkeypatch.setattr(train_eval, "INFERENCE_CHUNK", 64)
        report = cli.mine(dump, *args, tmp_path / "pairs.jsonl", config)
        # the multi-code answers are questions 1000-1099, one instance per block
        counts = []
        for line in dump.read_text().splitlines():
            if line.startswith("{") and line.endswith("}"):
                record = json.loads(line)
                if record["question_id"] < 2000:
                    counts.append(record["accepted_answer_html"].count("<pre>"))
        want, held = [], 0
        for n in counts:
            held += n
            if held >= 64:
                want.append(held)
                held = 0
        want += [held] if held else []
        assert calls == want
        assert sum(calls) == (
            report["ensemble_pairs"] + report["ensemble_rejections"] + report["abstentions"]
        )


class TestTrainReport:
    def test_neural_train_reports_every_epoch(self, ws, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"d_embed": 4, "d_token_gru": 3, "d_block": 3},
            "train": {"lr": 0.05, "batch_size": 8, "max_epochs": 3, "patience": 10},
        }))
        cli.main(["train", "--dump", str(ws["dump"]), "--train-labels", str(ws["train"]),
                  "--valid-labels", str(ws["valid"]), "--variant", "biv_hnn",
                  "--out", str(tmp_path / "biv.json"), "--config", str(config)])
        report = json.loads(capsys.readouterr().out)
        history = report["history"]
        assert [h["epoch"] for h in history] == [1, 2, 3] and report["epochs"] == 3
        for h in history:
            assert set(h) == {"epoch", "train_loss", "precision", "recall", "f1", "seconds"}
            assert h["train_loss"] > 0 and h["seconds"] > 0
        best = history[report["best_epoch"] - 1]
        assert best["f1"] == report["best_valid"]["f1"] == max(h["f1"] for h in history)


class TestReadsDumpOnce:
    def test_each_command_reads_the_dump_once(self, ws, tmp_path, monkeypatch):
        reads = []
        read_dump = cli.read_dump

        def counting(path, *args, **kwargs):
            reads.append(path)
            return read_dump(path, *args, **kwargs)

        monkeypatch.setattr(cli, "read_dump", counting)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"d_embed": 4, "d_token_gru": 3, "d_block": 3},
            "train": {"batch_size": 8, "max_epochs": 1},
        }))
        dump, out = str(ws["dump"]), str(tmp_path / "out.jsonl")
        voters = ["--biv", str(ws["biv_hnn"]), "--text", str(ws["text_hnn"]), "--code", str(ws["code_hnn"])]
        commands = {
            "parse": ["parse", "--dump", dump, "--out", out],
            "filter": ["filter", "--dump", dump, "--model", str(ws["filter"]), "--out", out],
            "filter-train": [
                "filter-train", "--dump", dump, "--labels", str(ws["qlabels"]),
                "--out", str(tmp_path / "filter.json"),
            ],
            "eval": ["eval", "--dump", dump, "--labels", str(ws["valid"]),
                     "--checkpoint", str(ws["biv_hnn"])],
            "ensemble-eval": ["ensemble-eval", "--dump", dump, "--labels", str(ws["valid"]), *voters],
            "mine": ["mine", "--dump", dump, *voters, "--filter-model", str(ws["filter"]), "--out", out],
            "merge": ["merge", "--mined", out, "--annotated", str(ws["train"]), "--dump", dump,
                      "--out", str(tmp_path / "merged.jsonl")],
            "train": ["train", "--dump", dump, "--train-labels", str(ws["train"]),
                      "--valid-labels", str(ws["valid"]), "--variant", "biv_hnn",
                      "--out", str(tmp_path / "biv.json"), "--config", str(config)],
        }
        for name, argv in commands.items():
            reads.clear()
            cli.main(argv)
            assert reads == [dump], name
        # the linear baseline's CodeClass harvest shares the labeled-instance pass
        reads.clear()
        cli.main(["train", "--dump", dump, "--train-labels", str(ws["train"]),
                  "--valid-labels", str(ws["valid"]), "--variant", "lr",
                  "--out", str(tmp_path / "lr.json"), "--config", str(config)])
        assert reads == [dump]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()  # floats include NaN and Infinity
    | st.text(st.characters() | st.characters(categories=["Cs"]), max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
GOOD_FIELDS = {
    "question_id": st.integers(1, 50) | st.just("7"),
    "title": st.sampled_from(["How to frob the widget", "Why does it explode"]),
    "tags": st.sampled_from([["python"], ["sql"]]),
    "question_body_html": st.just("<p>context</p>"),
    "accepted_answer_html": st.sampled_from([SOLUTION_HTML, SINGLE_HTML, "<p>no code</p>"]),
}


@st.composite
def dump_lines(draw):
    """A dump line: mostly records whose fields are well formed, arbitrary
    JSON values or missing; also other JSON values and text that is not JSON."""
    kind = draw(st.sampled_from(["record", "record", "record", "value", "text"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    if kind == "text":
        return "{" + draw(st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\r\n")))
    record = {}
    for name, good in GOOD_FIELDS.items():
        field = draw(st.sampled_from(["good"] * 5 + ["any", "missing"]))
        if field != "missing":
            record[name] = draw(good if field == "good" else JSON_VALUES)
    return json.dumps(record)


# An integer literal longer than int() converts, a limit Python has had
# since 3.10.7, as the id and in an extra field. json.dumps cannot write
# one, so the lines are raw text.
HUGE_INT_LINES = [
    f'{{"question_id": {"9" * 5000}, "title": "How to frob", "tags": ["python"], '
    f'"accepted_answer_html": {json.dumps(SINGLE_HTML)}}}',
    f'{{"question_id": 7, "title": "How to frob", "tags": ["python"], '
    f'"accepted_answer_html": {json.dumps(SINGLE_HTML)}, "score": {"9" * 5000}}}',
]


class TestFuzzedDump:
    @settings(max_examples=50, deadline=None)
    @given(lines=st.lists(dump_lines(), min_size=1, max_size=12))
    @example(lines=HUGE_INT_LINES)
    def test_commands_finish_and_count_every_line(self, ws, lines):
        dump = ws["root"] / "fuzz_dump.jsonl"
        dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = str(ws["root"] / "fuzz_out.jsonl")
        voters = ["--biv", str(ws["biv_hnn"]), "--text", str(ws["text_hnn"]), "--code", str(ws["code_hnn"])]

        def run(*argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main([*argv, "--dump", str(dump), "--out", out])
            return json.loads(buf.getvalue())

        parsed = run("parse")
        assert parsed["parsed"] + parsed["skipped"] == len(lines)
        classified = run("filter", "--model", str(ws["filter"]))
        assert classified["classified"] + classified["skipped"] == len(lines)
        mined = run("mine", *voters, "--filter-model", str(ws["filter"]), "--config", str(ws["config"]))
        assert mined["records"] == len(lines)


# Raw JSON spellings for the soundness property of cli._other_id: keys that
# are, or only look like, question_id, the values they may hold, and other
# members that spell "question_id" inside a key, a value or a nested object.
ID_KEYS = ['"question_id"'] * 6 + [
    r'"\u0071uestion_id"', r'"question\u005fid"', r'"question\u005Fid"',
    r'"questio\u006E_i\u0064"', r'"x\"question_id"', r'"\\u0071uestion_id"',
    r'"\u0022question_id"', r'"question_id\u0020"',
]
ID_VALUES = ["7", "8", "-7", "0", "-0"] * 3 + [
    "007", "1" * 5000, '"7"', '" 8 "', "7.0", "7e0", "-0.0",
    "true", "false", "null", '{"question_id": 8}', "[7]",
]
OTHER_MEMBERS = [
    '"title": "How to frob"', '"title": "question_id"', r'"title": "\"question_id\": 8, "',
    r'"title": "\\u0071"', '"tags": ["python"]', '"tags": ["question_id"]',
    f'"accepted_answer_html": {json.dumps(SOLUTION_HTML)}', '"meta": {"question_id": 7}',
    '"question_body_html": "<p>\\"question_id\\": 8}</p>"', '"nested": [{"question_id": 0}]',
    r'"title": "\u003cb\u003e \u0026 \u0041\u0022"', r'"title": "\u0022question_id\u0022: 8"',
    r'"title": "\u0071uestion\u005Fid"',
]
INLINE_SPACE = ["", "", " ", "\t", " \t "]
LINE_BREAKS = ["\n", "\r", "\r\n"]  # JSON whitespace that ends a dump line


@st.composite
def id_lines(draw):
    """A dump line spelling its members in raw JSON: mostly a record with
    the required fields and zero to two id members, in any order, with JSON
    whitespace around each token, in one line out of five line breaks too."""
    members = [
        f"{draw(st.sampled_from(ID_KEYS))}{{ws}}:{{ws}}{draw(st.sampled_from(ID_VALUES))}"
        for _ in range(draw(st.sampled_from([0, 1, 1, 2, 2])))
    ]
    members += [m for m in OTHER_MEMBERS[:1] + OTHER_MEMBERS[4:5] + OTHER_MEMBERS[6:7]
                if draw(st.integers(0, 9))]
    members += draw(st.lists(st.sampled_from(OTHER_MEMBERS), max_size=2))
    members = draw(st.permutations(members))
    text = "{ws}{{ws}" + "{ws},{ws}".join(members) + "{ws}}{ws}"
    space = st.sampled_from(INLINE_SPACE + (LINE_BREAKS if draw(st.integers(0, 4)) == 0 else []))
    parts = text.split("{ws}")
    return "".join(p + draw(space) for p in parts[:-1]) + parts[-1] + "\n"


@pytest.fixture(scope="module")
def html_safe_dump(ws):
    """The workspace dump as an HTML-safe JSON writer spells it: every <, >
    and & in its strings written as a \\u00XX escape."""
    path = ws["root"] / "html_safe_dump.jsonl"
    text = ws["dump"].read_text()
    for char in "<>&":
        text = text.replace(char, f"\\u{ord(char):04x}")
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def unplain_dump(ws):
    """The workspace dump with every id a string or next to a \\u0071
    escape (a q), so that the raw-line test rules out none of its lines, and
    the lines of integer literals int() refuses."""
    path = ws["root"] / "unplain_dump.jsonl"
    lines = ws["dump"].read_text().splitlines(keepends=True)
    path.write_text("".join(
        re.sub(r'"question_id": (\d+)', r'"question_id": "\1"', line) if i % 2
        else line.replace('"title": "', '"title": "\\u0071')
        for i, line in enumerate(lines)
    ) + "\n".join(HUGE_INT_LINES) + "\n")
    return path


class TestLabeledReads:
    """Given ids, read_dump yields exactly the records of a full read whose
    id is in them, and passes over a line unparsed only when its raw text
    proves its id is not."""

    def read_records(self, path, ids=None):
        return [record for record, err in cli.read_dump(path, ids=ids) if err is None]

    @pytest.mark.parametrize("dump", ["ws", "sql_ws", "bad_dump", "html_safe_dump", "unplain_dump"])
    def test_equals_full_read_filtered_to_ids(self, request, ws, dump):
        path = request.getfixturevalue(dump)
        path = path["dump"] if isinstance(path, dict) else path
        labeled = set(cli.read_annotation_csv(ws["train"])) | set(cli.read_annotation_csv(ws["valid"]))
        full = list(cli.read_dump(path))
        errors = [str(err) for _, err in full if err]
        for ids in (labeled, set(), {100}, {113, 300, 401, 999, 500, 505}, set(range(1000))):
            expected = [r for r, err in full if err is None and r["question_id"] in ids]
            read = list(cli.read_dump(path, ids=ids))
            assert [r for r, err in read if err is None] == expected
            # every error it still yields is the full read's, in order
            seen = iter(errors)
            assert all(str(err) in seen for _, err in read if err)

    def test_html_safe_escapes_leave_lines_ruled_out(self, ws, html_safe_dump):
        labeled = set(cli.read_annotation_csv(ws["train"])) | set(cli.read_annotation_csv(ws["valid"]))
        lines = html_safe_dump.read_text().splitlines(keepends=True)

        def unlabeled(line):
            try:
                return json.loads(line)["question_id"] not in labeled
            except (ValueError, KeyError, TypeError):
                return False

        assert sum("\\u003c" in line for line in lines) > len(lines) // 2
        assert sum(map(unlabeled, lines)) > len(lines) // 4
        assert [line for line in lines if unlabeled(line) and not cli._other_id(line, labeled)] == []

    @pytest.mark.parametrize("dump", ["html_safe_dump", "unplain_dump"])
    def test_filter_train_equals_full_read(self, request, ws, dump, tmp_path, monkeypatch, capsys):
        path = request.getfixturevalue(dump)

        def filter_train(out):
            cli.main(["filter-train", "--dump", str(path), "--labels", str(ws["qlabels"]),
                      "--out", str(out), "--config", str(ws["config"])])
            return capsys.readouterr().out, out.read_bytes()

        ruled_out = filter_train(tmp_path / "ids.json")
        monkeypatch.setattr(cli, "_other_id", lambda line, ids: False)  # every line read in full
        assert filter_train(tmp_path / "full.json") == ruled_out
        assert json.loads(ruled_out[0])["questions"] == 26

    def test_labeled_instances_equal_full_read(self, ws):
        maps = [cli.read_annotation_csv(ws["train"]), cli.read_annotation_csv(ws["valid"])]
        # every_answer makes the pass read every record in full
        full = cli.load_labeled_instances(ws["dump"], maps, Tokenizer(), every_answer=lambda _: None)
        assert cli.load_labeled_instances(ws["dump"], maps, Tokenizer()) == full
        assert [len(instances) for instances in full] == [20, 8]

    @pytest.mark.parametrize("line,ruled_out", [
        ('{"question_id": 8, "title": "t"}', True),
        ('{"title": "t", "question_id" :\t-0 }', True),
        ('{"question_id": 7, "title": "t"}', False),  # in ids
        ('{"question_id": "8", "title": "t"}', False),  # a string id
        ('{"question_id": 8.0, "title": "t"}', False),
        ('{"question_id": 8, "question_id": 7}', False),  # a duplicate key
        ('{"question_id": 8, "t": "\\u0071"}', False),  # an escape that could spell the key
        ('{"question_id": 8, "t": "\\u0041 \\u003c"}', True),  # escapes of other characters
        ('{"question_id": 8, "t": "\\\\u0071"}', False),  # an escaped backslash, then u0071
        ('{"question_id": 8, "t": "\\u00e9"}', True),  # not an ASCII escape
        ('{"question_id": ' + "1" * 5000 + "}", False),  # int() refuses the digits
    ] + [  # a last, escaped key: each of its characters, in both hex cases
        ('{"question_id": 8, ' + '"question_id"'.replace(char, f"\\u{ord(char):{case}}", 1) + ": 7}", False)
        for char in sorted(set("question_id")) for case in ("04x", "04X")
    ])
    def test_rule_examples(self, line, ruled_out):
        assert cli._other_id(line + "\n", {7}) is ruled_out

    @settings(max_examples=400, deadline=None)
    @given(text=id_lines(), ids=st.sets(st.sampled_from([0, 7, 8, -7]), max_size=3))
    def test_ruled_out_line_yields_no_record_in_ids(self, tmp_path_factory, text, ids):
        root = tmp_path_factory.getbasetemp()
        path, one = root / "id_lines.jsonl", root / "id_line.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            lines = list(f)  # as read_dump splits the text, "\r" included
        for line in lines:
            one.write_bytes(line.encode("utf-8"))
            held = {r["question_id"] for r in self.read_records(one)}
            # the drawn ids, and the ids of the records the line holds
            assert not (held & ids and cli._other_id(line, ids)), line
            assert not (held and cli._other_id(line, held)), line


class TestBenchHooks:
    """The benchmark patches these public names; mining and training must
    run unchanged under both its timer and its tracer."""

    def load_bench(self, name="run"):
        bench = Path(__file__).resolve().parents[1] / "bench"
        sys.path.insert(0, str(bench))
        try:
            spec = importlib.util.spec_from_file_location(f"bench_{name}", bench / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.path.remove(str(bench))
        return module

    def test_every_patched_name_exists(self):
        # built, not installed: a renamed or moved name fails here
        run = self.load_bench()
        clock = run.clock_patches(run.hostclock.HostClock("numpy"))
        full = run.full_patches(run.tracing.Recorder())
        assert (len(full), len(clock)) == (26, 11)
        for owner, attr, _make in full + clock:
            assert attr in vars(owner), f"{owner.__name__}.{attr}"

    def test_benchmark_call_shapes_bind(self):
        # the arguments run.py passes: a signature they no longer bind to fails here
        def bind(fn, *args):
            inspect.signature(fn).bind(*args)

        bind(cli.mine, "dump", "biv", "text", "code", "filter", "out")
        bind(cli.train_neural, "dump", "train", "valid", cli.load_config(), "biv_hnn", "out")
        bind(cli.load_config, "config.json")
        bind(load_model, "biv_hnn.json")

    def test_fixture_generator_writes_loadable_artifacts(self, tmp_path):
        # the benchmark's shared voters and filter are written by qcmine
        # itself: a name the generator calls that is gone fails here
        gen = self.load_bench("gen")
        truth = gen.gen_shared(gen.word_pool(), tmp_path)
        for key in ("checkpoints", "small_checkpoints"):
            assert set(truth[key]) == {"biv_hnn", "text_hnn", "code_hnn"}
            for variant, name in truth[key].items():
                assert load_model(tmp_path / name).config.variant.value == variant
        question_filter.QuestionFilterModel.load(tmp_path / truth["filter"])

    def test_mine_under_clock_and_trace_patches(self, ws, tmp_path):
        run = self.load_bench()
        args = (ws["dump"], ws["biv_hnn"], ws["text_hnn"], ws["code_hnn"], ws["filter"])
        config = cli.load_config(ws["config"])
        expected = cli.mine(*args, tmp_path / "plain.jsonl", config)
        rec = run.tracing.Recorder()
        with rec.installed(run.clock_patches(run.hostclock.HostClock("numpy"))):
            assert cli.mine(*args, tmp_path / "clock.jsonl", config) == expected
        with rec.installed(run.full_patches(rec)):
            assert cli.mine(*args, tmp_path / "traced.jsonl", config) == expected
        assert rec.spans
        plain = (tmp_path / "plain.jsonl").read_bytes()
        assert (tmp_path / "clock.jsonl").read_bytes() == plain
        assert (tmp_path / "traced.jsonl").read_bytes() == plain

    def test_train_under_clock_and_trace_patches(self, ws, tmp_path):
        run = self.load_bench()
        args = (ws["dump"], ws["train"], ws["valid"], cli.load_config(ws["config"]), "biv_hnn")

        def train(name):
            _, history = cli.train_neural(*args, tmp_path / name)
            # everything but the epochs' wall times
            return [(h.epoch, h.train_loss, h.valid) for h in history]

        expected = train("plain.json")
        rec = run.tracing.Recorder()
        with rec.installed(run.clock_patches(run.hostclock.HostClock("numpy"))):
            assert train("clock.json") == expected
        with rec.installed(run.full_patches(rec)):
            assert train("traced.json") == expected
        assert {"cli.load_labeled_instances", "post_parser.tokenize_sequence",
                "post_parser.extract_instances", "tokenize.code"} <= {s[0] for s in rec.spans}
        plain = (tmp_path / "plain.json").read_bytes()
        assert (tmp_path / "clock.json").read_bytes() == plain
        assert (tmp_path / "traced.json").read_bytes() == plain


    def test_patched_callables_run_on_the_calling_thread(self, ws, tmp_path, monkeypatch):
        """``spans.Recorder`` keeps one span stack for all threads, so every
        callable the benchmark wraps must run on the calling thread; worker
        threads stay inside the GRU kernel. Two usable CPUs, so training's
        directions and the ensemble's voters do run on a worker where BLAS
        can be held to one thread."""
        run = self.load_bench()
        monkeypatch.setattr(nn_core, "_usable_cpus", lambda: 2)
        seen, kernel_threads = [], set()

        def on_thread(name):
            def make(fn):
                def wrapper(*args, **kwargs):
                    seen.append((name, threading.get_ident()))
                    return fn(*args, **kwargs)
                return wrapper
            return make

        kernel = nn_core._gru_kernel

        def recorded_kernel(*args, **kwargs):
            kernel_threads.add(threading.get_ident())
            return kernel(*args, **kwargs)

        monkeypatch.setattr(nn_core, "_gru_kernel", recorded_kernel)
        patches = run.full_patches(run.tracing.Recorder())
        patches += run.clock_patches(run.hostclock.HostClock("numpy"))
        config = cli.load_config(ws["config"])
        with run.tracing.Recorder().installed([(o, a, on_thread(a)) for o, a, _ in patches]):
            cli.train_neural(ws["dump"], ws["train"], ws["valid"], config, "biv_hnn",
                             tmp_path / "biv_hnn.json")
            cli.mine(ws["dump"], ws["biv_hnn"], ws["text_hnn"], ws["code_hnn"], ws["filter"],
                     tmp_path / "pairs.jsonl", config)
        assert {"train", "mine", "lookup_all", "adam_update"} <= {name for name, _ in seen}
        assert [name for name, ident in seen if ident != threading.get_ident()] == []
        if blas_thread_control() is not None:
            assert len(kernel_threads) >= 2  # the calling thread and a worker


class TestKeepListConfig:
    """The config's keep-list reaches every call given that config, library
    calls included, and no call that is not."""

    @pytest.fixture
    def custom(self, ws, tmp_path):
        keep = tmp_path / "keep.txt"
        keep.write_text("compute\nfoo\n")
        config = json.loads(ws["config"].read_text())
        config["tokenize"] = {"python_keep_list": str(keep)}
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(config))
        return path

    def test_train_neural_keeps_listed_identifier(self, ws, custom):
        args = (ws["dump"], ws["train"], ws["valid"])
        model, _ = cli.train_neural(*args, cli.load_config(custom), "code_hnn")
        assert "compute" in model.code_vocab.token_to_id
        model, _ = cli.train_neural(*args, cli.load_config(ws["config"]), "code_hnn")
        assert "compute" not in model.code_vocab.token_to_id

    def test_main_does_not_leak_keep_list(self, custom, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pair = cli.MinedPair(1, "How to foo", "foo(bar)", 1, cli.Provenance.SINGLE_CODE)
        pairs.write_text(pair.to_json() + "\n")
        cli.main(["stats", "--dataset", str(pairs), "--config", str(custom)])
        assert json.loads(capsys.readouterr().out)["distinct_code_tokens"] == 4  # foo ( VAR )
        assert normalize_python("foo(print)").tokens == ["VAR", "(", "print", ")"]
        assert cli.dataset_stats(pairs)["distinct_code_tokens"] == 3  # VAR ( )
        assert cli.dataset_stats(pairs, cli.load_config(custom).tokenizer) == (
            cli.dataset_stats(pairs, Tokenizer(keep=frozenset({"compute", "foo"})))
        )


def config_with(ws, tmp_path, **changes):
    """The workspace config with its top-level keys ``changes`` replaced."""
    path = tmp_path / "changed_config.json"
    path.write_text(json.dumps({**json.loads(ws["config"].read_text()), **changes}))
    return cli.load_config(path)


def keep_list_config(ws, tmp_path, lines):
    keep = tmp_path / "keep.txt"
    keep.write_text(lines)
    return config_with(ws, tmp_path, tokenize={"python_keep_list": str(keep)})


class TestTokenizerRecord:
    """A neural checkpoint and a linear bundle record how their inputs were
    tokenized, and every command that reads one with a config refuses other
    tokens before it reads the dump."""

    @pytest.fixture(params=["language", "keep", "normalizer"])
    def other(self, request, ws, tmp_path, monkeypatch):
        if request.param == "language":
            return config_with(ws, tmp_path, language="sql")
        if request.param == "keep":
            return keep_list_config(ws, tmp_path, "print\n")
        monkeypatch.setattr(tokenize, "NORMALIZER_VERSION", "qcmine-tokenize-0")
        return cli.load_config(ws["config"])

    def test_refused_before_the_dump_is_read(self, ws, linear, other, monkeypatch):
        def no_read(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "read_dump", no_read)
        voters = (ws["biv_hnn"], ws["text_hnn"], ws["code_hnn"])
        with pytest.raises(CheckpointMismatch, match="trained on tokens"):
            cli.mine(ws["dump"], *voters, ws["filter"], ws["root"] / "nope.jsonl", other)
        with pytest.raises(CheckpointMismatch, match="trained on tokens"):
            cli.ensemble_evaluate(ws["dump"], ws["valid"], *voters, other)
        for checkpoint in (ws["biv_hnn"], linear):
            with pytest.raises(CheckpointMismatch, match="trained on tokens"):
                cli.evaluate_checkpoint(ws["dump"], ws["valid"], checkpoint, other)

    def test_packaged_keep_list_file_matches_default(self, ws, tmp_path):
        config = keep_list_config(ws, tmp_path, "# the packaged list, reordered\n" + "\n".join(
            sorted(default_python_keep_list(), reverse=True)
        ))
        assert config.tokenizer.fingerprint() == Tokenizer().fingerprint()
        report = cli.evaluate_checkpoint(ws["dump"], ws["valid"], ws["biv_hnn"], config)
        assert report["instances"] == 8

    def test_train_records_the_config_tokenizer(self, ws, tmp_path):
        config = keep_list_config(ws, tmp_path, "compute\n")
        out = tmp_path / "code.json"
        cli.train_neural(ws["dump"], ws["train"], ws["valid"], config, "code_hnn", out)
        expected = Tokenizer(keep=frozenset({"compute"})).fingerprint()
        assert load_model(out).preprocessing == expected
        assert load_model(ws["code_hnn"]).preprocessing == Tokenizer().fingerprint()
        cli.train_linear_baseline(ws["dump"], ws["train"], config, "logistic", tmp_path / "lr.json")
        assert cli.LinearBundle.load(tmp_path / "lr.json").preprocessing == expected


class TestNonObjectCheckpoint:
    """A model file whose JSON is not an object is refused with a
    CheckpointMismatch that names the file, by every loader and command."""

    @pytest.fixture(params=["[1, 2]", '"text"', "null"], ids=["list", "string", "null"])
    def bad(self, request, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(request.param)
        return path

    def test_loaders(self, bad):
        for load in (load_model, cli.LinearBundle.load, question_filter.QuestionFilterModel.load):
            with pytest.raises(CheckpointMismatch, match=re.escape(str(bad))):
                load(bad)

    def test_eval_and_mine(self, bad, ws, tmp_path):
        dump, out = str(ws["dump"]), str(tmp_path / "pairs.jsonl")
        models = {"--biv": ws["biv_hnn"], "--text": ws["text_hnn"], "--code": ws["code_hnn"],
                  "--filter-model": ws["filter"]}
        argvs = [["eval", "--dump", dump, "--labels", str(ws["valid"]), "--checkpoint", str(bad)]]
        for flag in models:
            files = {**models, flag: bad}
            argvs.append(["mine", "--dump", dump, "--out", out, *(str(x) for kv in files.items() for x in kv)])
        for argv in argvs:
            with pytest.raises(CheckpointMismatch, match=re.escape(str(bad))):
                cli.main(argv)

    def test_filter_model_missing_key(self, ws, tmp_path):
        obj = json.loads(ws["filter"].read_text())
        del obj["keywords"]
        path = tmp_path / "filter.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointMismatch, match=re.escape(str(path)) + ".*keywords"):
            question_filter.QuestionFilterModel.load(path)


class TestMissingKeyCheckpoint:
    """A model file that is a JSON object but lacks one of its parts, or
    holds a non-object there, is refused with a CheckpointMismatch that
    names the file and the key."""

    @staticmethod
    def edited(src, tmp_path, key, value):
        obj = json.loads(src.read_text())
        if value is None:
            del obj[key]
        else:
            obj[key] = value
        path = tmp_path / f"{src.stem}-{key}.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize(
        "key, value",
        [("config", None), ("word_vocab", None), ("code_vocab", None), ("params", None),
         ("params", [1]), ("word_vocab", ["a"])],
        ids=["config", "word_vocab", "code_vocab", "params", "params_list", "word_vocab_list"],
    )
    def test_neural(self, ws, tmp_path, key, value):
        path = self.edited(ws["biv_hnn"], tmp_path, key, value)
        with pytest.raises(CheckpointMismatch, match=re.escape(str(path)) + ".*" + key):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value", [("linear", None), ("preprocessing", None), ("linear", [1])],
        ids=["linear", "preprocessing", "linear_list"],
    )
    def test_linear(self, linear, tmp_path, key, value):
        path = self.edited(linear, tmp_path, key, value)
        with pytest.raises(CheckpointMismatch, match=re.escape(str(path)) + ".*" + key):
            cli.LinearBundle.load(path)

    @pytest.mark.parametrize("kind", ["neural", "linear"])
    def test_eval(self, ws, linear, tmp_path, kind):
        src, key = (ws["biv_hnn"], "params") if kind == "neural" else (linear, "linear")
        path = self.edited(src, tmp_path, key, None)
        argv = ["eval", "--dump", str(ws["dump"]), "--labels", str(ws["valid"]), "--checkpoint", str(path)]
        with pytest.raises(CheckpointMismatch, match=re.escape(str(path)) + ".*" + key):
            cli.main(argv)

    @pytest.mark.parametrize(
        "kind, part, edit",
        [
            ("neural", "config", lambda obj: obj["config"].pop("variant")),
            ("linear", "linear", lambda obj: obj["linear"].pop("kind")),
            ("linear", "codeclass", lambda obj: obj.update(codeclass=[1])),
            ("linear", "linear", lambda obj: obj["linear"]["features"].pop()),
        ],
        ids=["config_variant", "linear_kind", "codeclass_list", "features_weights_length"],
    )
    def test_part_that_does_not_fit(self, ws, linear, tmp_path, kind, part, edit):
        src, load = (ws["biv_hnn"], load_model) if kind == "neural" else (linear, cli.LinearBundle.load)
        obj = json.loads(src.read_text())
        edit(obj)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointMismatch, match=re.escape(str(path)) + f".*part '{part}'"):
            load(path)

    @pytest.mark.parametrize("kind", ["v1_bundle", "untagged_filter"])
    def test_old_layout_refused(self, ws, linear, tmp_path, kind):
        if kind == "v1_bundle":
            obj, load = json.loads(linear.read_text()), cli.LinearBundle.load
            obj["format"] = "qcmine-linear-v1"
        else:
            obj, load = json.loads(ws["filter"].read_text()), question_filter.QuestionFilterModel.load
            del obj["format"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointMismatch, match=re.escape(str(path)) + ".*retrain"):
            load(path)


class TestLexiconParts:
    """A question filter whose keywords are not a list of non-empty
    lowercase strings or whose linear model cannot score, or a linear
    bundle whose connectives are not a list of token lists, is refused on
    load with a CheckpointMismatch that names the file and the part, so
    neither `mine` nor `eval` runs with it."""

    @staticmethod
    def edited(src, tmp_path, key, value):
        obj = json.loads(src.read_text())
        obj[key] = value
        path = tmp_path / f"{src.stem}-{key}.json"
        path.write_text(json.dumps(obj))
        return path

    # titles are lowercased before matching: "How to" would never fire,
    # and "" would fire on every title
    @pytest.mark.parametrize(
        "keywords", [[1], "how to", [["how"]], None, ["how to", "How to"], ["how to", ""]],
        ids=["int", "string", "nested", "null", "uppercase", "empty"],
    )
    def test_filter_keywords(self, ws, tmp_path, keywords):
        path = self.edited(ws["filter"], tmp_path, "keywords", keywords)
        self.assert_refused(ws, tmp_path, path, "keywords")

    def test_filter_nan_weight(self, ws, tmp_path):
        # a NaN weight would score every question (0, 0.0): non-how-to
        linear = json.loads(ws["filter"].read_text())["linear"]
        linear["weights"][0] = math.nan
        path = self.edited(ws["filter"], tmp_path, "linear", linear)
        self.assert_refused(ws, tmp_path, path, "linear")

    @staticmethod
    def assert_refused(ws, tmp_path, path, part):
        refused = re.escape(str(path)) + f".*part '{part}'"
        with pytest.raises(CheckpointMismatch, match=refused):
            question_filter.QuestionFilterModel.load(path)
        argv = ["mine", "--dump", str(ws["dump"]), "--out", str(tmp_path / "pairs.jsonl"),
                "--biv", str(ws["biv_hnn"]), "--text", str(ws["text_hnn"]),
                "--code", str(ws["code_hnn"]), "--filter-model", str(path)]
        with pytest.raises(CheckpointMismatch, match=refused):
            cli.main(argv)

    @pytest.mark.parametrize(
        "connectives", [["instead"], [[1]], "instead", None],
        ids=["strings", "int_token", "string", "null"],
    )
    def test_bundle_connectives(self, ws, linear, tmp_path, connectives):
        path = self.edited(linear, tmp_path, "connectives", connectives)
        refused = re.escape(str(path)) + ".*part 'connectives'"
        with pytest.raises(CheckpointMismatch, match=refused):
            cli.LinearBundle.load(path)
        argv = ["eval", "--dump", str(ws["dump"]), "--labels", str(ws["valid"]), "--checkpoint", str(path)]
        with pytest.raises(CheckpointMismatch, match=refused):
            cli.main(argv)

    def test_trained_files_load(self, ws, linear):
        keywords = question_filter.QuestionFilterModel.load(ws["filter"]).keywords
        assert keywords and all(isinstance(kw, str) for kw in keywords)
        connectives = cli.LinearBundle.load(linear).connectives
        assert connectives and all(isinstance(tok, str) for phrase in connectives for tok in phrase)


# Bytes no qcmine writer produces (not UTF-8, no final newline), to show
# that an output left as it was is left byte for byte.
SENTINEL = b"\xffsentinel, not qcmine output\r\n\x00"
REAL_ENCODER = models.JSON_ENCODER


class FailingEncoder:
    """Stands in for ``models.JSON_ENCODER``: encodes as it does, and raises
    ``exc`` at the second line (``encode``) or the second chunk of a model
    file (``iterencode``), so the write fails partway."""

    def __init__(self, exc):
        self.exc, self.calls = exc, 0

    def _count(self):
        self.calls += 1
        if self.calls > 1:
            raise self.exc

    def encode(self, obj):
        self._count()
        return REAL_ENCODER.encode(obj)

    def iterencode(self, obj):
        for chunk in REAL_ENCODER.iterencode(obj):
            self._count()
            yield chunk


def current_umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


WRITERS = ["mine", "merge", "parse", "filter", "filter-train", "train", "lr"]


def writer_argv(name, ws, out):
    """The argv of the command ``name`` writing ``out`` on the workspace, and
    the paths of every file it writes."""
    dump, config = ["--dump", str(ws["dump"])], ["--config", str(ws["config"])]
    labels = ["--train-labels", str(ws["train"]), "--valid-labels", str(ws["valid"])]
    argv = {
        "mine": ["mine", *dump, "--biv", str(ws["biv_hnn"]), "--text", str(ws["text_hnn"]),
                 "--code", str(ws["code_hnn"]), "--filter-model", str(ws["filter"]), *config],
        "merge": ["merge", "--mined", str(ws["root"] / "pairs.jsonl"),
                  "--annotated", str(ws["train"]), *dump],
        "parse": ["parse", *dump],
        "filter": ["filter", *dump, "--model", str(ws["filter"]), *config],
        "filter-train": ["filter-train", *dump, "--labels", str(ws["qlabels"]), *config],
        "train": ["train", *dump, *labels, "--variant", "biv_hnn", *config],
        "lr": ["train", *dump, *labels, "--variant", "lr", *config],
    }[name]
    outputs = [out, out.with_name(out.name + ".abstentions.jsonl")] if name == "mine" else [out]
    return [*argv, "--out", str(out)], outputs


class TestWholeOutputs:
    """Every file qcmine writes goes through ``models.open_output``: it
    appears whole or not at all, and a replaced file keeps its mode. CI
    reruns this class under ``umask 077``. ``mined`` writes the pairs file
    that merge reads."""

    @pytest.mark.parametrize("name", WRITERS)
    def test_new_output_gets_default_mode(self, ws, mined, tmp_path, capsys, name):
        argv, outputs = writer_argv(name, ws, tmp_path / "out")
        cli.main(argv)
        assert sorted(tmp_path.iterdir()) == sorted(outputs)
        for out in outputs:
            assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~current_umask()

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
    @pytest.mark.parametrize("name", WRITERS)
    def test_replaced_output_keeps_its_mode(self, ws, mined, tmp_path, capsys, name, mode):
        argv, outputs = writer_argv(name, ws, tmp_path / "out")
        for out in outputs:
            out.write_bytes(SENTINEL)
            out.chmod(mode)
        cli.main(argv)
        assert sorted(tmp_path.iterdir()) == sorted(outputs)
        for out in outputs:
            assert out.read_bytes() != SENTINEL
            assert stat.S_IMODE(out.stat().st_mode) == mode

    @pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()], ids=repr)
    @pytest.mark.parametrize("name", WRITERS)
    def test_failed_write_leaves_outputs_untouched(self, ws, mined, tmp_path, monkeypatch, name, exc):
        argv, outputs = writer_argv(name, ws, tmp_path / "out")
        for out in outputs:
            out.write_bytes(SENTINEL)
        encoder = FailingEncoder(exc)
        monkeypatch.setattr(models, "JSON_ENCODER", encoder)
        with pytest.raises(type(exc)):
            cli.main(argv)
        assert encoder.calls == 2  # one line or chunk went out first
        assert sorted(tmp_path.iterdir()) == sorted(outputs)
        for out in outputs:
            assert out.read_bytes() == SENTINEL

    def test_unreplaceable_output_leaves_no_temporary_file(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(OSError):
            with models.open_output(tmp_path / "out") as f:
                f.write("x")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_uncreatable_output_is_named(self, ws, tmp_path, capsys):
        out = tmp_path / "missing" / "blocks.jsonl"
        with pytest.raises(FileNotFoundError) as info:
            cli.main(["parse", "--dump", str(ws["dump"]), "--out", str(out)])
        assert info.value.filename == str(out)
        assert list(tmp_path.iterdir()) == []

    def test_merge_may_write_over_its_mined_file(self, ws, mined, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_bytes(mined[0].read_bytes())
        annotated = tmp_path / "ann.csv"
        annotated.write_text("question_id,code_position,label\n100,2,1\n")
        cli.main([
            "merge", "--mined", str(pairs), "--annotated", str(annotated),
            "--dump", str(ws["dump"]), "--out", str(pairs),
        ])
        report = json.loads(capsys.readouterr().out)
        assert report == {"mined_kept": 18, "mined_replaced": 0, "annotated_added": 1, "total": 19}
        lines = pairs.read_bytes().splitlines(keepends=True)
        assert b"".join(lines[:18]) == mined[0].read_bytes()
        added = cli.MinedPair.from_json(lines[18])
        assert (added.question_id, added.position, added.provenance) == (
            100, 2, cli.Provenance.ANNOTATED)
        assert sorted(tmp_path.iterdir()) == [annotated, pairs]


class TestMergeAndStats:
    def test_merge_and_stats_consistency(self, ws, capsys):
        out = ws["root"] / "pairs_for_merge.jsonl"
        cli.main(
            [
                "mine", "--dump", str(ws["dump"]), "--biv", str(ws["biv_hnn"]),
                "--text", str(ws["text_hnn"]), "--code", str(ws["code_hnn"]),
                "--filter-model", str(ws["filter"]), "--out", str(out),
                "--config", str(ws["config"]),
            ]
        )
        capsys.readouterr()
        merged = ws["root"] / "merged.jsonl"
        cli.main(
            [
                "merge", "--mined", str(out), "--annotated", str(ws["train"]),
                "--dump", str(ws["dump"]), "--out", str(merged),
            ]
        )
        merge_report = json.loads(capsys.readouterr().out)
        assert merge_report["total"] == merge_report["mined_kept"] + merge_report["annotated_added"]
        # annotated label-1 rows cover 10 posts, one pair each
        assert merge_report["annotated_added"] == 10

        cli.main(["stats", "--dataset", str(merged), "--config", str(ws["config"])])
        stats = json.loads(capsys.readouterr().out)
        assert stats["pairs"] == merge_report["total"]
        assert stats["provenance_sum_matches_total"]
        assert stats["by_provenance"]["annotated"] == 10
        assert stats["by_provenance"]["single_code"] == 4
        assert stats["avg_question_tokens"] > 0

    def test_annotated_wins_on_overlap(self, ws, tmp_path, capsys):
        mined = tmp_path / "mined.jsonl"
        pair = cli.MinedPair(100, "How to frob the 0 widget", "print(alpha)", 1,
                             cli.Provenance.ENSEMBLE_MINED, 0.9)
        mined.write_text(pair.to_json() + "\n")
        annotated = tmp_path / "ann.csv"
        annotated.write_text("question_id,code_position,label\n100,1,1\n")
        merged = tmp_path / "merged.jsonl"
        report = cli.merge_annotated(mined, annotated, ws["dump"], merged)
        assert report == {
            "mined_kept": 0, "mined_replaced": 1, "annotated_added": 1, "total": 1,
        }
        pairs = [cli.MinedPair.from_json(l) for l in merged.read_text().splitlines()]
        assert pairs[0].provenance is cli.Provenance.ANNOTATED

    def test_disjoint_sets_sum(self, ws, tmp_path):
        mined = tmp_path / "mined.jsonl"
        pair = cli.MinedPair(100, "t", "c", 2, cli.Provenance.ENSEMBLE_MINED, 0.8)
        mined.write_text(pair.to_json() + "\n")
        annotated = tmp_path / "ann.csv"
        annotated.write_text("question_id,code_position,label\n101,1,1\n")
        merged = tmp_path / "merged.jsonl"
        report = cli.merge_annotated(mined, annotated, ws["dump"], merged)
        assert report["total"] == 2

    def test_merge_position_mismatch(self, ws, tmp_path):
        mined = tmp_path / "mined.jsonl"
        mined.write_text("")
        annotated = tmp_path / "ann.csv"
        annotated.write_text("question_id,code_position,label\n100,9,1\n")
        with pytest.raises(PositionMismatch):
            cli.merge_annotated(mined, annotated, ws["dump"], tmp_path / "m.jsonl")

    def test_stats_empty_dataset(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        stats = cli.dataset_stats(empty)
        assert stats["pairs"] == 0
        assert stats["avg_question_tokens"] == 0.0

    @pytest.mark.parametrize(
        "bad_line", ['{"question_id": 1}', "{not json", '[1, 2]', '{"question_id": 1, "title": "t", '
         '"code": "c", "position": 1, "provenance": "unknown"}'],
    )
    def test_bad_pairs_line_names_file_and_line(self, ws, tmp_path, bad_line):
        pairs = tmp_path / "pairs.jsonl"
        good = cli.MinedPair(1, "How to sort", "x = sorted(y)", 1, cli.Provenance.SINGLE_CODE)
        pairs.write_text(good.to_json() + "\n\n" + bad_line + "\n")
        with pytest.raises(ValueError, match=rf"pairs\.jsonl:3: not a mined pair"):
            cli.dataset_stats(pairs)
        annotated = tmp_path / "ann.csv"
        annotated.write_text("question_id,code_position,label\n")
        with pytest.raises(ValueError, match=rf"pairs\.jsonl:3: not a mined pair"):
            cli.merge_annotated(pairs, annotated, ws["dump"], tmp_path / "merged.jsonl")

    @pytest.mark.parametrize(
        "key, value",
        [("title", 5), ("code", ["x"]), ("question_id", 1.9), ("question_id", "1"),
         ("position", True), ("score", "hi"), ("score", False), ("score", math.nan),
         ("score", math.inf), ("score", -math.inf),
         pytest.param("score", 10**400, id="score-10**400")],
    )
    def test_wrong_typed_pair_field_names_file_line_and_key(self, ws, tmp_path, key, value):
        pairs = tmp_path / "pairs.jsonl"
        good = cli.MinedPair(1, "How to sort", "x = sorted(y)", 1, cli.Provenance.SINGLE_CODE, 0.5)
        bad = json.dumps({**json.loads(good.to_json()), key: value})
        pairs.write_text(good.to_json() + "\n" + bad + "\n")
        expected = rf"pairs\.jsonl:2: not a mined pair: .*{key}"
        with pytest.raises(ValueError, match=expected):
            list(cli.read_pairs(pairs))
        with pytest.raises(ValueError, match=expected):
            cli.dataset_stats(pairs)
        annotated = tmp_path / "ann.csv"
        annotated.write_text("question_id,code_position,label\n")
        merged = tmp_path / "merged.jsonl"
        merged.write_bytes(SENTINEL)
        with pytest.raises(ValueError, match=expected):
            cli.merge_annotated(pairs, annotated, ws["dump"], merged)
        # the refused merge replaces nothing, not even with the good line
        assert merged.read_bytes() == SENTINEL
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.csv", "merged.jsonl", "pairs.jsonl"]

    @pytest.mark.parametrize("line", [
        None,
        json.dumps({"question_id": 555, "title": "missing fields"}),
        json.dumps(dump_record(555, "How to frob", ["python"], "")),
    ], ids=["absent", "malformed", "empty-answer"])
    def test_merge_refuses_annotated_question_without_usable_answer(self, ws, tmp_path, line):
        dump = tmp_path / "dump.jsonl"
        dump.write_text(ws["dump"].read_text() + (line + "\n" if line else ""))
        mined = tmp_path / "mined.jsonl"
        mined.write_text("")
        annotated = tmp_path / "ann.csv"
        annotated.write_text("question_id,code_position,label\n555,1,1\n")
        merged = tmp_path / "merged.jsonl"
        with pytest.raises(
            PositionMismatch, match="^the dump has no usable answer for annotated question 555$"
        ):
            cli.merge_annotated(mined, annotated, dump, merged)
        assert not merged.exists()

    def test_stats_reads_code_like_instances(self, tmp_path):
        ds = tmp_path / "one.jsonl"
        code = "'''unterminated docstring\nstill inside"
        ds.write_text(cli.MinedPair(1, "How to x", code, 1, cli.Provenance.SINGLE_CODE).to_json() + "\n")
        assert cli.dataset_stats(ds)["avg_code_tokens"] == 5.0  # ''' unterminated docstring still inside

    def test_stats_single_pair(self, tmp_path):
        ds = tmp_path / "one.jsonl"
        pair = cli.MinedPair(1, "How to sort", "x = sorted(y)", 1, cli.Provenance.SINGLE_CODE)
        ds.write_text(pair.to_json() + "\n")
        stats = cli.dataset_stats(ds, Tokenizer())
        assert stats["pairs"] == 1
        assert stats["avg_question_tokens"] == 3.0  # how, to, sort
        assert stats["avg_code_tokens"] == 6.0  # VAR = sorted ( VAR )


class TestConfig:
    @pytest.mark.parametrize(
        "user, key",
        [({"trian": {"lr": 0.1}}, "trian"), ({"model": {"d_embd": 9}}, "d_embd"), ({"train": 5}, "train")],
        ids=["top_level", "in_section", "section_not_object"],
    )
    def test_unknown_key_refused(self, tmp_path, user, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(user))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + key):
            cli.load_config(path)

    @pytest.mark.parametrize(
        "user, key",
        [
            ({"model": {"share_text_question_encoder": "false"}}, "share_text_question_encoder"),
            ({"model": {"d_token_gru": 64.9}}, "d_token_gru"),
            ({"model": {"seed": True}}, "seed"),
            ({"train": {"freeze_embeddings": "false"}}, "freeze_embeddings"),
            ({"train": {"batch_size": 100.0}}, "batch_size"),
            ({"train": {"lr": "0.1"}}, "lr"),
            ({"vocab": {"min_count": None}}, "min_count"),
            ({"tokenize": {"python_keep_list": 5}}, "python_keep_list"),
            ({"language": "text"}, "language"),
            ({"language": None}, "language"),
            ({"train": {"batch_size": 0}}, "batch_size"),
            ({"train": {"batch_size": -5}}, "batch_size"),
            ({"train": {"max_epochs": 0}}, "max_epochs"),
            ({"train": {"linear_epochs": -1}}, "linear_epochs"),
            ({"vocab": {"min_count": 0}}, "min_count"),
            ({"model": {"d_embed": 0}}, "d_embed"),
            ({"model": {"d_token_gru": -1}}, "d_token_gru"),
            ({"model": {"d_block": 0}}, "d_block"),
            ({"model": {"variant": "bogus"}}, "variant"),
            ({"model": {"variant": "lr"}}, "variant"),
            ({"tokenize": {"python_keep_list": "no/such/keep.txt"}}, "python_keep_list"),
            ({"tokenize": {"connectives": "no/such/connectives.txt"}}, "connectives"),
            ({"train": {"lr": 0}}, "lr"),
            ({"train": {"lr": -0.001}}, "lr"),
            ({"train": {"linear_lr": 0.0}}, "linear_lr"),
            ({"train": {"linear_lr": -0.1}}, "linear_lr"),
            ({"train": {"l2": -1e-4}}, "l2"),
            ({"train": {"patience": 0}}, "patience"),
            ({"train": {"patience": -3}}, "patience"),
            ({"train": {"lr": float("nan")}}, "lr"),
            ({"train": {"l2": float("nan")}}, "l2"),
            ({"train": {"lr": float("inf")}}, "lr"),
            ({"train": {"linear_lr": float("inf")}}, "linear_lr"),
        ],
        ids=["bool_as_string", "float_for_int", "bool_for_int", "freeze_as_string",
             "float_batch_size", "string_for_float", "null_for_int", "number_for_path",
             "text_language", "null_language", "zero_batch_size", "negative_batch_size",
             "zero_max_epochs", "negative_linear_epochs", "zero_min_count", "zero_d_embed",
             "negative_d_token_gru", "zero_d_block", "bogus_variant", "linear_variant",
             "missing_keep_list", "missing_connectives", "zero_lr", "negative_lr",
             "zero_linear_lr", "negative_linear_lr", "negative_l2", "zero_patience",
             "negative_patience", "nan_lr", "nan_l2", "infinite_lr", "infinite_linear_lr"],
    )
    def test_wrong_type_or_value_refused(self, tmp_path, user, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(user))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + key):
            cli.load_config(path)

    @pytest.mark.parametrize("text", [b'{"train": {"lr": 0.1,}}', b'{"language": "sql\xff"}', b""],
                             ids=["trailing_comma", "not_utf8", "empty"])
    def test_file_not_utf8_json_refused(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": not a UTF-8 JSON file"):
            cli.load_config(path)

    @pytest.mark.parametrize("key", ["python_keep_list", "connectives"])
    def test_lexicon_not_utf8_refused(self, tmp_path, key):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_bytes(b"print\n\xff\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tokenize": {key: str(lexicon)}}))
        named = re.escape(str(path)) + f".*{key}.*" + re.escape(str(lexicon))
        with pytest.raises(ValueError, match=named):
            cli.load_config(path)

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("key", ["lr", "l2", "linear_lr"])
    def test_int_beyond_float_range_refused(self, tmp_path, key, sign):
        """An int may stand for a float, but not one no float can hold:
        ``np.float64(1.0) * lr`` would raise OverflowError mid-training."""
        path = tmp_path / "config.json"
        path.write_text(f'{{"train": {{"{key}": {sign}1{"0" * 400}}}}}')
        with pytest.raises(ValueError, match=re.escape(str(path)) + f".*'{key}' must be a finite number"):
            cli.load_config(path)

    def test_int_for_float_and_string_for_null_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        user = {"language": "sql", "train": {"lr": 1, "l2": 0}, "tokenize": {"connectives": "c.txt"}}
        path.write_text(json.dumps(user))
        (tmp_path / "c.txt").write_text("as a result\n")
        config = cli.load_config(path)
        assert (config.tokenizer.language.value, config.train.lr, config.linear["l2"]) == ("sql", 1, 0)
        assert config.connectives == [["as", "a", "result"]]

    def test_bad_variant_flag_refused_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        with pytest.raises(SystemExit):
            cli.main(["train", "--dump", missing, "--train-labels", missing, "--out", missing,
                      "--variant", "bogus"])
        assert "--variant: invalid choice: 'bogus'" in capsys.readouterr().err

    def test_readme_config_block_is_the_default(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r'```json\n(\{\n  "language".*?)```', readme, re.S).group(1)
        path = tmp_path / "config.json"
        path.write_text(block)
        assert cli.load_config(path) == cli.load_config()
