"""Shared test utilities: finite-difference gradient checking, fuzz post
generation, and synthetic datasets."""

from __future__ import annotations

import contextlib
import json
import random

import numpy as np
import pytest

from qcmine import models, nn_core, train_eval
from qcmine.models import (
    _HIERARCHICAL, _USES_QUESTION, ConfigInvalid, Variant, _check_inputs, label_of,
    look_up, predict_scores,
)
from qcmine.nn_core import Node, backward, bigru_encode, concat, dense, embedding_row, zero_grad
from qcmine.post_parser import CodeContextInstance
from qcmine.vocab_embed import CODEBLOCK_TOKEN, build_vocab


def finite_diff_check(loss_fn, nodes, eps=1e-5, floor=1e-6):
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the graph from the current node values and
    return the scalar loss node. ``nodes`` are the leaves to check.
    """
    zero_grad(nodes)
    backward(loss_fn())

    def value():
        return float(np.ravel(loss_fn().value)[0])

    worst = 0.0
    for node in nodes:
        arr = node.value
        analytic = node.grad if node.grad is not None else np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            up = value()
            arr[idx] = orig - eps
            down = value()
            arr[idx] = orig
            numeric = (up - down) / (2 * eps)
            a = analytic[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            worst = max(worst, rel)
    return worst


# --------------------------------------------------------------------------
# Per-timestep reference forward
# --------------------------------------------------------------------------
#
# The model graph of one instance built from the per-vector tape ops: one
# gru_step node per token and per direction, each block encoded on its own.
# It computes the same formulas as ``models.look_up``'s forward one step at a
# time, and serves as the independent oracle for its scores and gradients.


def _encode_ids(ids, emb: Node, gru):
    xs = [embedding_row(emb, i) for i in ids]
    return bigru_encode(xs, gru.fwd, gru.bwd)


def _encode_concat(ids, emb, gru) -> Node:
    f, b, _ = _encode_ids(ids, emb, gru)
    return concat(f, b)


def _text_block_vec(model, tokens) -> Node:
    if not tokens:
        return model.empty_block
    ids = model.word_vocab.lookup_all(tokens)
    return _encode_concat(ids, model.word_emb, model.text_token)


def _question_vec(model, tokens) -> Node:
    encoder = model.question_token or model.text_token
    if not tokens:
        if model.empty_block is not None:
            return model.empty_block
        return Node(np.zeros(2 * model.config.d_token_gru))
    ids = model.word_vocab.lookup_all(tokens)
    return _encode_concat(ids, model.word_emb, encoder)


def _code_block_vec(model, inst: CodeContextInstance) -> Node:
    """Token-level code representation c_i for the variant."""
    v = model.config.variant
    if v is Variant.TEXT_HNN:
        ids = model.word_vocab.lookup_all([CODEBLOCK_TOKEN])
        return _encode_concat(ids, model.word_emb, model.text_token)
    code_ids = model.code_vocab.lookup_all(inst.code_tokens)
    v_c = _encode_concat(code_ids, model.code_emb, model.code_token)
    if v in _USES_QUESTION:
        v_q = _question_vec(model, inst.question_tokens)
        return dense(concat(v_q, v_c), model.fusion)
    return v_c


def forward_graph(model, inst: CodeContextInstance):
    """(logits node, code-representation node z) of one instance, built one
    timestep at a time."""
    _check_inputs(model, [inst])
    v = model.config.variant

    if v in _HIERARCHICAL or v is Variant.BIV_HFF:
        s_pre = _text_block_vec(model, inst.pre_tokens)
        s_post = _text_block_vec(model, inst.post_tokens)
        c = _code_block_vec(model, inst)
        if v is Variant.BIV_HFF:
            z = dense(concat(s_pre, c, s_post), model.block_ff)
        else:
            _, _, states = bigru_encode([s_pre, c, s_post], model.block.fwd, model.block.bwd)
            z = concat(*states[1])  # bidirectional states at the code position
    elif v is Variant.CODE_HNN:
        z = _code_block_vec(model, inst)
    elif v is Variant.TEXT_RNN:
        word_ids = (
            model.word_vocab.lookup_all(inst.pre_tokens)
            + model.word_vocab.lookup_all([CODEBLOCK_TOKEN])
            + model.word_vocab.lookup_all(inst.post_tokens)
        )
        _, _, states = _encode_ids(word_ids, model.word_emb, model.text_token)
        z = concat(*states[len(inst.pre_tokens)])
    elif v is Variant.BIV_RNN:
        xs = [embedding_row(model.word_emb, i) for i in model.word_vocab.lookup_all(inst.pre_tokens)]
        xs += [embedding_row(model.code_emb, i) for i in model.code_vocab.lookup_all(inst.code_tokens)]
        xs += [embedding_row(model.word_emb, i) for i in model.word_vocab.lookup_all(inst.post_tokens)]
        f, b, _ = bigru_encode(xs, model.text_token.fwd, model.text_token.bwd)
        z = concat(f, b)
    else:
        raise ConfigInvalid(f"unhandled variant {v}")
    return dense(z, model.output), z


def forward(model, inst: CodeContextInstance):
    """Solution probabilities [p0, p1] and the code representation z of one
    instance, from the library's batched forward."""
    logits, z = look_up(model, [inst])(False)
    return nn_core.softmax(logits.value[0]), z.value[0]


# Other cuts of the GRU backward into blocks of steps, in place of
# ``nn_core._step_blocks``: gradients must not depend on where blocks fall.
STEP_BLOCK_RULES = {
    "one_step_per_block": lambda running, n_seqs: [(t, t + 1) for t in range(len(running))][::-1],
    "one_block_per_call": lambda running, n_seqs: [(0, len(running))] if len(running) else [],
}


def out_of_place_gru(tv, ids, spans, p, reverse, g):
    """``nn_core.gru_final_states`` and its backward written the plain way:
    one temporary per operation, the sigmoid as ``0.5 * tanh(0.5 * x) +
    0.5`` and 2-D ``np.add.at``. Returns the final states and the gradients
    of w_r, w_u, w, b_r, b_u, b and the table (``GruParams.nodes`` order,
    then the table) for the final-state gradients ``g``. The kernel runs
    its arithmetic in place and scatters flat, and must match this bit for
    bit. Blocks come from ``nn_core._step_blocks``, so a test that replaces
    the rule replaces it here too."""

    def sigmoid(x):
        return 0.5 * np.tanh(0.5 * x) + 0.5

    ids = np.asarray(ids, dtype=np.intp)
    spans = np.asarray(spans, dtype=np.intp).reshape(-1, 2)
    lengths = spans[:, 1] - spans[:, 0]
    d_h = p.d_h
    order = np.argsort(-lengths, kind="stable")
    first = spans[order, 1] - 1 if reverse else spans[order, 0]
    step = -1 if reverse else 1
    steps = lengths.max()
    running = len(order) - np.cumsum(np.bincount(lengths, minlength=steps))[:steps]
    rows = np.concatenate([first[:n] + step * t for t, n in enumerate(running)])
    used, slot = np.unique(ids[rows], return_inverse=True)
    w_x, u_ru, u_c = nn_core._gate_weights(p)
    proj = nn_core._projection(tv[used], p, w_x)

    h_prevs = np.empty((len(rows), d_h))
    h = np.zeros((len(order), d_h))
    start = 0
    for n in running:
        a = proj[slot[start : start + n]]
        h_prev = h[:n]
        ru = sigmoid(a[:, : 2 * d_h] + h_prev @ u_ru)
        r, u = ru[:, :d_h], ru[:, d_h:]
        h_tilde = np.tanh(a[:, 2 * d_h :] + (r * h_prev) @ u_c)
        h_prevs[start : start + n] = h_prev
        start += n
        h[:n] = u * h_prev + (1.0 - u) * h_tilde
    states = np.empty_like(h)
    states[order] = h

    g = g[order]
    offsets = np.concatenate([[0], np.cumsum(running)])
    d_used = np.zeros_like(proj)
    d_b = np.zeros(3 * d_h)
    d_w_state = np.zeros((3 * d_h, d_h))
    for t0, t1 in nn_core._step_blocks(running, len(g)):
        r0, r1 = offsets[t0], offsets[t1]
        h_prev = h_prevs[r0:r1]
        d_a = proj[slot[r0:r1]]
        ru = sigmoid(d_a[:, : 2 * d_h] + h_prev @ u_ru)
        r, u = ru[:, :d_h], ru[:, d_h:]
        rh = r * h_prev
        h_tilde = np.tanh(d_a[:, 2 * d_h :] + rh @ u_c)
        c_r = h_prev * r * (1.0 - r)
        c_u = (h_prev - h_tilde) * u * (1.0 - u)
        c_c = (1.0 - u) * (1.0 - h_tilde * h_tilde)
        for t in range(t1 - 1, t0 - 1, -1):
            n = running[t]
            at = slice(offsets[t] - r0, offsets[t] - r0 + n)
            dh = g[:n]
            d_c = np.multiply(dh, c_c[at], out=d_a[at, 2 * d_h :])
            d_rh = d_c @ u_c.T
            np.multiply(d_rh, c_r[at], out=d_a[at, :d_h])
            np.multiply(dh, c_u[at], out=d_a[at, d_h : 2 * d_h])
            g[:n] = dh * u[at] + d_rh * r[at] + d_a[at, : 2 * d_h] @ u_ru.T
        np.add.at(d_used, slot[r0:r1], d_a)
        d_b += d_a.sum(axis=0)
        d_w_state[: 2 * d_h] += d_a[:, : 2 * d_h].T @ h_prev
        d_w_state[2 * d_h :] += d_a[:, 2 * d_h :].T @ rh

    d_w_x = d_used.T @ tv[used]
    grads = [np.hstack([d_w_x[k * d_h : (k + 1) * d_h], d_w_state[k * d_h : (k + 1) * d_h]])
             for k in range(3)]
    grads += [d_b[k * d_h : (k + 1) * d_h] for k in range(3)]
    d_table = np.zeros_like(tv)
    d_table[used] += d_used @ w_x
    return states, grads + [d_table]


# --------------------------------------------------------------------------
# Reference model file reader
# --------------------------------------------------------------------------


def reference_parse_model_file(path):
    """``models.parse_model_file`` as ``json.load`` of the whole text, a
    leading byte order mark skipped: every tensor's base64 a ``str``. The
    reader that cuts tensors out of the file's bytes is checked against it."""
    with open(path, encoding="utf-8-sig") as f:
        return json.load(f)


def reference_load_model(path):
    """``models.load_model`` through ``reference_parse_model_file``."""
    return models.model_from_obj(reference_parse_model_file(path), path)


# The ways nn_core.tensor_from_obj decodes a view of a file's bytes
DECODERS = ("openssl", "binascii")


@contextlib.contextmanager
def decoding_with(decoder: str):
    """A block in which ``nn_core.tensor_from_obj`` decodes views of bytes
    through OpenSSL's decoder ("openssl", skipped where none is found), or
    through ``binascii`` alone, with the resolver patched to None."""
    with pytest.MonkeyPatch.context() as mp:
        if decoder == "binascii":
            mp.setattr(nn_core, "_base64_decoder", lambda: None)
        elif nn_core._base64_decoder() is None:
            pytest.skip("no OpenSSL base64 decoder found")
        yield


# --------------------------------------------------------------------------
# Fuzzed answer posts
# --------------------------------------------------------------------------

_WORDS = "alpha beta gamma delta value result data frame index call".split()
_CODE_LINES = ["x = 1", "print(x)", ">>> f(2)", "for i in items: pass", "y = 'txt'"]


def random_post(rng: random.Random, max_segments=8):
    """A random composite post. Returns (html, visible_text, n_code)."""
    html_parts = []
    visible = []
    n_code = 0
    for _ in range(rng.randint(1, max_segments)):
        kind = rng.choice(["p", "code", "ul", "blockquote", "h2", "bare", "p_inline"])
        words = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 6)))
        if kind == "p":
            html_parts.append(f"<p>{words}</p>")
            visible.append(words)
        elif kind == "p_inline":
            w2 = rng.choice(_WORDS)
            html_parts.append(f"<p>{words} <code>{w2}</code> tail</p>")
            visible.append(f"{words} {w2} tail")
        elif kind == "code":
            lines = [rng.choice(_CODE_LINES) for _ in range(rng.randint(1, 3))]
            body = "\n".join(lines)
            html_parts.append("<pre><code>" + body.replace("'", "&#39;") + "\n</code></pre>")
            visible.append(body)
            n_code += 1
        elif kind == "ul":
            items = [rng.choice(_WORDS) for _ in range(rng.randint(1, 3))]
            html_parts.append("<ul>" + "".join(f"<li>{w}</li>" for w in items) + "</ul>")
            visible.extend(items)
        elif kind == "blockquote":
            html_parts.append(f"<blockquote><p>{words}</p></blockquote>")
            visible.append(words)
        elif kind == "h2":
            html_parts.append(f"<h2>{words}</h2>")
            visible.append(words)
        else:
            html_parts.append(words + " ")
            visible.append(words)
    return "".join(html_parts), " ".join(" ".join(visible).split()), n_code


# --------------------------------------------------------------------------
# Synthetic separable dataset for capacity checks
# --------------------------------------------------------------------------

_FILLER = ["the", "a", "of", "code", "value", "number", "data", "way"]


def make_cue_dataset(n=50, seed=0):
    """Instances whose label shows in both views: label-1 contexts carry a
    "try" cue and a print-call snippet, label-0 contexts carry "output"
    and a console transcript. Returns (instances, word_vocab, code_vocab)."""
    rng = random.Random(seed)
    instances = []
    for i in range(n):
        label = i % 2
        filler = rng.choice(_FILLER)
        if label == 1:
            pre = ["you", "can", "try", "this", filler]
            post = ["works", "fine"]
            code = ["print", "(", "STRING", ")", rng.choice(["VAR", "NUMBER"])]
        else:
            pre = ["the", "output", "is", filler]
            post = ["as", "shown"]
            code = [">>>", "VAR", rng.choice(["NUMBER", "STRING"])]
        instances.append(
            CodeContextInstance(
                question_tokens=["how", "to", "do", "it"],
                pre_tokens=pre,
                code_tokens=code,
                post_tokens=post,
                position=1,
                label=label,
            )
        )
    word_streams = [inst.question_tokens + inst.pre_tokens + inst.post_tokens for inst in instances]
    code_streams = [inst.code_tokens for inst in instances]
    return instances, build_vocab(word_streams), build_vocab(code_streams)


# --------------------------------------------------------------------------
# Synthetic pipeline workspace (dump + label CSVs + config)
# --------------------------------------------------------------------------

SOLUTION_HTML = (
    "<p>You can try this approach</p>"
    "<pre><code>print(alpha)\nbeta = compute(1)</code></pre>"
    "<p>The output is</p>"
    "<pre><code>&gt;&gt;&gt; run(2)\n42</code></pre>"
    "<p>works fine</p>"
)
SINGLE_HTML = "<p>Do it like so</p><pre><code>def frob(x):\n    return x + 1</code></pre>"
SQL_SOLUTION_HTML = (
    "<p>You can try this approach</p>"
    "<pre><code>SELECT name, price FROM items\nWHERE price &gt; 10</code></pre>"
    "<p>The output is</p>"
    "<pre><code>name | price\n-----+------\nfrob | 42</code></pre>"
    "<p>works fine</p>"
)
SQL_SINGLE_HTML = "<p>Do it like so</p><pre><code>UPDATE items SET price = price + 1</code></pre>"

# Per language: the multi-code and single-code answers, the tags of the
# multi-code, single-code and non-how-to questions, and an off-domain tag.
_DOMAINS = {
    "python": (SOLUTION_HTML, SINGLE_HTML, ["python"], ["python-3.x"], ["python"], ["sql"]),
    "sql": (SQL_SOLUTION_HTML, SQL_SINGLE_HTML, ["sql"], ["database"], ["oracle"], ["python"]),
}


def dump_record(qid, title, tags, answer_html, question_html="<p>context</p>"):
    return {
        "question_id": qid,
        "title": title,
        "tags": tags,
        "question_body_html": question_html,
        "accepted_answer_html": answer_html,
    }


def assert_ensemble_matches_voters_in_turn(voters, instances):
    """``train_eval.ensemble_batch`` of ``instances`` holds, bit for bit, the
    scores of each voter's ``predict_scores`` run in turn on this thread,
    and the votes and decisions that follow from them."""
    decisions = train_eval.ensemble_batch(*voters, instances)
    expected = np.stack([predict_scores(voter, instances) for voter in voters], axis=1)
    assert np.array([d.scores for d in decisions]).tobytes() == expected.tobytes()
    for decision, scores in zip(decisions, expected):
        votes = tuple(label_of(s) for s in scores)
        assert decision.votes == votes
        assert decision.decision is train_eval.combine_votes(votes)
    return expected


def build_workspace(root, language="python"):
    """A small self-consistent pipeline workspace in ``language`` (python
    or sql): a dump of how-to and non-how-to questions (multi-code posts
    have a cue-separable solution at position 1 and a demo at position 2),
    one off-domain question, annotation CSVs, a question-type CSV, and a
    tiny-model config. Returns a dict of paths."""
    solution, single, multi_tags, single_tags, other_tags, off_domain = _DOMAINS[language]
    dump = root / "dump.jsonl"
    lines = []
    train_rows, valid_rows = [], []
    for i in range(14):
        qid = 100 + i
        lines.append(dump_record(qid, f"How to frob the {i} widget", multi_tags, solution))
        target = train_rows if i < 10 else valid_rows
        target.append((qid, 1, 1))
        target.append((qid, 2, 0))
    for i in range(4):
        lines.append(dump_record(200 + i, f"How to unfrob {i} things", single_tags, single))
    for i in range(8):
        lines.append(dump_record(300 + i, f"Why does widget {i} explode", other_tags, single))
    lines.append(dump_record(400, "How to join tables", off_domain, single))
    lines.append(dump_record(401, "How to think about it", multi_tags, "<p>just think</p>"))

    with open(dump, "w", encoding="utf-8") as f:
        for rec in lines:
            f.write(json.dumps(rec) + "\n")
        f.write("{not valid json\n")
        f.write(json.dumps({"question_id": 999, "title": "missing fields"}) + "\n")

    def write_labels(path, rows):
        with open(path, "w", encoding="utf-8") as f:
            f.write("question_id,code_position,label\n")
            for qid, pos, label in rows:
                f.write(f"{qid},{pos},{label}\n")

    train_csv, valid_csv = root / "train.csv", root / "valid.csv"
    write_labels(train_csv, train_rows)
    write_labels(valid_csv, valid_rows)

    qlabels = root / "question_labels.csv"
    with open(qlabels, "w", encoding="utf-8") as f:
        f.write("question_id,label\n")
        for i in range(14):
            f.write(f"{100 + i},howto\n")
        for i in range(4):
            f.write(f"{200 + i},howto\n")
        for i in range(8):
            f.write(f"{300 + i},other\n")

    config = root / "config.json"
    config.write_text(
        json.dumps(
            {
                "language": language,
                "model": {"d_embed": 4, "d_token_gru": 3, "d_block": 3, "seed": 0},
                "train": {
                    "lr": 0.05, "batch_size": 8, "max_epochs": 15,
                    "patience": 15, "seed": 0,
                },
            }
        )
    )
    return {
        "dump": dump, "train": train_csv, "valid": valid_csv,
        "qlabels": qlabels, "config": config,
    }


def build_wide_workspace(root):
    """A training workspace just large enough that, with BLAS left at its
    thread count, a one-epoch checkpoint differed between 1 and 2 OpenBLAS
    threads (OpenBLAS 0.3.31, 2 vCPUs): 20 questions, 16 of them for
    training in one mini-batch, each answered by two code blocks between
    three texts of 20 words drawn from 1,500, so the text encoder reads 866
    distinct words over 1,312 tokens; embeddings of 32 and token GRUs of
    16. With 15 questions, or 10 words a text, the checkpoints did not
    differ. Returns a dict of paths as ``build_workspace`` does."""
    def word(i):  # letters only, so the tokenizer keeps every word
        letters = ""
        for _ in range(3):
            i, r = divmod(i, 26)
            letters = chr(97 + r) + letters
        return "w" + letters

    rng = random.Random(0)
    pool = [word(i) for i in range(1500)]

    def text():
        return " ".join(rng.choice(pool) for _ in range(20))

    records, rows = [], {"train": [], "valid": []}
    for q in range(20):
        answer = (
            f"<p>{text()}</p><pre><code>print(alpha)\nbeta = compute({q})</code></pre>"
            f"<p>{text()}</p><pre><code>&gt;&gt;&gt; run({q})\n42</code></pre><p>{text()}</p>"
        )
        records.append(dump_record(1000 + q, f"How to {text()}", ["python"], answer))
        rows["valid" if q % 5 == 4 else "train"] += [(1000 + q, 1, 1), (1000 + q, 2, 0)]
    paths = {"dump": root / "dump.jsonl", "config": root / "config.json"}
    paths["dump"].write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    for split, split_rows in rows.items():
        paths[split] = root / f"{split}.csv"
        paths[split].write_text(
            "question_id,code_position,label\n" + "".join(f"{q},{p},{y}\n" for q, p, y in split_rows)
        )
    paths["config"].write_text(json.dumps({
        "language": "python",
        "model": {"d_embed": 32, "d_token_gru": 16, "d_block": 4, "seed": 0},
        "train": {"lr": 0.05, "batch_size": 100, "max_epochs": 1, "patience": 1, "seed": 0},
    }))
    return paths
