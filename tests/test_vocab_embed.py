import numpy as np
import pytest

from qcmine.vocab_embed import (
    CODEBLOCK_ID,
    CODEBLOCK_TOKEN,
    PAD_ID,
    UNK_ID,
    DimensionMismatch,
    EmptyCorpus,
    build_vocab,
    load_embeddings,
)


class TestBuildVocab:
    def test_frequency_cutoff(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert vocab.size == 4  # 3 specials + "a"
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id

    def test_size_with_min_count_one(self):
        vocab = build_vocab([["a", "b"]], min_count=1)
        assert vocab.size == 5

    def test_specials_occupy_fixed_ids(self):
        vocab = build_vocab([["x"]])
        assert vocab.token_to_id["<pad>"] == PAD_ID
        assert vocab.token_to_id["<unk>"] == UNK_ID
        assert vocab.token_to_id[CODEBLOCK_TOKEN] == CODEBLOCK_ID

    def test_deterministic_assignment(self):
        streams = [["b", "a", "a"], ["c", "b", "b"]]
        v1 = build_vocab([list(s) for s in streams])
        v2 = build_vocab([list(s) for s in streams])
        assert v1.token_to_id == v2.token_to_id
        # ordered by (-frequency, token): b(3), a(2), c(1)
        assert v1.token_to_id["b"] == 3
        assert v1.token_to_id["a"] == 4
        assert v1.token_to_id["c"] == 5

    def test_contiguous_ids(self):
        vocab = build_vocab([["w1", "w2", "w3"]])
        assert sorted(vocab.token_to_id.values()) == list(range(vocab.size))

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocab([])
        with pytest.raises(EmptyCorpus):
            build_vocab([[], []])

    def test_unk_lookup_never_fails(self):
        vocab = build_vocab([["a"]])
        assert vocab.lookup_all(["never-seen"]) == [UNK_ID]
        assert vocab.lookup_all(["a", "zzz"]) == [vocab.token_to_id["a"], UNK_ID]


class TestLoadEmbeddings:
    def test_file_rows_used(self, tmp_path):
        vocab = build_vocab([["a", "b"]])
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb -1.0 0.5\n")
        emb = load_embeddings(path, vocab, d=2, seed=0)
        np.testing.assert_array_equal(emb[vocab.token_to_id["a"]], [1.0, 2.0])
        np.testing.assert_array_equal(emb[vocab.token_to_id["b"]], [-1.0, 0.5])

    def test_missing_tokens_random_in_range(self, tmp_path):
        vocab = build_vocab([["a", "b"]])
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\n")
        emb = load_embeddings(path, vocab, d=2, seed=7)
        row = emb[vocab.token_to_id["b"]]
        assert np.all(np.abs(row) <= 0.05)
        assert np.any(row != 0)

    def test_no_file_fully_random_except_pad(self):
        vocab = build_vocab([["a", "b", "c"]])
        emb = load_embeddings(None, vocab, d=4, seed=3)
        np.testing.assert_array_equal(emb[PAD_ID], np.zeros(4))
        rest = np.delete(emb, PAD_ID, axis=0)
        assert np.all(rest != 0)
        assert np.all(np.abs(rest) <= 0.05)

    def test_pad_row_zero_even_if_file_has_it(self, tmp_path):
        vocab = build_vocab([["a"]])
        path = tmp_path / "vec.txt"
        path.write_text("<pad> 9.0 9.0\na 1.0 1.0\n")
        emb = load_embeddings(path, vocab, d=2, seed=0)
        np.testing.assert_array_equal(emb[PAD_ID], [0.0, 0.0])

    def test_dimension_mismatch(self, tmp_path):
        vocab = build_vocab([["a"]])
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0 3.0\n")
        with pytest.raises(DimensionMismatch):
            load_embeddings(path, vocab, d=2, seed=0)

    def test_word2vec_header_skipped(self, tmp_path):
        """word2vec and fastText text files open with ``<count> <dim>``."""
        vocab = build_vocab([["a", "b"]])
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1.0 2.0 3.0\nb -1.0 0.5 0.0\n")
        emb = load_embeddings(path, vocab, d=3, seed=0)
        np.testing.assert_array_equal(emb[vocab.token_to_id["a"]], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(emb[vocab.token_to_id["b"]], [-1.0, 0.5, 0.0])

    @pytest.mark.parametrize("header", ["2 5", "x 3", "2 3.0"])
    def test_header_of_another_dimension_names_file_line_and_header(self, tmp_path, header):
        vocab = build_vocab([["a"]])
        path = tmp_path / "vec.txt"
        path.write_text(f"{header}\na 1.0 2.0 3.0\n")
        with pytest.raises(DimensionMismatch, match=rf"vec\.txt:1: .*'{header}'"):
            load_embeddings(path, vocab, d=3, seed=0)

    def test_two_fields_are_a_row_of_one_dimension(self, tmp_path):
        vocab = build_vocab([["a", "2"]])
        path = tmp_path / "vec.txt"
        path.write_text("2 1\na 0.5\n")
        emb = load_embeddings(path, vocab, d=1, seed=0)
        assert emb[vocab.token_to_id["2"]].tolist() == [1.0]
        assert emb[vocab.token_to_id["a"]].tolist() == [0.5]

    def test_two_fields_after_the_first_line_are_a_row(self, tmp_path):
        vocab = build_vocab([["a"]])
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0 3.0\n2 3\n")
        with pytest.raises(DimensionMismatch, match=r"vec\.txt:2: expected 3 values, got 1"):
            load_embeddings(path, vocab, d=3, seed=0)

    @pytest.mark.parametrize("value", ["x", "nan", "inf", "-Infinity", "1e400"])
    def test_value_not_a_finite_number_names_file_and_line(self, tmp_path, value):
        vocab = build_vocab([["a", "b"]])
        path = tmp_path / "vec.txt"
        path.write_text(f"a 1.0 2.0\nb 0.5 {value}\n")
        with pytest.raises(ValueError, match=r"vec\.txt:2: "):
            load_embeddings(path, vocab, d=2, seed=0)

    def test_leading_bom_does_not_hide_the_first_row(self, tmp_path):
        vocab = build_vocab([["a", "b"]])
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb -1.0 0.5\n", encoding="utf-8-sig")
        emb = load_embeddings(path, vocab, d=2, seed=0)
        np.testing.assert_array_equal(emb[vocab.token_to_id["a"]], [1.0, 2.0])

    def test_deterministic_per_seed(self):
        vocab = build_vocab([["a", "b"]])
        t1 = load_embeddings(None, vocab, d=3, seed=11)
        t2 = load_embeddings(None, vocab, d=3, seed=11)
        np.testing.assert_array_equal(t1, t2)

    @staticmethod
    def per_row_table(path_rows: dict, vocab, d: int, seed: int) -> np.ndarray:
        """The table as drawn one row of ``d`` at a time, in the vocabulary's
        order, each row the file has taken from ``path_rows`` instead."""
        rng = np.random.default_rng(seed)
        table = np.zeros((vocab.size, d))
        for token, idx in vocab.token_to_id.items():
            if idx != PAD_ID:
                row = path_rows.get(token)
                table[idx] = row if row is not None else rng.uniform(-0.05, 0.05, d)
        return table

    @pytest.mark.parametrize("order", ["ids", "shuffled"])
    def test_one_draw_gives_the_per_row_draws(self, tmp_path, order):
        """Missing rows, drawn in one call, are bit for bit the rows drawn
        one at a time, between rows that come from the vector file; for a
        vocabulary whose tokens are not in id order too."""
        vocab = build_vocab([[f"w{i}" for i in range(40)]])
        if order == "shuffled":
            items = list(vocab.token_to_id.items())
            np.random.default_rng(1).shuffle(items)
            vocab = type(vocab)(dict(items))
        rows = {f"w{i}": [i + 0.25, -i - 0.5, 2.0 * i] for i in range(0, 40, 3)}
        path = tmp_path / "vec.txt"
        path.write_text("".join(f"{tok} {' '.join(map(repr, row))}\n" for tok, row in rows.items()))
        got = load_embeddings(path, vocab, d=3, seed=5)
        want = self.per_row_table(rows, vocab, 3, 5)
        assert got.tobytes() == want.tobytes()
        assert got[vocab.token_to_id["w3"]].tolist() == rows["w3"]
