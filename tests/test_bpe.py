import string

from hypothesis import given, settings, strategies as st

from macroplan.bpe import (BpeModel, decode, encode, learn_bpe, load_bpe,
                           save_bpe)

CORPUS = [
    ["the", "Royals", "defeated", "the", "Orioles", "."],
    ["Merrifield", "homered", "in", "the", "first", "inning", "."],
    ["the", "Orioles", "answered", "with", "a", "homer", "."],
]

word = st.text(alphabet=string.ascii_letters + string.digits + ".'-",
               min_size=1, max_size=12)
sentence = st.lists(word, min_size=1, max_size=15)


class TestLearn:
    def test_merge_count_bounded(self):
        model = learn_bpe(CORPUS, 10)
        assert len(model.merges) <= 10

    def test_zero_merges(self):
        model = learn_bpe(CORPUS, 0)
        assert model.merges == ()
        # characters-only encoding still round-trips
        assert decode(model, encode(model, ["Royals"])) == ["Royals"]

    def test_negative_merges_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            learn_bpe(CORPUS, -1)

    def test_deterministic(self):
        a = learn_bpe(CORPUS, 20)
        b = learn_bpe(CORPUS, 20)
        assert a.merges == b.merges

    def test_fully_protected_corpus(self):
        model = learn_bpe([["<P>", "<TR>9"]], 5, protected={"<P>"})
        assert model.merges == ()


class TestRoundTrip:
    @given(st.lists(sentence, min_size=1, max_size=10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_identity(self, corpus, data):
        n_merges = data.draw(st.integers(min_value=0, max_value=30))
        model = learn_bpe(corpus, n_merges)
        for line in corpus:
            assert decode(model, encode(model, line)) == line

    def test_unseen_words_round_trip(self):
        model = learn_bpe(CORPUS, 15)
        toks = ["zzunseenzz", "Mullins"]
        assert decode(model, encode(model, toks)) == toks

    def test_many_sequences(self, rng):
        # bulk check across 1000 random sequences drawn from corpus chars
        model = learn_bpe(CORPUS, 25)
        chars = list("abcdefghij.'-")
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            toks = ["".join(rng.choice(chars, size=int(rng.integers(1, 9))))
                    for _ in range(n)]
            assert decode(model, encode(model, toks)) == toks


class TestProtectedTokens:
    def test_protected_never_split(self):
        model = learn_bpe(CORPUS, 20, protected={"<P>", "EOM"})
        out = encode(model, ["Royals", "<P>", "EOM"])
        assert "<P>" in out and "EOM" in out

    def test_marker_tokens_pass_through(self):
        model = learn_bpe(CORPUS, 20)
        out = encode(model, ["<TR>9", "<PLAYER>C.Mullins"])
        assert out == ["<TR>9", "<PLAYER>C.Mullins"]

    def test_unseen_marker_value_protected(self):
        # marker protection is structural, not vocabulary-based
        model = learn_bpe(CORPUS, 5)
        assert encode(model, ["<SCORES>Royals-9-Orioles-2"]) == \
            ["<SCORES>Royals-9-Orioles-2"]

    def test_protected_interrupting_continuation(self):
        model = learn_bpe(CORPUS, 0)
        # a dangling continuation before a protected token is flushed
        out = decode(model, ["Ro@@", "<P>", "yals"])
        assert out == ["Ro", "<P>", "yals"]


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        model = learn_bpe(CORPUS, 20, protected={"<P>", "EOM"})
        path = tmp_path / "model.bpe"
        save_bpe(path, model)
        loaded = load_bpe(path)
        assert loaded.merges == model.merges
        assert loaded.protected_tokens == model.protected_tokens

    def test_file_with_a_base_line_loads(self, tmp_path):
        # files written before the symbol inventory was dropped carry it in
        # a "#base:" line, which loading skips
        path = tmp_path / "model.bpe"
        path.write_text("#version: macroplan-bpe 1\n#protected: <P>\n"
                        "#base: a b</w>\na b</w>\n")
        loaded = load_bpe(path)
        assert loaded.merges == (("a", "b</w>"),)
        assert loaded.protected_tokens == {"<P>"}

    def test_loaded_model_encodes_identically(self, tmp_path):
        model = learn_bpe(CORPUS, 20)
        path = tmp_path / "model.bpe"
        save_bpe(path, model)
        loaded = load_bpe(path)
        toks = ["Merrifield", "homered", "."]
        assert encode(loaded, toks) == encode(model, toks)

    def test_save_deterministic(self, tmp_path):
        model = learn_bpe(CORPUS, 10, protected={"EOM", "<P>"})
        p1, p2 = tmp_path / "a.bpe", tmp_path / "b.bpe"
        save_bpe(p1, model)
        save_bpe(p2, model)
        assert p1.read_bytes() == p2.read_bytes()
