import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import sentence_stats
from sumedit import rouge
from sumedit.rouge import (
    RewardWeights,
    _lcs_positions,
    _match_masks,
    _ngrams,
    _pooled_ngrams,
    reward,
    rouge_l,
    rouge_n,
    split_entries,
)

tokens = st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=8)


def brute_force_lcs(a, b):
    """Longest common subsequence length by exhaustive enumeration."""
    best = 0
    for r in range(len(a), 0, -1):
        for comb in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in comb]
            it = iter(b)
            if all(tok in it for tok in sub):
                best = r
                break
        if best:
            break
    return best


def lcs_positions(ref, cand):
    return _lcs_positions(ref, cand, _match_masks(cand))


def dp_lcs_positions(ref, cand):
    """Slow reference for `_lcs_positions`: the full (|ref|+1) x (|cand|+1)
    LCS table, then the same canonical traceback."""
    nr, nc = len(ref), len(cand)
    dp = [[0] * (nc + 1) for _ in range(nr + 1)]
    for i in range(1, nr + 1):
        row, prev = dp[i], dp[i - 1]
        ri = ref[i - 1]
        for j in range(1, nc + 1):
            if ri == cand[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = prev[j] if prev[j] >= row[j - 1] else row[j - 1]
    matched: set[int] = set()
    i, j = nr, nc
    while i > 0 and j > 0:
        if ref[i - 1] == cand[j - 1] and dp[i][j] == dp[i - 1][j - 1] + 1:
            matched.add(i - 1)
            i -= 1
            j -= 1
        elif dp[i - 1][j] >= dp[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return matched


def reference_sentence_stats(versions, reference):
    """Slow reference for `sentence_stats`: one Counter per version and
    n-gram order, and `dp_lcs_positions` per reference sentence."""
    ref_grams = [_pooled_ngrams(reference, n) for n in (1, 2)]
    column = {g: i for i, g in enumerate(g for grams in ref_grams for g in grams)}
    offsets = np.cumsum([0] + [len(s) for s in reference])
    counts = np.zeros((len(versions), len(column) + 2), dtype=np.int64)
    lcs = np.zeros((len(versions), int(offsets[-1])), dtype=bool)
    for v, sent in enumerate(versions):
        for n in (1, 2):
            for g, c in _ngrams(sent, n).items():
                if g in column:
                    counts[v, column[g]] += c
        counts[v, -2:] = len(sent), max(len(sent) - 1, 0)
        for ref_sent, start in zip(reference, offsets):
            for pos in dp_lcs_positions(ref_sent, sent):
                lcs[v, start + pos] = True
    ref_counts = np.array([c for grams in ref_grams for c in grams.values()], dtype=np.int64)
    return counts, lcs, ref_counts, len(ref_grams[0]), sum(ref_grams[1].values())


def token_lists(alphabet, sizes=(0, 8)):
    return st.lists(st.sampled_from(alphabet), min_size=sizes[0], max_size=sizes[1])


# Alphabets of one to three tokens (many ties), sides from empty to past 64
# and past 128 tokens.
@st.composite
def lcs_pairs(draw):
    alphabet = "abc"[: draw(st.integers(1, 3))]
    side = st.one_of(token_lists(alphabet), token_lists(alphabet, (65, 80)), token_lists(alphabet, (129, 150)))
    return draw(side), draw(side)


class TestLcsPositions:
    @given(lcs_pairs())
    def test_equals_dp_reference(self, pair):
        ref, cand = pair
        got = lcs_positions(ref, cand)
        assert len(got) == len(set(got))
        assert set(got) == dp_lcs_positions(ref, cand)

    def test_long_random_pairs_equal_dp_reference(self):
        rng = random.Random(0)
        for _ in range(60):
            alphabet = "abcdefgh"[: rng.randint(1, 8)]
            ref = rng.choices(alphabet, k=rng.randint(0, 200))
            cand = rng.choices(alphabet + "xy", k=rng.randint(0, 200))
            assert set(lcs_positions(ref, cand)) == dp_lcs_positions(ref, cand)

    def test_no_common_token(self):
        assert lcs_positions(["a", "b"], ["c", "d", "c"]) == []

    def test_canonical_alignment_among_ties(self):
        # "a b" against "b a" has LCS 1 either way; the walk prefers up over
        # left on a tie, so it matches the earlier reference token
        assert lcs_positions(["a", "b"], ["b", "a"]) == [0]
        assert dp_lcs_positions(["a", "b"], ["b", "a"]) == {0}


class TestSentenceStats:
    @given(
        st.integers(1, 4).flatmap(
            lambda a: st.tuples(
                st.lists(token_lists("abcd"[:a], (0, 12)), max_size=6),
                st.lists(token_lists("abcd"[:a], (1, 12)), min_size=1, max_size=4),
            )
        )
    )
    def test_equals_reference_implementation(self, case):
        versions, reference = case
        stats = sentence_stats(versions, reference)
        counts, lcs, ref_counts, unigrams, ref_bigrams = reference_sentence_stats(versions, reference)
        for got, want in ((stats.counts, counts), (stats.lcs, lcs), (stats.ref_counts, ref_counts)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        assert (stats.unigrams, stats.ref_bigrams) == (unigrams, ref_bigrams)


def columns(ref_counts, counts, lo, hi):
    """The n-gram columns lo .. hi - 1 of a statistics record as sorted
    (reference count, count per version) tuples: the two builders may order
    the columns differently."""
    return sorted(map(tuple, np.vstack([ref_counts[None, lo:hi], counts[:, lo:hi]]).T.tolist()))


def starts(sizes):
    return np.cumsum([0] + list(sizes))


def assert_split_equals_reference(versions, references):
    """`split_entries` of a split against `sentence_stats` of each example:
    every entry in its own example's columns and reference positions, each
    example's columns of the right kind and the same up to order, token
    totals, LCS rows and reference totals; and each example's own
    `SplitEntries.stats` record holds exactly the columns and positions its
    versions touch."""
    entries = split_entries(versions, references)
    for name in ("owner", "length", "ngrams", "matches", "ref_counts", "column_example", "ref_tokens", "ref_bigrams"):
        assert getattr(entries, name).dtype == np.int64, name
    assert entries.bigram.dtype == bool
    (g, column, count), (m, position) = entries.ngrams.T, entries.matches.T
    first = starts(map(len, versions))
    ref_start = starts(sum(map(len, ref)) for ref in references)
    owner = np.repeat(np.arange(len(versions)), np.diff(first))
    assert np.array_equal(entries.owner, owner)
    assert np.array_equal(entries.column_example[column], owner[g]) and (count > 0).all()
    assert np.array_equal(np.searchsorted(ref_start, position, side="right") - 1, owner[m])
    assert np.array_equal(entries.column_example, np.sort(entries.column_example))
    for j, (vs, ref) in enumerate(zip(versions, references)):
        want = sentence_stats(vs, ref)
        u, width = want.unigrams, len(want.ref_counts)
        cols = np.flatnonzero(entries.column_example == j)
        assert len(cols) == width
        assert not entries.bigram[cols[:u]].any() and entries.bigram[cols[u:]].all()
        rows = slice(first[j], first[j + 1])
        mine = (g >= first[j]) & (g < first[j + 1])
        counts = np.zeros((len(vs), width), dtype=np.int64)
        counts[g[mine] - first[j], np.searchsorted(cols, column[mine])] = count[mine]
        ref_counts = entries.ref_counts[cols]
        assert columns(ref_counts, counts, 0, u) == columns(want.ref_counts, want.counts, 0, u)
        assert columns(ref_counts, counts, u, width) == columns(want.ref_counts, want.counts, u, width)
        assert np.array_equal(entries.length[rows], want.counts[:, -2])
        mine = (m >= first[j]) & (m < first[j + 1])
        lcs = np.zeros_like(want.lcs)
        lcs[m[mine] - first[j], position[mine] - ref_start[j]] = True
        assert np.array_equal(lcs, want.lcs)
        assert (entries.ref_tokens[j], entries.ref_bigrams[j]) == (want.ref_tokens, want.ref_bigrams)

        one = entries.stats([j], [first[j]], len(vs))
        touched = want.counts[:, :-2].any(axis=0)
        kept, kept_ref, t = want.counts[:, :-2][:, touched], want.ref_counts[touched], int(touched[:u].sum())
        assert one.unigrams == t and one.counts.shape == (1, len(vs), len(kept_ref) + 2)
        assert np.array_equal(one.counts[0, :, -2:], want.counts[:, -2:])
        assert columns(one.ref_counts[0], one.counts[0], 0, t) == columns(kept_ref, kept, 0, t)
        assert columns(one.ref_counts[0], one.counts[0], t, len(kept_ref)) == columns(kept_ref, kept, t, len(kept_ref))
        assert np.array_equal(one.lcs[0], want.lcs[:, want.lcs.any(axis=0)])
        assert (one.ref_tokens.tolist(), one.ref_bigrams.tolist()) == ([want.ref_tokens], [want.ref_bigrams])


def split_inputs(alphabet_sizes=(1, 4)):
    """Examples of up to 6 versions (some empty, some with tokens no
    reference has) against 1 to 3 reference sentences."""
    return st.integers(*alphabet_sizes).flatmap(
        lambda a: st.lists(
            st.tuples(
                st.lists(token_lists("abcd"[:a] + "xy", (0, 12)).map(tuple), max_size=6),
                st.lists(token_lists("abcd"[:a], (1, 12)).map(tuple), min_size=1, max_size=3),
            ),
            max_size=5,
        )
    )


LONG = tuple("abcde"[i % 5] + "abcde"[i % 3] for i in range(70))


class TestSplitStats:
    @settings(max_examples=120, deadline=None)
    @given(split_inputs())
    # one-token sentences: no bigrams anywhere
    @example([((("a",), ("b",), ("x",)), (("a",), ("b",))), ((("b",),), (("b",),))])
    # no version shares a token with its reference, and one has no versions
    @example([((("x", "y"), ("y",)), (("a", "b"),)), ((), (("a",),)), ((("a", "b"),), (("a", "b"),))])
    # one sentence repeated, so every column clips
    @example([((("a", "b", "a"),) * 4, (("a", "b"), ("b", "a")))])
    # sentences and a reference sentence longer than 64 tokens
    @example([((LONG, LONG[3:], LONG[:2]), (LONG, LONG[60:])), ((LONG[::-1],), (LONG[:66],))])
    def test_equals_per_example_reference(self, examples):
        versions, references = [list(vs) for vs, _ in examples], [ref for _, ref in examples]
        assert_split_equals_reference(versions, references)

    @settings(max_examples=60, deadline=None)
    @given(examples=split_inputs((1, 5)), data=st.data())
    def test_rewards_equal_reward_of_realized_summaries(self, examples, data):
        """A summary made of some versions of each example: the summed rows
        and OR-ed LCS rows of one record of the whole split (versions padded
        with empty ones) score exactly as `reward` scores the summary."""
        versions, references = [list(vs) for vs, _ in examples], [ref for _, ref in examples]
        S = max(map(len, versions), default=0)
        padded = [vs + [()] * (S - len(vs)) for vs in versions]
        stats = split_entries(padded, references).stats(np.arange(len(padded)), np.arange(len(padded)) * S, S)
        weights = RewardWeights(*data.draw(st.tuples(*[st.floats(0.1, 2.0)] * 3)))
        chosen = np.zeros(stats.counts.shape[:2], dtype=bool)
        for j, vs in enumerate(versions):
            chosen[j, : len(vs)] = data.draw(st.lists(st.booleans(), min_size=len(vs), max_size=len(vs)))
        summed = np.einsum("nv,nvw->nw", chosen, stats.counts)
        matched = (stats.lcs & chosen[..., None]).any(axis=1)
        got = stats.rewards(summed[:, None], matched[:, None], weights)[:, 0]
        want = [
            reward([v for v, c in zip(vs, row) if c], ref, weights)
            for vs, ref, row in zip(versions, references, chosen.tolist())
        ]
        assert got.tolist() == want

    @settings(max_examples=80, deadline=None)
    @given(split_inputs())
    @example([((LONG, LONG[3:], LONG[:2]), (LONG, LONG[60:])), ((), (("a",),)), ((LONG[::-1],), (LONG[:66],))])
    def test_entries_are_the_nonzero_cells(self, examples):
        """`split_entries` holds each version's distinct nonzero cells in
        order, and a record of the whole split (versions padded with empty
        ones) holds exactly those cells: in each example's block of unigram
        columns, of bigram columns and of positions, it uses as many of the
        first ones as its versions touch, and no others."""
        versions, references = [list(vs) for vs, _ in examples], [ref for _, ref in examples]
        N, S = len(versions), max(map(len, versions), default=0)
        padded = [vs + [()] * (S - len(vs)) for vs in versions]
        entries = split_entries(padded, references)
        (g, column, count), (m, position) = entries.ngrams.T, entries.matches.T
        assert (np.diff(g * len(entries.ref_counts) + column) > 0).all()
        assert (np.diff(m * entries.ref_tokens.sum() + position) > 0).all()
        stats = entries.stats(np.arange(N), np.arange(N) * S, S)
        u = stats.unigrams
        j, v, c = np.nonzero(stats.counts[..., :-2])
        record = zip((j * S + v).tolist(), (c >= u).tolist(), stats.counts[j, v, c].tolist(),
                     stats.ref_counts[j, c].tolist())
        cells = zip(g.tolist(), entries.bigram[column].tolist(), count.tolist(), entries.ref_counts[column].tolist())
        assert sorted(record) == sorted(cells)
        j, v, _ = np.nonzero(stats.lcs)
        assert sorted((j * S + v).tolist()) == m.tolist()
        for j in range(N):
            own = (g >= j * S) & (g < (j + 1) * S)
            used = [len(np.unique(column[own & (entries.bigram[column] == kind)])) for kind in (False, True)]
            want = np.r_[np.arange(u) < used[0], np.arange(stats.ref_counts.shape[1] - u) < used[1]]
            assert np.array_equal(stats.ref_counts[j] > 0, want)
            assert np.array_equal(stats.counts[j, :, :-2].any(axis=0), want)
            positions = len(np.unique(position[(m >= j * S) & (m < (j + 1) * S)]))
            assert np.array_equal(stats.lcs[j].any(axis=0), np.arange(stats.lcs.shape[2]) < positions)
        assert np.array_equal(stats.counts[..., -2].reshape(-1), entries.length)
        assert np.array_equal(stats.ref_tokens, entries.ref_tokens)
        assert np.array_equal(stats.ref_bigrams, entries.ref_bigrams)

    def test_seeded_split_of_many_examples(self):
        rng = random.Random(3)
        versions, references = [], []
        for _ in range(40):
            alphabet = "abcdefgh"[: rng.randint(1, 8)]
            versions.append([tuple(rng.choices(alphabet + "z", k=rng.randint(0, 90))) for _ in range(rng.randint(0, 9))])
            references.append([tuple(rng.choices(alphabet, k=rng.randint(1, 70))) for _ in range(rng.randint(1, 4))])
        assert_split_equals_reference(versions, references)

    def test_empty_split(self):
        entries = split_entries([], [])
        assert entries.ngrams.shape == (0, 3) and entries.matches.shape == (0, 2)
        assert entries.ref_counts.shape == entries.column_example.shape == entries.ref_tokens.shape == (0,)
        stats = entries.stats([], [], 0)
        assert stats.counts.shape == (0, 0, 2) and stats.lcs.shape == (0, 0, 0)
        assert stats.ref_counts.shape == (0, 0) and stats.ref_tokens.shape == (0,)


@st.composite
def chosen_splits(draw):
    """`split_inputs` examples, each with a mask that chooses some of its
    versions."""
    return [
        (vs, ref, tuple(draw(st.lists(st.booleans(), min_size=len(vs), max_size=len(vs)))))
        for vs, ref in draw(split_inputs((1, 5)))
    ]


class TestSplitEntriesTotals:
    """`SplitEntries.totals` of one summary per example, read from the
    entries of the versions it chooses, against `SentenceStats.totals` of
    the summed count rows and OR-ed LCS rows of each example on its own."""

    @settings(max_examples=150, deadline=None)
    @given(chosen_splits())
    # one sentence repeated and all of it chosen, so every column clips
    @example([((("a", "b", "a"),) * 4, (("a", "b"), ("b", "a")), (True,) * 4)])
    # two chosen versions match the same reference position; one is not chosen
    @example([((("a",), ("a", "c"), ("b",)), (("a", "b"),), (True, True, False)), ((), (("a",),), ())])
    # nothing chosen, and versions longer than 64 tokens
    @example([((LONG, LONG[3:]), (LONG[:66],), (False, False)), ((LONG[::-1], LONG), (LONG,), (True, True))])
    def test_equals_per_example_totals(self, split):
        entries = split_entries([list(vs) for vs, _, _ in split], [ref for _, ref, _ in split])
        got = entries.totals(np.array([c for _, _, row in split for c in row], dtype=bool))
        assert got.dtype == np.int64 and got.shape == (len(split), 5)
        for j, (vs, ref, row) in enumerate(split):
            want = sentence_stats(vs, ref)
            rows = np.flatnonzero(row)
            assert got[j].tolist() == want.totals(want.counts[rows].sum(axis=0), want.lcs[rows].any(axis=0)).tolist()

    def test_hand_counted_totals(self):
        # four copies of "a b a" against "a b" and "b a": 12 tokens and 8
        # bigrams, clipped to 4 unigrams and 2 bigrams, 4 positions matched;
        # then "a" and "a c" against "a b": both match position 0 once
        entries = split_entries([[("a", "b", "a")] * 4, [("a",), ("a", "c"), ("b",)]],
                                [[("a", "b"), ("b", "a")], [("a", "b")]])
        got = entries.totals(np.array([True] * 6 + [False]))
        assert got.tolist() == [[4, 2, 12, 8, 4], [1, 0, 3, 1, 1]]

    def test_empty_split(self):
        assert split_entries([], []).totals(np.zeros(0, dtype=bool)).shape == (0, 5)


def lcs_rows(entries, versions, references):
    """The LCS entries of `split_entries` as (N, S, T) rows: example j's
    version v, its own reference positions."""
    S = max(map(len, versions), default=0)
    T = max((sum(map(len, ref)) for ref in references), default=0)
    first, ref_start = starts(map(len, versions)), starts(sum(map(len, ref)) for ref in references)
    m, position = entries.matches.T
    j = np.searchsorted(first, m, side="right") - 1
    lcs = np.zeros((len(versions), S, T), dtype=bool)
    lcs[j, m - first[j], position - ref_start[j]] = True
    return lcs


def pairwise_lcs(versions, references):
    """The (N, S, T) LCS rows of a split from one `_lcs_positions` call per
    (version, reference sentence) pair."""
    S = max(map(len, versions), default=0)
    T = max((sum(map(len, ref)) for ref in references), default=0)
    lcs = np.zeros((len(versions), S, T), dtype=bool)
    for j, (vs, ref) in enumerate(zip(versions, references)):
        starts = list(itertools.accumulate(map(len, ref), initial=0))
        for v, version in enumerate(vs):
            for ref_sent, start in zip(ref, starts):
                for pos in lcs_positions(ref_sent, version):
                    lcs[j, v, start + pos] = True
    return lcs


# Versions of 0, 1, 63, 64, 65 and 130+ tokens (one, two and three words),
# over one to three tokens (many tied alignments) plus one no reference has;
# reference sentences of up to 80 tokens.
@st.composite
def lcs_records(draw):
    alphabet = "abc"[: draw(st.integers(1, 3))]
    size = st.sampled_from([0, 1, 2, 5, 63, 64, 65, 130, 140])
    version = size.flatmap(lambda n: token_lists(alphabet + "x", (n, n)).map(tuple))
    ref_sent = st.one_of(token_lists(alphabet, (1, 8)), token_lists(alphabet, (60, 80))).map(tuple)
    example = st.tuples(st.lists(version, max_size=4), st.lists(ref_sent, min_size=1, max_size=3))
    return draw(st.lists(example, min_size=1, max_size=3))


class TestSplitLcs:
    """The LCS entries of `split_entries`, aligned in lockstep over all
    pairs of a split, against one `_lcs_positions` call per pair."""

    @settings(max_examples=150, deadline=None)
    @given(records=lcs_records(), entries=st.sampled_from([1, 64, rouge.LCS_ENTRIES]))
    # no version shares a token with the reference, and one has no versions
    @example(records=[((("x",) * 70, ("x",)), (("a", "b"),)), ((), (("a",),))], entries=1)
    # a two-word and a three-word version in one block of a few pairs
    @example(records=[((("a", "b") * 40, ("b",) * 130), (("b", "a") * 35, ("a",)))], entries=64)
    def test_equals_per_pair_alignment(self, records, entries):
        versions, references = [list(vs) for vs, _ in records], [ref for _, ref in records]
        want = pairwise_lcs(versions, references)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rouge, "LCS_ENTRIES", entries)
            patch.setattr(rouge, "_lcs_positions", None)  # no per-pair call
            got = lcs_rows(split_entries(versions, references), versions, references)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("entries", [1, 64])
    def test_small_blocks_equal_one_block(self, monkeypatch, entries):
        """Blocks of one pair, and of a few pairs cut inside a group of equal
        word count, give the rows of one block per group."""
        rng = random.Random(5)
        versions = [[tuple(rng.choices("abcz", k=rng.choice([3, 40, 70, 135]))) for _ in range(6)] for _ in range(4)]
        references = [[tuple(rng.choices("abc", k=rng.choice([4, 30, 90]))) for _ in range(3)] for _ in range(4)]
        whole = split_entries(versions, references).matches
        blocks = []
        real = rouge._lcs_block
        monkeypatch.setattr(rouge, "_lcs_block", lambda *a: (blocks.append(len(a[-2])), real(*a))[1])
        monkeypatch.setattr(rouge, "LCS_ENTRIES", entries)
        got = split_entries(versions, references)
        assert np.array_equal(got.matches, whole)
        assert np.array_equal(lcs_rows(got, versions, references), pairwise_lcs(versions, references))
        sharing = sum(bool(set(v) & set(r)) for vs, ref in zip(versions, references) for v in vs for r in ref)
        assert sum(blocks) == sharing and (max(blocks) == 1) == (entries == 1)


class TestRougeN:
    def test_identity(self):
        s = ["the", "cat", "sat"]
        for n in (1, 2):
            score = rouge_n(s, [s], n)
            assert score.precision == score.recall == score.f1 == 1.0

    def test_disjoint(self):
        score = rouge_n(["a", "b"], [["c", "d"]], 1)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_hand_counted_overlap(self):
        score = rouge_n(["the", "cat", "sat"], [["the", "cat", "ran"]], 1)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(2 / 3)

    def test_clipping_against_pooled_reference(self):
        # "a" appears twice in the reference pool, three times in candidate
        score = rouge_n(["a", "a", "a"], [["a"], ["a", "b"]], 1)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], [["a"]], 0)

    @given(tokens, tokens)
    def test_swap_exchanges_precision_and_recall(self, cand, ref):
        fwd = rouge_n(cand, [ref], 1)
        rev = rouge_n(ref, [cand], 1)
        assert fwd.precision == pytest.approx(rev.recall, abs=1e-12)
        assert fwd.recall == pytest.approx(rev.precision, abs=1e-12)
        assert fwd.f1 == pytest.approx(rev.f1, abs=1e-12)

    @given(tokens, tokens)
    def test_scores_within_unit_interval(self, cand, ref):
        for n in (1, 2):
            s = rouge_n(cand, [ref], n)
            assert 0 <= s.precision <= 1 and 0 <= s.recall <= 1 and 0 <= s.f1 <= 1

    def test_appending_matching_ngram_never_decreases_recall(self):
        ref = [["x", "y", "z"]]
        cand = ["a", "b"]
        before = rouge_n(cand, ref, 1).recall
        after = rouge_n(cand + ["x"], ref, 1).recall
        assert after >= before


class TestRougeL:
    def test_identity(self):
        cand = [["a", "b", "c"], ["d", "e"]]
        score = rouge_l(cand, cand)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_reordered_tokens_match_brute_force(self):
        cand, ref = ["a", "b", "c", "d"], ["a", "c", "b", "d"]
        assert brute_force_lcs(ref, cand) == 3
        score = rouge_l([cand], [ref])
        assert score.precision == pytest.approx(3 / 4)
        assert score.recall == pytest.approx(3 / 4)
        assert score.f1 == pytest.approx(3 / 4)

    def test_empty_candidate(self):
        score = rouge_l([], [["a", "b"]])
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    @given(tokens, tokens)
    def test_single_sentence_lcs_equals_brute_force(self, cand, ref):
        expected = brute_force_lcs(ref, cand)
        score = rouge_l([cand], [ref])
        assert score.recall == pytest.approx(expected / len(ref))

    @given(tokens)
    def test_self_similarity_is_one(self, sent):
        assert rouge_l([sent], [sent]).f1 == 1.0


class TestReward:
    def test_identity_with_default_weights(self):
        ref = [["the", "crash", "took", "place"], ["one", "person", "died"]]
        assert reward(ref, ref, RewardWeights(0.4, 1.0, 0.5)) == pytest.approx(1.9)

    def test_disjoint_is_zero(self):
        assert reward([["a", "b"]], [["c", "d"]]) == 0.0

    def test_projection_onto_rouge1(self):
        cand, ref = [["a", "b", "c"]], [["a", "x", "c"]]
        w = RewardWeights(1.0, 0.0, 0.0)
        assert reward(cand, ref, w) == pytest.approx(rouge_n(cand[0], ref, 1).f1)

    def test_bounded_by_weight_sum(self):
        w = RewardWeights(0.4, 1.0, 0.5)
        cand, ref = [["a", "b"], ["c"]], [["a", "c"], ["b", "d"]]
        assert 0 <= reward(cand, ref, w) <= 0.4 + 1.0 + 0.5

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            RewardWeights(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            RewardWeights(-1.0, 1.0, 0.5)
