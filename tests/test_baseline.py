import io
import json
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikilink.baseline import (
    DENSE_BLOCK_SIZE,
    AdamWState,
    BaselineModel,
    Prediction,
    TrainConfig,
    FEATURIZE_CHUNK,
    NodeTable,
    _dedup_key_bits,
    adamw_step,
    featurize,
    fit,
    fnv1a_64,
    load_model,
    logistic_loss_and_gradient,
    predict,
    save_model,
    sigmoid,
    train,
)
from wikilink.dataset import PairRecord
from wikilink.errors import NumericError, ValidationError
from wikilink.pairs import Tokens, build_pair
from wikilink.textclean import WHITESPACE_CHARS

from oracles import (
    TuplePair,
    dense_gradient,
    numeric_gradient,
    reference_adamw_arrays,
    reference_dot,
    reference_featurize,
    reference_loss_and_gradient,
    reference_save_model_v3,
    reference_tokenize,
    reference_train,
    row_items,
    rows_from_dicts,
    scalar_adamw_trace,
    table_pairs,
)


def pair(premise, hypothesis, label=None, pair_id="p"):
    return TuplePair(pair_id, tuple(premise), tuple(hypothesis), label)


def over_table(items, hash_bits):
    """The tuple pairs as the library's pairs, and the node table of their token table."""
    tokens, pairs = table_pairs(items)
    return pairs, NodeTable(tokens, hash_bits, pairs)


def featurize_items(items, hash_bits):
    return featurize(*over_table(items, hash_bits))


def train_items(items, config):
    pairs, table = over_table(items, config.hash_bits)
    return train(pairs, config, table)


def predict_items(model, items):
    return predict(model, *over_table(items, model.config.hash_bits))


def features(sp, hash_bits):
    """The one row featurize gives for sp, as an index -> value dict."""
    return dict(row_items(featurize_items([sp], hash_bits), 0))


def loss_and_gradient(weights, batch):
    """The array loss on (features dict, label) pairs."""
    return logistic_loss_and_gradient(
        weights, rows_from_dicts([f for f, _ in batch]), [y for _, y in batch])


def zero_state(config):
    """An AdamW state over all 2^hash_bits + 4 slots."""
    return AdamWState(config, (1 << config.hash_bits) + DENSE_BLOCK_SIZE)


def step(state, gradient):
    """adamw_step with an index -> value gradient spread over the weights."""
    return adamw_step(state, dense_gradient(gradient, state.weights.shape[0]))


class TestFeaturize:
    def test_identical_sides(self):
        f = features(pair(["a"], ["a"]), hash_bits=8)
        base = 1 << 8
        assert f[base] == 1.0      # overlap count
        assert f[base + 1] == 1.0  # jaccard
        assert f[base + 2] == 0.0  # length diff
        assert f[base + 3] == 1.0  # bias

    def test_disjoint_sides(self):
        f = features(pair(["a"], ["b"]), hash_bits=8)
        base = 1 << 8
        assert f[base] == 0.0
        assert f[base + 1] == 0.0

    def test_both_empty(self):
        f = features(pair([], []), hash_bits=8)
        base = 1 << 8
        assert f == {base: 0.0, base + 1: 0.0, base + 2: 0.0, base + 3: 1.0}

    def test_indices_in_range(self):
        f = features(pair(["a", "b", "c"], ["b", "d"]), hash_bits=6)
        assert all(0 <= i < (1 << 6) + DENSE_BLOCK_SIZE for i in f)

    def test_hash_stability(self):
        # published FNV-1a 64 vectors plus a frozen namespaced value
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8
        assert fnv1a_64(b"P\x1fhello") == 0xA4549303476235E8

    def test_deterministic(self):
        p = pair(["x", "y"], ["y", "z"])
        assert features(p, 10) == features(p, 10)

    def test_overlap_counts_multiplicity(self):
        f = features(pair(["a", "a", "b"], ["a"]), hash_bits=8)
        assert f[1 << 8] == 2.0  # both premise 'a' occurrences overlap

    def test_zero_pairs(self):
        """No pairs give no rows, over a table of some nodes or of none."""
        for _, table in (over_table([pair(["a"], ["b"])], 8), over_table([], 8)):
            rows = featurize([], table)
            assert len(rows) == 0 and rows.indptr.tolist() == [0]
            assert rows.indptr.dtype == rows.indices.dtype == np.int64
            assert rows.values.dtype == np.float64
            assert rows.indices.shape == rows.values.shape == (0,)


# Lone surrogate, private use and astral: UTF-8 byte order is code-point order across them.
token = (st.sampled_from(["a", "b", "é", "日本", "a\x1eb", "\ud800", "\ue000", "\U0001F600"])
         | st.text(min_size=1, max_size=5))
side = st.lists(token, max_size=6)


class TestBatchesMatchScalarOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        distinct=st.lists(st.tuples(side, side, st.integers(0, 1)), min_size=1, max_size=6),
        n=st.integers(1, 2 * FEATURIZE_CHUNK + 5),
        hash_bits=st.integers(1, 18),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_gradient_and_probabilities(self, distinct, n, hash_bits, seed):
        # Cycling a few pairs out to n rows makes the batch span chunk boundaries.
        pairs = [pair(*distinct[i % len(distinct)], pair_id=f"p{i}") for i in range(n)]
        rows = featurize_items(pairs, hash_bits)
        oracle = [reference_featurize(sp, hash_bits) for sp in pairs]
        assert len(rows) == n
        for r, f in enumerate(oracle):
            assert row_items(rows, r) == list(f.items())

        dim = (1 << hash_bits) + DENSE_BLOCK_SIZE
        weights = np.random.default_rng(seed).normal(0.0, 2.0, dim)
        labels = [sp.label for sp in pairs]
        loss, grad = logistic_loss_and_gradient(weights, rows, labels)
        ref_loss, ref_grad = reference_loss_and_gradient(weights, list(zip(oracle, labels)))
        assert loss == ref_loss
        assert grad.tobytes() == dense_gradient(ref_grad, dim).tobytes()

        model = BaselineModel.zeros(TrainConfig(hash_bits=hash_bits))
        model.weights[:] = weights
        assert [p.probability for p in predict_items(model, pairs)] == [
            sigmoid(reference_dot(weights, f)) for f in oracle]


class TestNodeReuseMatchesScalarOracle:
    """Pairs drawn from a small pool of nodes, as a pairs file draws them
    from a node table: a node on both sides of one pair, a node in many
    pairs on either side, and equal tuples that are distinct objects."""

    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(st.lists(st.sampled_from(["a", "b", "日本"]) | token, max_size=6),
                      min_size=1, max_size=6),
        picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()),
                       min_size=1, max_size=133),
        hash_bits=st.integers(1, 18),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_and_probabilities(self, pool, picks, hash_bits, seed):
        nodes = [tuple(tokens) for tokens in pool]
        pairs = []
        for i, (a, b, copy) in enumerate(picks):
            premise, hypothesis = nodes[a % len(nodes)], nodes[b % len(nodes)]
            if copy:  # an equal tuple that is another object
                hypothesis = tuple(list(hypothesis))
            pairs.append(TuplePair(f"p{i}", premise, hypothesis))
        rows = featurize_items(pairs, hash_bits)
        oracle = [reference_featurize(sp, hash_bits) for sp in pairs]
        assert [row_items(rows, r) for r in range(len(rows))] == [list(f.items()) for f in oracle]

        model = BaselineModel.zeros(TrainConfig(hash_bits=hash_bits))
        model.weights[:] = np.random.default_rng(seed).normal(0.0, 2.0, model.weights.shape[0])
        assert [p.probability for p in predict_items(model, pairs)] == [
            sigmoid(reference_dot(model.weights, f)) for f in oracle]


word = st.sampled_from(["a", "b", "é", "日本", "a\x1eb", "\xa0"]) | st.text(
    st.characters(blacklist_characters=WHITESPACE_CHARS), min_size=1, max_size=4)


class TestSharedTableMatchesScalarOracle:
    """Train and test pairs read into one token table and scored from one
    node table, as `pipeline` reads them: a node in both files, two node
    ids with equal text, and empty sides."""

    @settings(max_examples=40, deadline=None)
    @given(
        texts=st.lists(st.lists(word, max_size=6).map(" ".join), min_size=1, max_size=4),
        train_picks=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 1)),
                             max_size=12),
        test_picks=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12),
        max_tokens=st.integers(1, 5),
        hash_bits=st.integers(1, 18),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_and_probabilities(self, texts, train_picks, test_picks, max_tokens, hash_bits,
                                    seed):
        texts = [*texts, ""]
        text_of = {i: texts[i // 2] for i in range(2 * len(texts))}  # ids 2k, 2k + 1: texts[k]
        n = len(text_of)
        # Ids 0 and 1 hold equal text, the last two are empty, and node 0 is in both files.
        train_records = [PairRecord(f"t{k}", a % n, b % n, y)
                         for k, (a, b, y) in enumerate([(0, 1, 1), (n - 1, 0, 0), *train_picks])]
        test_records = [PairRecord(f"s{k}", a % n, b % n)
                        for k, (a, b) in enumerate([(0, n - 2), *test_picks])]
        tokens = Tokens(max_tokens)
        train_pairs, test_pairs = (
            [build_pair(r, text_of[r.id1], text_of[r.id2], tokens) for r in records]
            for records in (train_records, test_records))
        assert len(tokens.ids) == len({i for r in train_records + test_records
                                       for i in (r.id1, r.id2)})
        table = NodeTable(tokens, hash_bits, train_pairs + test_pairs)

        def as_tuples(records):
            return [TuplePair(r.pair_id, reference_tokenize(text_of[r.id1])[:max_tokens],
                              reference_tokenize(text_of[r.id2])[:max_tokens], r.label)
                    for r in records]

        for pairs, records in ((train_pairs, train_records), (test_pairs, test_records)):
            rows = featurize(pairs, table)
            assert [row_items(rows, r) for r in range(len(rows))] == [
                list(reference_featurize(t, hash_bits).items()) for t in as_tuples(records)]
        cfg = TrainConfig(hash_bits=hash_bits, batch_size=3, epochs=2, seed=seed)
        model = assert_matches_dense_oracle(train_pairs, table, cfg,
                                            reference_train(as_tuples(train_records), cfg))
        assert [p.probability for p in predict(model, test_pairs, table)] == [
            sigmoid(reference_dot(model.weights, reference_featurize(t, hash_bits)))
            for t in as_tuples(test_records)]

    def test_table_hashed_at_other_hash_bits_rejected(self):
        pairs, table = over_table([pair(["a"], ["b"], label=1)], hash_bits=8)
        with pytest.raises(ValidationError, match="hash_bits 8"):
            predict(BaselineModel.zeros(TrainConfig(hash_bits=9)), pairs, table)
        with pytest.raises(ValidationError, match="hash_bits 8"):
            train(pairs, TrainConfig(hash_bits=9), table)


class TestSideAwareTable:
    """A table hashes a node's P stream only if it is some pair's premise,
    its H stream only if it is some pair's hypothesis, and S only for
    tokens on both sides."""

    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(side, min_size=3, max_size=6),
        picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_sided_both_sided_and_self_pairs_at_one_bit(self, pool, picks, seed):
        """At hash_bits 1 every slot collides, so a stream laid out from the
        wrong side or a missing shared slot shows in the counts. Node 0 is
        only ever a premise, node 1 only a hypothesis, node 2 is paired with
        itself, and the others fall on either side or both."""
        nodes = [tuple(tokens) for tokens in pool]
        rest = len(nodes) - 2  # premises come from 0, 2, 3, ...; hypotheses from 1, 2, 3, ...
        items = [pair(nodes[0], nodes[1]), pair(nodes[2], nodes[2]),
                 *(pair(nodes[0 if a % (rest + 1) == 0 else 1 + a % (rest + 1)],
                        nodes[1 + b % (rest + 1)]) for a, b in picks)]
        oracle = [reference_featurize(sp, 1) for sp in items]
        rows = featurize_items(items, 1)
        assert [row_items(rows, r) for r in range(len(rows))] == [list(f.items()) for f in oracle]
        model = BaselineModel.zeros(TrainConfig(hash_bits=1))
        model.weights[:] = np.random.default_rng(seed).normal(0.0, 2.0, model.weights.shape[0])
        assert [p.probability for p in predict_items(model, items)] == [
            sigmoid(reference_dot(model.weights, f)) for f in oracle]

    def test_pair_on_a_side_not_built_rejected(self):
        """rows() refuses a premise the table holds only as a hypothesis, and the reverse."""
        pairs, table = over_table([pair(["a"], ["b"], label=1)], hash_bits=8)
        swapped = [sp._replace(premise=sp.hypothesis, hypothesis=sp.premise) for sp in pairs]
        with pytest.raises(ValidationError, match="side the node table was not built for"):
            featurize(swapped, table)
        with pytest.raises(ValidationError, match="side the node table was not built for"):
            predict(BaselineModel.zeros(TrainConfig(hash_bits=8)), swapped, table)

    def test_dedup_key_budget(self):
        """The row layout's (row, slot, position) sort key must fit 63 bits:
        a chunk of 64 rows at hash_bits 30 holds up to 2^27 slots. Checked
        from the sizes alone, before any key array exists."""
        assert _dedup_key_bits(64, 30, 1 << 27) == 27
        with pytest.raises(ValidationError, match="63-bit"):
            _dedup_key_bits(64, 30, (1 << 27) + 1)
        assert _dedup_key_bits(1, 30, 1 << 33) == 33
        assert _dedup_key_bits(0, 1, 0) == 0


class TestAdamW:
    def test_zero_gradient_no_decay(self):
        cfg = TrainConfig(weight_decay=0.0)
        state = zero_state(cfg)
        step(state, {0: 0.0})
        assert state.step == 1
        assert not state.weights.any()

    @pytest.mark.parametrize("g", [3.7, -0.004, 1e6])
    def test_single_step_matches_scalar_trace(self, g):
        cfg = TrainConfig(weight_decay=0.0)
        state = zero_state(cfg)
        step(state, {5: g})
        expected = scalar_adamw_trace(
            0.0, [g], cfg.learning_rate, cfg.adamw_beta1, cfg.adamw_beta2,
            cfg.adamw_eps, 0.0,
        )
        assert state.weights[5] == pytest.approx(expected, rel=1e-12)
        # and the closed form for step one: -lr * g / (|g| + eps)
        assert state.weights[5] == pytest.approx(
            -cfg.learning_rate * g / (abs(g) + cfg.adamw_eps), rel=1e-12
        )

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_steps_equal_formulas_bit_for_bit(self, weight_decay):
        cfg = TrainConfig(hash_bits=6, weight_decay=weight_decay)
        state = zero_state(cfg)
        dim = state.weights.shape[0]
        rng = np.random.default_rng(5)
        state.weights[:] = rng.normal(size=dim)
        w, m, v = state.weights.copy(), state.m.copy(), state.v.copy()
        for t in range(1, 6):
            g = rng.normal(size=dim) * (rng.random(dim) < 0.3)
            adamw_step(state, g)
            w, m, v = reference_adamw_arrays(w, m, v, g, t, cfg, dim - 1)
            assert state.weights.tobytes() == w.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_decay_only_shrinks_weight(self):
        cfg = TrainConfig(weight_decay=0.1)
        state = zero_state(cfg)
        state.weights[3] = 2.0
        step(state, {})
        assert state.weights[3] == pytest.approx(
            2.0 - cfg.learning_rate * 0.1 * 2.0, rel=1e-12
        )

    def test_decay_skips_bias(self):
        cfg = TrainConfig(weight_decay=0.1)
        state = zero_state(cfg)
        state.weights[-1] = 2.0
        step(state, {})
        assert state.weights[-1] == 2.0

    def test_multi_step_matches_scalar_trace(self):
        cfg = TrainConfig(weight_decay=0.05)
        state = zero_state(cfg)
        gs = [0.3, -1.2, 0.7, 0.0, 2.5]
        for g in gs:
            step(state, {2: g})
        expected = scalar_adamw_trace(
            0.0, gs, cfg.learning_rate, cfg.adamw_beta1, cfg.adamw_beta2,
            cfg.adamw_eps, cfg.weight_decay,
        )
        assert state.weights[2] == pytest.approx(expected, rel=1e-12)

    def test_non_finite_gradient_rejected(self):
        state = zero_state(TrainConfig())
        with pytest.raises(NumericError):
            step(state, {0: float("nan")})

    def test_out_of_range_index_rejected(self):
        state = zero_state(TrainConfig(hash_bits=4))
        with pytest.raises(ValidationError):
            adamw_step(state, dense_gradient({10**6: 1.0}, 10**6 + 1))


class TestGradient:
    def test_matches_finite_differences(self):
        rng = random.Random(7)
        for _ in range(20):
            dim = 10
            batch = []
            for _ in range(rng.randint(1, 6)):
                feats = {i: rng.uniform(-2, 2) for i in rng.sample(range(dim), 4)}
                batch.append((feats, rng.randint(0, 1)))
            w = np.array([rng.uniform(-1, 1) for _ in range(dim)])

            def loss_fn(weights):
                total = 0.0
                for feats, label in batch:
                    z = sum(weights[i] * x for i, x in feats.items())
                    p = sigmoid(z)
                    total -= math.log(p + 1e-12) if label else math.log(1 - p + 1e-12)
                return total / len(batch)

            _, grad = loss_and_gradient(w, batch)
            numeric = numeric_gradient(loss_fn, list(w))
            for i in range(dim):
                analytic = grad[i]
                assert analytic == pytest.approx(numeric[i], rel=1e-5, abs=1e-7)

    def test_batch_permutation_invariance(self):
        rng = random.Random(3)
        batch = [
            ({i: rng.uniform(-1, 1) for i in rng.sample(range(8), 3)}, rng.randint(0, 1))
            for _ in range(10)
        ]
        w = np.array([rng.uniform(-1, 1) for _ in range(8)])
        _, g1 = loss_and_gradient(w, batch)
        shuffled = batch[::-1]
        _, g2 = loss_and_gradient(w, shuffled)
        for i in range(len(w)):
            assert g1[i] == pytest.approx(g2[i], rel=1e-12, abs=1e-15)


class TestTrain:
    def test_learns_overlap_rule(self, fixture_sentence_pairs):
        from wikilink import evaluate

        model = train_items(fixture_sentence_pairs, TrainConfig())
        preds = predict_items(model, fixture_sentence_pairs)
        gold = [sp.label for sp in fixture_sentence_pairs]
        matrix = evaluate.ConfusionMatrix(
            tp=sum(1 for p, g in zip(preds, gold) if p.label == 1 and g == 1),
            fp=sum(1 for p, g in zip(preds, gold) if p.label == 1 and g == 0),
            tn=sum(1 for p, g in zip(preds, gold) if p.label == 0 and g == 0),
            fn=sum(1 for p, g in zip(preds, gold) if p.label == 0 and g == 1),
        )
        assert evaluate.macro_f1(matrix) >= 0.95

    def test_first_epoch_loss_decreases_in_aggregate(self, fixture_sentence_pairs):
        cfg = TrainConfig(epochs=2)
        pairs, table = over_table(fixture_sentence_pairs, cfg.hash_bits)
        _, state = fit(featurize(pairs, table), [sp.label for sp in pairs], cfg)
        batches_per_epoch = math.ceil(len(fixture_sentence_pairs) / cfg.batch_size)
        first = state.losses[:batches_per_epoch]
        later = state.losses[batches_per_epoch : 2 * batches_per_epoch]
        assert sum(later) < sum(first)

    def test_single_example_moves_toward_label(self):
        sp = pair(["a"], ["a"], label=1)
        model = train_items([sp], TrainConfig(epochs=1))
        assert predict_items(model, [sp])[0].probability > 0.5

    def test_deterministic_for_fixed_seed(self, fixture_sentence_pairs):
        cfg = TrainConfig(seed=42)
        m1 = train_items(fixture_sentence_pairs, cfg)
        m2 = train_items(fixture_sentence_pairs, cfg)
        assert np.array_equal(m1.weights, m2.weights)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            train_items([], TrainConfig())

    def test_unlabeled_rejected(self):
        with pytest.raises(ValidationError):
            train_items([pair(["a"], ["b"], label=None)], TrainConfig())

    @pytest.mark.parametrize("build", [
        lambda: TrainConfig(0),
        lambda: TrainConfig(epochs=0),
        lambda: TrainConfig(max_tokens=2**31),  # past a token's int32 count
        lambda: TrainConfig(learning_rate=math.inf),
        lambda: TrainConfig()._replace(hash_bits=31),
    ])
    def test_config_range_checked_however_built(self, build):
        with pytest.raises(ValueError):
            build()

    def test_peak_memory_per_hash_slot(self, fixture_sentence_pairs):
        """Training the fixture at hash_bits 22 peaks under 16 B per slot: the
        8 B of the weights and one int32 rank per slot to renumber the touched
        slots. AdamW's weights, m and v span the touched slots only, and no
        int64 array spans the hash space."""
        cfg = TrainConfig(hash_bits=22)
        pairs, table = over_table(fixture_sentence_pairs, cfg.hash_bits)
        _, peak = traced_peak(lambda: train(pairs, cfg, table))
        assert peak < 16 * ((1 << 22) + DENSE_BLOCK_SIZE)


def traced_peak(call):
    """call()'s result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_matches_dense_oracle(pairs, table, config, oracle):
    """`train`'s weights are the dense oracle's bit for bit, and `fit`'s
    final state is the oracle's at the touched slots: weights, m, v, step
    and losses. The oracle's weights, m and v are +0.0 on every other slot,
    which is why `train` may step over the touched slots alone. Returns the
    trained model."""
    model = train(pairs, config, table)
    assert model.weights.tobytes() == oracle.weights.tobytes()
    slots, state = fit(featurize(pairs, table), [sp.label for sp in pairs], config)
    for name in ("weights", "m", "v"):
        dense = getattr(oracle, name)
        assert getattr(state, name).tobytes() == dense[slots].tobytes(), name
        assert not np.delete(dense, slots).view(np.int64).any(), name  # +0.0 has no bit set
    assert state.step == oracle.step
    assert np.array(state.losses).tobytes() == np.array(oracle.losses).tobytes()
    return model


def assert_items_match_dense_oracle(examples, config):
    pairs, table = over_table(examples, config.hash_bits)
    return assert_matches_dense_oracle(pairs, table, config, reference_train(examples, config))


class TestTrainMatchesDenseOracle:
    """`train` steps over the touched slots only; the oracle steps over all of them."""

    @settings(max_examples=40, deadline=None)
    @given(
        distinct=st.lists(st.tuples(side, side, st.integers(0, 1)), min_size=1, max_size=6),
        n=st.integers(1, 24),
        hash_bits=st.integers(1, 18),
        weight_decay=st.sampled_from([0.0, 0.01, 0.5]),
        batch_size=st.integers(1, 10),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_for_bit(self, distinct, n, hash_bits, weight_decay, batch_size, epochs, seed):
        examples = [pair(*distinct[i % len(distinct)], pair_id=f"p{i}") for i in range(n)]
        cfg = TrainConfig(hash_bits=hash_bits, weight_decay=weight_decay,
                          batch_size=batch_size, epochs=epochs, seed=seed)
        assert_items_match_dense_oracle(examples, cfg)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_every_slot_touched(self, weight_decay):
        tokens = [f"t{i}" for i in range(12)]
        examples = [pair(tokens[i:], tokens[:i], label=i % 2, pair_id=f"p{i}") for i in range(12)]
        cfg = TrainConfig(hash_bits=2, weight_decay=weight_decay, batch_size=5, epochs=2)
        dim = (1 << cfg.hash_bits) + DENSE_BLOCK_SIZE
        assert np.unique(featurize_items(examples, cfg.hash_bits).indices).size == dim
        assert_items_match_dense_oracle(examples, cfg)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_only_dense_block_touched(self, weight_decay):
        examples = [pair([], [], label=i % 2, pair_id=f"p{i}") for i in range(7)]
        cfg = TrainConfig(hash_bits=8, weight_decay=weight_decay, batch_size=3, epochs=3)
        touched = np.unique(featurize_items(examples, cfg.hash_bits).indices)
        assert touched.tolist() == [(1 << 8) + k for k in range(DENSE_BLOCK_SIZE)]
        model = assert_items_match_dense_oracle(examples, cfg)
        assert not model.weights[: 1 << 8].any()

    def test_fixture(self, fixture_sentence_pairs):
        cfg = TrainConfig()
        assert_items_match_dense_oracle(fixture_sentence_pairs, cfg)


class TestPredict:
    def test_zero_model_is_half_and_positive(self):
        model = BaselineModel.zeros(TrainConfig())
        p, = predict_items(model, [pair(["a"], ["b"], pair_id="q")])
        assert p == Prediction("q", 0.5, 1)

    def test_below_threshold_is_zero(self):
        cfg = TrainConfig()
        model = BaselineModel.zeros(cfg)
        model.weights[-1] = -0.1
        assert predict_items(model, [pair(["a"], ["b"])])[0].label == 0

    def test_monotone_in_present_feature_weight(self):
        cfg = TrainConfig(hash_bits=8)
        model = BaselineModel.zeros(cfg)
        sp = pair(["a"], ["a"])
        before = predict_items(model, [sp])[0].probability
        jaccard_index = (1 << 8) + 1
        model.weights[jaccard_index] += 1.0
        assert predict_items(model, [sp])[0].probability > before

    @given(st.floats(-30, 30))
    def test_probability_strictly_inside_unit_interval(self, w):
        cfg = TrainConfig(hash_bits=4)
        model = BaselineModel.zeros(cfg)
        model.weights[:] = w
        p, = predict_items(model, [pair(["a", "b"], ["b"])])
        assert 0.0 < p.probability < 1.0


class TestSerialization:
    def test_round_trip(self, fixture_sentence_pairs):
        model = train_items(fixture_sentence_pairs[:50], TrainConfig(epochs=1))
        buf = io.StringIO()
        save_model(model, buf)
        buf.seek(0)
        loaded = load_model(buf)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.config == model.config
        sp = fixture_sentence_pairs[0]
        assert predict_items(loaded, [sp]) == predict_items(model, [sp])

    def test_bad_format_rejected(self):
        with pytest.raises(ValidationError):
            load_model(io.StringIO('{"format": "other", "config": {}, "weights": []}'))

    def test_serialization_is_deterministic(self, fixture_sentence_pairs):
        cfg = TrainConfig(seed=1, epochs=1)
        out = []
        for _ in range(2):
            buf = io.StringIO()
            save_model(train_items(fixture_sentence_pairs[:30], cfg), buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]


MAX = sys.float_info.max
special_weight = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, MAX, -MAX])
model_weight = st.just(0.0) | special_weight | st.floats(allow_nan=False, allow_infinity=False)


def model_with(weights, hash_bits):
    return BaselineModel(TrainConfig(hash_bits=hash_bits), np.asarray(weights, dtype=float))


def saved(model):
    buf = io.StringIO()
    save_model(model, buf)
    return buf.getvalue()


def assert_saved_as_oracle_and_round_trips(model):
    """save_model writes the scalar v3 oracle's text, which loads to the
    model's weights, bit for bit."""
    text = saved(model)
    assert text == reference_save_model_v3(model)
    loaded = load_model(io.StringIO(text))
    assert loaded.weights.tobytes() == model.weights.tobytes()
    assert loaded.config == model.config


class TestSaveMatchesJsonOracle:
    """`save_model` writes the v3 file: the base64 of the stored weights'
    float64 bytes and their gaps, which the oracle packs and counts weight
    by weight. The file loads to the same weights, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(hash_bits=st.integers(1, 6), data=st.data())
    def test_bytes_equal_oracle(self, hash_bits, data):
        dim = (1 << hash_bits) + DENSE_BLOCK_SIZE
        model = model_with(data.draw(st.lists(model_weight, min_size=dim, max_size=dim)), hash_bits)
        assert_saved_as_oracle_and_round_trips(model)

    @pytest.mark.parametrize("fill", [0.0, -0.0, 5e-324, -1e308, 1e308])
    @pytest.mark.parametrize("hash_bits", [1, 18])
    def test_uniform_vectors(self, fill, hash_bits):
        model = model_with(np.full((1 << hash_bits) + DENSE_BLOCK_SIZE, fill), hash_bits)
        assert_saved_as_oracle_and_round_trips(model)

    def test_trained_model(self, fixture_sentence_pairs):
        assert_saved_as_oracle_and_round_trips(train_items(fixture_sentence_pairs, TrainConfig()))

    def test_saving_allocates_nothing_hash_space_sized(self):
        """A hash_bits 22 model, 32 MiB of weights, of which four are stored
        (one of them -0.0), saves under a 64 KiB tracemalloc peak: finding the
        stored slots builds no mask over the hash space. Loading it peaks
        under 12 B per slot: one float64 vector, the weights."""
        model = model_with(np.zeros((1 << 22) + DENSE_BLOCK_SIZE), 22)
        model.weights[[3, 1000, 1 << 21, (1 << 22) + 3]] = [1.5, -0.0, -2.0, 0.25]
        buf = io.StringIO()
        _, peak = traced_peak(lambda: save_model(model, buf))
        assert peak < 64 * 1024
        assert json.loads(buf.getvalue())["gaps"] == [3, 996, (1 << 21) - 1001, (1 << 21) + 2]
        loaded, peak = traced_peak(lambda: load_model(io.StringIO(buf.getvalue())))
        assert peak < 12 * ((1 << 22) + DENSE_BLOCK_SIZE)
        assert loaded.weights.tobytes() == model.weights.tobytes()

    def test_hash_bits_30_bound_needs_no_vector(self):
        """A hash_bits 30 vector is 8 GiB, more than a small host lends
        np.zeros, so the round trip stops at hash_bits 18; the bound on the
        gaps, summed as Python ints, still holds at 30 before any allocation."""
        payload = json.loads(saved(model_with([0.0] * 5 + [-MAX], 1)))
        payload["config"]["hash_bits"] = 30
        payload["gaps"] = [(1 << 30) + DENSE_BLOCK_SIZE]
        with pytest.raises(ValidationError, match="past slot 1073741827"):
            load_model(io.StringIO(json.dumps(payload)))


class TestUnallocatableWeights:
    """hash_bits 30 needs a vector of 2^30 + 4 float64 slots, 8 GiB."""

    NEEDS = "hash_bits 30 needs 8,589,934,624 bytes"

    def test_zero_model(self, limit_zeros):
        limit_zeros(1 << 20)
        with pytest.raises(ValidationError, match=self.NEEDS):
            BaselineModel.zeros(TrainConfig(hash_bits=30))

    def test_load_model(self, limit_zeros):
        payload = json.loads(saved(model_with([0.0] * 5 + [-MAX], 1)))
        payload["config"]["hash_bits"] = 30
        limit_zeros(1 << 20)
        with pytest.raises(ValidationError, match=self.NEEDS):
            load_model(io.StringIO(json.dumps(payload)))

    def test_stored_weights_checked_before_any_vector(self, limit_zeros):
        payload = json.loads(saved(model_with([0.0] * 5 + [math.nan], 1)))
        payload["config"]["hash_bits"] = 30
        limit_zeros(0)
        with pytest.raises(ValidationError, match="finite"):
            load_model(io.StringIO(json.dumps(payload)))
