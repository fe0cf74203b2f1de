import io
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikilink.baseline import Prediction
from wikilink.cli import main
from wikilink.dataset import PairRecord
from wikilink.errors import ParseError, ValidationError
from wikilink.evaluate import (
    ConfusionMatrix,
    confusion,
    emit_submission,
    macro_f1,
    read_predictions,
    report,
    write_predictions,
)

from oracles import brute_force_macro_f1


def preds(labels):
    return [Prediction(f"p{i}", float(y), y) for i, y in enumerate(labels)]


def gold(labels):
    return [PairRecord(f"p{i}", 0, 1, y) for i, y in enumerate(labels)]


class TestConfusion:
    def test_all_correct(self):
        m = confusion(preds([0, 1, 1]), gold([0, 1, 1]))
        assert m == ConfusionMatrix(tp=2, fp=0, tn=1, fn=0)

    def test_one_flipped_positive(self):
        m = confusion(preds([0, 1, 0]), gold([0, 1, 1]))
        assert m.fn == 1

    def test_disjoint_ids_rejected(self):
        with pytest.raises(ValidationError, match="coverage"):
            confusion([Prediction("a", 0.5, 1)], [PairRecord("b", 0, 1, 1)])

    def test_order_independent(self):
        p = preds([0, 1, 0, 1])
        g = gold([1, 1, 0, 0])
        assert confusion(p, g) == confusion(p[::-1], g[::-1])

    def test_unlabeled_gold_rejected(self):
        with pytest.raises(ValidationError):
            confusion(preds([1]), [PairRecord("p0", 0, 1, None)])


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1(ConfusionMatrix(tp=3, tn=4)) == 1.0

    def test_all_zero_predictions(self):
        # gold [0,0,0,1], predictions all 0
        m = confusion(preds([0, 0, 0, 0]), gold([0, 0, 0, 1]))
        assert macro_f1(m) == pytest.approx(3 / 7)

    def test_empty_input(self):
        assert macro_f1(ConfusionMatrix()) == 0.0

    def test_report_fields(self):
        rep = report(confusion(preds([0, 0, 0, 0]), gold([0, 0, 0, 1])))
        assert rep.precision_0 == pytest.approx(3 / 4)
        assert rep.recall_0 == 1.0
        assert rep.f1_0 == pytest.approx(6 / 7)
        assert rep.f1_1 == 0.0
        assert rep.macro_f1 == (rep.f1_0 + rep.f1_1) / 2

    def test_exhaustive_small_oracle(self):
        for n in range(0, 5):
            for g in itertools.product((0, 1), repeat=n):
                for p in itertools.product((0, 1), repeat=n):
                    m = confusion(preds(list(p)), gold(list(g)))
                    assert macro_f1(m) == brute_force_macro_f1(list(g), list(p))

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=30))
    def test_matches_brute_force(self, rows):
        g = [a for a, _ in rows]
        p = [b for _, b in rows]
        assert macro_f1(confusion(preds(p), gold(g))) == brute_force_macro_f1(g, p)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=30))
    def test_class_swap_symmetry(self, rows):
        g = [a for a, _ in rows]
        p = [b for _, b in rows]
        plain = macro_f1(confusion(preds(p), gold(g)))
        swapped = macro_f1(confusion(preds([1 - y for y in p]), gold([1 - y for y in g])))
        assert plain == pytest.approx(swapped, abs=1e-15)

    def test_permutation_invariant(self):
        rng = random.Random(0)
        g = [rng.randint(0, 1) for _ in range(20)]
        p = [rng.randint(0, 1) for _ in range(20)]
        base = macro_f1(confusion(preds(p), gold(g)))
        order = list(range(20))
        rng.shuffle(order)
        shuffled = macro_f1(confusion(
            [Prediction(f"p{i}", 0.5, p[i]) for i in order],
            [PairRecord(f"p{i}", 0, 1, g[i]) for i in order],
        ))
        assert base == shuffled


class TestSubmission:
    def test_single_row(self):
        buf = io.StringIO()
        emit_submission([Prediction("p0", 0.9, 1)], buf)
        assert buf.getvalue() == "id,label\np0,1\n"

    def test_empty(self):
        buf = io.StringIO()
        emit_submission([], buf)
        assert buf.getvalue() == "id,label\n"

    def test_input_order_preserved(self):
        buf = io.StringIO()
        emit_submission([Prediction("z", 0.1, 0), Prediction("a", 0.9, 1)], buf)
        assert buf.getvalue() == "id,label\nz,0\na,1\n"


class TestPredictionsFile:
    def test_round_trip(self):
        records = [Prediction("p0", 0.25, 0), Prediction("p1", 0.875, 1)]
        buf = io.StringIO()
        write_predictions(records, buf)
        buf.seek(0)
        assert list(read_predictions(buf)) == records

    def test_probability_precision_survives(self):
        original = Prediction("p", 0.1234567890123456789, 0)
        buf = io.StringIO()
        write_predictions([original], buf)
        buf.seek(0)
        assert next(read_predictions(buf)).probability == original.probability

    def test_line_endings_and_line_numbers(self):
        # The CRs ending a line go, blank lines are skipped, and each line keeps its number.
        text = "id,prob,label\r\r\n\np0,0.5,1\r\n\r\np1,0.25,0\n"
        assert list(read_predictions(io.StringIO(text))) == [
            Prediction("p0", 0.5, 1), Prediction("p1", 0.25, 0)]
        for text, line in (("", 1), ("id,prob\n", 1), ("id,prob,label\n\np0,x,1\n", 3)):
            with pytest.raises(ParseError) as exc:
                list(read_predictions(io.StringIO(text)))
            assert exc.value.line == line, text


class TestFailsClosed:
    def test_duplicate_prediction_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate prediction id p1"):
            confusion(preds([0, 1]) + [Prediction("p1", 0.1, 0)], gold([0, 1]))

    def test_duplicate_gold_id_rejected(self):
        with pytest.raises(ValidationError, match="duplicate gold id p0"):
            confusion(preds([0, 1]), gold([0, 1]) + [PairRecord("p0", 0, 1, 0)])

    @pytest.mark.parametrize("prob", ["nan", "7.5", "-0.25", "inf"])
    def test_probability_outside_unit_interval_rejected(self, prob):
        with pytest.raises(ValidationError, match="probability"):
            list(read_predictions(io.StringIO(f"id,prob,label\np0,{prob},1\n")))

    def test_probability_bounds_accepted(self):
        rows = list(read_predictions(io.StringIO("id,prob,label\np0,0.0,0\np1,1.0,1\n")))
        assert [p.probability for p in rows] == [0.0, 1.0]

    @pytest.mark.parametrize("extra_prediction,extra_gold", [
        ("p0,0.9,1\n", ""),
        ("", "p0,0,1,0\n"),
        ("p2,nan,1\n", "p2,0,1,1\n"),
        ("p2,7.5,1\n", "p2,0,1,1\n"),
    ], ids=["duplicate prediction", "duplicate gold", "nan probability", "probability 7.5"])
    def test_eval_exits_3(self, extra_prediction, extra_gold, tmp_path, capsys):
        (tmp_path / "pred.csv").write_text("id,prob,label\np0,0.1,0\np1,0.9,1\n" + extra_prediction)
        (tmp_path / "gold.csv").write_text("id,id1,id2,label\np0,0,1,0\np1,0,1,1\n" + extra_gold)
        code = main(["eval", "--predictions", str(tmp_path / "pred.csv"),
                     "--pairs", str(tmp_path / "gold.csv")])
        assert code == 3
        assert "error [validation]" in capsys.readouterr().err
