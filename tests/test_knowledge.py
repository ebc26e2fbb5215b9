import pytest

from radmat import DocumentError, DomainError, default_store, load_store, match, prune_visual
from radmat.docio import write_document
from radmat.knowledge import TOP_K, MaterialRecord, MaterialStore


@pytest.fixture(scope="module")
def store():
    return default_store()


def _store_doc(materials):
    return {"materials": materials}


def _record(name, mean, std=0.3, low=None, high=None, mid="MX"):
    return MaterialRecord(
        material_id=mid,
        name=name,
        epsilon_mean=mean,
        epsilon_std=std,
        epsilon_low=low if low is not None else max(mean - 1.0, 1.0),
        epsilon_high=high if high is not None else mean + 1.0,
    )


class TestDefaultStore:
    def test_seven_boards(self, store):
        assert len(store) == 7
        assert set(store.names) == {
            "metal",
            "frosted glass",
            "mirror glass",
            "ceramic",
            "plastic",
            "wood",
            "paper",
        }

    def test_descending_order_metal_glass_wood_paper(self, store):
        means = {r.name: r.epsilon_mean for r in store}
        assert means["metal"] > means["mirror glass"] >= means["frosted glass"]
        assert means["frosted glass"] > means["wood"] > means["paper"]


class TestMatch:
    def test_plastic_reading_ranks_plastic_first(self, store):
        result = match(2.87, store)
        assert result.top[0] == "plastic"

    def test_exact_mean_with_distant_alternatives_scores_high(self):
        records = [_record("near", 5.0, mid="M1"), _record("far", 40.0, mid="M2", low=30, high=50)]
        result = match(5.0, MaterialStore(records))
        assert result.top[0] == "near"
        assert result.top[1] > 0.9

    def test_identical_records_tie(self):
        records = [
            _record("twin a", 5.0, mid="M1"),
            _record("twin b", 5.0, mid="M2"),
            _record("other", 20.0, mid="M3", low=15, high=25),
        ]
        result = match(5.0, MaterialStore(records))
        scores = dict(result.candidates)
        assert scores["twin a"] == pytest.approx(scores["twin b"], rel=1e-12)
        assert {"twin a", "twin b"} <= set(scores)

    def test_scores_sum_to_one(self, store):
        result = match(7.3, store)
        assert len(result.candidates) == TOP_K
        assert sum(s for _, s in result.candidates) == pytest.approx(1.0, abs=1e-12)

    def test_store_order_invariance(self, store):
        reversed_store = MaterialStore(list(store)[::-1])
        a = dict(match(6.0, store).candidates)
        b = dict(match(6.0, reversed_store).candidates)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == pytest.approx(b[name], rel=1e-9)

    def test_common_std_scaling_keeps_argmax(self, store):
        scaled = MaterialStore(
            MaterialRecord(
                material_id=r.material_id,
                name=r.name,
                epsilon_mean=r.epsilon_mean,
                epsilon_std=r.epsilon_std * 3.0,
                epsilon_low=r.epsilon_low,
                epsilon_high=r.epsilon_high,
            )
            for r in store
        )
        for eps in (2.5, 5.2, 9.0, 28.0):
            assert match(eps, store).top[0] == match(eps, scaled).top[0]

    def test_epsilon_below_one_rejected(self, store):
        with pytest.raises(DomainError):
            match(0.5, store)


class TestPruneVisual:
    def test_removes_plastic_when_measurement_exceeds_its_interval(self, store):
        # frosted-glass object measured near ceramic/glass values
        candidates = [("frosted glass", 0.55), ("plastic", 0.45)]
        pruned = prune_visual(candidates, 6.8, store)
        assert [name for name, _ in pruned] == ["frosted glass"]
        assert pruned[0][1] == pytest.approx(1.0)

    def test_measurement_inside_every_interval_keeps_all(self, store):
        candidates = [("frosted glass", 0.5), ("ceramic", 0.5)]
        pruned = prune_visual(candidates, 6.8, store)
        assert {name for name, _ in pruned} == {"frosted glass", "ceramic"}

    def test_all_incompatible_keeps_least_incompatible(self, store):
        candidates = [("plastic", 0.6), ("paper", 0.4)]
        pruned = prune_visual(candidates, 24.0, store)
        # paper's widened interval ends closer to the measurement
        assert [name for name, _ in pruned] == ["paper"]

    def test_idempotent(self, store):
        candidates = [("frosted glass", 0.55), ("plastic", 0.45)]
        once = prune_visual(candidates, 6.8, store)
        twice = prune_visual(once, 6.8, store)
        assert once == twice

    def test_unknown_material_kept(self, store):
        pruned = prune_visual([("unobtainium", 1.0)], 6.8, store)
        assert pruned == [("unobtainium", 1.0)]


class TestLoadStore:
    def test_interval_violation_rejected(self, tmp_path):
        doc = _store_doc(
            [
                {
                    "id": "M1",
                    "name": "bad",
                    "epsilon": {"mean": 5.0, "std": 0.2, "low": 6.0, "high": 4.0},
                }
            ]
        )
        path = tmp_path / "store.json"
        write_document(path, doc)
        with pytest.raises(DocumentError):
            load_store(path)

    def test_duplicate_names_rejected(self, tmp_path):
        entry = {
            "id": "M1",
            "name": "dup",
            "epsilon": {"mean": 5.0, "std": 0.2, "low": 4.0, "high": 6.0},
        }
        path = tmp_path / "store.json"
        write_document(path, _store_doc([entry, dict(entry, id="M2")]))
        with pytest.raises(DocumentError, match="duplicate"):
            load_store(path)

    def test_empty_name_rejected(self, tmp_path):
        # a record named "" could never stand in a candidate list
        entry = {
            "id": "M1",
            "name": "",
            "epsilon": {"mean": 5.0, "std": 0.2, "low": 4.0, "high": 6.0},
        }
        path = tmp_path / "store.json"
        write_document(path, _store_doc([entry]))
        with pytest.raises(DocumentError, match="name must not be empty"):
            load_store(path)

    def test_empty_store_rejected(self, tmp_path):
        path = tmp_path / "store.json"
        write_document(path, _store_doc([]))
        with pytest.raises(DocumentError, match="empty"):
            load_store(path)
