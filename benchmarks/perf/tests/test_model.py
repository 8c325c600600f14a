"""The checker must flag wrong answers — unit level and end to end."""

from dataclasses import replace
from types import SimpleNamespace

import workloads
from model import Checker, ReferenceModel
from repro.api.adapters import HyperProvStore


def _view(key, checksum, dependencies=(), metadata=None, size_bytes=1024, location="ext://x"):
    return SimpleNamespace(key=key, checksum=checksum, dependencies=list(dependencies),
                           metadata=metadata or {}, size_bytes=size_bytes, location=location)


def _model():
    model = ReferenceModel()
    model.commit("g00/a", "c1", "ext://x", (), {"hot": True}, 1024)
    model.commit("g00/b", "c2", "ext://x", ("g00/a",), {"hot": False}, 1024)
    model.commit("g00/a", "c3", "ext://x", (), {"hot": True}, 1024)
    return model


def test_model_tracks_versions_dependencies_and_hot_keys():
    model = _model()
    assert [v.checksum for v in model.versions["g00/a"]] == ["c1", "c3"]
    assert model.latest("g00/a").metadata == {"hot": True, "previous_checksum": "c1"}
    assert model.latest("g00/b").dependencies == ("g00/a",)
    assert model.keys_in_range("g00/a", "g00/b") == ["g00/a"]
    assert model.hot_keys_under("g00/", 10) == ["g00/a"]
    assert model.hot_commits == [("g00/a", "c1"), ("g00/a", "c3")]
    model.commit("g00/a", "c4", "ext://x", (), {"hot": False}, 1024)
    assert model.hot_keys_under("g00/", 10) == []


def test_checker_accepts_right_answers_and_flags_wrong_ones():
    checker = Checker(_model())
    right = _view("g00/a", "c3", metadata={"hot": True, "previous_checksum": "c1"})
    checker.check_get("g00/a", right)
    checker.check_verify("g00/a", "c3", True)
    checker.check_verify("g00/a", "nope", False)
    assert checker.failed == 0

    checker.check_get("g00/a", _view("g00/a", "c1", metadata=right.metadata))  # stale version
    checker.check_verify("g00/a", "nope", True)
    checker.check_get("g00/missing", right)
    history = SimpleNamespace(entries=[SimpleNamespace(view=right)])  # one version missing
    checker.check_history("g00/a", history)
    page = SimpleNamespace(records=[])  # the hot key is missing from the page
    checker.check_hot_query("g00/", 10, page)
    checker.check_deliveries([{"key": "g00/a", "record": {"checksum": "c1"}}])  # lost one
    assert checker.failed == 6
    assert len(checker.notes) == Checker.MAX_NOTES


def test_a_wrong_answer_injected_into_the_store_fails_the_pass(monkeypatch):
    honest_get = HyperProvStore.get
    served = []

    def lying_get(self, key, at_time=None):
        view = honest_get(self, key, at_time=at_time)
        served.append(key)
        if len(served) == 5:
            return replace(view, checksum="0" * 64)
        return view

    monkeypatch.setattr(HyperProvStore, "get", lying_get)
    result = workloads.run_read_mix(seed=11, scale=0.02)
    assert len(served) > 5
    assert result.failed == 1
    assert "get(" in result.notes[0]
