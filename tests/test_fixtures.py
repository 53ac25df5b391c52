"""The bundled corpus: every module file names the algebra it lives over."""

import json

from rectilt.algebra import algebra_from_json
from rectilt.fixtures import corpus, write_corpus
from rectilt.rep import Representation


def test_corpus_modules_round_trip_through_their_labelled_algebra(tmp_path):
    write_corpus(tmp_path)
    modules = corpus()["modules"]
    assert sorted(p.stem for p in (tmp_path / "modules").glob("*.json")) == sorted(modules)
    for name, mod in modules.items():
        payload = json.loads((tmp_path / "modules" / f"{name}.json").read_text())
        algebra_data = json.loads((tmp_path / payload["algebra"]).read_text())
        assert algebra_data == mod.algebra.to_json(), name
        back = Representation.from_json(algebra_from_json(algebra_data), payload)
        assert back.to_json() == mod.to_json(), name
