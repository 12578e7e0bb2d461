"""In-process replay of serve-repeat's requests, in a fresh interpreter.

    python3 perfbench/replay.py FIXTURE_DIR REQUESTS.json OUT.json

Part of the traced run only. It repeats a seeded sample of the
workload's requests through the serving path's public pieces, with
``repro.telemetry`` recording and a benchmark span around each call:
``load_model``; ``EMAdapter(tokenizer, embedder, combiner, cache=False,
entity_cache=True).transform``; ``automl.predict_proba`` and
``automl.predict``; ``MatchEngine.match_pairs``. The cache directory is
fresh and holds the sampled requests' pairs, as the daemon's store does
after its warm-up.

Each sampled request goes through ``match_pairs`` twice and then
through the pieces: ``transform`` (stored entities, like both calls),
one timed ``predict_proba`` (one ensemble pass) and an untimed
``predict``. Every answer of the three is checked against the
fixture's oracle.
"""

from __future__ import annotations

import json
import sys

from spans import Spans

WARM_CHUNK = 64


def main(fixture_dir: str, requests_path: str, out: str) -> None:
    spans = Spans()
    with spans("setup.import"):
        import repro.matching  # noqa: F401 - the import is what is timed
        import repro.serving  # noqa: F401
    import numpy as np

    from repro import telemetry
    from repro.adapter import EMAdapter
    from repro.data import load_dataset
    from repro.persistence import load_model
    from repro.serving import MatchEngine

    with open(f"{fixture_dir}/fixture.json") as handle:
        fixture = json.load(handle)
    with open(requests_path) as handle:
        sample = json.load(handle)  # {"requests": [[i...]...]}

    # The workload's inputs, regenerated and compared with the fixture's.
    from fixture import payload

    with spans("data.generate"):
        generated = load_dataset(fixture["dataset"], scale=1.0)
    regenerated = {
        json.dumps({"left": payload(p.left, generated.schema),
                    "right": payload(p.right, generated.schema)}, sort_keys=True)
        for p in generated
    }
    inputs_ok = all(
        json.dumps(p, sort_keys=True) in regenerated for p in fixture["pairs"]
    )

    model_path = f"{fixture_dir}/model.pkl"
    with spans("persistence.load"):
        model = load_model(model_path)
    engine = MatchEngine(model_path, fixture["dataset"])
    adapter = EMAdapter(model.adapter.tokenizer, model.adapter.embedder,
                        model.adapter.combiner, cache=False, entity_cache=True)
    automl = model.automl

    # The daemon's warm-up stored every fixture pair; storing the pairs
    # the sample asks about gives its requests the same hits.
    used = sorted({i for request in sample["requests"] for i in request})
    pairs = [fixture["pairs"][i] for i in used]
    for start in range(0, len(pairs), WARM_CHUNK):
        with spans("warm-up"):
            adapter.transform(engine.dataset_for(pairs[start:start + WARM_CHUNK]))

    # Program spans and counters cover the sampled requests only.
    recorder = telemetry.enable()
    mismatches, answered = 0, 0
    for indices in sample["requests"]:
        pairs = [fixture["pairs"][i] for i in indices]
        expected_proba = [fixture["proba"][i] for i in indices]
        expected_labels = [fixture["labels"][i] for i in indices]
        # The first call meets the store as the daemon does. The second
        # call and the transform find the request's entities stored just
        # as surely, so the second call minus the transform is the part of
        # the engine's call that is not the transform.
        with spans("serving.match_pairs", pairs=len(pairs), call=1):
            answers = [engine.match_pairs(pairs)]
        with spans("serving.match_pairs", pairs=len(pairs), call=2):
            answers.append(engine.match_pairs(pairs))
        with spans("adapter.transform", pairs=len(pairs)):
            features = adapter.transform(engine.dataset_for(pairs))
        with spans("automl.predict_proba", pairs=len(pairs)):
            proba = automl.predict_proba(features)[:, 1]
        answers.append((proba, automl.predict(features)))
        answered += len(answers)
        for proba, labels in answers:
            answer = json.loads(json.dumps({
                "p": [float(p) for p in np.asarray(proba)],
                "l": [int(label) for label in np.asarray(labels)],
            }))
            if answer["p"] != expected_proba or answer["l"] != expected_labels:
                mismatches += 1

    telemetry.disable()
    program_spans: dict[str, list] = {}
    for record in recorder.spans:
        totals = program_spans.setdefault(record.name, [0, 0.0])
        totals[0] += 1
        totals[1] += record.end - record.start
    result = {
        "checks": {"inputs": inputs_ok, "mismatches": mismatches},
        "requests": len(sample["requests"]),
        "answers": answered,
        "program_spans": program_spans,
        "counters": {n: c.value for n, c in recorder.metrics.counters.items()},
        "spans": spans.records,
    }
    with open(out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(*sys.argv[1:4])
