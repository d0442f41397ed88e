"""The same seed gives the same inputs; streams never overlap."""

import itertools
import json

import inputs


def _take(gen, n):
    return [json.dumps(x) for x in itertools.islice(gen, n)]


def test_same_seed_same_inputs():
    assert _take(inputs.rpc_requests(7), 500) == _take(inputs.rpc_requests(7), 500)
    assert inputs.stream_sessions(7) == inputs.stream_sessions(7)
    config = inputs.stream_sessions(7)[3]
    assert (_take(inputs.session_ops(7, 3, config), 300)
            == _take(inputs.session_ops(7, 3, config), 300))
    assert inputs.round_robin_pushes(7, 2) == inputs.round_robin_pushes(7, 2)


def test_prefix_does_not_depend_on_length():
    assert _take(inputs.rpc_requests(3), 50) == _take(inputs.rpc_requests(3), 400)[:50]


def test_other_seed_other_inputs():
    assert _take(inputs.rpc_requests(1), 50) != _take(inputs.rpc_requests(2), 50)
    assert inputs.stream_sessions(1) != inputs.stream_sessions(2)


def test_warm_up_disjoint_from_timed_stream():
    timed = set(_take(inputs.rpc_requests(5, "timed"), 3000))
    for stream in ("warm1", "warm2", "warm3", "warm4", "warm5"):
        assert timed.isdisjoint(_take(inputs.rpc_requests(5, stream), 1000))


def test_rpc_mix_shares():
    reqs = list(itertools.islice(inputs.rpc_requests(11), 8000))
    hot = {json.dumps(r) for r in inputs.hot_set(11)}
    n_hot = sum(json.dumps(r) in hot for r in reqs)
    n_surrogate = sum(r["profile"] == "surrogate" for r in reqs)
    assert 0.22 < n_hot / len(reqs) < 0.28
    assert 0.22 < n_surrogate / len(reqs) < 0.28
    assert {r["scheme"] for r in reqs} == set(inputs.SCHEMES)


def test_surrogate_inputs_in_training_domain():
    rows = [r for r in itertools.islice(inputs.rpc_requests(9), 2000)
            if r["profile"] == "surrogate"]
    assert rows
    lo, hi = inputs.SURROGATE_DEMAND
    for r in rows:
        assert len(r["apc_alone"]) == inputs.SURROGATE_APPS
        assert r["bandwidth"] == inputs.TRAINING_BANDWIDTH
        assert all(lo * r["bandwidth"] <= a <= hi * r["bandwidth"] for a in r["apc_alone"])
        assert all(inputs.SURROGATE_API[0] <= a <= inputs.SURROGATE_API[1] for a in r["api"])


def test_stream_sessions_same_mix_for_every_seed():
    def shape(seed):
        return [(c["scheme"], c["profile"], len(c["api"])) for c in inputs.stream_sessions(seed)]

    assert shape(1) == shape(2)
    assert len(shape(1)) == inputs.STREAM_SESSIONS


def test_round_robin_pushes():
    pushes = inputs.round_robin_pushes(4, 3)
    assert len(pushes) == 3 * inputs.STREAM_SESSIONS
    assert [i for i, _ in pushes[:inputs.STREAM_SESSIONS]] == list(range(inputs.STREAM_SESSIONS))
    assert pushes == inputs.round_robin_pushes(4, 3)
    assert all(set(json.loads(body)) == {"window_cycles", "accesses", "interference_cycles"}
               for _, body in pushes)


def test_stream_pushes_change_phase():
    config = inputs.stream_sessions(2)[0]
    pushes = list(itertools.islice(inputs.session_ops(2, 0, config), 200))
    ratios = [p["accesses"][0] / (p["window_cycles"] - p["interference_cycles"][0])
              for p in pushes]
    # within a phase an app's demand moves by at most its +-5 % noise
    jumps = sum(abs(b / a - 1.0) > 0.12 for a, b in zip(ratios, ratios[1:]))
    assert 2 <= jumps <= 8
