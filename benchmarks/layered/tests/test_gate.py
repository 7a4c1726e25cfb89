import numpy as np

import gate


def test_the_kernels_pass_their_oracles():
    assert gate.kernel_gate(20230328) == []
    assert gate.kernel_gate(5) == []


def test_a_wrong_answer_is_reported(monkeypatch):
    from repro.tasks import exact

    truth = exact.k_hop_set
    monkeypatch.setattr(exact, "k_hop_set", lambda g, s, k: ~truth(g, s, k))
    problems = gate.kernel_gate(5)
    assert problems and all("BKHS" in p for p in problems)


def test_the_bppr_oracle_is_independent_and_tight(monkeypatch):
    monkeypatch.setattr(gate, "BPPR_ATOL", 1e-12)
    assert any("BPPR aggregate" in p for p in gate.kernel_gate(5))
    from repro.graph.generators import chung_lu

    graph = chung_lu(300, 5.0, seed=2)
    total = gate._propagate(graph, np.full(300, 1.0 / 300)).sum()
    assert abs(total - 1.0) < 1e-9  # every walk stops somewhere
