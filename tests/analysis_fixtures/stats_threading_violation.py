"""Fixture: query entry points that drop the caller's counter (stats-threading)."""


def top_k(graph, function, k):  # VIOLATION
    return sorted(function(graph.vector(rid)) for rid in graph.real_ids())[:k]


def exact_top_k(values, ids, function, k, where=None, stats=None):  # VIOLATION
    scores = function.score_many(values)
    return sorted(zip(-scores, ids))[:k]
