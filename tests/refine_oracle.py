"""Test-only oracle: BEAS_RA's η′ refinement written as the nested scan.

``d′ = max over induced answers of min over answers of max over attributes of
dis_A`` computed pair by pair, the way Fig. 5 (lines 4–7) states it.  Nothing
here calls ``repro.relational.kernels``, so ``tests/test_refine_oracle.py``
can hold ``repro.core.beas_ra.refine_bound_with_induced`` — which answers the
same question with one nearest-neighbour probe per induced answer — to it:
same ``repr(η′)``.
"""

from repro.algebra.spc import maximal_induced_query
from repro.core.lower_bound import distance_bounds
from repro.relational.distance import INFINITY


def d_prime(induced_answers, answers, distances):
    if len(induced_answers) == 0:
        return 0.0
    if len(answers) == 0:
        return INFINITY
    worst = 0.0
    answer_rows = list(answers.rows)
    for induced_row in induced_answers:
        best = INFINITY
        for answer_row in answer_rows:
            worst_attr = 0.0
            for a, b, dist in zip(answer_row, induced_row, distances):
                value = dist(a, b)
                if value > worst_attr:
                    worst_attr = value
                if worst_attr >= best:
                    break
            if worst_attr < best:
                best = worst_attr
            if best == 0.0:
                break
        if best > worst:
            worst = best
        if worst == INFINITY:
            break
    return worst


def refine_bound_with_induced(plan, executor, database, answers):
    query = plan.query
    if not query.has_difference():
        return plan.eta
    induced = maximal_induced_query(query)
    induced_answers = executor.evaluate(induced)
    resolutions = executor.resolutions
    d_rel, _ = distance_bounds(query, resolutions, database.schema)
    _, induced_cov = distance_bounds(induced, resolutions, database.schema)
    schema = query.output_schema(database.schema)
    distances = [attribute.distance for attribute in schema.attributes]
    distance = d_prime(induced_answers, answers, distances)
    if distance == INFINITY:
        return 0.0
    return 1.0 / (1.0 + max(d_rel, distance + induced_cov))
