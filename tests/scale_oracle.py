"""Oracle scale check, kept out of the tier-1 run: pytest does not collect
this file. Run it from the repository root:

    ulimit -v 1000000
    PYTHONPATH=src timeout 120 python tests/scale_oracle.py

The blocked-hub refutation spider(5,3) x spider(4,3) (387 edges) and
ten seeded C_6 x K_3,2 sweeps: under a second with pigeonhole pruning,
minutes for a search without it; the sweeps' reports must match a
sha256 pinned over their reprs, and their time is printed; then,
together in well under a second, the hub of spider(40,3) x
spider(30,3) (21,810 edges, 70
entries) built, certified and refuted, where a subset search for its
covers would face about C(40, 20) subsets, and Q_12 x P_3 found
inapplicable after all 4,096 vertices of Q_12 are tried; then a
heavy-tail draw of C_10 x K_3,3 (palette 5, ten entries; about 40
million nodes to its witness) at a 200,000-node budget, about a
second: it must raise with the budget as its node count and log the
counted search's record, so the first descent hands over to the
counted pass at the budget at scale; then, under a 1 GB address-space limit, the count and 20
draws of C_10 x K_3,3 (150 edges, about 1.9 * 10**14 instances, whose
listing ran out of 2 GB) with the exact search stubbed, each draw a
valid distance-2 matching; then the same product at budget 10**15,
exhaustive, which walks its ranks without listing them until the stub
stops it after 1,000 decisions; kept out of the tier-1 command.

The process keeps each sweep's product state, so of the ten C_6 x K_3,2
sweeps only the first builds its product and counts its instances, and
the sweep at budget 10**15 reuses the state of the 20 draws before it.
"""

import hashlib
import logging
import time
from edgex import (Precoloring, build_blocked_hub_instance, cartesian_product, check_local_obstruction,
                   complete_bipartite, cycle, decide_extendable, explore_bipartite_factor, hypercube,
                   oracle, path, spider, validate_precoloring)
from edgex.errors import BudgetExceededError, InapplicableError
inst = build_blocked_hub_instance(spider(5, 3), spider(4, 3))
pre = inst.precoloring
assert decide_extendable(inst.product.graph, pre, pre.palette_size) is None
reports = hashlib.sha256()
start = time.perf_counter()
for seed in range(10):
    report = explore_bipartite_factor(cycle(6), 3, 2, 20, seed)
    assert report.instances == 20, report
    reports.update(repr(report).encode())
elapsed = time.perf_counter() - start
assert reports.hexdigest() == "798412b9fad327018774e6977b100ba8af5bcee344744572cd8c6211297cf276", reports.hexdigest()
print(f"oracle scale check: hub refuted, 10 sweeps of C_6 x K_3,2 decided in {elapsed:.2f} s, reports as pinned")
start = time.perf_counter()
inst = build_blocked_hub_instance(spider(40, 3), spider(30, 3))
pre = inst.precoloring
assert (len(inst.product.graph.edges), len(pre.entries)) == (21810, 70)
cert = check_local_obstruction(inst.product, pre)
assert (cert.hub, cert.blocked_color) == (inst.hub, 1), cert
assert decide_extendable(inst.product.graph, pre, pre.palette_size) is None
try:
    build_blocked_hub_instance(hypercube(12), path(3))
except InapplicableError:
    pass
else:
    raise AssertionError("Q_12 has a vertex with a covering induced matching")
elapsed = time.perf_counter() - start
print(f"spider(40,3) x spider(30,3) hub built, certified and refuted, Q_12 x P_3 inapplicable in {elapsed:.2f} s")
records = []
class Keep(logging.Handler):
    def emit(self, record):
        records.append(record.getMessage())
log = logging.getLogger("edgex")
log.addHandler(Keep())
log.setLevel(logging.DEBUG)
heavy = Precoloring(5, {(0, 54): 2, (2, 56): 4, (7, 9): 5, (16, 22): 3, (17, 23): 4, (21, 27): 3,
                        (30, 35): 1, (37, 40): 5, (45, 51): 3, (47, 53): 4})
start = time.perf_counter()
try:
    decide_extendable(cartesian_product(cycle(10), complete_bipartite(3, 3)).graph, heavy, 5, 200000)
except BudgetExceededError as exc:
    assert exc.nodes == 200000, exc.nodes
else:
    raise AssertionError("the heavy-tail draw was decided within 200,000 nodes")
elapsed = time.perf_counter() - start
assert records == ["search: nodes=200001 pruned=24325"], records
log.setLevel(logging.NOTSET)
print(f"C_10 x K_3,3 heavy-tail draw: budget of 200,000 nodes passed in {elapsed:.2f} s, {records[0]}")
oracle._decide = lambda g, entries, palette, budget: None
start = time.perf_counter()
report = explore_bipartite_factor(cycle(10), 3, 3, 20)
elapsed = time.perf_counter() - start
assert (report.instances, report.exhaustive, len(report.counterexamples)) == (20, False, 20), report
product = cartesian_product(cycle(10), complete_bipartite(3, 3))
for row in report.counterexamples:
    entries = {(x["u"], x["v"]): x["color"] for x in row["entries"]}
    assert validate_precoloring(product, Precoloring(5, entries)).ok
print(f"C_10 x K_3,3: counted and 20 instances drawn in {elapsed:.2f} s, search stubbed")
class Stop(Exception):
    pass
decided = []
def refute(g, entries, palette, budget):
    decided.append(entries)
    if len(decided) > 1000:
        raise Stop
oracle._decide = refute
start = time.perf_counter()
try:
    explore_bipartite_factor(cycle(10), 3, 3, 10**15)
except Stop:
    pass
else:
    raise AssertionError("the stub never stopped the exhaustive sweep")
elapsed = time.perf_counter() - start
assert len(decided) == 1001
print(f"C_10 x K_3,3 at budget 10**15: exhaustive, 1,000 instances decided in {elapsed:.2f} s, search stubbed")
