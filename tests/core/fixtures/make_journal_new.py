"""Write ``state_v3_journal_new.json`` and its journal: run at commit
47c9b7f (see README.md), whose writer declared each entry's new names in
``"new"``.  Usage: ``make_journal_new.py <state path>``."""

import sys
from repro.core.cache import LandlordCache
from repro.core.journal import JournaledState
size = {f"p{i}": 5 + (i % 7) for i in range(40)}
ops = [("request", ["p0", "p1", "p2", "p3"]), ("request", ["p0", "p1", "p2", "p4"]),
       ("request", ["p10", "p11", "p12"]), ("adopt", ["p20", "p21", "p22", "p23"]),
       ("request", ["p30", "p31", "p32", "p33", "p34"]), ("request", ["p0", "p1"]),
       ("request", ["p5", "p6", "p7", "p8", "p9"]), ("request", ["p5", "p6", "p7", "p35"]),
       ("adopt", ["p36", "p37"]), ("request", ["p12", "p13", "p14", "p38", "p39"]),
       ("request", ["p0", "p1", "p2", "p3", "p15"]), ("request", ["p16", "p17", "p18", "p19"])]
store = JournaledState(sys.argv[1], snapshot_every=8)
cache = LandlordCache(120, 0.6, size.__getitem__)
store.initialise(cache, {})
for op, packages in ops:
    store.apply(cache, {}, op, packages=packages)
store.journal.close()
