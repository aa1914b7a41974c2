"""Reproduction of "Efficiently Estimating Mutual Information Between
Attributes Across Tables" (Santos, Korn, Freire — ICDE 2024).

Package map (see DESIGN.md for the full index):

* ``repro.hashing``     — MurmurHash3 / Fibonacci hashing substrate
* ``repro.mi``          — MI estimators (MLE, KSG, MixedKSG, DC-KSG) and
                          analytic true-MI formulas
* ``repro.synthgen``    — Trinomial / CDUnif benchmark generators and the
                          KeyInd / KeyDep table decomposition
* ``repro.sketch``      — the sketches: TUPSK (contribution), LV2SK,
                          PRISK, INDSK, CSK
* ``repro.core``        — Spark layer: featurization + full joins,
                          distributed sketch builders; the numpy
                          per-pair evaluation the sweeps loop over
* ``repro.opendata``    — synthetic open-data corpora (NYC/WBF stand-ins)
* ``repro.experiments`` — one harness per published table / section
"""
