"""Reference implementations the differential tests compare against.

Each production stage in ``src/repro`` has exactly one engine. The
slower, easier-to-audit formulations of the same maths live here, so
every differential test keeps an independent oracle without shipping
it as a user-selectable alternative:

* :mod:`tests.oracles.wd` — tuple Bellman–Ford W/D matrices and the
  dict-loop scalarised CSR builder;
* :mod:`tests.oracles.feas` — classic single-host FEAS, a networkx
  Bellman–Ford difference-constraint solver, and the constraint-object
  period-feasibility check built on it;
* :mod:`tests.oracles.mcf` — a hashable-node min-cost-flow facade and
  the retiming dual, both thin wrappers over the production
  successive-shortest-path ``_Network``;
* :mod:`tests.oracles.lac` — the cold LAC loop (one full
  ``min_area_retiming`` per round);
* :mod:`tests.oracles.annealer` — the object-based sequence-pair
  annealer evaluation path;
* :mod:`tests.oracles.fm` — the dict-based FM gain and FM pass.
"""
