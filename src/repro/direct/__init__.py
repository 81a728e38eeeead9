"""DIRECT-style MIMD database machine simulator (Figures 3.1 and 4.2).

The paper's granularity experiment ran on the authors' simulator of DIRECT
[1,2]: a centralized back-end controller dispatching instruction packets to
a pool of query processors over a cross-point switch, with a shared
multiport CCD disk cache between the processors and the mass-storage
disks.  This package rebuilds that simulator:

* :mod:`repro.direct.exec_model` — per-page operator service times derived
  from the paper's device constants (the row-exact page kernels every
  machine shares live in :mod:`repro.relational.kernels`).
* :mod:`repro.direct.cache` — the shared CCD disk cache (frames, LRU,
  dirty spills to disk).
* :mod:`repro.direct.instructions` — runtime instruction objects compiled
  from query-tree nodes, with page tables, task queues and keyed result
  pages.
* :mod:`repro.direct.scheduler` — the three operand granularities as
  scheduling policies (RELATION / PAGE / TUPLE).
* :mod:`repro.direct.machine` — the machine itself and its run report.
* :mod:`repro.direct.traffic` — byte-level traffic accounting per storage
  level (the measurement behind Figure 4.2).

Every simulated instruction moves *real* pages of *real* rows, so results
are checked against the reference interpreter in the integration tests.
"""

from repro.direct.exec_model import ExecModel
from repro.direct.scheduler import Granularity
from repro.direct.machine import DirectMachine, DirectReport
from repro.direct.traffic import TrafficMeter

__all__ = [
    "DirectMachine",
    "DirectReport",
    "ExecModel",
    "Granularity",
    "TrafficMeter",
]
