"""Abstract-domain substrate.

This subpackage contains every abstract domain the paper discusses
(Table 1) plus the machinery the CH-Zonotope domain needs:

* :mod:`repro.domains.interval` — the Box domain.
* :mod:`repro.domains.zonotope` — the standard Zonotope domain
  (Ghorbal et al. 2009; Singh et al. 2018) with joins, used by the Kleene
  baseline and the square-root case study.
* :mod:`repro.domains.chzonotope` — the paper's novel CH-Zonotope domain
  with error consolidation (Theorem 4.1), the efficient O(p^3) inclusion
  check (Theorem 4.2) and expansion (Eq. 10).
* :mod:`repro.domains.parallelotope` — the order-bounded parallelotope
  pipeline, which encloses every ReLU image in its PCA parallelotope
  (Theorem 4.1 consolidation without expansion).
* :mod:`repro.domains.containment` — the LP-based containment baseline of
  Sadraddini & Tedrake 2019 (Fig. 18) and sampling-based falsifiers.
* :mod:`repro.domains.volume` — exact zonotope volume in low dimensions
  (Fig. 19).
* :mod:`repro.domains.relu` — shared ReLU-relaxation arithmetic.
"""

from repro.domains.base import AbstractElement
from repro.domains.chzonotope import CHZonotope
from repro.domains.interval import Interval
from repro.domains.zonotope import Zonotope

__all__ = [
    "AbstractElement",
    "CHZonotope",
    "Interval",
    "Zonotope",
]
