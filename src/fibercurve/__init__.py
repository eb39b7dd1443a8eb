"""Special fibers of prime-level modular curves.

Component inventories, horizontal-component equations, metrized dual
graphs, toric ranks and Neron component groups for the Cartan families
(split and nonsplit, with or without normalizer) and the exceptional
families, together with the verification battery that desk-checks every
computable claim.

Names are imported from their modules; importing the package loads
every module but the command line.
"""

from . import atlas, drinfeld, exceptional, ffield, neron, projline

__version__ = "0.1.0"
