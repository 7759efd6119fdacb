"""Standard-format interchange: AIGER and BTOR2.

Readers normalize foreign files into canonical in-memory models;
writers serialize the repro IR for external model checkers and logic
tools.  :mod:`repro.formats.designio` lifts both directions to the
Design level so imported files plug into every verification layer.
"""

from repro.formats.aiger import (AigerModel, Latch, read_aiger,
                                 read_aiger_file, write_aiger_ascii,
                                 write_aiger_binary, write_aiger_file)
from repro.formats.bridge import (aiger_stats, aiger_to_system,
                                  system_to_aiger)
from repro.formats.btor2 import read_btor2, read_btor2_file, write_btor2
from repro.formats.designio import (AIGER_SUFFIXES, BTOR2_SUFFIXES,
                                    CORPUS_SUFFIXES, EXPORT_FORMATS,
                                    compile_for_export, export_design,
                                    import_design)

__all__ = [
    "AigerModel",
    "Latch",
    "read_aiger",
    "read_aiger_file",
    "write_aiger_ascii",
    "write_aiger_binary",
    "write_aiger_file",
    "aiger_stats",
    "aiger_to_system",
    "system_to_aiger",
    "read_btor2",
    "read_btor2_file",
    "write_btor2",
    "AIGER_SUFFIXES",
    "BTOR2_SUFFIXES",
    "CORPUS_SUFFIXES",
    "EXPORT_FORMATS",
    "compile_for_export",
    "export_design",
    "import_design",
]
