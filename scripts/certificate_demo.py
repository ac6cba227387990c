#!/usr/bin/env python3
"""End-to-end demonstration: degree table, the stuck reduction attempt, and
the rigorous certificate for the classical candidate triple."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tame3.algebra import poly_to_text
from tame3.engine import (
    certificate_json,
    certify_nagata,
    nagata_endo,
    nagata_weight,
)

endo = nagata_endo()
ws = nagata_weight()
print("components:")
for f in endo.components:
    print("  ", poly_to_text(f))
print("degrees:", [ws.deg(f).to_json() for f in endo.components])
print("total:", ws.deg_endo(endo.components).to_json(),
      "floor:", ws.total.to_json())
cert = certify_nagata()
print("reduction attempt:", cert.trace.result, "| all reasons rigorous:", cert.all_rigorous())
print(certificate_json(cert))
