"""Traitor tracing, fingerprinting codes, and the sanitizer-as-pirate attack.

The layers, bottom up: boolean circuits with exact size/depth metrics
(circuit), one-bit encryption with low-depth decryption circuits
(crypto), Tardos fingerprinting codes (fpcode), the n-user tracing
scheme built from both (ttscheme), counting-query sanitizers
(sanitize), and the two-experiment reduction that turns any accurate
sanitizer into a traceable pirate decoder (attack).  `cli` fronts all
of it; `seeds` is the labeled seed-splitting discipline that makes
every experiment reproducible.
"""

__version__ = "0.1.0"
