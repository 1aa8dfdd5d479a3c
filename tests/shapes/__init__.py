"""The experiment-shape suite: one test per reproduced table (E1..E13,
ablations A1-A4, extensions X1-X3).

Each test calls one driver from :mod:`repro.analysis.experiments` (usually
with reduced parameters so the suite stays fast) and asserts the shape
claims the paper makes — who wins, by roughly what factor, where the
behaviour changes.  Absolute numbers are simulator-specific and not
asserted.
"""
