"""The five benchmark workloads, by name."""

from bench.workloads.period_paper import PeriodPaper
from bench.workloads.serve import ServeRead, ServeWrite
from bench.workloads.solve_10k import Solve10k
from bench.workloads.sweep_fig3 import SweepFig3

WORKLOADS = {
    cls.name: cls
    for cls in (PeriodPaper, Solve10k, SweepFig3, ServeRead, ServeWrite)
}
