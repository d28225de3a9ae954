"""Baseline and prior-work policies.

* ``fixed`` -- the evaluation baseline: the SoC with SysScale disabled, which keeps
  the IO and memory domains at their worst-case-provisioned high operating point.
* ``md_dvfs`` -- the *static* multi-domain DVFS setup of Sec. 3 (Table 1), used to
  collect the motivation data on Broadwell.
* ``memscale`` / ``coscale`` -- the MemScale [16] and CoScale [14] comparison
  points.  As in the paper, they are not run on the engine: the ``-Redist``
  variants, which hand the prior techniques' saved power to the compute domain,
  are projected with the three-step methodology of Sec. 6 (``projection``).
"""

from repro.baselines.fixed import FixedBaselinePolicy
from repro.baselines.md_dvfs import StaticMdDvfsPolicy, build_md_dvfs_action
from repro.baselines.memscale import MemScaleRedistProjection
from repro.baselines.coscale import CoScaleRedistProjection
from repro.baselines.projection import RedistProjection, ProjectionResult

__all__ = [
    "FixedBaselinePolicy",
    "StaticMdDvfsPolicy",
    "build_md_dvfs_action",
    "MemScaleRedistProjection",
    "CoScaleRedistProjection",
    "RedistProjection",
    "ProjectionResult",
]
