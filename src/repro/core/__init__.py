"""The paper's contribution: register renaming schemes.

Every scheme implements the :class:`RenamingPolicy` lifecycle-hook
interface and is registered by name in the **policy registry**
(:mod:`repro.core.policy`), which is how every entry layer — the CLI,
``ProcessorConfig``, experiments, benchmarks, examples — resolves a
renamer.  Built-in policies:

* ``conventional`` — :class:`ConventionalRenamer`, the baseline
  (allocate at decode, free at commit of the next writer of the same
  logical register).
* ``vp-writeback`` / ``vp-issue`` — :class:`VirtualPhysicalRenamer`,
  the proposed scheme: VP tags at decode, physical registers allocated
  at write-back or issue, NRR deadlock avoidance with
  squash-and-re-execute.
* ``early-release`` — :class:`EarlyReleaseRenamer`, the counter-based
  early-freeing scheme of the paper's refs [8][10], as an ablation
  baseline.
"""

from repro.core.freelist import FreeList
from repro.core.tags import make_tag, tag_class, tag_ident
from repro.core.policy import (
    AllocationStage,
    PolicyCapabilities,
    PolicyInfo,
    RenamingPolicy,
    policy_capabilities,
    policy_name_for,
    policy_names,
    register_policy,
    resolve_policy,
)
from repro.core.conventional import ConventionalRenamer
from repro.core.reserve import ReservePolicy
from repro.core.virtual_physical import VirtualPhysicalRenamer
from repro.core.early_release import EarlyReleaseRenamer

__all__ = [
    "FreeList",
    "make_tag",
    "tag_class",
    "tag_ident",
    "RenamingPolicy",
    "PolicyCapabilities",
    "PolicyInfo",
    "policy_capabilities",
    "policy_name_for",
    "policy_names",
    "register_policy",
    "resolve_policy",
    "ConventionalRenamer",
    "ReservePolicy",
    "AllocationStage",
    "VirtualPhysicalRenamer",
    "EarlyReleaseRenamer",
]
