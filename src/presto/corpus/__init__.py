"""Bundled example nets, machines and scenarios.

The fixtures pin down the toolkit's behaviour end to end: a guard-split
net that converts into a two-branch machine, a cardinality pair and a
functional pair of small nets, the two jammer versions whose converted
machines are path-equivalent, a schedule-dependent net, one mutation
of each kind that a checker must catch, and two looping pairs: a sum loop
of machines and a count-down net, each against a copy that computes
something else.
"""

from __future__ import annotations

import os

from .. import dsl
from ..fsmd import Fsmd
from ..pres import PresNet

_ROOT = os.path.dirname(os.path.abspath(__file__))

NETS = (
    "guard_split",
    "card_a",
    "card_b",
    "addthree_a",
    "addthree_b",
    "jammer_nonpipelined",
    "jammer_pipelined",
    "racy",
    "countdown",
)

MUTATIONS = (
    "card_b_dropped_arc",
    "card_b_unmarked_port",
    "addthree_b_plus4",
    "jammer_pipelined_swapped",
    "dup_guard_key",
    "sum_loop_double",
    "countdown_by_two",
)

SCENARIOS = (
    "guard_split",
    "cardinality",
    "addthree",
    "jammer",
    "racy",
    "cardinality_dropped_arc",
    "cardinality_unmarked_port",
    "addthree_plus4",
    "jammer_swapped",
    "sum_loop",
    "sum_loop_double",
    "countdown_by_two",
)


def corpus_path(name: str) -> str:
    for candidate in (
        os.path.join(_ROOT, f"{name}.pres"),
        os.path.join(_ROOT, f"{name}.fsmd"),
        os.path.join(_ROOT, "mutations", f"{name}.pres"),
        os.path.join(_ROOT, "mutations", f"{name}.fsmd"),
        os.path.join(_ROOT, "scenarios", f"{name}.scn"),
    ):
        if os.path.exists(candidate):
            return candidate
    raise FileNotFoundError(name)


def scenario_path(name: str) -> str:
    path = os.path.join(_ROOT, "scenarios", f"{name}.scn")
    if not os.path.exists(path):
        raise FileNotFoundError(name)
    return path


def load_net(name: str) -> PresNet:
    with open(corpus_path(name), encoding="utf-8") as fh:
        return dsl.parse_pres(fh.read())


def load_fsmd(name: str) -> Fsmd:
    with open(corpus_path(name), encoding="utf-8") as fh:
        return dsl.parse_fsmd(fh.read())


def load_scenario(name: str) -> dsl.ScenarioDocument:
    path = os.path.join(_ROOT, "scenarios", f"{name}.scn")
    with open(path, encoding="utf-8") as fh:
        return dsl.parse_scenario(fh.read(), base_dir=os.path.dirname(path))
