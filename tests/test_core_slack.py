"""Tests for Step 1: weights and budgeted deadlines."""

import math

import pytest

from repro.arch.acg import ACG
from repro.arch.topology import Mesh2D
from repro.core.slack import WEIGHT_POLICIES, compute_budgets, weight_uniform
from repro.ctg.graph import CTG

from tests.conftest import uniform_task


def paper_chain_acg():
    """A 2x2 platform whose type mix matches the chain fixture costs."""
    return ACG(Mesh2D(2, 2), pe_types=["cpu", "dsp", "arm", "risc"])


class TestPaperExample:
    """Reproduce the paper's Fig. 2 numerical example.

    Means are 300/200/400; the fixture's cost tables were chosen to give
    weight *ratios* 1:2:1 after normalisation — here we instead inject a
    custom weight policy returning exactly the paper's 100/200/100 to
    check the arithmetic of the slack split itself.
    """

    def test_budgeted_deadlines_match_paper(self, chain_ctg):
        acg = paper_chain_acg()
        paper_weights = {300.0: 100.0, 200.0: 200.0, 400.0: 100.0}

        def policy(stats):
            return paper_weights[round(stats.mean_time)]

        budgets = compute_budgets(chain_ctg, acg, weight_policy=policy)
        assert budgets["t1"].mean_time == pytest.approx(300)
        assert budgets["t2"].mean_time == pytest.approx(200)
        assert budgets["t3"].mean_time == pytest.approx(400)
        # Slack = 1300 - 900 = 400, split 100:200:100 -> BD 400/800/1300.
        assert budgets["t1"].budgeted_deadline == pytest.approx(400)
        assert budgets["t2"].budgeted_deadline == pytest.approx(800)
        assert budgets["t3"].budgeted_deadline == pytest.approx(1300)

    def test_deadline_task_bd_equals_deadline(self, chain_ctg):
        budgets = compute_budgets(chain_ctg, paper_chain_acg())
        assert budgets["t3"].budgeted_deadline == pytest.approx(1300)

    def test_uniform_weights_split_evenly(self, chain_ctg):
        budgets = compute_budgets(
            chain_ctg, paper_chain_acg(), weight_policy=weight_uniform
        )
        # 400 slack split evenly: each task gets 133.33.
        slack_each = 400.0 / 3
        assert budgets["t1"].budgeted_deadline == pytest.approx(300 + slack_each)
        assert budgets["t2"].budgeted_deadline == pytest.approx(500 + 2 * slack_each)


class TestWeights:
    def test_var_product_formula(self, chain_ctg):
        budgets = compute_budgets(chain_ctg, paper_chain_acg())
        for name in ("t1", "t2", "t3"):
            stats = budgets[name].stats
            assert budgets[name].weight == pytest.approx(
                stats.var_energy * stats.var_time
            )

    def test_homogeneous_costs_zero_weight(self):
        ctg = CTG()
        ctg.add_task(uniform_task("only", 100, 50, deadline=1000))
        budgets = compute_budgets(ctg, paper_chain_acg())
        assert budgets["only"].weight == 0.0
        # Degenerate weights still produce a valid BD (== deadline here).
        assert budgets["only"].budgeted_deadline == pytest.approx(1000)

    def test_policies_registry(self):
        assert set(WEIGHT_POLICIES) == {
            "var-product",
            "var-energy",
            "var-time",
            "uniform",
        }


class TestDAGGeneralisation:
    def test_no_deadline_infinite_bd(self):
        ctg = CTG()
        ctg.add_task(uniform_task("a", 10, 5))
        ctg.add_task(uniform_task("b", 10, 5))
        ctg.connect("a", "b")
        budgets = compute_budgets(ctg, paper_chain_acg())
        assert math.isinf(budgets["a"].budgeted_deadline)
        assert math.isinf(budgets["b"].budgeted_deadline)

    def test_task_off_deadline_cone_unconstrained(self, diamond_ctg):
        ctg = diamond_ctg
        ctg.add_task(uniform_task("orphan", 10, 5))
        budgets = compute_budgets(ctg, paper_chain_acg())
        assert math.isinf(budgets["orphan"].budgeted_deadline)
        assert math.isfinite(budgets["a"].budgeted_deadline)

    def test_bd_increases_along_every_path(self, diamond_ctg):
        budgets = compute_budgets(diamond_ctg, paper_chain_acg())
        for edge in diamond_ctg.edges():
            assert (
                budgets[edge.src].budgeted_deadline
                <= budgets[edge.dst].budgeted_deadline + 1e-9
            )

    def test_shorter_path_gets_more_slack(self, diamond_ctg):
        """Branch b is faster than branch a, so its per-path slack is larger."""
        budgets = compute_budgets(diamond_ctg, paper_chain_acg())
        slack_a = budgets["a"].budgeted_deadline - (
            budgets["src"].budgeted_deadline  # not meaningful directly, use means
        )
        # Direct check: b's BD minus its mean prefix exceeds a's.
        mean_src = budgets["src"].mean_time
        margin_a = budgets["a"].budgeted_deadline - (mean_src + budgets["a"].mean_time)
        margin_b = budgets["b"].budgeted_deadline - (mean_src + budgets["b"].mean_time)
        assert margin_b > margin_a

    def test_min_over_multiple_deadlines(self):
        """A shared ancestor takes the tightest of two deadline cones."""
        ctg = CTG()
        ctg.add_task(uniform_task("root", 100, 10))
        ctg.add_task(uniform_task("loose", 100, 10, deadline=10_000))
        ctg.add_task(uniform_task("tight", 100, 10, deadline=250))
        ctg.connect("root", "loose")
        ctg.connect("root", "tight")
        budgets = compute_budgets(ctg, paper_chain_acg())
        # The tight path (root+tight = 200 mean, deadline 250) binds root.
        assert budgets["root"].budgeted_deadline <= 150 + 1e-9
        assert budgets["tight"].budgeted_deadline == pytest.approx(250)

    def test_negative_slack_tightens_proportionally(self):
        """Deadline below the mean path length yields BDs below means."""
        ctg = CTG()
        ctg.add_task(uniform_task("a", 100, 10))
        ctg.add_task(uniform_task("b", 100, 10, deadline=150))
        ctg.connect("a", "b")
        budgets = compute_budgets(ctg, paper_chain_acg())
        assert budgets["b"].budgeted_deadline == pytest.approx(150)
        assert budgets["a"].budgeted_deadline < 100

    def test_negative_weight_policy_rejected(self, chain_ctg):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError):
            compute_budgets(chain_ctg, paper_chain_acg(), weight_policy=lambda s: -1.0)
