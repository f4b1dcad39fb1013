"""End-to-end scenario tests: the paper's flu survey, fully wired."""

from fractions import Fraction

import numpy as np
import pytest

from repro.agents.minimax import MinimaxAgent
from repro.agents.side_information import SideInformation
from repro.agents.rationality import interact_and_report
from repro.db.generators import (
    drug_purchases_lower_bound,
    flu_population,
    flu_query,
)
from repro.losses import AbsoluteLoss, SquaredLoss
from repro.release.multilevel import MultiLevelPublisher
from repro.release.publisher import Publisher


class TestFluSurveyScenario:
    """The paper's introduction, executed end to end."""

    @pytest.fixture(scope="class")
    def database(self):
        # Small population: the bespoke LP is solved exactly below, and
        # the exact simplex is comfortable up to n ~ 6.
        return flu_population(6, 2024, flu_rate=0.4, san_diego_share=0.8)

    def test_publish_and_rationally_consume(self, database, rng):
        n = database.size
        alpha = Fraction(1, 2)
        publisher = Publisher(database, alpha)
        query = flu_query()
        true_value = query(database)

        # The drug company knows its sales lower-bound the count.
        lower = drug_purchases_lower_bound(database)
        assert lower <= true_value
        company = MinimaxAgent(
            SquaredLoss(),
            SideInformation.at_least(lower, n=n),
            n=n,
            name="drug-company",
        )

        deployed = publisher.mechanism
        trace = interact_and_report(
            company, deployed, true_value, rng, exact=True
        )
        assert trace.reinterpreted >= lower  # rationality in action

    def test_universality_for_both_consumers(self, database):
        """Government (absolute loss) and company (squared loss + bound)
        each get their personal optimum from the same deployment."""
        n = database.size
        alpha = Fraction(1, 2)
        publisher = Publisher(database, alpha)
        lower = drug_purchases_lower_bound(database)

        government = MinimaxAgent(AbsoluteLoss(), None, n=n)
        company = MinimaxAgent(
            SquaredLoss(), SideInformation.at_least(lower, n=n), n=n
        )
        for agent in (government, company):
            interaction = agent.best_interaction(
                publisher.mechanism, exact=True
            )
            bespoke = agent.bespoke_mechanism(alpha, exact=True)
            assert interaction.loss == bespoke.loss

    def test_two_tier_report(self, database, rng):
        """Executive vs Internet tiers (Section 2.6's motivation)."""
        publisher = MultiLevelPublisher(
            database,
            {"executives": Fraction(1, 4), "internet": Fraction(2, 3)},
        )
        release = publisher.publish(flu_query(), rng)
        assert set(release.results) == {"executives", "internet"}
        assert all(c.holds for c in publisher.verify_collusion_resistance())

    def test_repeated_releases_track_truth_on_average(self, database, rng):
        """Sanity: geometric noise is unbiased away from the boundary."""
        publisher = Publisher(database, Fraction(1, 3))
        query = flu_query()
        true_value = query(database)
        values = [
            publisher.publish(query, rng).value for _ in range(3000)
        ]
        if 2 <= true_value <= database.size - 2:
            assert np.mean(values) == pytest.approx(true_value, abs=0.25)


class TestAuditPipeline:
    def test_deployed_mechanism_passes_audit(self, rng):
        from repro.release.audit import empirical_alpha

        db = flu_population(8, 5)
        publisher = Publisher(db, Fraction(1, 2))
        # The estimate is a minimum over ratios of corner cells of mass
        # ~0.0026. At 20,000 draws per input those hold ~50 counts and
        # about half of all seeds land below 0.4 on an exact sampler;
        # at 400,000 none of 40 seeds went below 0.45.
        report = empirical_alpha(publisher.mechanism, 400_000, rng)
        assert report.consistent
        assert report.exact_alpha == Fraction(1, 2)
