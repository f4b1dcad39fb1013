"""The one alias walk serves each table's law exactly.

A stub generator replays chosen 53-bit uniforms and 64-bit words, so the
redraw branch, both outcomes of a tie and a tie settled by a second word
are driven through every draw surface. The served law is then rebuilt
from each cell's cutoff and tie remainder, and the (8, 1/1000) witness —
output 1 for true result 7, reachable only through cell 1's tie, which
the float walk this rule replaced never produced — is drawn through
``Mechanism.sample``, ``Publisher.publish`` and an in-process server.
"""

import asyncio
from fractions import Fraction

import numpy as np
import pytest

from repro.core.geometric import GeometricMechanism
from repro.core.mechanism import Mechanism
from repro.db.database import Database
from repro.db.predicates import Eq
from repro.db.queries import CountQuery
from repro.db.schema import Attribute, Schema
from repro.release.artifacts import (
    ArtifactSpec,
    ArtifactStore,
    MechanismArtifact,
    compile_artifact,
)
from repro.release.publisher import Publisher
from repro.sampling.alias import AliasTable, HeterogeneousAliasSampler
from repro.serving import InProcessClient, MechanismServer

SPAN, WORD = 1 << 53, 1 << 64
ALPHA = Fraction(1, 1000)


class StubGenerator(np.random.Generator):
    """Replays ``k`` as ``random() == k * 2**-53`` and words as
    ``integers(2**64)``; popping past the end fails the test."""

    def __init__(self, uniforms, words=()):
        super().__init__(np.random.PCG64(0))
        self.uniforms, self.words = list(uniforms), list(words)

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0) / SPAN
        return np.array([self.uniforms.pop(0) for _ in range(size)]) / SPAN

    def integers(self, high, dtype=None):
        assert high == WORD and dtype == np.uint64
        return np.uint64(self.words.pop(0))


def served_law(table) -> list:
    """The walk's law: cell ``j`` accepts below its tie point
    ``T_j = c_j * K + j`` and at it with the tie remainder, so with
    probability ``(c_j + rest_j) / Q``."""
    size = table.size
    quota = SPAN // size
    ties, alias, thresholds = table._cells
    law = [Fraction(0)] * size
    for cell, threshold in enumerate(thresholds):
        cutoff, offset = divmod(int(ties[cell]), size)
        assert offset == cell
        num, den = threshold.as_integer_ratio()
        rest = Fraction(num * quota % den, den)
        accept = (cutoff + rest) / quota
        law[cell] += accept / size
        law[int(alias[cell])] += (1 - accept) / size
    return law


@pytest.fixture(scope="module")
def witness():
    return compile_artifact("geometric", 8, ALPHA)


def tie_of_cell_1(artifact):
    """Row 7's tie point of cell 1, and that tie's first two digits."""
    table = artifact.sampler.tables[7]
    quota = SPAN // table.size
    num, den = table.exact_thresholds[1].as_integer_ratio()
    first, rest = divmod(num * quota % den * WORD, den)
    second = rest * WORD // den
    assert int(table.alias[1]) == 7 and 0 < first and 0 < second < WORD - 1
    return int(table._cells[0][1]), first, second


#: Draw surfaces and how many row-7 queries each draws at once. Two
#: queries take the vector form; one takes the scalar form.
SURFACES = {
    "AliasTable.sample": (lambda s, f, g: [s.tables[7].sample(g)], 1),
    "RowAliasSampler.sample_one": (lambda s, f, g: [s.sample_one(7, g)], 1),
    "AliasTable.sample(size=1)": (lambda s, f, g: s.tables[7].sample(g, 1), 1),
    "RowAliasSampler.sample(1)": (lambda s, f, g: s.sample([7], g), 1),
    "HeterogeneousAliasSampler.sample(1)": (
        lambda s, f, g: f.sample([1], [7], g), 1
    ),
    "AliasTable.sample(size=2)": (lambda s, f, g: s.tables[7].sample(g, 2), 2),
    "RowAliasSampler.sample(2)": (lambda s, f, g: s.sample([7, 7], g), 2),
    "HeterogeneousAliasSampler.sample(2)": (
        lambda s, f, g: f.sample([1, 1], [7, 7], g), 2
    ),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize(
    "case",
    ["accept", "reject", "second-word-accepts", "second-word-rejects",
     "redraw", "last-kept"],
)
def test_stub_drives_every_branch(witness, surface, case):
    k, first, second = tie_of_cell_1(witness)
    uniforms, words, expected = {
        "accept": ([k], [first - 1], 1),
        "reject": ([k], [first + 1], 7),
        "second-word-accepts": ([k], [first, second - 1], 1),
        "second-word-rejects": ([k], [first, second + 1], 7),
        # 2**53 % 9 == 5, so the top five uniforms are drawn again ...
        "redraw": ([SPAN - 1, SPAN - 5, k], [first - 1], 1),
        # ... and the one below them is kept: cell 8 rejects to 7.
        "last-kept": ([SPAN - 6], [], 7),
    }[case]
    draw, queries = SURFACES[surface]
    if queries == 2:
        # The second query accepts cell 7 (below its tie point) with the
        # batch's second uniform; any redraw of the first comes after.
        uniforms = uniforms[:1] + [7] + uniforms[1:]
    sampler = witness.sampler
    fused = HeterogeneousAliasSampler(
        [GeometricMechanism(3, Fraction(1, 3)).sampler(), sampler]
    )
    rng = StubGenerator(uniforms, words)
    assert list(draw(sampler, fused, rng)) == [expected, 7][:queries]
    assert rng.uniforms == rng.words == []


@pytest.mark.parametrize(
    "spec",
    [
        ArtifactSpec("geometric", 8, ALPHA),
        ArtifactSpec("geometric", 64, Fraction(1, 2)),
        ArtifactSpec("geometric", 128, Fraction(1, 2)),
        ArtifactSpec(
            "optimal", 8, Fraction(1, 2), loss="absolute",
            side=(4, 5, 6, 7, 8),
        ),
    ],
    ids=lambda spec: spec.canonical(),
)
def test_served_law_is_the_kernel(spec):
    """Cutoffs derived at load serve every kernel row as Fractions."""
    compiled = compile_artifact(
        spec.kind, spec.n, spec.alpha, loss=spec.loss, side=spec.side
    )
    loaded = MechanismArtifact.from_payload(compiled.to_payload())
    for row, table in enumerate(loaded.sampler.tables):
        assert served_law(table) == list(compiled.kernel[row])


def test_float_tables_serve_their_binary_thresholds():
    table = GeometricMechanism(8, 0.001).alias_table(7)
    assert table.exact_thresholds is None
    binary = AliasTable.from_parts(map(Fraction, table._cells[2]), table.alias)
    assert served_law(table) == binary.cell_probabilities()


def test_float_rows_clip_tiny_negatives():
    """A float kernel may hold entries down to -ATOL; they never draw."""
    mechanism = Mechanism([[1 + 1e-10, -1e-10], [0.5, 0.5]])
    draws = mechanism.sample_many(0, 1000, np.random.default_rng(0))
    assert (draws == 0).all()


class TestWitness:
    """Output 1 for true result 7 at (8, 1/1000): cell 1 at its tie."""

    def stub(self, witness):
        k, first, _ = tie_of_cell_1(witness)
        return StubGenerator([k], [first - 1])

    def test_mechanism_sample(self, witness):
        mechanism = GeometricMechanism(8, ALPHA)
        assert mechanism.sample(7, self.stub(witness)) == 1

    def test_publisher_publish(self, witness):
        database = Database(
            Schema([Attribute("has_flu", "bool")]),
            [{"has_flu": i < 7} for i in range(8)],
        )
        statistic = Publisher(database, ALPHA).publish(
            CountQuery(Eq("has_flu", True)), self.stub(witness)
        )
        assert statistic.value == 1

    def test_server_publish(self, witness, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        store.get_or_compile(ArtifactSpec("geometric", 8, ALPHA))
        server = MechanismServer(store, audit_rate=0.0)
        server.load_store()
        server._rng = self.stub(witness)

        async def go():
            result = await InProcessClient(server).publish(
                user="u", n=8, alpha="1/1000", true_result=7
            )
            await server.stop()
            return result

        status, body = asyncio.run(go())
        assert (status, body["value"]) == (200, 1)
