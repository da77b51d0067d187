"""The memo tables: one mechanism, emptied by clear_all, never needed for a result."""

import ast
import pathlib
from fractions import Fraction

from mops import binom, cache, hypergeom, jack, orthopoly, partitions, symfun
from mops.parser import parse_expression
from mops.rational import ALPHA, rf

SRC = pathlib.Path(cache.__file__).parent


def _fill_tables():
    """Results whose computation reaches every memo table."""
    return [
        jack.jack_expand(ALPHA, (3, 1), "J", 3),
        jack.jack_expand(ALPHA, (3, 1), "C", 3),
        jack.normalization_factor("C", "P", ALPHA, (3, 1)),
        binom.gbinomial_table(Fraction(2), (3, 2, 1)),
        partitions.hook_products(ALPHA, (3, 1)),
        orthopoly.hermite2(ALPHA, (2, 2), 2).terms,
        symfun.p2m(parse_expression("p[2,1]*p[1]"), 3),
        symfun.m2p(parse_expression("m[2,1]*m[1]")),
        symfun.m2m(parse_expression("m[2,1]*m[1,1]"), 3),
        hypergeom.smallest_eig_terms(Fraction(1), 2, 3),
        hypergeom.smallest_eig_density(Fraction(1), 2, 3, 1.5),
        hypergeom.level_density(2, 3, 0.5),
    ]


def test_clear_all_empties_every_table_and_cold_equals_warm():
    cache.clear_all()
    warm = _fill_tables()
    assert cache._REGISTRY and all(cache._REGISTRY)
    assert _fill_tables() == warm
    cache.clear_all()
    assert sum(len(t) for t in cache._REGISTRY) == 0
    assert _fill_tables() == warm


def test_normalised_arguments_share_one_entry():
    table = binom.gbinomial_table(Fraction(2), (3, 2, 1))
    assert binom.gbinomial_table(2, [3, 2, 1, 0]) is table
    lam_mu = symfun.mono_product((2, 1), (1,), 3)
    assert symfun.mono_product([1], [2, 1], 3) is lam_mu


def test_constant_alpha_shares_the_numeric_entry():
    cache.clear_all()
    want = jack.jack_expand(2, (4, 3, 1))
    entries = sum(len(t) for t in cache._REGISTRY)
    assert jack.jack_expand(rf(2), (4, 3, 1)).terms == want.terms
    assert sum(len(t) for t in cache._REGISTRY) == entries


def _memo_smells(source):
    """Module-level dicts built empty (memo tables) and uses of the registry."""
    tree = ast.parse(source)
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            for node in ast.walk(stmt.value):
                if isinstance(node, ast.Dict) and not node.keys:
                    found.append("line %d: empty dict" % stmt.lineno)
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                    "dict",
                    "defaultdict",
                ):
                    found.append("line %d: %s()" % (stmt.lineno, node.func.id))
    for node in ast.walk(tree):
        if "_REGISTRY" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append("line %d: _REGISTRY" % node.lineno)
    return found


def test_memo_tables_come_only_from_cache_memo():
    assert _memo_smells("_table = cache.register({})")
    assert _memo_smells("_table = dict()")
    assert _memo_smells("n = len(cache._REGISTRY)")
    assert not _memo_smells("_KEYS = {'a': 0}\n\n@cache.memo\ndef f(x):\n    return {}\n")
    smells = {
        path.name: _memo_smells(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cache.py"
    }
    assert {name: found for name, found in smells.items() if found} == {}
