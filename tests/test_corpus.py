
from liekernel.corpus import kunneth_pair_check, run_corpus_suite
from liekernel.families import load_corpus


def test_corpus_suite_all_green():
    suite = run_corpus_suite(triples=25)
    failures = {name: [k for k, v in checks.items() if not v]
                for name, checks in suite["algebras"].items()
                if not all(checks.values())}
    assert failures == {}
    assert suite["ok"]
    assert all(suite["kunneth_pairs"].values())
    assert len(suite["algebras"]) >= 20


def test_kunneth_pair_check_direct():
    entries = {e.name: e.algebra for e in load_corpus()}
    assert kunneth_pair_check(entries["h3"], entries["aff1"])
    assert kunneth_pair_check(entries["su2"], entries["R2"])
