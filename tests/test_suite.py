from exczero import suite


def test_run_suite_passes_seed_to_exactly_the_criteria_taking_one(
        monkeypatch):
    def positional(seed=0, quick=False):
        return "positional", seed, quick

    def keyword_only(quick=False, *, seed=0):
        return "keyword_only", seed, quick

    def no_seed(quick=False):
        return "no_seed", None, quick

    def local_seed(quick=False):
        seed = 99   # a local, not a parameter: gets no seed
        return "local_seed", seed, quick

    criteria = [(f.__name__, f)
                for f in (positional, keyword_only, no_seed, local_seed)]
    monkeypatch.setattr(suite, "ALL_CRITERIA", criteria)
    assert suite.run_suite(seed=7, quick=True) == [
        ("positional", 7, True), ("keyword_only", 7, True),
        ("no_seed", None, True), ("local_seed", 99, True)]

