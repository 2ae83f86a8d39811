import liftworlds


def test_every_export_resolves_once():
    names = liftworlds.__all__
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(liftworlds, n)]
    assert missing == []
