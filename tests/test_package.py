import varbreak


def test_every_exported_name_resolves():
    missing = [name for name in varbreak.__all__ if not hasattr(varbreak, name)]
    assert missing == []
    assert len(set(varbreak.__all__)) == len(varbreak.__all__)
