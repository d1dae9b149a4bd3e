import mosr


def test_every_exported_name_resolves():
    missing = [name for name in mosr.__all__ if not hasattr(mosr, name)]
    assert missing == []
    assert len(set(mosr.__all__)) == len(mosr.__all__)
