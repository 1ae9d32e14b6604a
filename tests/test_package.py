import negsphere


def test_every_exported_name_is_a_package_attribute():
    missing = [name for name in negsphere.__all__ if not hasattr(negsphere, name)]
    assert missing == []
    assert len(set(negsphere.__all__)) == len(negsphere.__all__)
