import dicke_battery


def test_version_is_a_string():
    assert isinstance(dicke_battery.__version__, str)
