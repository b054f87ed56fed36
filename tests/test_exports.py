import zetapoly


def test_every_exported_name_resolves():
    for name in zetapoly.__all__:
        assert hasattr(zetapoly, name), name
