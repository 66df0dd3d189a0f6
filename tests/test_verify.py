from partlat import enumerate_partial_lattices, verify
from partlat.verify import structure_checks


def test_raising_law_keeps_its_traceback(monkeypatch, fig4):
    def broken(lat, mode):
        raise RuntimeError("absorption exploded")

    monkeypatch.setattr(verify, "check_absorption", broken)
    results = {name: (ok, detail) for name, ok, detail in structure_checks(fig4)}
    ok, detail = results["weak_absorption"]
    assert not ok
    assert detail.startswith("Traceback (most recent call last):")
    assert "in broken" in detail
    assert detail.rstrip().endswith("RuntimeError: absorption exploded")
    assert results["roundtrip_structure"][0]  # the sweep went on


def test_passing_checks_have_empty_detail():
    for lat in enumerate_partial_lattices(3):
        for name, ok, detail in structure_checks(lat):
            assert ok, (name, detail)
            assert detail == "", name
