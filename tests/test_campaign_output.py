"""Every campaign's report text, at the sizes that run in seconds, equals
the text recorded in tests/campaign_output/reports.txt: the 96 reports
joined in ``CAMPAIGNS`` order.  Rerecord the file (``python
tests/test_campaign_output.py``) only when a report is meant to change."""

from itertools import product as iproduct
from pathlib import Path

from bkw import harness as hn

RECORDED = Path(__file__).resolve().parent / "campaign_output" / "reports.txt"

CAMPAIGNS = (
    [hn.Campaign(target, size, strict, heart, serial)
     for target, size, strict, heart, serial in iproduct(
         ("lemma1", "theorem12"), range(1, 5), (True, False), ("frame", "local"),
         (False, True))]
    + [hn.Campaign("theorem22", size) for size in range(1, 4)]
    + [hn.Campaign(target, size) for target in ("theorem23", "validity_lists")
       for size in range(1, 5)]
    + [hn.Campaign(target, size) for target in ("adjunction", "boundary_law")
       for size in range(5)]
    + [hn.Campaign("lawvere_scan", size) for size in range(1, 4)]
    + [hn.Campaign(target, 5, True, heart, serial)
       for target, heart, serial in iproduct(
           ("lemma1", "theorem12"), ("frame", "local"), (False, True))]
)


def _reports() -> str:
    return "".join(hn.run_campaign(c).text for c in CAMPAIGNS)


def test_campaign_reports_match_the_recorded_text():
    assert len(CAMPAIGNS) == 96
    assert _reports() == RECORDED.read_text()


if __name__ == "__main__":
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(_reports())
