"""Benchmark inputs, made from the workload seed.

Every workload starts from ``generate_commoncrawl(seed)``: the long-tail
roster of 33 multilingual movie sites (890 pages, 7 languages, including
the hazard sites and the charts-only site) and its seed KB.  The program
only ever sees the generated pages and KB on disk, or in request bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.datasets import generate_commoncrawl
from repro.evaluation.fusion_eval import dataset_fact_keys
from repro.fusion.fuse import fact_key
from repro.kb.io import save_kb

__all__ = ["HELD_OUT", "HOT", "Fixture", "materialise", "page_url", "row_precision"]

#: Sites the serving fixture does not train on; the server answers them
#: zero-shot through the cross-site transfer model.  Three sites in three
#: languages, none of them a hazard site.
HELD_OUT = ("danskefilm", "hkmdb", "kinobox")

#: The few sites that take most serve-single traffic: fewer than the
#: server's 8 resident sites, so they stay loaded.
HOT = ("nfb", "rottentomatoes", "themoviedb", "thenumbers")


@dataclass
class Fixture:
    dataset: object
    kb_path: Path
    corpus_dir: Path

    def pages(self, site: str) -> list[tuple[str, str]]:
        """``(url, html)`` of a site's pages, in file-name order."""
        for candidate in self.dataset.sites:
            if candidate.name == site:
                return [
                    (page_url(index), page.html)
                    for index, page in enumerate(candidate.pages)
                ]
        raise KeyError(site)

    def site_names(self) -> list[str]:
        return sorted(site.name for site in self.dataset.sites)

    def truth(self) -> set:
        return dataset_fact_keys(self.dataset.sites)


def page_url(index: int) -> str:
    return f"page{index:03d}.html"


def materialise(seed: int, root: Path, exclude: tuple[str, ...] = ()) -> Fixture:
    """Write the seed KB and every site not in ``exclude`` under ``root``
    (one directory of HTML pages per site); ``root`` must not exist."""
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    dataset = generate_commoncrawl(seed=seed)
    kb_path = root / "kb.json"
    save_kb(dataset.kb, kb_path)
    for site in dataset.sites:
        if site.name in exclude:
            continue
        site_dir = corpus / site.name
        site_dir.mkdir()
        for index, page in enumerate(site.pages):
            (site_dir / page_url(index)).write_text(page.html, encoding="utf-8")
    return Fixture(dataset, kb_path, corpus)


def row_precision(rows, truth: set) -> float:
    """Share of extraction or fused-fact rows whose fact is true."""
    rows = list(rows)
    if not rows:
        return 0.0
    hits = sum(
        1
        for row in rows
        if fact_key(row["subject"], row["predicate"], row["object"]) in truth
    )
    return hits / len(rows)
