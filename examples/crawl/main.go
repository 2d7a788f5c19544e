// Crawl: reproduce the paper's data-collection pipeline end to end
// (§5.2). A synthetic category-tree wiki is served over real HTTP; the
// crawler walks it from the categories index page — recursing into
// CategoryTreeBullet links and downloading the leaves — then the text
// pipeline cleans and vectorizes the downloaded documents, and DASC
// clusters them against the crawl-derived category labels.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/metrics"
	"repro/internal/text"
)

func main() {
	// Author a synthetic wiki of 600 documents in their category tree.
	c, err := corpus.Generate(corpus.Config{NumDocs: 600, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	site, err := crawler.NewSite(crawler.SiteConfig{Corpus: c, Seed: 6})
	if err != nil {
		log.Fatal(err)
	}
	base, stop := site.Start()
	defer stop()
	fmt.Printf("serving %d pages at %s\n", site.Pages(), base)

	// Crawl it, exactly as the paper crawled Wikipedia.
	res, err := (&crawler.Crawler{}).Crawl(base, site.IndexPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawled %d documents over %d HTTP requests\n",
		len(res.Docs), res.PagesFetched)

	// Clean and vectorize the downloaded HTML (strip, stem, tf-idf,
	// top-11 terms per document).
	var cl text.Cleaner
	cleaned := make([][]string, len(res.Docs))
	for i, d := range res.Docs {
		cleaned[i] = cl.Clean(d)
	}
	pts, vocab, err := text.VectorizeTopTerms(cleaned, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vectorized into %d x %d (vocabulary of %d kept terms)\n",
		pts.Rows(), pts.Cols(), len(vocab))

	// Cluster and score against the crawl-derived labels.
	labels := res.Labels()
	k := 0
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	run, err := core.Cluster(pts, core.Config{K: k, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	acc, err := metrics.Accuracy(labels, run.Labels)
	if err != nil {
		log.Fatal(err)
	}
	nmi, err := metrics.NMI(labels, run.Labels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDASC over the crawl: %d buckets, %d clusters\n",
		len(run.Buckets), run.Clusters)
	fmt.Printf("accuracy vs crawl categories: %.3f (NMI %.3f)\n", acc, nmi)
}
