package corpus

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/analytic"
	"repro/internal/matrix"
	"repro/internal/text"
)

// Meta describes a generated corpus without materializing it — the
// pieces of Corpus that are O(K) rather than O(N).
type Meta struct {
	// Categories is the number of distinct categories.
	Categories int
	// CategoryNames mirrors Wikipedia's category titles.
	CategoryNames []string
	// Terms is the union top-F vocabulary size discovered by
	// StreamDense — the column count of the sparse tf-idf matrix the
	// batch path would materialize. Zero from GenerateStream.
	Terms int
}

// GenerateStream builds the corpus one document at a time, invoking fn
// for each in order. It produces byte-identical documents to Generate
// (which is a thin wrapper over it) while holding only the vocabulary
// in memory, so million-document corpora stream in O(VocabSize) space.
// A non-nil error from fn aborts generation and is returned unwrapped.
func GenerateStream(cfg Config, fn func(doc string, label int) error) (*Meta, error) {
	if cfg.NumDocs <= 0 {
		return nil, fmt.Errorf("corpus: NumDocs=%d must be positive", cfg.NumDocs)
	}
	k := cfg.NumCategories
	if k == 0 {
		k = analytic.CategoryLaw(cfg.NumDocs)
	}
	if k < 1 || k > cfg.NumDocs {
		return nil, fmt.Errorf("corpus: %d categories for %d docs", k, cfg.NumDocs)
	}
	if cfg.VocabSize == 0 {
		cfg.VocabSize = 2000
	}
	if cfg.VocabSize < k {
		return nil, fmt.Errorf("corpus: vocabulary %d smaller than category count %d", cfg.VocabSize, k)
	}
	if cfg.TokensPerDoc == 0 {
		cfg.TokensPerDoc = 80
	}
	if cfg.TokensPerDoc < 1 {
		return nil, fmt.Errorf("corpus: TokensPerDoc=%d", cfg.TokensPerDoc)
	}
	if cfg.CharTerms == 0 {
		cfg.CharTerms = 12
	}
	if matrix.IsZero(cfg.Focus) {
		cfg.Focus = 0.7
	}
	if cfg.Focus < 0 || cfg.Focus > 1 {
		return nil, fmt.Errorf("corpus: Focus=%v out of [0,1]", cfg.Focus)
	}
	if matrix.IsZero(cfg.TopicWeight) {
		cfg.TopicWeight = 0.55
	}
	if cfg.TopicWeight < 0 || cfg.TopicWeight > 1 {
		return nil, fmt.Errorf("corpus: TopicWeight=%v out of [0,1]", cfg.TopicWeight)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := makeVocabulary(rng, cfg.VocabSize)
	zipfW := zipfWeights(cfg.VocabSize)

	// Characteristic terms: disjoint slices of the vocabulary so that
	// categories do not share boosted terms. When the vocabulary is too
	// small for full disjointness, wrap around.
	charTerms := make([][]string, k)
	names := make([]string, k)
	for c := 0; c < k; c++ {
		terms := make([]string, cfg.CharTerms)
		for t := 0; t < cfg.CharTerms; t++ {
			terms[t] = vocab[(c*cfg.CharTerms+t)%cfg.VocabSize]
		}
		charTerms[c] = terms
		names[c] = "Category:" + capitalize(terms[0])
	}

	// Topic-hierarchy terms: Wikipedia categories live in a tree, and
	// documents use the broad vocabulary of their ancestors as well as
	// their leaf category's terms. Model the tree as 4-ary: level l
	// contributes one of four broad terms according to the l-th base-4
	// digit of the category index, so each broad term covers roughly a
	// quarter of the corpus. Quarter-coverage terms keep enough inverse
	// document frequency to rank high under tf-idf, which is what makes
	// them the large-span dimensions the LSH front-end keys on — they
	// are the "natural valleys" between category groups.
	const fanout = 4
	// Cap the hierarchy depth so a document's topic terms plus its
	// characteristic terms stay within the F=11 terms the paper keeps:
	// deeper trees would push topic terms out of the tf-idf top-F and
	// turn the corresponding hash bits into noise. Cells of the capped
	// tree may hold several leaf categories; separating those is the
	// per-bucket clustering's job.
	levels := levelsFor(k, fanout)
	if levels > 3 {
		levels = 3
	}
	topicTerms := make([][fanout]string, levels)
	for l := 0; l < levels; l++ {
		for d := 0; d < fanout; d++ {
			topicTerms[l][d] = "topic" + vocab[(fanout*l+d)%cfg.VocabSize]
		}
	}

	topics := make([]string, 0, levels)
	for i := 0; i < cfg.NumDocs; i++ {
		c := i * k / cfg.NumDocs // balanced categories
		topics = topics[:0]
		code := c % pow(fanout, levels)
		for l := 0; l < levels; l++ {
			topics = append(topics, topicTerms[l][code%fanout])
			code /= fanout
		}
		doc := renderDoc(rng, cfg, names[c], charTerms[c], topics, vocab, zipfW)
		if err := fn(doc, c); err != nil {
			return nil, err
		}
	}
	return &Meta{Categories: k, CategoryNames: names}, nil
}

// StreamDense runs the full §5.2 pipeline out of core: generate each
// document, clean it, keep its top-f terms by tf-idf, project into dims
// dense dimensions, and hand the L2-normalized row to fn. It is the
// streaming twin of Generate + VectorizeDense and produces bitwise-
// identical rows, holding only the document-frequency table, the
// lazily-grown projection rows, the workers' stem memos and a constant
// number of document batches in memory (O(vocabulary), not O(N)).
//
// Two passes drive it: the first streams the corpus to count document
// frequencies (exactly VectorizeTopTerms' df map), the second re-streams
// it — generation is deterministic — scoring each document's terms,
// discovering the union vocabulary in the same first-use order as the
// batch path, and drawing each new term's Gaussian projection row from
// the same sequential rng stream that fills the batch projection matrix
// row-major. Per-document term sets are disjoint keys with a total sort
// order, so the map-iteration nondeterminism sorts away identically in
// both paths; zero-skipping accumulation mirrors matrix.Mul and the
// norm mirrors matrix.Norm2, making every float op order-identical.
//
// Each pass fans out: one goroutine generates documents from the single
// seeded stream and sends them in batches to runtime.GOMAXPROCS(0)
// workers, each owning a text.Cleaner whose stem memo serves both
// passes. Workers do the per-document work — cleaning, and in pass 2
// scoring and sorting against the df table pass 1 froze. The calling
// goroutine takes their results in document order and does everything
// order-sensitive: counting df, drawing projection rows, projecting,
// normalizing and calling fn. So fn runs on the caller's goroutine, in
// document order, exactly as in a sequential loop.
//
// A non-nil error from fn stops generation and is returned unwrapped;
// no goroutine outlives the call. The row slice passed to fn is reused;
// fn must not retain it.
func StreamDense(cfg Config, f, dims int, seed int64, fn func(row []float64, label int) error) (*Meta, error) {
	if f < 1 {
		return nil, fmt.Errorf("corpus: F=%d must be positive", f)
	}
	if dims < 1 {
		return nil, fmt.Errorf("corpus: dims=%d", dims)
	}
	workers := make([]*ingestWorker, runtime.GOMAXPROCS(0))
	for i := range workers {
		workers[i] = &ingestWorker{tf: map[string]int{}}
	}

	// Pass 1: document frequencies over the cleaned token streams.
	df := map[string]int{}
	meta, err := fanOut(cfg, workers, (*ingestWorker).distinctStems, func(stems []string, _ int) error {
		for _, t := range stems {
			df[t]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(df) == 0 {
		return nil, fmt.Errorf("corpus: corpus has no usable terms")
	}
	n := float64(cfg.NumDocs)
	idf := func(t string) float64 {
		v := math.Log(n / float64(df[t]))
		if v <= 0 {
			v = 1e-9
		}
		return v
	}

	// Pass 2: score, project, emit. Projection rows are drawn lazily in
	// vocabulary-discovery order from the same seeded stream the batch
	// path uses to fill its matrix row-major, so row j holds identical
	// bits in both.
	projRng := rand.New(rand.NewSource(seed ^ 0x5EED))
	scale := 1 / math.Sqrt(float64(dims))
	vocabIndex := map[string]int{}
	var projRows [][]float64
	rowOf := func(term string) int {
		j, ok := vocabIndex[term]
		if !ok {
			j = len(projRows)
			vocabIndex[term] = j
			pr := make([]float64, dims)
			for c := range pr {
				pr[c] = projRng.NormFloat64() * scale
			}
			projRows = append(projRows, pr)
		}
		return j
	}

	topTerms := func(w *ingestWorker, doc string) []weighted {
		return w.topTerms(doc, f, idf)
	}
	var ents []sparseEntry
	row := make([]float64, dims)
	_, err = fanOut(cfg, workers, topTerms, func(ws []weighted, label int) error {
		for i := range row {
			row[i] = 0
		}
		if len(ws) == 0 {
			// Mirrors the batch path: a document with no usable terms
			// keeps its zero row.
			return fn(row, label)
		}
		// Discover vocabulary in kept (rank) order — the batch path's
		// first-use order — then process entries in column order, which
		// is the order both Norm2 and Mul walk the full-width row.
		ents = ents[:0]
		for _, w := range ws {
			ents = append(ents, sparseEntry{rowOf(w.term), w.w})
		}
		sort.Slice(ents, func(a, b int) bool { return ents[a].j < ents[b].j })
		norm := norm2Entries(ents)
		if !matrix.IsZero(norm) {
			inv := 1 / norm
			for i := range ents {
				ents[i].w *= inv
			}
		}
		for _, e := range ents {
			if matrix.IsZero(e.w) {
				continue // matrix.Mul's zero-skip
			}
			for c, v := range projRows[e.j] {
				row[c] += e.w * v
			}
		}
		matrix.Normalize(row)
		return fn(row, label)
	})
	if err != nil {
		return nil, err
	}
	meta.Terms = len(projRows)
	return meta, nil
}

// ingestWorker is one StreamDense worker's state: its stem memo and a
// scratch term-count map, reused across documents and both passes.
type ingestWorker struct {
	cleaner text.Cleaner
	tf      map[string]int
}

// weighted is one term of a document with its tf-idf weight.
type weighted struct {
	term string
	w    float64
}

// distinctStems returns the document's distinct cleaned tokens in
// first-occurrence order: the terms whose document frequency it raises.
func (w *ingestWorker) distinctStems(doc string) []string {
	clear(w.tf)
	toks := w.cleaner.Clean(doc)
	out := toks[:0]
	for _, t := range toks {
		if w.tf[t] == 0 {
			w.tf[t] = 1
			out = append(out, t)
		}
	}
	return out
}

// topTerms returns the document's top-f terms by tf-idf, heaviest
// first with ties broken by term — VectorizeTopTerms' ranking. A
// document with no usable terms gives nil.
func (w *ingestWorker) topTerms(doc string, f int, idf func(string) float64) []weighted {
	toks := w.cleaner.Clean(doc)
	if len(toks) == 0 {
		return nil
	}
	clear(w.tf)
	for _, t := range toks {
		w.tf[t]++
	}
	ws := make([]weighted, 0, len(w.tf))
	invLen := 1 / float64(len(toks))
	for t, c := range w.tf {
		ws = append(ws, weighted{t, float64(c) * invLen * idf(t)})
	}
	sort.Slice(ws, func(a, b int) bool {
		if !matrix.ApproxEqual(ws[a].w, ws[b].w, 0) {
			return ws[a].w > ws[b].w
		}
		return ws[a].term < ws[b].term
	})
	if len(ws) > f {
		ws = ws[:f]
	}
	return ws
}

// docsPerBatch is how many documents the generator hands a worker at
// once: enough to amortize the channel hand-offs, small enough that the
// batches in flight stay a small buffer next to the vocabulary.
const docsPerBatch = 64

// docBatch carries consecutive documents from the generator to a
// worker, and their results from the worker to the consumer; done is
// closed once out is filled.
type docBatch[R any] struct {
	docs   []string
	labels []int
	out    []R
	done   chan struct{}
}

// errStopped ends generation once the consumer has given up.
var errStopped = errors.New("corpus: stream stopped")

// fanOut generates cfg's corpus on one producer goroutine, maps every
// document through work on one goroutine per worker, and hands each
// result to consume on the calling goroutine, in document order. At
// most 2*len(workers) batches wait for the consumer, so memory stays
// bounded whatever the corpus size. A non-nil error from consume stops
// generation and is returned unwrapped; every goroutine fanOut starts
// has exited when it returns, also when consume panics.
func fanOut[R any](cfg Config, workers []*ingestWorker, work func(*ingestWorker, string) R, consume func(R, int) error) (meta *Meta, err error) {
	// order queues batches in document order for the consumer; its
	// buffer bounds the batches in flight, and two per worker keep
	// every worker busy while the consumer waits on the oldest.
	order := make(chan *docBatch[R], 2*len(workers))
	todo := make(chan *docBatch[R])
	stop := make(chan struct{})
	var (
		genMeta *Meta
		genErr  error
		wg      sync.WaitGroup
	)
	wg.Add(1 + len(workers))
	go func() {
		defer wg.Done()
		defer close(order)
		defer close(todo)
		b := &docBatch[R]{done: make(chan struct{})}
		send := func() error {
			for _, ch := range []chan *docBatch[R]{order, todo} {
				select {
				case ch <- b:
				case <-stop:
					return errStopped
				}
			}
			b = &docBatch[R]{done: make(chan struct{})}
			return nil
		}
		m, err := GenerateStream(cfg, func(doc string, label int) error {
			b.docs = append(b.docs, doc)
			b.labels = append(b.labels, label)
			if len(b.docs) < docsPerBatch {
				return nil
			}
			return send()
		})
		if err == nil && len(b.docs) > 0 {
			err = send()
		}
		genMeta, genErr = m, err
	}()
	for _, w := range workers {
		go func(w *ingestWorker) {
			defer wg.Done()
			for b := range todo {
				b.out = make([]R, len(b.docs))
				for i, doc := range b.docs {
					b.out[i] = work(w, doc)
				}
				close(b.done)
			}
		}(w)
	}

	defer func() {
		close(stop)
		wg.Wait()
		if err == nil {
			meta, err = genMeta, genErr
		}
	}()
	for b := range order {
		<-b.done
		for i, r := range b.out {
			if err := consume(r, b.labels[i]); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// sparseEntry is one non-zero of a document's tf-idf row: column index
// in the union vocabulary and the (eventually normalized) weight.
type sparseEntry struct {
	j int
	w float64
}

// norm2Entries is matrix.Norm2 over a compact sparse row: the entries
// are the row's non-zeros in column order, so the scaled sum-of-squares
// recurrence visits the same values in the same order and returns the
// same bits as the full-width computation.
func norm2Entries(ents []sparseEntry) float64 {
	var scale, ssq float64 = 0, 1
	for _, e := range ents {
		if matrix.IsZero(e.w) {
			continue
		}
		a := math.Abs(e.w)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
