package corpus

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestGenerateStreamByteIdentity is the streaming contract: the
// documents handed to the callback are byte-identical, in order, to the
// slices Generate materializes.
func TestGenerateStreamByteIdentity(t *testing.T) {
	cfg := Config{NumDocs: 150, NumCategories: 6, Seed: 19}
	batch, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	meta, err := GenerateStream(cfg, func(doc string, label int) error {
		if doc != batch.Docs[i] {
			t.Fatalf("doc %d differs:\nstream %q\nbatch  %q", i, doc, batch.Docs[i])
		}
		if label != batch.Labels[i] {
			t.Fatalf("label %d = %d, batch %d", i, label, batch.Labels[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != cfg.NumDocs {
		t.Fatalf("streamed %d docs, want %d", i, cfg.NumDocs)
	}
	if meta.Categories != batch.Categories {
		t.Fatalf("categories %d vs %d", meta.Categories, batch.Categories)
	}
	for c, name := range meta.CategoryNames {
		if name != batch.CategoryNames[c] {
			t.Fatalf("name[%d] %q vs %q", c, name, batch.CategoryNames[c])
		}
	}
}

// TestGenerateStreamAbort checks a callback error stops generation and
// surfaces unwrapped.
func TestGenerateStreamAbort(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	_, err := GenerateStream(Config{NumDocs: 50, NumCategories: 2, Seed: 3}, func(string, int) error {
		n++
		if n == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 7 {
		t.Fatalf("callback ran %d times after abort", n)
	}
}

// TestGenerateStreamValidation mirrors Generate's config checks on the
// streaming entry point.
func TestGenerateStreamValidation(t *testing.T) {
	for i, cfg := range []Config{
		{NumDocs: 0},
		{NumDocs: 10, NumCategories: 11},
		{NumDocs: 10, Focus: 1.5},
	} {
		if _, err := GenerateStream(cfg, func(string, int) error { return nil }); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

// TestStreamDenseBitwiseIdentity is the out-of-core vectorizer's
// contract: every float64 it emits must carry the same bits as the
// batch Generate + VectorizeDense pipeline, so shard files written from
// the stream feed the sharded driver the exact in-memory dataset.
func TestStreamDenseBitwiseIdentity(t *testing.T) {
	cfg := Config{NumDocs: 200, NumCategories: 8, Seed: 77}
	const f, dims, seed = 11, 12, 5
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.VectorizeDense(f, dims, seed)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	meta, err := StreamDense(cfg, f, dims, seed, func(row []float64, label int) error {
		if len(row) != dims {
			t.Fatalf("row %d has %d dims", i, len(row))
		}
		want := batch.Points.Row(i)
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("row %d col %d: stream %x batch %x (%v vs %v)",
					i, j, math.Float64bits(v), math.Float64bits(want[j]), v, want[j])
			}
		}
		if label != batch.Labels[i] {
			t.Fatalf("label %d = %d, batch %d", i, label, batch.Labels[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != cfg.NumDocs {
		t.Fatalf("streamed %d rows, want %d", i, cfg.NumDocs)
	}
	if meta.Categories != c.Categories {
		t.Fatalf("categories %d vs %d", meta.Categories, c.Categories)
	}
}

// TestStreamDenseValidation pins the parameter checks.
func TestStreamDenseValidation(t *testing.T) {
	fn := func([]float64, int) error { return nil }
	if _, err := StreamDense(Config{NumDocs: 10, NumCategories: 2, Seed: 1}, 0, 4, 1, fn); err == nil {
		t.Error("F=0 accepted")
	}
	if _, err := StreamDense(Config{NumDocs: 10, NumCategories: 2, Seed: 1}, 11, 0, 1, fn); err == nil {
		t.Error("dims=0 accepted")
	}
	if _, err := StreamDense(Config{NumDocs: 0}, 11, 4, 1, fn); err == nil {
		t.Error("empty corpus accepted")
	}
}

// TestStreamDenseBitwiseIdentityProcs repeats the bitwise contract with
// one worker and with four: the fan-out must not change a bit or the
// row order, however the documents are spread over workers.
func TestStreamDenseBitwiseIdentityProcs(t *testing.T) {
	cfg := Config{NumDocs: 300, NumCategories: 8, Seed: 41}
	const f, dims, seed = 11, 12, 9
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.VectorizeDense(f, dims, seed)
	if err != nil {
		t.Fatal(err)
	}
	tfidf, err := c.Vectorize(f)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var rows [][]float64
		var labels []int
		meta, err := StreamDense(cfg, f, dims, seed, func(row []float64, label int) error {
			rows = append(rows, append([]float64(nil), row...))
			labels = append(labels, label)
			return nil
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if len(rows) != cfg.NumDocs {
			t.Fatalf("procs=%d: streamed %d rows, want %d", procs, len(rows), cfg.NumDocs)
		}
		if meta.Terms != tfidf.Points.Cols() {
			t.Fatalf("procs=%d: %d terms, batch vocabulary %d", procs, meta.Terms, tfidf.Points.Cols())
		}
		for i, row := range rows {
			want := batch.Points.Row(i)
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(want[j]) {
					t.Fatalf("procs=%d row %d col %d: stream %v batch %v", procs, i, j, v, want[j])
				}
			}
			if labels[i] != batch.Labels[i] {
				t.Fatalf("procs=%d: label %d = %d, batch %d", procs, i, labels[i], batch.Labels[i])
			}
		}
	}
}

// TestStreamDenseAbort checks an fn error stops the stream: it comes
// back unwrapped, fn is not called again, and every goroutine the
// fan-out started has exited.
func TestStreamDenseAbort(t *testing.T) {
	start := runtime.NumGoroutine()
	boom := errors.New("boom")
	n := 0
	_, err := StreamDense(Config{NumDocs: 2000, NumCategories: 4, Seed: 3}, 11, 8, 1, func([]float64, int) error {
		n++
		if n == 7 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom unwrapped", err)
	}
	if n != 7 {
		t.Fatalf("fn ran %d times, want 7", n)
	}
	// StreamDense waits for its goroutines, but one that has signalled
	// the wait can still be counted for a moment while it unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > start {
		t.Fatalf("%d goroutines after abort, %d before", got, start)
	}
}

// TestStreamDenseCallsFnOnCaller checks fn runs on the goroutine that
// called StreamDense — the contract that lets fn use non-thread-safe
// caller state, and lets tests call t.Fatal from it.
func TestStreamDenseCallsFnOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	caller := goroutineID()
	rows := 0
	_, err := StreamDense(Config{NumDocs: 300, NumCategories: 4, Seed: 5}, 11, 8, 1, func([]float64, int) error {
		rows++
		if id := goroutineID(); id != caller {
			return fmt.Errorf("fn ran on goroutine %s, caller is %s", id, caller)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 300 {
		t.Fatalf("fn ran %d times, want 300", rows)
	}
}

// goroutineID returns the current goroutine's number from the header
// line of its stack trace, "goroutine N [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// BenchmarkStreamDense times the out-of-core vectorizer end to end over
// a 2k-document corpus at the paper's F = d = 11.
func BenchmarkStreamDense(b *testing.B) {
	cfg := Config{NumDocs: 2000, Seed: 1, VocabSize: 8192}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := StreamDense(cfg, 11, 11, 1, func([]float64, int) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
