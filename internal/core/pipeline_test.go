package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mapreduce"
)

// TestAllDriversProduceIdenticalLabels is the pipeline's central
// guarantee: the public drivers are thin adapters over one dataflow,
// so for a fixed seed their labels, cluster counts, and Gram
// accounting must agree exactly.
func TestAllDriversProduceIdenticalLabels(t *testing.T) {
	l := mixture(t, 240, 12, 4, 0.03, 40)
	cfg := Config{K: 4, Seed: 41}

	batch, err := Cluster(l.Points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ClusterIncremental(l.Points, cfg, batch.GramBytes/2+1)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := ClusterMapReduceShipped(l.Points, cfg, &mapreduce.Local{})
	if err != nil {
		t.Fatal(err)
	}

	others := map[string]*Result{
		"incremental": &inc.Result,
		"shipped":     shipped,
	}
	for name, res := range others {
		if len(res.Labels) != len(batch.Labels) {
			t.Fatalf("%s: %d labels, batch has %d", name, len(res.Labels), len(batch.Labels))
		}
		for i := range batch.Labels {
			if res.Labels[i] != batch.Labels[i] {
				t.Fatalf("%s: label[%d] = %d, batch %d", name, i, res.Labels[i], batch.Labels[i])
			}
		}
		if res.Clusters != batch.Clusters || res.GramBytes != batch.GramBytes {
			t.Errorf("%s bookkeeping differs: %d clusters / %d bytes vs %d / %d",
				name, res.Clusters, res.GramBytes, batch.Clusters, batch.GramBytes)
		}
	}
	if inc.Waves < 2 {
		t.Errorf("half-budget incremental run used %d wave(s), want >= 2", inc.Waves)
	}
}

// TestPipelineCancellation checks every driver's Context variant returns
// context.Canceled when cancelled up front.
func TestPipelineCancellation(t *testing.T) {
	l := mixture(t, 120, 8, 3, 0.03, 7)
	cfg := Config{K: 3, Seed: 9}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := ClusterContext(ctx, l.Points, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("ClusterContext err = %v, want context.Canceled", err)
	}
	if _, err := ClusterIncrementalContext(ctx, l.Points, cfg, 1<<20); !errors.Is(err, context.Canceled) {
		t.Errorf("ClusterIncrementalContext err = %v, want context.Canceled", err)
	}
	if _, err := ClusterMapReduceShippedContext(ctx, l.Points, cfg, &mapreduce.Local{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ClusterMapReduceShippedContext err = %v, want context.Canceled", err)
	}
	if _, _, err := EMRFlowContext(ctx, l.Points, cfg, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("EMRFlowContext err = %v, want context.Canceled", err)
	}
}

// TestNewPlanFamilyOverride pins the Family-vs-hasher contract: an
// in-process plan honours a custom family, a distributed plan ignores
// it and fits the paper's hasher.
func TestNewPlanFamilyOverride(t *testing.T) {
	l := mixture(t, 100, 8, 2, 0.03, 11)
	fam := fixedFamily{bits: 3}
	p, err := NewPlan(l.Points, Config{K: 2, Seed: 1, Family: fam}, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hasher != nil || p.Cfg.M != 3 {
		t.Errorf("in-process plan: hasher=%v M=%d, want custom family with M=3", p.Hasher, p.Cfg.M)
	}
	p, err = NewPlan(l.Points, Config{K: 2, Seed: 1, Family: fam}, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hasher == nil {
		t.Error("distributed plan must fit the paper's hasher and ignore Family")
	}
}

// fixedFamily is a trivial lsh.Family stub for plan tests.
type fixedFamily struct{ bits int }

func (f fixedFamily) Bits() int                    { return f.bits }
func (f fixedFamily) Signature(v []float64) uint64 { return uint64(len(v)) % (1 << uint(f.bits)) }
