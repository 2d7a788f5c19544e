package mapreduce

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

// randomWireString includes empty, ASCII, and multi-byte contents.
func randomWireString(rng *rand.Rand) string {
	n := rng.Intn(20)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(rune(rng.Intn(0x2FF) + 1))
	}
	return sb.String()
}

func randomWireBytes(rng *rand.Rand) []byte {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, rng.Intn(64))
	rng.Read(b)
	return b
}

func randomWirePairs(rng *rand.Rand, maxLen int) []Pair {
	n := rng.Intn(maxLen)
	if n == 0 {
		return nil
	}
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: randomWireString(rng), Value: randomWireBytes(rng)}
	}
	return out
}

// semanticPairEq treats nil and empty values as equal — the frame
// parser collapses empty slices to nil, but the random generators
// produce both shapes.
func semanticPairEq(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// frameRoundTripTask encodes and decodes one taskMsg through the frame
// codec over an in-memory stream.
func frameRoundTripTask(t *testing.T, in *taskMsg) taskMsg {
	t.Helper()
	var st wireStats
	var buf writeBuffer
	enc := &frameCodec{w: &buf, st: &st}
	wn, err := enc.writeTask(in)
	if err != nil {
		t.Fatalf("writeTask: %v", err)
	}
	dec := &frameCodec{br: bufio.NewReader(&buf), st: &st}
	var out taskMsg
	rn, err := dec.readTask(&out)
	if err != nil {
		t.Fatalf("readTask: %v", err)
	}
	if wn != rn {
		t.Fatalf("wire size asymmetry: wrote %d, read %d", wn, rn)
	}
	if st.bytesOut.Load() != int64(wn) || st.bytesIn.Load() != int64(rn) {
		t.Fatalf("stats (%d out, %d in) disagree with frame size %d",
			st.bytesOut.Load(), st.bytesIn.Load(), wn)
	}
	return out
}

// TestWireTaskRoundTrip is the codec property test: for random taskMsg
// values, the frame round trip must preserve every shipped field.
func TestWireTaskRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		in := taskMsg{
			Seq:         rng.Intn(1 << 20),
			JobName:     randomWireString(rng),
			Phase:       randomWireString(rng),
			Conf:        randomWireBytes(rng),
			NumReducers: rng.Intn(64),
			Records:     randomWirePairs(rng, 12),
			Flags:       uint64(rng.Intn(4)),
		}
		out := frameRoundTripTask(t, &in)
		if out.Seq != in.Seq || out.JobName != in.JobName || out.Phase != in.Phase ||
			!bytes.Equal(out.Conf, in.Conf) || out.NumReducers != in.NumReducers ||
			out.Flags != in.Flags || !semanticPairEq(out.Records, in.Records) {
			t.Fatalf("trial %d: decoded %+v, sent %+v", trial, out, in)
		}
	}
}

// TestWireResultRoundTrip does the same for resultMsg, including
// multi-partition payloads, error strings and the shard meter.
func TestWireResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		nParts := rng.Intn(5)
		var parts [][]Pair
		if nParts > 0 {
			parts = make([][]Pair, nParts)
			for i := range parts {
				parts[i] = randomWirePairs(rng, 10)
			}
		}
		in := resultMsg{Seq: rng.Intn(1 << 20), Err: randomWireString(rng), Parts: parts}
		if rng.Intn(2) == 0 {
			in.ShardTok, in.ShardStart, in.ShardEnd = rng.Uint64(), rng.Int63n(1<<40), rng.Int63n(1<<40)
		}

		var st wireStats
		var buf writeBuffer
		if _, err := (&frameCodec{w: &buf, st: &st}).writeResult(&in); err != nil {
			t.Fatal(err)
		}
		var out resultMsg
		if _, err := (&frameCodec{br: bufio.NewReader(&buf), st: &st}).readResult(&out); err != nil {
			t.Fatal(err)
		}
		if out.Seq != in.Seq || out.Err != in.Err || len(out.Parts) != len(in.Parts) ||
			out.ShardTok != in.ShardTok || out.ShardStart != in.ShardStart || out.ShardEnd != in.ShardEnd {
			t.Fatalf("trial %d: decoded %+v, sent %+v", trial, out, in)
		}
		for p := range out.Parts {
			if !semanticPairEq(out.Parts[p], in.Parts[p]) {
				t.Fatalf("trial %d part %d: decoded %v, sent %v", trial, p, out.Parts[p], in.Parts[p])
			}
		}
	}
}

// TestWireMalformedFramesDoNotPanic feeds random garbage and truncated
// prefixes of valid bodies to the parsers: they must return errors (or
// succeed on the rare valid prefix), never panic or over-read.
func TestWireMalformedFramesDoNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		body := make([]byte, rng.Intn(80))
		rng.Read(body)
		var tm taskMsg
		_ = parseTask(body, &tm)
		var res resultMsg
		_ = parseResult(body, &res)
	}

	// Truncations of a known-good body must all fail cleanly.
	valid := taskMsg{Seq: 9, JobName: "j", Phase: "map", Conf: []byte("c"),
		NumReducers: 3, Records: []Pair{{Key: "k", Value: []byte("v")}}}
	var buf writeBuffer
	if _, err := (&frameCodec{w: &buf, st: &wireStats{}}).writeTask(&valid); err != nil {
		t.Fatal(err)
	}
	full := buf.b[uvarintLen(uint64(len(buf.b)-1)):] // strip the length prefix
	body := full[1:]                                 // strip the kind byte
	for cut := 0; cut < len(body); cut++ {
		var tm taskMsg
		if err := parseTask(body[:cut], &tm); err == nil {
			t.Fatalf("truncation at %d/%d parsed without error", cut, len(body))
		}
	}
	var tm taskMsg
	if err := parseTask(body, &tm); err != nil {
		t.Fatalf("full body failed: %v", err)
	}
	if err := parseTask(append(append([]byte(nil), body...), 0), &tm); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestWireHelloNegotiation checks the one-version handshake: two peers
// of this build agree, and each side refuses, with an error, a peer
// presenting any other version, while the master also refuses a bad
// magic.
func TestWireHelloNegotiation(t *testing.T) {
	wc, mc := net.Pipe()
	masterErr := make(chan error, 1)
	go func() { masterErr <- acceptHello(mc, time.Second, &wireStats{}) }()
	if err := sendHello(wc, time.Second, &wireStats{}); err != nil {
		t.Fatalf("worker side: %v", err)
	}
	if err := <-masterErr; err != nil {
		t.Fatalf("master side: %v", err)
	}
	_ = wc.Close()
	_ = mc.Close()

	// Master side: a raw peer sends the hello bytes under test.
	for name, hello := range map[string][]byte{
		"bad magic":     []byte("HTTP/"),
		"older version": append(wireMagic[:], WireVersion-1),
		"newer version": append(wireMagic[:], WireVersion+1),
		"version zero":  append(wireMagic[:], 0),
	} {
		wc, mc := net.Pipe()
		errCh := make(chan error, 1)
		go func() { errCh <- acceptHello(mc, time.Second, &wireStats{}) }()
		go func() {
			if _, err := wc.Write(hello); err == nil {
				// Drain the master's version reply, if it sends one.
				_, _ = wc.Read(make([]byte, 1))
			}
		}()
		if err := <-errCh; err == nil {
			t.Errorf("master accepted a peer with %s", name)
		}
		_ = wc.Close()
		_ = mc.Close()
	}

	// Worker side: a raw master answers with another version.
	for _, v := range []byte{0, WireVersion - 1, WireVersion + 1} {
		wc, mc := net.Pipe()
		go func() {
			if _, err := io.ReadFull(mc, make([]byte, helloLen)); err == nil {
				_, _ = mc.Write([]byte{v})
			}
		}()
		if err := sendHello(wc, time.Second, &wireStats{}); err == nil {
			t.Errorf("worker accepted a master speaking version %d", v)
		}
		_ = wc.Close()
		_ = mc.Close()
	}
}

// TestWireHelloRejectsBadMagic ensures a non-DASC peer is refused
// during the handshake with an error that says why.
func TestWireHelloRejectsBadMagic(t *testing.T) {
	wc, mc := net.Pipe()
	defer func() { _ = wc.Close(); _ = mc.Close() }()
	errCh := make(chan error, 1)
	go func() { errCh <- acceptHello(mc, time.Second, &wireStats{}) }()
	if _, err := wc.Write([]byte("HTTP/")); err != nil {
		t.Fatal(err)
	}
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "bad hello magic") {
		t.Fatalf("err = %v, want bad-magic rejection", err)
	}
}

// BenchmarkWireRoundTrip times the frame codec's encode+decode of a
// shuffle-shaped result frame (the CI bench-smoke entry).
func BenchmarkWireRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	pairs := make([]Pair, 1024)
	for i := range pairs {
		pairs[i] = Pair{Key: randomWireString(rng), Value: randomWireBytes(rng)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WireRoundTrip(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireRoundTripHelper covers the exported dascbench hook.
func TestWireRoundTripHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pairs := randomWirePairs(rng, 200)
	n, err := WireRoundTrip(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("wire size = %d", n)
	}
	if _, err := WireRoundTrip(nil); err != nil {
		t.Fatalf("empty round trip: %v", err)
	}
}
