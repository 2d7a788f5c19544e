package text

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestPorterStemClassicVocabulary(t *testing.T) {
	// Reference pairs from Porter's published examples.
	cases := map[string]string{
		"caresses":       "caress",
		"ponies":         "poni",
		"ties":           "ti",
		"caress":         "caress",
		"cats":           "cat",
		"feed":           "feed",
		"agreed":         "agre",
		"plastered":      "plaster",
		"bled":           "bled",
		"motoring":       "motor",
		"sing":           "sing",
		"conflated":      "conflat",
		"troubled":       "troubl",
		"sized":          "size",
		"hopping":        "hop",
		"tanned":         "tan",
		"falling":        "fall",
		"hissing":        "hiss",
		"fizzed":         "fizz",
		"failing":        "fail",
		"filing":         "file",
		"happy":          "happi",
		"sky":            "sky",
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		"triplicate":     "triplic",
		"formative":      "form",
		"formalize":      "formal",
		"electriciti":    "electr",
		"electrical":     "electr",
		"hopeful":        "hope",
		"goodness":       "good",
		"revival":        "reviv",
		"allowance":      "allow",
		"inference":      "infer",
		"airliner":       "airlin",
		"gyroscopic":     "gyroscop",
		"adjustable":     "adjust",
		"defensible":     "defens",
		"irritant":       "irrit",
		"replacement":    "replac",
		"adjustment":     "adjust",
		"dependent":      "depend",
		"adoption":       "adopt",
		"homologou":      "homolog",
		"communism":      "commun",
		"activate":       "activ",
		"angulariti":     "angular",
		"homologous":     "homolog",
		"effective":      "effect",
		"bowdlerize":     "bowdler",
		"probate":        "probat",
		"rate":           "rate",
		"cease":          "ceas",
		"controll":       "control",
		"roll":           "roll",
	}
	for in, want := range cases {
		if got := PorterStem(in); got != want {
			t.Errorf("PorterStem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPorterStemShortWords(t *testing.T) {
	for _, w := range []string{"", "a", "is", "be"} {
		if got := PorterStem(w); got != w {
			t.Errorf("PorterStem(%q) = %q, want unchanged", w, got)
		}
	}
}

// Property: stemming is idempotent-ish in length — never grows a word
// by more than one character (the 'e' restorations) and never panics.
func TestPropPorterStemBounded(t *testing.T) {
	f := func(s string) bool {
		// Restrict to plausible lower-case words.
		var sb strings.Builder
		for _, r := range strings.ToLower(s) {
			if r >= 'a' && r <= 'z' {
				sb.WriteRune(r)
			}
		}
		w := sb.String()
		got := PorterStem(w)
		return len(got) <= len(w)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStripHTML(t *testing.T) {
	html := `<html><head><style>body {color: red}</style>
<script>var x = "<ignored>";</script></head>
<body><h1>Title</h1><p>Hello <b>world</b></p></body></html>`
	got := StripHTML(html)
	for _, want := range []string{"Title", "Hello", "world"} {
		if !strings.Contains(got, want) {
			t.Errorf("StripHTML lost %q: %q", want, got)
		}
	}
	for _, banned := range []string{"color", "var x", "<", ">"} {
		if strings.Contains(got, banned) {
			t.Errorf("StripHTML leaked %q: %q", banned, got)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! It's 2012; MapReduce-based.")
	want := []string{"hello", "world", "it", "s", "mapreduce", "based"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
}

func TestIsStopWord(t *testing.T) {
	for _, w := range []string{"the", "and", "is", "of"} {
		if !IsStopWord(w) {
			t.Errorf("%q must be a stop word", w)
		}
	}
	for _, w := range []string{"cluster", "spectral", "kernel"} {
		if IsStopWord(w) {
			t.Errorf("%q must not be a stop word", w)
		}
	}
}

func TestClean(t *testing.T) {
	got := Clean("<p>The clusters are clustering beautifully in the matrices</p>")
	// Stop words gone, stems applied.
	joined := strings.Join(got, " ")
	if strings.Contains(joined, "the") || strings.Contains(joined, "are") {
		t.Fatalf("stop words leaked: %v", got)
	}
	var hasClusterStem bool
	for _, tok := range got {
		if tok == "cluster" {
			hasClusterStem = true
		}
	}
	if !hasClusterStem {
		t.Fatalf("expected stem 'cluster' in %v", got)
	}
}

func TestFitVectorizerValidation(t *testing.T) {
	if _, err := FitVectorizer(nil, 5); err == nil {
		t.Fatal("expected error for empty corpus")
	}
	if _, err := FitVectorizer([][]string{{"a"}}, 0); err == nil {
		t.Fatal("expected error for f=0")
	}
	if _, err := FitVectorizer([][]string{{}, {}}, 3); err == nil {
		t.Fatal("expected error for corpus without terms")
	}
}

func TestVectorizerSelectsDiscriminativeTerms(t *testing.T) {
	docs := [][]string{
		{"apple", "apple", "apple", "common"},
		{"apple", "apple", "common"},
		{"banana", "banana", "banana", "common"},
		{"banana", "banana", "common"},
	}
	v, err := FitVectorizer(docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	terms := strings.Join(v.Terms, " ")
	if !strings.Contains(terms, "apple") || !strings.Contains(terms, "banana") {
		t.Fatalf("top terms = %v, want apple and banana", v.Terms)
	}
}

func TestVectorizerTransform(t *testing.T) {
	docs := [][]string{
		{"apple", "apple"},
		{"banana"},
		{"kiwi"}, // out-of-vocabulary only
	}
	v, err := FitVectorizer(docs[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	m := v.Transform(docs)
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	// Rows with vocabulary hits are unit length.
	if math.Abs(matrix.Norm2(m.Row(0))-1) > 1e-12 {
		t.Fatalf("row 0 norm = %v", matrix.Norm2(m.Row(0)))
	}
	// OOV row is zero.
	if matrix.Norm2(m.Row(2)) != 0 {
		t.Fatal("OOV document must map to zero vector")
	}
	// Same-class docs are closer than cross-class.
	d01 := matrix.Dist(m.Row(0), m.Row(1))
	if d01 < 1 {
		t.Fatalf("apple and banana docs should be orthogonal-ish, dist=%v", d01)
	}
}

func TestWeightingString(t *testing.T) {
	if StandardTFIDF.String() != "standard" || SublinearTFIDF.String() != "sublinear" ||
		SmoothTFIDF.String() != "smooth" || Weighting(9).String() != "Weighting(?)" {
		t.Fatal("weighting names changed")
	}
}

func TestSublinearDampensRepeats(t *testing.T) {
	docs := [][]string{
		{"spam", "spam", "spam", "spam", "spam", "spam", "ham"},
		{"eggs"},
	}
	std, err := FitVectorizerScheme(docs, 3, StandardTFIDF)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := FitVectorizerScheme(docs, 3, SublinearTFIDF)
	if err != nil {
		t.Fatal(err)
	}
	mStd := std.Transform(docs)
	mSub := sub.Transform(docs)
	idxOf := func(v *Vectorizer, term string) int {
		for i, t := range v.Terms {
			if t == term {
				return i
			}
		}
		t.Fatalf("term %q not kept", term)
		return -1
	}
	// Relative dominance of "spam" over "ham" in doc 0 must shrink
	// under sublinear weighting.
	ratioStd := mStd.At(0, idxOf(std, "spam")) / mStd.At(0, idxOf(std, "ham"))
	ratioSub := mSub.At(0, idxOf(sub, "spam")) / mSub.At(0, idxOf(sub, "ham"))
	if ratioSub >= ratioStd {
		t.Fatalf("sublinear did not dampen: %v vs %v", ratioSub, ratioStd)
	}
}

func TestSmoothIDFKeepsUbiquitousTerms(t *testing.T) {
	docs := [][]string{
		{"common", "alpha"},
		{"common", "beta"},
	}
	v, err := FitVectorizerScheme(docs, 3, SmoothTFIDF)
	if err != nil {
		t.Fatal(err)
	}
	m := v.Transform(docs)
	// "common" appears in every doc; smooth idf must give it real
	// weight rather than the epsilon of the standard scheme.
	for i, term := range v.Terms {
		if term == "common" {
			if m.At(0, i) <= 0.01 {
				t.Fatalf("smooth idf weight for ubiquitous term = %v", m.At(0, i))
			}
			return
		}
	}
	t.Fatal("common term not kept under smooth idf")
}

func TestVectorizerClampsF(t *testing.T) {
	docs := [][]string{{"one", "two"}}
	v, err := FitVectorizer(docs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Terms) != 2 {
		t.Fatalf("terms = %v", v.Terms)
	}
}

// TestStripHTMLNonASCIICase pins tag matching to s's own bytes: a rune
// whose lower case has a different UTF-8 length must neither shift the
// script/style match nor push an index past the end.
func TestStripHTMLNonASCIICase(t *testing.T) {
	// Three Kelvin signs (U+212A, 3 bytes) lower-case to 1-byte "k".
	if got := Clean("\u212a\u212a\u212a<p>hello</p>"); len(got) != 2 || got[1] != "hello" {
		t.Errorf("Clean(Kelvin signs) = %q", got)
	}
	// U+0130 (2 bytes) lower-cases to 1-byte "i".
	for in, want := range map[string]string{
		"x<script>var x</script>kept":      "x  kept",
		"\u0130<script>var x</script>kept": "\u0130  kept",
		"<SCRIPT>var x</Script>kept":       "  kept",
		"<StYlE>p{}</STYLE>kept":           "  kept",
		"<scr\u0130pt>shown</script>kept":  " shown kept",
		"\u212a<script>var x</script>kept": "\u212a  kept",
	} {
		if got := StripHTML(in); got != want {
			t.Errorf("StripHTML(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCleanerMemoPinsNoDocument checks the memo keeps copies of its
// tokens: a key that was a substring of a document's lowered copy would
// keep that whole copy alive for as long as the Cleaner lives.
func TestCleanerMemoPinsNoDocument(t *testing.T) {
	var c Cleaner
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// A 4 MiB document whose only kept token is its first word.
	if got := c.Clean("zebras " + strings.Repeat("the ", 1<<20)); len(got) != 1 {
		t.Fatalf("Clean kept %q", got)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(&c)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Fatalf("live heap grew %d bytes while the Cleaner holds one stem", grown)
	}
}

// FuzzClean checks Clean never panics and that one Cleaner reused
// across inputs returns what a fresh Clean does. The previous input's
// tokens are re-checked after each call, so a memo entry that aliased
// or pinned an earlier document would show as a changed result.
func FuzzClean(f *testing.F) {
	for _, seed := range []string{
		"\u212a\u212a\u212a<p>hello</p>",
		"\u0130<script>var x</script>kept",
		"<SCRIPT>var x</sCrIpT><StYle>p{}</STYLE>Running clusters",
		"<p>unclosed <b tag",
		"<script>never closed",
		"<style>a{}</style><p>the matrices are clustering</p>",
		"<p>The clusters are clustering beautifully in the matrices</p>",
		"<p>clustering clusters go running</p>",
	} {
		f.Add(seed)
	}
	var (
		c              Cleaner
		prevGot, prevW []string
	)
	f.Fuzz(func(t *testing.T, html string) {
		got := c.Clean(html)
		want := Clean(html)
		if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
			t.Fatalf("Cleaner.Clean(%q) = %q, Clean = %q", html, got, want)
		}
		if strings.Join(prevGot, "\x00") != strings.Join(prevW, "\x00") {
			t.Fatalf("earlier tokens changed to %q, want %q", prevGot, prevW)
		}
		prevGot, prevW = got, want
	})
}
