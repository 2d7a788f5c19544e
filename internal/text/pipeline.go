package text

import (
	"strings"
	"unicode"
)

// StripHTML removes tags and script/style bodies from an HTML fragment,
// returning the raw text with tags replaced by spaces (step (i) of the
// paper's cleaning pipeline). Tag names match case-insensitively in
// ASCII, as HTML defines them, directly on s's bytes.
func StripHTML(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	inTag := false
	var skipUntil string // closing tag that ends a skipped element
	i := 0
	for i < len(s) {
		c := s[i]
		if !inTag && c == '<' {
			if skipUntil == "" {
				for _, elem := range []string{"script", "style"} {
					if hasPrefixFold(s[i:], "<"+elem) {
						skipUntil = "</" + elem
						break
					}
				}
			} else if hasPrefixFold(s[i:], skipUntil) {
				skipUntil = ""
			}
			inTag = true
			i++
			continue
		}
		if inTag {
			if c == '>' {
				inTag = false
				sb.WriteByte(' ')
			}
			i++
			continue
		}
		if skipUntil != "" {
			i++
			continue
		}
		sb.WriteByte(c)
		i++
	}
	return sb.String()
}

// hasPrefixFold reports whether s begins with prefix, ignoring ASCII
// case. prefix must be lower-case ASCII; a non-ASCII byte in s never
// matches it.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// Tokenize lower-cases the text and splits it on any non-letter rune,
// covering steps (ii) and (iii): case folding and punctuation removal.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r)
	})
}

// stopWords is a compact English stop-word list concatenated, as the
// paper describes, from the common lists used by search engines.
var stopWords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`
a about above after again against all am an and any are aren as at be
because been before being below between both but by can cannot could
couldn did didn do does doesn doing don down during each few for from
further had hadn has hasn have haven having he her here hers herself him
himself his how i if in into is isn it its itself let me more most mustn
my myself no nor not of off on once only or other ought our ours
ourselves out over own same shan she should shouldn so some such than
that the their theirs them themselves then there these they this those
through to too under until up very was wasn we were weren what when
where which while who whom why with won would wouldn you your yours
yourself yourselves`) {
		stopWords[w] = true
	}
}

// IsStopWord reports whether the lower-case token is on the stop list.
func IsStopWord(w string) bool { return stopWords[w] }

// Clean runs the full pipeline on raw HTML: strip tags, tokenize,
// drop stop words and single-letter tokens, and stem what remains. It
// is the one-shot form of Cleaner.Clean; to clean many documents, reuse
// one Cleaner so each distinct token is stemmed once.
func Clean(html string) []string {
	var c Cleaner
	return c.Clean(html)
}

// Cleaner runs the Clean pipeline with a memo from raw token to Porter
// stem. A corpus repeats a small vocabulary across its documents, so a
// Cleaner reused over them stems each distinct token once. The memo
// holds only copies of tokens, never substrings of a document, so it
// pins no input; it grows with the distinct tokens seen and is freed
// with the Cleaner. The zero value is ready to use.
//
// A Cleaner is not safe for concurrent use; give each goroutine its own.
type Cleaner struct {
	stems map[string]string
}

// Clean is the package-level Clean, memoizing stems in c.
func (c *Cleaner) Clean(html string) []string {
	if c.stems == nil {
		c.stems = map[string]string{}
	}
	toks := Tokenize(StripHTML(html))
	out := toks[:0]
	for _, t := range toks {
		if len(t) < 2 || IsStopWord(t) {
			continue
		}
		stem, ok := c.stems[t]
		if !ok {
			// t is a substring of the document's lowered copy: key the
			// memo by a clone, and stem the clone, since PorterStem
			// returns short words as given.
			t = strings.Clone(t)
			stem = PorterStem(t)
			c.stems[t] = stem
		}
		out = append(out, stem)
	}
	return out
}
