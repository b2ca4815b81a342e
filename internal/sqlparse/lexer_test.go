package sqlparse

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// lexAll tokenizes the whole input, failing on the first lexer error: the
// token list the parser once read, kept as the reference the streaming
// parser is held to.
func lexAll(src string) ([]token, error) {
	lx := &lexer{src: src}
	var out []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

// TestKeywordMatchesUpperRule holds keyword's stack-buffer lookup to the
// rule it replaces, strings.ToUpper and a map lookup: every keyword in
// random letter case and its near misses, ASCII words around the buffer's
// eight bytes, random identifiers, and words whose non-ASCII letters fold
// into a keyword.
func TestKeywordMatchesUpperRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mixCase := func(kw string) string { // keywords are upper-case letters
		b := []byte(kw)
		for i := range b {
			if rng.Intn(2) == 0 {
				b[i] += 'a' - 'A'
			}
		}
		return string(b)
	}
	var words []string
	for kw := range keywords {
		words = append(words, kw, strings.ToLower(kw), kw+"s", "x"+kw, kw[1:], kw+"_1")
		for i := 0; i < 8; i++ {
			words = append(words, mixCase(kw))
		}
	}
	words = append(words, "", "_", "abcdefgh", "abcdefghi", "DISTINCTS", "distinct_", "Integers", "varchar2")
	const identChars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
	for i := 0; i < 5000; i++ {
		b := make([]byte, 1+rng.Intn(12))
		for j := range b {
			b[j] = identChars[rng.Intn(len(identChars))]
		}
		words = append(words, string(b))
	}
	// ſ upper-cases to S and ı to I: these spell keywords, some in more
	// bytes than the buffer holds.
	words = append(words, "ſelect", "diſtinct", "DIſTINCT", "ınt", "ınteger", "lıke", "ſum",
		"cafés", "é", "selectſ", "ſſſſſſſſſ")

	reference := func(w string) (string, bool) {
		upper := strings.ToUpper(w)
		_, ok := keywords[upper]
		if !ok {
			upper = ""
		}
		return upper, ok
	}
	for _, w := range words {
		got, gotOK := keyword(w)
		want, wantOK := reference(w)
		if got != want || gotOK != wantOK {
			t.Errorf("keyword(%q) = %q, %v; strings.ToUpper says %q, %v", w, got, gotOK, want, wantOK)
		}
	}
}

// errPos reads the line and column off a positioned error, "sql:L:C: ...".
func errPos(t *testing.T, err error) [2]int {
	t.Helper()
	var line, col int
	if _, scanErr := fmt.Sscanf(err.Error(), "sql:%d:%d:", &line, &col); scanErr != nil {
		t.Fatalf("error %q carries no position", err)
	}
	return [2]int{line, col}
}

// readFuzzCorpus returns the committed FuzzParseRenderParse inputs.
func readFuzzCorpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseRenderParse", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	var out []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(data), "go test fuzz v1\n"))
		sql, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, sql)
	}
	return out
}

// TestStreamingParseRefusesWhatLexAllRefuses: the parser reads only as far
// as it gets, so a text the lexer refuses must still be refused, at the
// lexer's error or at a syntax error before it, and with the lexer's own
// message when the two are at one place. Inputs: random bytes, the
// committed fuzz corpus, and each corpus statement with a character the
// lexer lacks (or an opening quote) put in at random places.
func TestStreamingParseRefusesWhatLexAllRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var inputs []string
	for i := 0; i < 3000; i++ {
		b := make([]byte, rng.Intn(64))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		inputs = append(inputs, string(b))
	}
	const spoilers = "#\"'?:[\xbf"
	for _, sql := range readFuzzCorpus(t) {
		inputs = append(inputs, sql)
		for i := 0; i < 20; i++ {
			at := rng.Intn(len(sql) + 1)
			inputs = append(inputs, sql[:at]+string(spoilers[rng.Intn(len(spoilers))])+sql[at:])
		}
	}
	refused := 0
	for _, in := range inputs {
		_, lexErr := lexAll(in)
		if lexErr == nil {
			continue
		}
		refused++
		want := errPos(t, lexErr)
		for name, parse := range map[string]func(string) error{
			"Parse":       func(s string) error { _, err := Parse(s); return err },
			"ParseScript": func(s string) error { _, err := ParseScript(s); return err },
		} {
			err := parse(in)
			if err == nil {
				t.Fatalf("%s(%q) succeeds; the lexer says %v", name, in, lexErr)
			}
			got := errPos(t, err)
			if got[0] > want[0] || got[0] == want[0] && got[1] > want[1] {
				t.Fatalf("%s(%q) fails at %v, past the lexer's error %v", name, in, err, lexErr)
			}
			if got == want && err.Error() != lexErr.Error() {
				t.Fatalf("%s(%q) = %v at the lexer's place; want its message %v", name, in, err, lexErr)
			}
		}
	}
	if refused < 1000 {
		t.Fatalf("only %d of %d inputs were refused by the lexer", refused, len(inputs))
	}
}
